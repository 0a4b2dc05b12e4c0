"""Local spine exploration: neighbors, exact BFS distances, fold paths.

The neighbours of a natural marked graph are listed with no equivalence
work (`neighbors`), and `bfs_distance` grows balls of spine vertices in
`marked.VertexSet`s.

A spine path stores self-contained adjacency certificates: each step keeps
a natural forest f, in the edge ids of its upper vertex U, with U/f
equivalent to the lower one. verify() recomputes every certificate from
scratch by `marked.collapse_matches`, which builds no collapsed graph; a
failure raises `PathCertificateError` (exit 3). fold_path drives the
folding engine (`folding.Folder`) one fold at a time; the engine chooses
each fold, and this module builds the partially folded star graph with its
two hull certificates and rewrites the marking.
"""

from dataclasses import dataclass, field

from . import graphs
from .folding import Folder
from .words import substitute
from .marked import (CertificateError, MarkedGraph, VertexSet,
                     collapse_matches, equivalent)
from .covers import realizes


class SpineError(ValueError):
    pass


class PathCertificateError(SpineError, CertificateError):
    """A spine path's certificate failed: its construction is at fault."""


def collapse_neighbors(G):
    forests = graphs.enumerate_natural_subforests(G.graph, include_empty=False)
    return [G.collapse_marked(forest)[0] for forest in forests]


def blowup_neighbors(G):
    g = G.graph
    return [G.blowup_marked(v, part1, part2)[0] for v in sorted(g.vertices)
            for part1, part2 in graphs.vertex_direction_bipartitions(g, v)]


def neighbors(G):
    """The collapses of G's natural representative by every nonempty
    forest, in forest order, then its one-edge blow-ups.

    No two are the same spine vertex. The vertices below [G] form the
    poset of forests of G (Culler-Vogtmann 1986), so distinct forests give
    distinct collapses. Distinct ideal edges e1, e2 give distinct blow-ups
    H1, H2: a marked isomorphism H1 -> H2 over G must send e1 to the one
    edge of H2 whose collapse is G, which is e2, and then induce the
    identity of G, so e1 and e2 split the same directions. A collapse has
    fewer edges than G and a blow-up one more.

    Blow-ups along forests of two or more edges are left out, so from
    rank 3 on H can be a neighbour of G without G being one of H.
    """
    G = G.natural_marked()
    return collapse_neighbors(G) + blowup_neighbors(G)


def bfs_distance(G1, G2, cap):
    """The length of a shortest path from [G1] to [G2] along `neighbors`
    if at most cap, else None; SpineError if the ranks differ. In rank 2,
    where no forest or ideal forest has two edges, `neighbors` is
    symmetric and this is the spine's 1-skeleton distance.

    Each step adds a whole layer to one ball, a `marked.VertexSet`: in
    rank 2 to the ball around either end with the smaller frontier (Pohl
    1971); from rank 3 on, where `neighbors` is not symmetric, always to
    G1's. The balls of radii r1, r2 are disjoint before a layer, so the
    distance is at least r1 + r2 + 1, and a new vertex in the other ball
    attains it. Disjoint balls with r1 + r2 = cap put the distance above
    cap; a layer that adds nothing closes its ball without meeting the
    other.
    """
    if G1.rank != G2.rank:
        raise SpineError("rank mismatch: %d vs %d" % (G1.rank, G2.rank))
    if cap < 0:
        return None
    ends = [G1.natural_marked(), G2.natural_marked()]
    seen = [VertexSet([G]) for G in ends]
    if ends[1] in seen[0]:
        return 0
    frontiers = [[G] for G in ends]
    radii = [0, 0]
    both_ends = G1.rank <= 2
    while radii[0] + radii[1] < cap:
        s = 1 if both_ends and len(frontiers[1]) < len(frontiers[0]) else 0
        mine, other = seen[s], seen[1 - s]
        nxt = []
        for g in frontiers[s]:
            for h in neighbors(g):
                if h in other:
                    return radii[0] + radii[1] + 1
                if mine.add(h):
                    nxt.append(h)
        if not nxt:
            return None
        frontiers[s] = nxt
        radii[s] += 1
    return None


@dataclass
class SpineStep:
    kind: str        # "down": upper = vertices[i]; "up": upper = vertices[i+1]
    forest: frozenset  # in the upper vertex's edge ids


@dataclass
class SpinePath:
    vertices: list
    steps: list
    guarded: bool = False
    guard_report: str = ""
    realize_flags: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def verify(self):
        """Check that every vertex of rank >= 2 is natural (rank 1 has only
        the one-loop circle), and every step's certificate from scratch:
        the upper vertex with the step's forest collapsed, naturalized, is
        equivalent to the lower one (`marked.collapse_matches`). The ends
        are not checked here; `fold_path` checks that its path ends at G2.
        """
        if len(self.vertices) != len(self.steps) + 1:
            raise PathCertificateError("malformed path")
        for i, vtx in enumerate(self.vertices):
            if vtx.rank > 1 and not vtx.graph.is_natural():
                raise PathCertificateError("vertex %d is not natural" % i)
        for i, st in enumerate(self.steps):
            a, b = self.vertices[i], self.vertices[i + 1]
            upper, lower = (a, b) if st.kind == "down" else (b, a)
            if not collapse_matches(upper, st.forest, lower):
                raise PathCertificateError(
                    "certificate %d: collapse mismatch" % i)
        return True


def _rewrite(marking, ends, repl):
    """Replace the edges in repl by their paths along every marking path."""
    image = {e: (e,) for e in ends} | repl
    return [substitute(p, image)[0] for p in marking]


def _tree_collapse_to_rose(G):
    """Collapse a spanning tree; returns (rose, forest), or (G, None) when G
    has one vertex. A rose is its own natural representative."""
    if len(G.graph.vertices) == 1:
        return G, None
    _, tree = graphs.union_find((eid, o, t) for eid, (o, t)
                                in sorted(G.graph.edges.items()))
    return G.collapse_marked(tree)[0], frozenset(tree)


def _hulls(star, *forests):
    """star's normalization and, for each forest, the natural edges of the
    normalization lying entirely in that forest."""
    nat, chains = star.naturalize(keep_base=False)
    return nat, [graphs.chain_hull(chains, forest) for forest in forests]


def fold_path(G1, G2, F=None):
    """A certificate-valid spine path from [G1] to [G2] via Stallings folds.

    Each fold contributes at most two spine edges, through the partially
    folded intermediate. The steps are recorded unchecked, each forest in
    its upper vertex's edge ids: a fold with no up step carries its down
    step's forest from its star to the vertex before it, which the star
    equals ("representative mismatch" if not). The last fold vertex must
    be equivalent to G2's rose, and verify() then checks every step's
    certificate once, so a returned path is certified and a failed check
    raises PathCertificateError. The subdivided rose and the folded graphs
    between steps are not path vertices and need no check of their own.
    With F, every path vertex is checked against realizes(., F); if the
    endpoints are not in petal-compatible rose position the guarantee is
    dropped and reported.

    Valid ends reach neither "petal image collapsed" nor "rank-dropping
    fold": the map rose1 -> rose2 that the petal images spell is a
    pi_1-isomorphism (the change of marking), so no petal image is
    trivial, and its subdivided rose folds onto rose2 without a fold that
    drops rank, which is one identifying two edges with the same ends
    (Stallings 1983). Both are PathCertificateError (exit 3).
    """
    if G1.rank != G2.rank:
        raise SpineError("rank mismatch: %d vs %d" % (G1.rank, G2.rank))
    G1 = G1.natural_marked()
    G2 = G2.natural_marked()
    vertices = [G1]
    steps = []

    guarded = F is not None
    guard_report = ""

    rose1, tree1 = _tree_collapse_to_rose(G1)
    if tree1 is not None:
        vertices.append(rose1)
        steps.append(SpineStep("down", tree1))
    rose2, tree2 = _tree_collapse_to_rose(G2)
    if guarded and (tree1 is not None or tree2 is not None):
        guarded = False
        guard_report = "endpoints not in rose position; F-guarantee dropped"

    vals = rose1.inverse_marking_values()
    images = {}
    for eid in sorted(rose1.graph.edges):
        path = rose2.expand(vals[eid])
        if not path:
            raise PathCertificateError("petal image collapsed; markings "
                                       "incompatible")
        images[eid] = path
    # Conjugating every image by one letter changes the map rose1 -> rose2
    # by a free homotopy only, so the folds still end at [rose2]. Strip the
    # x ... x^-1 that all images share, until the base directions, labelled
    # by the images' first letters and their last letters inverted, carry
    # at least two labels. A fold identifies two directions of one label,
    # and the vertices it merges pool their directions, so no vertex loses
    # a label: the base keeps two, and valence >= 2, to the last fold. With
    # one label the folds at the base would leave it at valence 1 on a
    # tail, and the graphs below would not be spine vertices. A reduced
    # closed path x ... x^-1 has at least three letters, so no image
    # becomes empty.
    while len({d for p in images.values() for d in (p[0], -p[-1])}) == 1:
        images = {eid: p[1:-1] for eid, p in images.items()}

    # subdivide each petal of rose1 along its image, which maps the graph
    # edge by edge onto rose2; the folding engine labels each edge by the
    # rose2 direction it maps to
    fo = Folder()
    chains = {eid: fo.add_loop(path) for eid, path in images.items()}
    marking = [substitute(p, chains)[0] for p in rose1.marking]
    base = fo.base.id
    m, eta = fo.next_vertex, fo.next_edge  # ids of each fold's extra cells

    ends = fo.edge_ends()
    while (fold := fo.next_fold()) is not None:
        v, d1, d2 = fold
        e1, e2 = abs(d1), abs(d2)
        h1, h2 = ends[e1][d1 > 0], ends[e2][d2 > 0]
        if h1 == h2:
            raise PathCertificateError("rank-dropping fold; map is not a"
                                       " marking preserving homotopy"
                                       " equivalence")
        # the partially folded graph: d1 and d2 become eta = (v, m)
        # followed by r1 = (m, h1) and r2 = (m, h2)
        r1, r2 = eta + 1, eta + 2
        star_ends = dict(ends)
        del star_ends[e1], star_ends[e2]
        star_ends.update({eta: (v, m), r1: (m, h1), r2: (m, h2)})
        star = MarkedGraph._derived(
            graphs.CoreGraph._derived([*fo.vertices, m], star_ends), base,
            _rewrite(marking, ends, {
                e1: (eta, r1) if d1 > 0 else (-r1, -eta),
                e2: (eta, r2) if d2 > 0 else (-r2, -eta)}))
        nat_star, (hull_eta, hull_rs0) = _hulls(star, {eta}, {r1, r2})
        m, eta = m + 1, eta + 3

        fo.fold(d1, d2)
        marking = _rewrite(marking, ends,
                           {e2: (e1,) if (d1 > 0) == (d2 > 0) else (-e1,)})
        ends = fo.edge_ends()
        if hull_eta:
            vertices.append(nat_star)
            steps.append(SpineStep("up", hull_eta))
        if hull_rs0:
            nat_after = MarkedGraph._derived(graphs.CoreGraph._derived(
                list(fo.vertices), ends), base, marking).natural_marked()
            if equivalent(nat_after, vertices[-1]) is None:
                if not hull_eta:  # carry the forest to the vertex before
                    got = equivalent(nat_star, vertices[-1])
                    if got is None:
                        raise PathCertificateError(
                            "certificate %d: representative mismatch"
                            % len(steps))
                    hull_rs0 = frozenset(abs(got[1][e]) for e in hull_rs0)
                vertices.append(nat_after)
                steps.append(SpineStep("down", hull_rs0))

    if equivalent(vertices[-1], rose2) is None:
        raise PathCertificateError("fold terminus does not match the"
                                   " target rose")
    if tree2 is not None:
        vertices.append(G2)
        steps.append(SpineStep("up", tree2))
    path = SpinePath(vertices, steps, guarded=guarded,
                     guard_report=guard_report)
    path.verify()
    if guarded:
        path.realize_flags = [realizes(vtx, F) is not None for vtx in vertices]
    return path
