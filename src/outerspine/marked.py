"""Marked graphs: spine vertices, the right Out(F_n)-action, equivalence.

A marking is stored based: one closed reduced edge path per basis letter,
all at the basepoint. The same class serves the pointed theory of
retract_aut; pointedness is chosen by the caller, not stored. Spine-vertex
equality (`equivalent`) quantifies over a free-homotopy conjugator, so the
basepoint carries no meaning there; pointed equality (`pointed_equivalent`)
and `naturalize(keep_base=True)` keep it.

Neither equality searches graph isomorphisms. Marking paths cross every
edge, so two markings read in lockstep from a pair of base vertices fix
the only isomorphism that could carry one onto the other (`match_paths`).
Pointed equality is that walk from the two basepoints; spine-vertex
equality takes it first, and only if it fails walks from the centres
(`_centre`), which any isomorphism of marked graphs maps onto each other.
`canonical_key` is spine-vertex equality as one hashable value.
`collapse_matches` compares a forest collapse with a marked graph by the
based walk read through the collapse's vertex map, building no collapse.

Sets of spine vertices (`VertexSet`) bucket them by `circuit_lengths`, an
exact invariant that costs one pass over the marking, and compare within a
bucket: its first vertex against a newcomer by `equivalent`, and only once
two distinct vertices share the bucket by `canonical_key`.

Checks: `MarkedGraph` and the `textio` parsers check every marking, down to
`check_generates`; a marked graph derived from valid ones (the operations
below, the retractions, fold paths) is built unchecked by `_derived`.
"""

from . import folding, graphs
from .words import (ReducedWord, canonical_rotation, conjugate_letters,
                    cyclic_core, invert_letters, reduce_letters, substitute)
from .graphs import map_path


class MarkingError(ValueError):
    pass


class CertificateError(ValueError):
    """A certificate of the paper's mathematics failed on valid input: the
    program, not the input, is at fault (the CLI's exit 3)."""


class MarkedGraph:
    def __init__(self, graph, basepoint, marking):
        self._fill(graph, basepoint, marking)
        if basepoint not in graph.vertices:
            raise MarkingError("basepoint not a vertex")
        if len(self.marking) != self.rank:
            raise MarkingError("need %d marking paths" % self.rank)
        for p in self.marking:
            end = graph.check_path(p, basepoint)
            if end != basepoint:
                raise MarkingError("marking path not closed at basepoint")
            if not graph.path_is_reduced(p):
                raise MarkingError("marking path not reduced")
        self.check_generates()

    @classmethod
    def _derived(cls, graph, basepoint, marking):
        """The marked graph with no check, for one derived from a valid one."""
        G = object.__new__(cls)
        G._fill(graph, basepoint, marking)
        return G

    def _fill(self, graph, basepoint, marking):
        self.graph = graph
        self.basepoint = basepoint
        self.marking = tuple(map(tuple, marking))
        self._images = ((),) + self.marking  # basis letter i -> marking[i - 1]
        self.rank = graph.rank
        self._values = self._centre_points = self._lengths = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def rose_identity(n):
        return MarkedGraph._derived(graphs.rose(n), 0,
                                    tuple((i,) for i in range(1, n + 1)))

    # -- marking as an identification of pi_1 with F_n ----------------------

    def check_generates(self):
        """The marking images must generate pi_1: folding them over the edge
        alphabet has to reproduce the graph itself, base at basepoint
        (`folding.fold_onto`). The plain fold decides it, more cheaply than
        a history fold. A rank-dropping (relation) fold can hold every edge
        once, but on more vertices than the graph."""
        self._fold_onto(False)
        return True

    def _fold_onto(self, track_history):
        """`folding.fold_onto` of the marking; raises MarkingError when the
        fold is no copy of the graph based at the basepoint."""
        vals = folding.fold_onto(self.marking, self.graph, self.basepoint,
                                 track_history)
        if vals is None:
            raise MarkingError("marking images do not generate pi_1")
        return vals

    def inverse_marking_values(self):
        """Per-edge transfer words: closed paths at the basepoint map to their
        exact F_n elements. Cached."""
        if self._values is None:
            self._values = self._fold_onto(True)
        return self._values

    def spanning_paths(self):
        """BFS tree paths from the basepoint to every vertex."""
        paths = {self.basepoint: ()}
        frontier = [self.basepoint]
        while frontier:
            nxt = []
            for v in frontier:
                for d in self.graph.directions(v):
                    h = self.graph.head(d)
                    if h not in paths:
                        paths[h] = paths[v] + (d,)
                        nxt.append(h)
            frontier = nxt
        return paths

    def path_to_word(self, path, at_vertex=None):
        """F_n element of a closed path (rebased to the basepoint if needed)."""
        if at_vertex is not None and at_vertex != self.basepoint:
            k = self.spanning_paths()[at_vertex]
            path = k + tuple(path) + invert_letters(k)
        red, _ = substitute(path, self.inverse_marking_values())
        return ReducedWord._derived(red, self.rank)

    # -- operations ---------------------------------------------------------

    def expand(self, letters):
        """Edge path of a word, read through the marking (closed at base)."""
        return substitute(letters, self._images)[0]

    def act(self, phi):
        """Right action: new marking sends a_i to the expansion of phi(a_i)."""
        endo = getattr(phi, "endo", phi)
        if endo.rank != self.rank:
            raise MarkingError("rank mismatch")
        marking = tuple([self.expand(im.letters) for im in endo.images])
        return MarkedGraph._derived(self.graph, self.basepoint, marking)

    def circuit_of(self, c):
        """Cyclically reduced circuit representing a conjugacy class."""
        if not c.letters:
            raise MarkingError("trivial class has no circuit")
        return canonical_rotation(cyclic_core(self.expand(c.letters))[1])

    def collapse_marked(self, forest):
        """Collapse a forest; returns (marked graph, vertex_map). Each marking
        path loses its forest edges, and stays reduced: a cancelling pair
        x, -x left by the erasure would enclose a closed reduced path in
        the forest, and a forest has none."""
        target, vertex_map = graphs.collapse(self.graph, forest)
        forest = frozenset(forest)
        marking = [tuple([d for d in p if abs(d) not in forest])
                   for p in self.marking]
        return (MarkedGraph._derived(target, vertex_map[self.basepoint],
                                     marking), vertex_map)

    def rebase(self, new_base):
        if new_base == self.basepoint:
            return self
        k = self.spanning_paths()[new_base]
        marking = [conjugate_letters(p, k) for p in self.marking]
        return MarkedGraph._derived(self.graph, new_base, marking)

    def naturalize(self, keep_base):
        """Merge valence-2 vertices away; returns (marked graph, chains),
        where chains maps each new edge to its chain of old directed edges.

        With keep_base the basepoint survives even at valence 2 (the pointed
        normal form). Without it a valence-2 basepoint first moves to the
        least vertex of valence >= 3, so the result is natural; a rank-1
        graph keeps its one-loop form. A basepoint of valence < 2 (on a
        tail) raises MarkingError: no merging makes such a graph natural.

        The marking lifts letter by letter: each chain's first edge reads as
        its new edge (never 0), signed as the chain runs it, and every other
        chain edge as nothing. A reduced path between kept vertices cannot
        turn back at a valence-2 vertex, so it runs each chain it enters
        whole, either way, and reads its new edge once; nothing cancels.
        """
        g = self.graph
        valence = g.valence(self.basepoint)
        if valence < 2:
            raise MarkingError("basepoint %r has valence %d"
                               % (self.basepoint, valence))
        me = self
        if not keep_base:
            if self.rank == 1:
                return self, {eid: (eid,) for eid in g.edges}
            if valence == 2:
                me = self.rebase(min(v for v in g.vertices if g.valence(v) >= 3))
        if all(len(ds) >= 3 or v == me.basepoint for v, ds in g._out.items()):
            return me, {eid: (eid,) for eid in g.edges}
        new_g, chains = graphs.natural_structure(g, protected=(me.basepoint,))
        lift = {s * chain[0]: s * ne for ne, chain in chains.items()
                for s in (1, -1)}
        marking = [tuple(filter(None, map(lift.get, p))) for p in me.marking]
        return MarkedGraph._derived(new_g, me.basepoint, marking), chains

    def natural_marked(self):
        """The natural representative of this spine vertex: this graph
        itself if it is natural, as `naturalize` would return it."""
        if self.graph.is_natural():
            return self
        return self.naturalize(keep_base=False)[0]

    def blowup_marked(self, v, part1, part2):
        """Blow up a vertex along a direction bipartition, lifting the
        marking; returns (marked graph, new edge id, (v1, v2)) as
        `graphs.blow_up` does.

        There v1 = v, so the basepoint stays. With e the new edge,
        `substitute` reads each old edge x as (e if +x is in part2) x (e^-1
        if -x is in part2), which starts and ends at v1 wherever x met v. A
        pass through v from part1 to part2 reads e, from part2 to part1
        e^-1, and one inside part2 e^-1 e, which the free reduction removes.
        """
        g2, new_eid, ends = graphs.blow_up(self.graph, v, part1, part2)
        image = {x: (x,) for x in self.graph.edges}
        for d in part2:
            image[abs(d)] = ((new_eid,) + image[d] if d > 0
                             else image[-d] + (-new_eid,))
        marking = [substitute(p, image)[0] for p in self.marking]
        return (MarkedGraph._derived(g2, self.basepoint, marking), new_eid,
                ends)


def match_paths(ends1, v1, paths1, ends2, v2, paths2):
    """The isomorphism g1 -> g2 (given by their `CoreGraph.edges`) taking v1
    to v2 and each path of paths1 onto the matching path of paths2, as
    (vertex_map, edge_map), or None.

    The paths, closed at v1 and v2, are read in lockstep: each pair of
    directed edges fixes one signed edge image and one head image, and the
    first clash of length, sign, head or edge injectivity ends the walk.
    Marking paths cross every edge, so the walk fixes the whole map, and an
    incidence-preserving edge bijection between graphs of one rank (one
    marking path per basis letter) is an isomorphism. edge_map sends each
    g1 edge to a signed g2 edge (+ means origin to origin), as `map_path`
    reads it.
    """
    if len(paths1) != len(paths2):
        return None
    vmap, emap, einv = {v1: v2}, {}, {}
    for p, q in zip(paths1, paths2):
        if len(p) != len(q):
            return None
        for d1, d2 in zip(p, q):
            e1, e2, s = abs(d1), abs(d2), (d2 if d1 > 0 else -d2)
            h1, h2 = ends1[e1][d1 > 0], ends2[e2][d2 > 0]
            if (emap.setdefault(e1, s) != s
                    or einv.setdefault(e2, e1) != e1
                    or vmap.setdefault(h1, h2) != h2):
                return None
    if len(emap) != len(ends1):
        raise MarkingError("marking paths miss an edge")
    return (vmap, emap) if len(einv) == len(ends2) else None


def pointed_equivalent(x1, x2):
    """Exact pointed equality: the base-preserving isomorphism matching every
    marking path on the nose, as (vertex_map, edge_map), or None. The walk
    of `match_paths` from the two basepoints finds it or rules it out."""
    return match_paths(x1.graph.edges, x1.basepoint, x1.marking,
                       x2.graph.edges, x2.basepoint, x2.marking)


def equivalent(G1, G2):
    """Exact spine-vertex equality. Returns a witness (vertex_map, edge_map,
    g) or None: a graph isomorphism h and g in F_n with g^-1 u_i g = a_i,
    where u_i reads h(p_i), rebased at G2's basepoint, through G2's marking.

    The based walk (`pointed_equivalent`) comes first. An isomorphism h that
    takes basepoint to basepoint and each marking path onto the matching
    one reads u_i = a_i, so it is a marked equivalence with g = 1; one
    object compared with itself gets the identity witness this way.

    When that walk fails, the conjugator is searched for. An isomorphism
    carrying [G1] to [G2] maps every rebasing of G1's marking onto a
    rebasing of G2's of the same total length, so it maps G1's centre
    (`_centre`) onto G2's. One centre point of G1 is therefore matched
    against each centre point of G2 by `match_paths`, which finds the only
    isomorphism that can carry the one marking onto the other. With j1, j2
    the rebasing paths and T G2's tree path from its basepoint to h(G1's
    basepoint), g is the word of T h(j1) j2^-1. The based walk only skips
    this search when it has found a witness, so the verdict is the search's.
    """
    if G1.rank != G2.rank or len(G1.graph.edges) != len(G2.graph.edges):
        return None
    based = pointed_equivalent(G1, G2)
    if based is not None:
        return based + (ReducedWord((), G1.rank),)
    # any centre point of G1 will do; the memo's first is `_descend`'s
    (v1, paths1), j1 = (next(iter(G1._centre_points.items()))
                        if G1._centre_points is not None else _descend(G1))
    for (v2, paths2), j2 in _centre(G2).items():
        got = match_paths(G1.graph.edges, v1, paths1,
                          G2.graph.edges, v2, paths2)
        if got is not None:
            vmap, emap = got
            tree = G2.spanning_paths()[vmap[G1.basepoint]]
            loop, _ = reduce_letters(tree + map_path(emap, j1)
                                     + invert_letters(j2))
            # a trivial loop reads as 1 without G2's transfer words
            g = G2.path_to_word(loop) if loop else ReducedWord((), G1.rank)
            return vmap, emap, g
    return None


def collapse_matches(X, forest, H, keep_base=False):
    """Whether X with the forest collapsed, in normal form, equals H: as a
    spine vertex (`natural_marked`, `equivalent`), or with keep_base as a
    pointed graph (`naturalize(keep_base=True)`, `pointed_equivalent`).

    If X is in that normal form, so is X/forest: a tree on k >= 2 vertices
    of valence >= 3, one maybe a basepoint of valence 2, collapses to a
    vertex of valence >= k + 1. X's marking, forest letters erased, is then
    read in lockstep with H's through `graphs.collapse_map`, and a collapse
    is built only if X is not in normal form or this based walk fails.
    """
    g, forest = X.graph, frozenset(forest)
    vertex_map, ends = graphs.collapse_map(g, forest)
    if all(len(ds) >= 3 or (keep_base and v == X.basepoint)
           for v, ds in g._out.items()):
        paths = [tuple([d for d in p if abs(d) not in forest])
                 for p in X.marking]
        if match_paths(ends, vertex_map[X.basepoint], paths,
                       H.graph.edges, H.basepoint, H.marking) is not None:
            return True
    same = pointed_equivalent if keep_base else equivalent
    return same(X.collapse_marked(forest)[0].naturalize(keep_base)[0],
                H) is not None


def collapse_certificate(r1, hull, r2, keep_base, error):
    """Certify that a retraction maps the collapse edge x -> x/F to a vertex
    or an edge: 0 if r1 = r(x) equals r2 = r(x/F), 1 if r1 with its hull
    collapsed does (`collapse_matches`); a failure raises `error`.
    keep_base tells how r1 was naturalized.

    r(x) is built from cores that immerse in x, each edge labelled by the
    x-edge below it, and r(x/F) is r(x) with the label preimage of F
    collapsed; after naturalization, r1 with its hull collapsed: the
    natural edges whose chains lie wholly in that preimage
    (`graphs.chain_hull`). The preimage of a forest under an immersion is
    a forest, so a hull with a cycle fails too."""
    if hull and not graphs.is_forest(r1.graph, hull):
        raise error("hull is not a forest")
    if not collapse_matches(r1, hull, r2, keep_base):
        raise error("hull collapse does not reproduce the retraction" if hull
                    else "empty hull but retractions differ")
    return 1 if hull else 0


def _conjugate(p, d):
    """The reduced path d^-1 p d of a closed path p at the tail of d:
    `conjugate_letters(p, (d,))`, written out for the centre walk, where it
    takes half the time."""
    q = p[1:] if p[:1] == (d,) else (-d,) + p
    return q[:-1] if q[-1:] == (-d,) else q + (d,)


def _changes(g, v, paths):
    """(d, half the change in total length when the paths, closed at v, are
    rebased along d) for each direction d at v: the number of paths with
    neither end on d less the number with both."""
    ends = [p[0] for p in paths if p] + [-p[-1] for p in paths if p]
    return [(d, len(paths) - ends.count(d)) for d in g.directions(v)]


def _step(g, v, paths, j, d):
    """Rebase (v, paths, j) along the direction d at v."""
    return (g.head(d), tuple(_conjugate(p, d) for p in paths),
            j[:-1] if j[-1:] == (-d,) else j + (d,))


def _descend(G):
    """One centre point of G: ((vertex, rebased paths), rebasing path j),
    with the paths the reduced j^-1 p_i j and j reduced, from the basepoint."""
    g = G.graph
    v, paths, j = G.basepoint, G.marking, ()
    while (d := next((d for d, c in _changes(g, v, paths) if c < 0),
                     None)) is not None:
        v, paths, j = _step(g, v, paths, j, d)
    return (v, paths), j


def _centre(G):
    """The rebasings of G's marking of least total length, as a dict
    (vertex, rebased paths) -> rebasing path (see `_descend`).

    Rebasing along a path k gives the reduced paths k^-1 p_i k. On the
    universal cover |k^-1 p k| is the cyclic length of p plus twice the
    distance from k's end to p's axis, so the total is convex along the
    tree: a step changes it by twice the count of `_changes`, descent from
    the basepoint reaches the least total, and the rebasings of least total
    span a finite subtree, walked here by the steps that keep the total.
    An isomorphism of marked graphs keeps the total, so it maps centre onto
    centre. Computed once per marked graph and kept on it, as its transfer
    words are; its first point is the one `_descend` reaches.
    """
    if G._centre_points is not None:
        return G._centre_points
    g = G.graph
    (v, paths), j = _descend(G)
    centre = {(v, paths): j}
    stack = [(v, paths, j)]
    while stack:
        v, paths, j = stack.pop()
        for d, c in _changes(g, v, paths):
            if c == 0:
                w, q, k = _step(g, v, paths, j, d)
                if (w, q) not in centre:
                    centre[w, q] = k
                    stack.append((w, q, k))
    G._centre_points = centre
    return centre


def _edge_names(paths):
    """Name each edge by the order in which the paths first traverse it,
    oriented as that first traversal. Returns (the paths in these names,
    the first traversals in name order)."""
    first = {}
    for p in paths:
        for d in p:
            first.setdefault(abs(d), d)
    name = {}
    for j, d in enumerate(first.values(), 1):
        name[d], name[-d] = j, -j
    return (tuple([tuple([name[d] for d in p]) for p in paths]),
            list(first.values()))


def canonical_key(G):
    """Exact spine-vertex key: canonical_key(G) == canonical_key(H) iff
    equivalent(G, H) is not None.

    The marking is rebased onto its centre (`_centre`), which fixes the
    free-homotopy conjugator up to finitely many choices; an isomorphism
    of marked graphs maps centre onto centre. At each centre point the
    edges are named and oriented by first traversal (`_edge_names`), and
    the key is the least of these named markings.

    The named words alone fix the rebased marked graph, so equal keys give
    an isomorphism of marked graphs. Read the words with only the vertex
    identifications they force: every word is closed at one base, and
    consecutive letters share a vertex. Marking paths cross every edge of a
    core graph, so this gives a connected graph X with G's edges and a map
    X -> G, onto on vertices, carrying the words to the rebased marking.
    The marking generates pi_1(G) = F_n, so pi_1(X) maps onto F_n and
    rank X >= n; X has G's edges and at least G's vertices, so
    rank X <= n. Hence the map identifies no vertices: it is an
    isomorphism. Every marking the library derives, including those built
    by `MarkedGraph._derived`, comes from a valid one, so this holds for
    all of them.
    """
    return min(_edge_names(paths)[0] for _, paths in _centre(G))


def circuit_lengths(G):
    """The edge count of G, then the length of the circuit of each basis
    letter: an invariant of the spine vertex, the key of `VertexSet`'s
    buckets. A marked equivalence is a graph isomorphism carrying the
    circuit of each conjugacy class onto the circuit of the same class,
    so these are equal on equivalent marked graphs; they are the
    translation lengths of the basis letters (Culler-Morgan 1987). Kept on
    G once computed, so a set lookup and an add measure G once."""
    if G._lengths is None:
        G._lengths = (len(G.graph.edges),) + tuple(len(cyclic_core(p)[1])
                                                   for p in G.marking)
    return G._lengths


class VertexSet:
    """An exact set of spine vertices: `add(G)` is True when [G] is new,
    and `G in S` when [G] is already there.

    Vertices are bucketed by `circuit_lengths`. A bucket holds one marked
    graph until a second vertex arrives: `equivalent` tells whether it is
    the same vertex, and if it is not the bucket becomes a dict of its
    vertices keyed by `canonical_key`, which keys every later arrival. No
    key is computed until two distinct vertices share a bucket.
    """

    def __init__(self, vertices=()):
        self._buckets = {}
        for G in vertices:
            self.add(G)

    def add(self, G):
        lengths = circuit_lengths(G)
        held = self._buckets.get(lengths)
        if held is None:
            self._buckets[lengths] = G
            return True
        if isinstance(held, MarkedGraph):
            if equivalent(held, G) is not None:
                return False
            held = self._buckets[lengths] = {canonical_key(held): held}
        key = canonical_key(G)
        if key in held:
            return False
        held[key] = G
        return True

    def __contains__(self, G):
        held = self._buckets.get(circuit_lengths(G))
        if held is None:
            return False
        if isinstance(held, MarkedGraph):
            return equivalent(held, G) is not None
        return canonical_key(G) in held
