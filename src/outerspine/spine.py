"""Local spine exploration: neighbors, exact BFS distances, fold paths.

A spine path stores self-contained adjacency certificates: each step keeps
its own representative graph X and natural forest f with X equivalent to the
upper endpoint and X/f equivalent to the lower one; verify() recomputes all
of it from scratch.
"""

from dataclasses import dataclass, field

from . import graphs
from .words import substitute
from .marked import MarkedGraph, equivalent, invariant_key
from .covers import realizes


class SpineError(ValueError):
    pass


def spine_normalize(G):
    return G.natural_marked()


def collapse_neighbors(G):
    out = []
    for forest in graphs.enumerate_natural_subforests(G.graph, include_empty=False):
        H, _ = G.collapse_marked(forest)
        out.append(H)
    return out


def blowup_neighbors(G):
    out = []
    for v in sorted(G.graph.vertices):
        for part1, part2 in graphs.vertex_direction_bipartitions(G.graph, v):
            H, _, _ = G.blowup_marked(v, part1, part2)
            out.append(H)
    return out


class VertexSet:
    """Spine vertices deduplicated by invariant-key buckets + exact equality."""

    def __init__(self):
        self.buckets = {}

    def add(self, G, key=None):
        """Insert; returns False if an equivalent vertex was already present."""
        key = key or invariant_key(G)
        bucket = self.buckets.setdefault(key, [])
        if any(equivalent(G, x) is not None for x in bucket):
            return False
        bucket.append(G)
        return True

    def __contains__(self, G):
        bucket = self.buckets.get(invariant_key(G), [])
        return any(equivalent(G, x) is not None for x in bucket)


def neighbors(G, dedupe=True):
    """All spine neighbors (collapses and single-edge blow-ups)."""
    G = spine_normalize(G)
    cands = collapse_neighbors(G) + blowup_neighbors(G)
    if not dedupe:
        return cands
    seen = VertexSet()
    return [h for h in cands if seen.add(h)]


def bfs_distance(G1, G2, cap):
    """Exact 1-skeleton distance if at most cap, else None."""
    G1 = spine_normalize(G1)
    G2 = spine_normalize(G2)
    key2 = invariant_key(G2)
    if key2 == invariant_key(G1) and equivalent(G1, G2) is not None:
        return 0
    frontier = [G1]
    seen = VertexSet()
    seen.add(G1)
    for dist in range(1, cap + 1):
        nxt = []
        for g in frontier:
            for h in neighbors(g):
                key = invariant_key(h)
                if not seen.add(h, key=key):
                    continue
                if key == key2 and equivalent(h, G2) is not None:
                    return dist
                nxt.append(h)
        if not nxt:
            return None
        frontier = nxt
    return None


@dataclass
class SpineStep:
    kind: str        # "down": X ~ upper=vertices[i]; "up": X ~ vertices[i+1]
    X: object        # representative marked graph carrying the forest's ids
    forest: frozenset


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
        if len(self.vertices) != len(self.steps) + 1:
            raise SpineError("malformed path")
        for i, st in enumerate(self.steps):
            a, b = self.vertices[i], self.vertices[i + 1]
            upper, lower = (a, b) if st.kind == "down" else (b, a)
            if equivalent(st.X, upper) is None:
                raise SpineError("certificate %d: representative mismatch" % i)
            got, _ = st.X.collapse_marked(st.forest)
            if equivalent(got.natural_marked(), lower) is None:
                raise SpineError("certificate %d: collapse mismatch" % i)
        return True


class _FoldState:
    """Subdivided graph mapping edge-per-edge onto the target rose."""

    def __init__(self, source_rose, images):
        self.base = 0
        self.next_vertex = 1
        self.edges = {}
        self.gmap = {}
        chain_of = {}
        next_eid = 1
        for petal, path in sorted(images.items()):
            if not path:
                raise SpineError("petal image must be nonempty")
            prev = self.base
            chain = []
            for i, d in enumerate(path):
                nxt = self.base if i == len(path) - 1 else self._new_vertex()
                self.edges[next_eid] = (prev, nxt)
                self.gmap[next_eid] = d
                chain.append(next_eid)
                prev = nxt
                next_eid += 1
            chain_of[petal] = tuple(chain)
        self.next_eid = next_eid
        self.marking = [substitute(p, chain_of)[0] for p in source_rose.marking]

    def _new_vertex(self):
        v = self.next_vertex
        self.next_vertex += 1
        return v

    def marked(self):
        verts = {self.base}
        for o, t in self.edges.values():
            verts.update((o, t))
        g = graphs.CoreGraph(sorted(verts), dict(self.edges))
        return MarkedGraph(g, self.base, self.marking, check=False)

    def directions(self, v):
        out = []
        for eid, (o, t) in self.edges.items():
            if o == v:
                out.append(eid)
            if t == v:
                out.append(-eid)
        return out

    def dg(self, d):
        g = self.gmap[abs(d)]
        return g if d > 0 else -g

    def head(self, d):
        o, t = self.edges[abs(d)]
        return t if d > 0 else o

    def find_fold(self):
        verts = {self.base}
        for o, t in self.edges.values():
            verts.update((o, t))
        for v in sorted(verts):
            seen = {}
            for d in sorted(self.directions(v), key=abs):
                key = self.dg(d)
                if key in seen and seen[key] != d:
                    return v, seen[key], d
                seen[key] = d
        return None

    def fold_once(self, v, d1, d2):
        """Perform the fold d1 ~ d2; returns the blow-up intermediate (the
        partially folded graph) and the collapse forests certifying both
        spine edges out of it."""
        h1, h2 = self.head(d1), self.head(d2)
        e1, e2 = abs(d1), abs(d2)
        if e1 == e2:
            raise SpineError("a direction cannot fold with itself")
        if h1 == h2:
            raise SpineError("rank-dropping fold; map is not a marking"
                             " preserving homotopy equivalence")
        m = self._new_vertex()
        eta, r1, r2 = self.next_eid, self.next_eid + 1, self.next_eid + 2
        self.next_eid += 3

        star_edges = {eid: ot for eid, ot in self.edges.items()
                      if eid not in (e1, e2)}
        star_edges[eta] = (v, m)
        star_edges[r1] = (m, h1)
        star_edges[r2] = (m, h2)

        old_edges = self.edges

        def rewrite(marking, repl):
            image = {e: repl.get(e, (e,)) for e in old_edges}
            return [substitute(p, image)[0] for p in marking]

        repl_star = {
            e1: (eta, r1) if d1 > 0 else (-r1, -eta),
            e2: (eta, r2) if d2 > 0 else (-r2, -eta),
        }
        star_marking = rewrite(self.marking, repl_star)
        verts = {self.base}
        for o, t in star_edges.values():
            verts.update((o, t))
        star = MarkedGraph(graphs.CoreGraph(sorted(verts), star_edges),
                           self.base, star_marking, check=False)

        # successor: merge e2 into e1 (aligned with d1/d2), glue the heads
        if h2 == self.base or (h1 != self.base and h2 < h1):
            keep, drop = h2, h1
        else:
            keep, drop = h1, h2
        sub = {drop: keep}
        next_edges = {}
        for eid, (o, t) in self.edges.items():
            if eid == e2:
                continue
            next_edges[eid] = (sub.get(o, o), sub.get(t, t))
        repl_next = {e2: (e1,) if (d1 > 0) == (d2 > 0) else (-e1,)}
        self.edges = next_edges
        self.gmap.pop(e2)
        self.marking = rewrite(self.marking, repl_next)
        return star, frozenset([eta]), frozenset([r1, r2])


def _tree_collapse_to_rose(G):
    """Collapse a spanning tree; returns (rose-form marked graph, forest)."""
    _, tree = graphs.union_find((eid, o, t) for eid, (o, t)
                                in sorted(G.graph.edges.items()))
    if not tree:
        return G, None
    H, _ = G.collapse_marked(tree)
    return H.natural_marked(), frozenset(tree)


def _hulls(star, small_forest):
    """Natural edges of star's normalization lying entirely in the forest."""
    nat, chains = star.naturalize(keep_base=False)
    hull = [ne for ne, ch in chains.items()
            if all(abs(x) in small_forest for x in ch)]
    return nat, frozenset(hull)


def fold_path(G1, G2, F=None):
    """A certificate-valid spine path from [G1] to [G2] via Stallings folds.

    Each fold contributes at most two spine edges, through the partially
    folded intermediate. With F, every path vertex is checked against
    realizes(., F); if the endpoints are not in petal-compatible rose
    position the guarantee is dropped and reported.
    """
    if G1.rank != G2.rank:
        raise SpineError("rank mismatch: %d vs %d" % (G1.rank, G2.rank))
    G1 = spine_normalize(G1)
    G2 = spine_normalize(G2)
    vertices = [G1]
    steps = []

    guarded = F is not None
    guard_report = ""

    rose1, tree1 = _tree_collapse_to_rose(G1)
    if tree1 is not None:
        vertices.append(rose1)
        steps.append(SpineStep("down", G1, tree1))
    rose2, tree2 = _tree_collapse_to_rose(G2)
    if guarded and (tree1 is not None or tree2 is not None):
        guarded = False
        guard_report = "endpoints not in rose position; F-guarantee dropped"

    vals = rose1.inverse_marking_values()
    images = {}
    for eid in sorted(rose1.graph.edges):
        path = rose2.expand(vals[eid])
        if not path:
            raise SpineError("petal image collapsed; markings incompatible")
        images[eid] = path

    state = _FoldState(rose1, images)
    cur = state.marked().natural_marked()
    if equivalent(cur, vertices[-1]) is None:
        raise SpineError("subdivision changed the spine vertex")

    while True:
        fold = state.find_fold()
        if fold is None:
            break
        v, d1, d2 = fold
        star, eta_forest, rs_forest = state.fold_once(v, d1, d2)
        nat_star, hull_eta = _hulls(star, eta_forest)
        _, hull_rs0 = _hulls(star, rs_forest)
        nat_after = state.marked().natural_marked()
        if hull_eta:
            got, _ = nat_star.collapse_marked(hull_eta)
            if equivalent(got.natural_marked(), vertices[-1]) is None:
                raise SpineError("blow-up certificate failed")
            vertices.append(nat_star)
            steps.append(SpineStep("up", nat_star, hull_eta))
        if hull_rs0:
            got, _ = nat_star.collapse_marked(hull_rs0)
            if equivalent(got.natural_marked(), nat_after) is None:
                raise SpineError("fold-down certificate failed")
            if equivalent(nat_after, vertices[-1]) is None:
                vertices.append(nat_after)
                steps.append(SpineStep("down", nat_star, hull_rs0))

    final = state.marked().natural_marked()
    if equivalent(final, rose2) is None:
        raise SpineError("fold terminus does not match the target rose")
    if tree2 is not None:
        if equivalent(vertices[-1], rose2) is None:
            raise SpineError("path end drifted from the target rose")
        vertices.append(G2)
        steps.append(SpineStep("up", G2, tree2))

    flags = []
    if guarded:
        flags = [realizes(vtx, F) is not None for vtx in vertices]
    return SpinePath(vertices, steps, guarded=guarded,
                     guard_report=guard_report, realize_flags=flags)
