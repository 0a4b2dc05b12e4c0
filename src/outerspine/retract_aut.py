"""The pointed retraction: embed pointed rank-(n-1) graphs by attaching a
loop, retract rank-n graphs via the based core of the first n-1 letters.

Pointed markings carry no conjugator slack: pointed equivalence is a
basepoint-preserving graph isomorphism plus exact equality of marking paths.
"""

from . import folding, graphs
from .words import Endomorphism, invert_letters, reduce_letters, substitute
from .graphs import CoreGraph


class PointedError(ValueError):
    pass


class PointedMarkedGraph:
    """Core graph + basepoint (valence 2 allowed there) + pointed marking."""

    def __init__(self, graph, basepoint, marking, check=True):
        self.graph = graph
        self.basepoint = basepoint
        self.marking = tuple(tuple(p) for p in marking)
        self.rank = graph.rank
        if basepoint not in graph.vertices:
            raise PointedError("basepoint not a vertex")
        if len(self.marking) != self.rank:
            raise PointedError("marking arity mismatch")
        for p in self.marking:
            if graph.check_path(p, basepoint) != basepoint:
                raise PointedError("marking path not closed at basepoint")
            if not graph.path_is_reduced(p):
                raise PointedError("marking path not reduced")
        if check:
            self.as_marked().check_generates()

    def as_marked(self):
        from .marked import MarkedGraph
        return MarkedGraph(self.graph, self.basepoint, self.marking, check=False)

    @staticmethod
    def pointed_rose(n):
        g = graphs.rose(n)
        return PointedMarkedGraph(g, 0, tuple((i,) for i in range(1, n + 1)),
                                  check=False)

    def expand(self, letters):
        return substitute(letters, dict(enumerate(self.marking, 1)))[0]

    def act(self, phi):
        """Pointed action: precompose the marking, no basepoint slack."""
        endo = getattr(phi, "endo", phi)
        if endo.rank != self.rank:
            raise PointedError("rank mismatch")
        marking = tuple(self.expand(im.letters) for im in endo.images)
        return PointedMarkedGraph(self.graph, self.basepoint, marking, check=False)

    def relatively_natural(self):
        """Merge valence-2 vertices except the basepoint."""
        g = self.graph
        if all(g.valence(v) >= 3 or v == self.basepoint for v in g.vertices):
            return self
        new_g, refinement, _ = graphs.natural_structure(
            g, protected=(self.basepoint,))
        marking = [graphs.rewrite_path_through_refinement(p, refinement)
                   for p in self.marking]
        return PointedMarkedGraph(new_g, self.basepoint, marking, check=False)

    def collapse_pointed(self, forest):
        target, cmap = graphs.collapse(self.graph, forest)
        marking = [cmap.push_path(p)[0] for p in self.marking]
        out = PointedMarkedGraph(target, cmap.push_vertex(self.basepoint),
                                 marking, check=False)
        return out.relatively_natural(), cmap

    def blowup_pointed(self, v, part1, part2):
        out, new_eid, cmap = self.as_marked().blowup_marked(v, part1, part2)
        return PointedMarkedGraph(out.graph, out.basepoint, out.marking,
                                  check=False), new_eid, cmap


def pointed_equivalent(x1, x2):
    """Exact pointed equality: base-preserving isomorphism matching every
    marking path on the nose."""
    if x1.rank != x2.rank:
        return None
    for vmap, emap in graphs.graph_isomorphisms(x1.graph, x2.graph):
        if vmap[x1.basepoint] != x2.basepoint:
            continue
        if all(graphs.map_path(emap, p) == q
               for p, q in zip(x1.marking, x2.marking)):
            return vmap, emap
    return None


def embed_j(w):
    """Attach a loop at the basepoint carrying the new top letter."""
    g = w.graph
    new_eid = max(g.edges) + 1
    edges = dict(g.edges)
    edges[new_eid] = (w.basepoint, w.basepoint)
    g2 = CoreGraph(sorted(g.vertices), edges)
    marking = list(w.marking) + [(new_eid,)]
    return PointedMarkedGraph(g2, w.basepoint, marking, check=False)


def retract_r(x, return_chains=False):
    """Based core of <a_1..a_{n-1}>: the basepoint moves to the nearest core
    point and marking loops get conjugated through the trim tail.

    With return_chains, also return each output natural edge's chain of
    input-graph edge ids (the audit uses it to transport collapse forests).
    """
    n = x.rank
    if n < 2:
        raise PointedError("rank must be at least 2")
    paths = list(x.marking[:n - 1])
    if not any(paths):
        raise PointedError("first n-1 marking images are all trivial")
    folded = folding.fold_words(paths)
    core, tail, q, based = folded.based_core_and_tail()

    marking = []
    for p in paths:
        loop, end, consumed = based.trace(folded.base, p)
        if consumed != len(p) or end != folded.base:
            raise PointedError("marking loop strayed off the based core")
        red, _ = reduce_letters(invert_letters(tail) + tuple(loop) + tail)
        if any(abs(d) not in core.edges for d in red):
            raise PointedError("retracted marking left the core")
        marking.append(red)

    graph = CoreGraph(sorted(core.vertices),
                      {eid: (o, t) for eid, (o, t, _) in core.edges.items()})
    out = PointedMarkedGraph(graph, q, marking, check=False)
    normalized = out.relatively_natural()
    if not return_chains:
        return normalized

    # chains: output natural edge -> tuple of input-graph edge ids
    if normalized is out:
        chains = {eid: (core.edges[eid][2],) for eid in graph.edges}
    else:
        _, refinement, _ = graphs.natural_structure(graph, protected=(q,))
        chains = {}
        for new_eid, chain in refinement.items():
            chains[new_eid] = tuple(core.edges[abs(d)][2] for d in chain)
    return normalized, chains


def lipschitz_audit(x, forest):
    """Collapse x along a relatively natural forest, retract both sides, and
    certify the retractions differ by at most one forest collapse.

    Returns (distance, x_collapsed): distance 0 means equal retractions.
    Raises if the consistency equation fails.
    """
    x2, _ = x.collapse_pointed(forest)
    r1, chains = retract_r(x, return_chains=True)
    r2 = retract_r(x2)
    fset = set(forest)
    hull = [eid for eid, chain in chains.items()
            if all(lab in fset for lab in chain)]
    if not hull:
        if pointed_equivalent(r1, r2) is None:
            raise PointedError("empty hull but retractions differ")
        return 0, x2
    collapsed, _ = r1.collapse_pointed(hull)
    if pointed_equivalent(collapsed, r2) is None:
        raise PointedError("hull collapse does not reproduce the retraction")
    return 1, x2


def restrict_endo(endo, new_rank):
    """Restriction of an endomorphism preserving <a_1..a_new_rank>."""
    from .words import ReducedWord
    images = []
    for im in endo.images[:new_rank]:
        if any(abs(a) > new_rank for a in im.letters):
            raise PointedError("endomorphism does not preserve the subgroup")
        images.append(ReducedWord(im.letters, new_rank))
    return Endomorphism(new_rank, tuple(images))
