"""The pointed retraction: embed pointed rank-(n-1) graphs by attaching a
loop, retract rank-n graphs via the based core of the first n-1 letters.

A pointed graph is a plain MarkedGraph whose basepoint is kept: it may sit
at valence 2 (`naturalize(keep_base=True)`), and pointed markings carry no
conjugator slack: pointed equivalence is a basepoint-preserving graph
isomorphism plus exact equality of marking paths. The marking paths cross
every edge, so reading them in lockstep from the two basepoints
(`marked.match_paths`) fixes the only candidate isomorphism.
"""

from . import folding
from .words import Endomorphism, invert_letters, reduce_letters
from .graphs import CoreGraph
from .marked import MarkedGraph, MarkingError, match_paths


class PointedError(ValueError):
    pass


def pointed_equivalent(x1, x2):
    """Exact pointed equality: the base-preserving isomorphism matching every
    marking path on the nose, as (vertex_map, edge_map), or None. The walk
    of `match_paths` from the two basepoints finds it or rules it out."""
    return match_paths(x1.graph, x1.basepoint, x1.marking,
                       x2.graph, x2.basepoint, x2.marking)


def embed_j(w):
    """Attach a loop at the basepoint carrying the new top letter."""
    g = w.graph
    new_eid = max(g.edges) + 1
    edges = dict(g.edges)
    edges[new_eid] = (w.basepoint, w.basepoint)
    g2 = CoreGraph(sorted(g.vertices), edges)
    marking = list(w.marking) + [(new_eid,)]
    return MarkedGraph(g2, w.basepoint, marking, check=False)


def retract_r(x, return_chains=False):
    """Based core of <a_1..a_{n-1}>: the basepoint moves to the nearest core
    point and marking loops get conjugated through the trim tail.

    With return_chains, also return each output natural edge's chain of
    input-graph edge ids (the audit uses it to transport collapse forests).
    """
    n = x.rank
    if n < 2:
        raise MarkingError("rank must be at least 2")
    paths = list(x.marking[:n - 1])
    if not any(paths):
        raise MarkingError("first n-1 marking images are all trivial")
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
    out, chains = MarkedGraph(graph, q, marking, check=False).naturalize(
        keep_base=True)
    if not return_chains:
        return out
    return out, {eid: tuple(core.edges[abs(d)][2] for d in chain)
                 for eid, chain in chains.items()}


def lipschitz_audit(x, forest):
    """Collapse x along a relatively natural forest, retract both sides, and
    certify the retractions differ by at most one forest collapse.

    Returns (distance, x_collapsed): distance 0 means equal retractions.
    Raises if the consistency equation fails.
    """
    x2 = x.collapse_marked(forest)[0].naturalize(keep_base=True)[0]
    r1, chains = retract_r(x, return_chains=True)
    r2 = retract_r(x2)
    fset = set(forest)
    hull = [eid for eid, chain in chains.items()
            if all(lab in fset for lab in chain)]
    if not hull:
        if pointed_equivalent(r1, r2) is None:
            raise PointedError("empty hull but retractions differ")
        return 0, x2
    collapsed = r1.collapse_marked(hull)[0].naturalize(keep_base=True)[0]
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
