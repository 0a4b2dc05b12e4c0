"""The pointed retraction: embed pointed rank-(n-1) graphs by attaching a
loop, retract rank-n graphs via the based core of the first n-1 letters.

A pointed graph is a plain MarkedGraph whose basepoint is kept: it may sit
at valence 2 (`naturalize(keep_base=True)`), and pointed markings carry no
conjugator slack: pointed equivalence is a basepoint-preserving graph
isomorphism plus exact equality of marking paths. The marking paths cross
every edge, so reading them in lockstep from the two basepoints
(`marked.pointed_equivalent`) fixes the only candidate isomorphism.
"""

from .covers import stallings_core
from .words import basis_word
from .graphs import CoreGraph, chain_hull, is_forest
from .marked import MarkedGraph, MarkingError, pointed_equivalent


class PointedError(ValueError):
    pass


def embed_j(w):
    """Attach a loop at the basepoint carrying the new top letter."""
    g = w.graph
    new_eid = max(g.edges) + 1
    edges = dict(g.edges)
    edges[new_eid] = (w.basepoint, w.basepoint)
    g2 = CoreGraph._derived(sorted(g.vertices), edges)
    marking = list(w.marking) + [(new_eid,)]
    return MarkedGraph._derived(g2, w.basepoint, marking)


def _retract(x):
    """The based core of <a_1..a_{n-1}> as a marked graph before
    naturalization, and each of its edges' ambient x-edge label."""
    n = x.rank
    if n < 2:
        raise MarkingError("rank must be at least 2")
    sub = stallings_core([basis_word(i, n) for i in range(1, n)], x,
                         based=True)
    core = sub.core
    graph = CoreGraph._derived(sorted(core.vertices), {
        eid: (o, t) for eid, (o, t, _) in core.edges.items()})
    return (MarkedGraph._derived(graph, sub.attach, sub.loops),
            {eid: lab for eid, (_, _, lab) in core.edges.items()})


def retract_r(x):
    """Based core of <a_1..a_{n-1}>: the basepoint moves to the nearest core
    point and marking loops get conjugated through the trim tail
    (`covers.stallings_core`; the expansion of a_i is marking path i)."""
    return _retract(x)[0].naturalize(keep_base=True)[0]


def lipschitz_audit(x, forest):
    """Collapse x along a relatively natural forest, retract both sides, and
    certify the retractions differ by at most one forest collapse.

    r(x/F) is r(x) with its hull collapsed: the natural edges whose chains
    lie wholly in the label preimage of F. That preimage is a forest, as
    r(x) immerses in x, so a hull with a cycle is a violation too.
    Returns (distance, x_collapsed): distance 0 means equal retractions.
    Raises if the consistency equation fails.
    """
    x2 = x.collapse_marked(forest)[0].naturalize(keep_base=True)[0]
    r1, labels = _retract(x)
    r1, chains = r1.naturalize(keep_base=True)
    r2 = retract_r(x2)
    hull = chain_hull(chains, {e for e in labels if labels[e] in forest})
    if not hull:
        if pointed_equivalent(r1, r2) is None:
            raise PointedError("empty hull but retractions differ")
        return 0, x2
    if not is_forest(r1.graph, hull):
        raise PointedError("hull is not a forest")
    collapsed = r1.collapse_marked(hull)[0].naturalize(keep_base=True)[0]
    if pointed_equivalent(collapsed, r2) is None:
        raise PointedError("hull collapse does not reproduce the retraction")
    return 1, x2
