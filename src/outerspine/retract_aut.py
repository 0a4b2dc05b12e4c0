"""The pointed retraction: embed pointed rank-(n-1) graphs by attaching a
loop, retract rank-n graphs via the based core of the first n-1 letters.

A pointed graph is a plain MarkedGraph whose basepoint is kept: it may sit
at valence 2 (`naturalize(keep_base=True)`), and pointed markings carry no
conjugator slack: pointed equivalence is a basepoint-preserving graph
isomorphism plus exact equality of marking paths. The marking paths cross
every edge, so reading them in lockstep from the two basepoints
(`marked.pointed_equivalent`, imported here) fixes the only candidate
isomorphism.
"""

from .covers import based_core
from .words import basis_word
from .graphs import CoreGraph, chain_hull
from .marked import (CertificateError, MarkedGraph, MarkingError,
                     collapse_certificate, pointed_equivalent)


class PointedError(CertificateError):
    """The pointed audit's certificate failed."""


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
    sub = based_core([basis_word(i, n) for i in range(1, n)], x)
    core = sub.core
    graph = CoreGraph._derived(sorted(core.vertices), {
        eid: (o, t) for eid, (o, t, _) in core.edges.items()})
    return (MarkedGraph._derived(graph, sub.attach, sub.loops),
            {eid: lab for eid, (_, _, lab) in core.edges.items()})


def retract_r(x):
    """Based core of <a_1..a_{n-1}>: the basepoint moves to the nearest core
    point and marking loops get conjugated through the trim tail
    (`covers.based_core`; the expansion of a_i is marking path i)."""
    return _retract(x)[0].naturalize(keep_base=True)[0]


def lipschitz_audit(x, forest):
    """Collapse x along a relatively natural forest and certify that the
    retractions of both ends differ by at most one forest collapse
    (`marked.collapse_certificate`). Returns (distance, x_collapsed)."""
    x2 = x.collapse_marked(forest)[0].naturalize(keep_base=True)[0]
    r1, labels = _retract(x)
    r1, chains = r1.naturalize(keep_base=True)
    hull = chain_hull(chains, {e for e in labels if labels[e] in forest})
    return collapse_certificate(r1, hull, retract_r(x2), True,
                                PointedError), x2
