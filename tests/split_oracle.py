"""Search oracle for the splitting retraction audit.

`retract_split.retraction_audit` certifies by the label-preimage hull. This
oracle decides the same question by search: with R(G) and R(G/F) not
equivalent, it tries every nonempty natural subforest of R(G) for one whose
collapse is equivalent to R(G/F).
"""

from outerspine.graphs import enumerate_natural_subforests
from outerspine.marked import equivalent
from outerspine.retract_split import RetractionError, in_CVKT, retract_R


def search_audit(G, forest, data):
    G2 = G.collapse_marked(forest)[0].natural_marked()
    r1 = retract_R(G, data)
    r2 = retract_R(G2, data)
    for r in (r1, r2):
        if in_CVKT(r, data.blueprint) is None:
            raise RetractionError("retraction output left the subcomplex")
    if equivalent(r1, r2) is not None:
        return 0
    for f in enumerate_natural_subforests(r1.graph, include_empty=False):
        cand, _ = r1.collapse_marked(f)
        if equivalent(cand.natural_marked(), r2) is not None:
            return 1
    raise RetractionError("retractions are further than one collapse apart")
