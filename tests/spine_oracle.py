"""Reference spine distance: the one-sided BFS that `spine.bfs_distance`
replaced. It grows one ball around G1, one whole layer at a time, and
stops at the first layer that holds G2's key. It is kept only as the
oracle for the two-ended search."""

from outerspine.marked import canonical_key
from outerspine.spine import SpineError, neighbors


def oracle_bfs_distance(G1, G2, cap):
    """Exact 1-skeleton distance if at most cap, else None; SpineError if
    the ranks differ."""
    if G1.rank != G2.rank:
        raise SpineError("rank mismatch: %d vs %d" % (G1.rank, G2.rank))
    if cap < 0:
        return None
    G1 = G1.natural_marked()
    target = canonical_key(G2.natural_marked())
    seen = {canonical_key(G1)}
    if target in seen:
        return 0
    frontier = [G1]
    for dist in range(1, cap + 1):
        nxt = []
        for g in frontier:
            for h in neighbors(g):
                key = canonical_key(h)
                if key in seen:
                    continue
                if key == target:
                    return dist
                seen.add(key)
                nxt.append(h)
        if not nxt:
            return None
        frontier = nxt
    return None
