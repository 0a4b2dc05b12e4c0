"""Reference spine distances. `oracle_bfs_distance` is the one-sided BFS
that `spine.bfs_distance` replaced: it grows one ball around G1, one whole
layer at a time, and stops at the first layer that holds G2's key; it is
kept only as the oracle for the two-ended search. `farey_distance` is the
closed form between two roses of rank 2, where the spine is the tree dual
to the Farey tessellation."""

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


def _l1(u):
    return abs(u[0]) + abs(u[1])


def petal_columns(G):
    """The abelianized F_2 elements of the petals of a rank-2 rose, in
    edge order: the columns of M_G."""
    if G.rank != 2 or len(G.graph.vertices) != 1:
        raise SpineError("not a rose of rank 2")
    vals = G.inverse_marking_values()
    cols = []
    for eid in sorted(G.graph.edges):
        col = [0, 0]
        for a in vals[eid]:
            col[abs(a) - 1] += 1 if a > 0 else -1
        cols.append(tuple(col))
    return cols


def farey_distance(G, H):
    """Spine distance between two marked roses of rank 2.

    Out(F_2) = GL(2, Z), and a marked rose is the Farey edge {±u, ±v} of
    its abelianized petals; a theta graph is a Farey triangle, so roses
    are two apart across each triangle (Culler and Vogtmann 1986). M_G^-1
    takes G's edge to {e1, e2} and H's to the columns of M_G^-1 M_H; each
    subtractive Euclid step, the longer vector replaced by its sum or
    difference with the shorter, whichever is shorter in l1, crosses one
    triangle towards {e1, e2}. The distance is twice the number of steps.
    """
    (a, c), (b, d) = petal_columns(G)
    det = a * d - b * c  # +-1, its own inverse
    u, v = [(det * (d * x - b * y), det * (a * y - c * x))
            for x, y in petal_columns(H)]
    steps = 0
    while _l1(u) + _l1(v) > 2:
        if _l1(u) < _l1(v):
            u, v = v, u
        u = min((u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1]),
                key=_l1)
        steps += 1
    return 2 * steps
