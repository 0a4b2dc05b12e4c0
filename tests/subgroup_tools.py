"""Subgroup-graph helpers that only the tests use: conjugacy of two
subgroups by isomorphism of their cores, and free generators read off a
core's spanning tree."""

from outerspine.covers import CoverError, labeled_isomorphism
from outerspine.words import invert_letters


def subgroups_conjugate(A, B):
    if A.ambient is not B.ambient:
        raise CoverError("subgroup graphs over different marked graphs")
    return labeled_isomorphism(A.core, B.core) is not None


def subgroup_generators(sub, G):
    """Free generators of the subgroup, read off a spanning tree of the core.

    Based form gives exact elements; unbased gives a conjugacy representative,
    read at the ambient vertex under the tree's root.
    """
    core = sub.core
    root = sub.attach if sub.attach is not None else min(core.vertices)
    tree_path = {root: ()}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for d in core.directions(v):
                h = core.head(d)
                if h not in tree_path:
                    tree_path[h] = tree_path[v] + (d,)
                    nxt.append(h)
        frontier = nxt
    tree_edges = set()
    for p in tree_path.values():
        for d in p:
            tree_edges.add(abs(d))
    pre = tuple(sub.tail_labels) if sub.tail_labels else ()
    if sub.tail_labels is not None:
        at = G.basepoint
    else:
        at = G.graph.tail(core.label_of(core.directions(root)[0]))
    gens = []
    for eid in sorted(core.edges):
        if eid in tree_edges:
            continue
        o, t, _ = core.edges[eid]
        loop = tree_path[o] + (eid,) + invert_letters(tree_path[t])
        labels = pre + core.path_labels(loop) + invert_letters(pre)
        gens.append(G.path_to_word(labels, at_vertex=at))
    return gens
