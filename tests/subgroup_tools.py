"""Subgroup-graph helpers that only the tests use: conjugacy of two
subgroups by isomorphism of their cores, conjugate-into by a morphism of
cores, the partial order on free factor systems, and free generators read
off a based core's spanning tree."""

from outerspine.covers import (CoverError, labeled_isomorphism,
                               labeled_morphisms)
from outerspine.marked import MarkedGraph
from outerspine.words import invert_letters


def subgroups_conjugate(A, B):
    """Two subgroups' unbased cores over one marked graph are isomorphic."""
    return labeled_isomorphism(A, B) is not None


def conjugate_into(K1, K2):
    """Subgroup-of-K1 conjugate into subgroup-of-K2: a label-preserving
    morphism of cores (automatically an immersion, lands in the core)."""
    return next(labeled_morphisms(K1, K2), None)


def ffs_partial_order(F1, F2):
    """F1 sqsubset F2: every component conjugate into a component of F2."""
    if F1.rank != F2.rank:
        raise CoverError("ambient rank mismatch")
    G = MarkedGraph.rose_identity(F1.rank)
    cores1 = F1.cores_over(G)
    cores2 = F2.cores_over(G)
    for K1 in cores1:
        if not any(conjugate_into(K1, K2) for K2 in cores2):
            return False
    return True


def subgroup_generators(sub, G):
    """Free generators of the subgroup of a based core
    (`covers.based_core`), read off a spanning tree of the core rooted at
    the attach vertex and closed up through the tail: exact elements."""
    core = sub.core
    root = sub.attach
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
    pre = sub.tail_labels
    gens = []
    for eid in sorted(core.edges):
        if eid in tree_edges:
            continue
        o, t, _ = core.edges[eid]
        loop = tree_path[o] + (eid,) + invert_letters(tree_path[t])
        labels = pre + core.path_labels(loop) + invert_letters(pre)
        gens.append(G.path_to_word(labels))
    return gens
