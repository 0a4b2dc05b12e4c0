"""Seeded differential tests of the lockstep-walk equalities against the
isomorphism search they replaced (tests/iso_oracle.py).

`marked.equivalent` and `retract_aut.pointed_equivalent` must give the
oracle's verdict on every ordered pair, and every witness they return must
be a graph isomorphism that carries the marking across: for spine-vertex
equality g^-1 u_i g = a_i, where u_i reads the image of the i-th marking
path through the second marking; for pointed equality every marking path
on the nose, basepoint to basepoint. The inputs are relabelled and rebased
copies, signed-petal-permutation, transvection and inner images, and
spine-neighbour candidates, at ranks 2-4 and on K_{3,3}. Pairs that the
based walk of `equivalent` misses although they are one spine vertex, and
pairs it hits, are also checked against `canonical_key`.
"""

import itertools
import random

import pytest

import iso_oracle
from outerspine import sampling
from outerspine.graphs import CoreGraph, map_path
from outerspine.marked import MarkedGraph, canonical_key, equivalent
from outerspine.retract_aut import embed_j, pointed_equivalent, retract_r
from outerspine.spine import neighbors
from outerspine.words import Endomorphism, basis_word, is_automorphism
from test_canonical import (k33_marked, relabel, relabel_graph,
                            signed_permutation)


def assert_isomorphism(G1, G2, vmap, emap):
    g1, g2 = G1.graph, G2.graph
    assert sorted(vmap) == sorted(g1.vertices)
    assert sorted(vmap.values()) == sorted(g2.vertices)
    assert sorted(emap) == sorted(g1.edges)
    assert sorted(abs(s) for s in emap.values()) == sorted(g2.edges)
    for e, (o, t) in g1.edges.items():
        s = emap[e]
        assert g2.edges[abs(s)] == ((vmap[o], vmap[t]) if s > 0
                                    else (vmap[t], vmap[o]))


def check_free(G1, G2):
    """Compare equivalent with the oracle and check its witness; returns
    the verdict."""
    got = equivalent(G1, G2)
    assert (got is not None) == (iso_oracle.equivalent(G1, G2) is not None)
    if got is not None:
        vmap, emap, g = got
        assert_isomorphism(G1, G2, vmap, emap)
        at = vmap[G1.basepoint]
        for i, p in enumerate(G1.marking, 1):
            u = G2.path_to_word(map_path(emap, p), at_vertex=at)
            assert u.conjugate_by(g) == basis_word(i, G1.rank)
    return got is not None


def check_pointed(x1, x2):
    """Compare pointed_equivalent with the oracle and check its witness;
    returns the verdict."""
    got = pointed_equivalent(x1, x2)
    assert (got is not None) == \
        (iso_oracle.pointed_equivalent(x1, x2) is not None)
    if got is not None:
        vmap, emap = got
        assert_isomorphism(x1, x2, vmap, emap)
        assert vmap[x1.basepoint] == x2.basepoint
        assert [map_path(emap, p) for p in x1.marking] == list(x2.marking)
    return got is not None


def check_all_pairs(group, check):
    """Run check on every ordered pair of the group; returns (pairs, hits)."""
    verdicts = [check(a, b) for a, b in itertools.permutations(group, 2)]
    return len(verdicts), sum(verdicts)


def inner(rng, n):
    """Conjugation of every basis letter by a random nontrivial word."""
    w = sampling.random_reduced_word(rng, n, 4, nontrivial=True)
    return is_automorphism(Endomorphism(n, tuple(
        basis_word(i, n).conjugate_by(w) for i in range(1, n + 1))))


def images(rng, G):
    """Automorphism images of G: transvections, signed petal permutations
    and an inner automorphism."""
    n = G.rank
    autos = [sampling.transvection(n, i, j, side)
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j
             for side in "LR"]
    autos = rng.sample(autos, min(len(autos), 4))
    autos += [signed_permutation(rng, n) for _ in range(3)]
    autos.append(inner(rng, n))
    return [G.act(phi) for phi in autos]


def pointed_relabel(x, rng):
    """A relabelled copy of x with the basepoint carried along."""
    g, vmap, emap = relabel_graph(x.graph, rng)
    return MarkedGraph(g, vmap[x.basepoint],
                       [map_path(emap, p) for p in x.marking])


@pytest.mark.parametrize("n", [2, 3])
def test_equivalent_matches_search_on_images(n):
    rng = random.Random(100 + n)
    pairs = hits = 0
    for steps in range(10):
        G = sampling.random_marked_graph(rng, n, steps)
        group = [G] + [relabel(G, rng) for _ in range(2)]
        group += [relabel(H, rng) for H in images(rng, G)]
        p, h = check_all_pairs(group, check_free)
        pairs, hits = pairs + p, hits + h
    assert pairs == 1100
    assert 0 < hits < pairs


def test_equivalent_matches_search_on_images_rank4_and_k33():
    # fewer pairs: the search tries up to 384 isomorphisms per pair here
    rng = random.Random(104)
    pairs = hits = 0
    for G in (k33_marked(), MarkedGraph.rose_identity(4),
              sampling.random_marked_graph(rng, 4, 8)):
        group = [G, relabel(G, rng)] + [relabel(H, rng)
                                        for H in images(rng, G)[2:]]
        p, h = check_all_pairs(group, check_free)
        pairs, hits = pairs + p, hits + h
    assert pairs == 168
    assert 0 < hits < pairs


def based_walk_group(rng, G):
    """G; copies that keep the basepoint, which the based walk matches;
    rebasings at the other vertices and inner images, the same spine vertex
    but missed by the based walk; and two other spine vertices."""
    n = G.rank
    hit = [pointed_relabel(G, rng), G.act(Endomorphism.identity(n))]
    miss = [G.rebase(v) for v in sorted(G.graph.vertices)
            if v != G.basepoint][:3]
    miss += [pointed_relabel(G.act(inner(rng, n)), rng) for _ in range(2)]
    other = [G.act(sampling.transvection(n, 1, 2, side)) for side in "LR"]
    return [G] + hit + miss + other


@pytest.mark.parametrize("n", [2, 3, 4])
def test_equivalent_based_walk_then_centres(n):
    rng = random.Random(600 + n)
    based = centred = apart = 0
    for steps in (0, 3, 6):
        for a, b in itertools.permutations(
                based_walk_group(rng, sampling.random_marked_graph(rng, n,
                                                                   steps)),
                2):
            same = check_free(a, b)
            assert same == (canonical_key(a) == canonical_key(b))
            if pointed_equivalent(a, b) is not None:
                assert equivalent(a, b)[2].letters == ()
                based += 1
            elif same:
                centred += 1
            else:
                apart += 1
    assert based >= 18 and centred >= 18 and apart >= 18


def neighbor_group(rng, G, relabel_copy):
    """Some spine-neighbour candidates of G, G itself, some candidates
    around one neighbour (they include G again) and relabelled copies of
    three of these."""
    cands = neighbors(G)
    back = neighbors(rng.choice(cands))
    group = rng.sample(cands, min(len(cands), 12)) + [G]
    group += rng.sample(back, min(len(back), 5))
    return group + [relabel_copy(H, rng) for H in rng.sample(group, 3)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalent_matches_search_on_neighbor_candidates(seed):
    rng = random.Random(200 + seed)
    pairs = hits = 0
    bases = [sampling.random_marked_graph(rng, n, 4) for n in (2, 3, 3, 4)]
    if seed == 1:
        bases.append(k33_marked())
    for G in bases:
        group = neighbor_group(rng, G, relabel)
        p, h = check_all_pairs(group, check_free)
        pairs, hits = pairs + p, hits + h
    assert pairs >= 1000
    assert 0 < hits < pairs


@pytest.mark.parametrize("seed", [1, 2])
def test_pointed_equivalent_matches_search(seed):
    rng = random.Random(300 + seed)
    pairs = hits = 0
    for n in (2, 3, 4):
        for _ in range(3):
            x = sampling.random_pointed_graph(rng, n, 3)
            group = [x] + [pointed_relabel(x, rng) for _ in range(3)]
            group.append(x.rebase(rng.choice(sorted(x.graph.vertices))))
            group += [pointed_relabel(y, rng) for y in images(rng, x)]
            group.append(retract_r(embed_j(x)))
            p, h = check_all_pairs(group, check_pointed)
            pairs, hits = pairs + p, hits + h
    assert pairs == 1638
    assert 0 < hits < pairs


def test_pointed_equivalent_matches_search_on_neighbor_candidates():
    rng = random.Random(400)
    pairs = hits = 0
    for G in [k33_marked()] + [sampling.random_marked_graph(rng, n, 4)
                               for n in (2, 3, 4)]:
        group = neighbor_group(rng, G, pointed_relabel)
        p, h = check_all_pairs(group, check_pointed)
        pairs, hits = pairs + p, hits + h
    assert pairs >= 1000
    assert 0 < hits < pairs


def test_different_ranks_or_sizes_are_never_equal():
    rng = random.Random(500)
    pool = [k33_marked(), MarkedGraph.rose_identity(3),
            MarkedGraph(CoreGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1),
                                           4: (1, 1)}), 0,
                        [(1, -2), (1, -3), (1, 4, -1)])]
    for n in (2, 3, 4):
        pool.extend(sampling.random_marked_graph(rng, n, 3) for _ in range(3))
    shape = [(G.rank, len(G.graph.edges), len(G.graph.vertices))
             for G in pool]
    mixed = 0
    for i, j in itertools.permutations(range(len(pool)), 2):
        if shape[i] != shape[j]:
            mixed += 1
            assert not check_free(pool[i], pool[j])
            assert not check_pointed(pool[i], pool[j])
    assert mixed >= 100
