import random

import pytest

from outerspine.graphs import (CoreGraph, GraphError, rose, theta_graph,
                               collapse, enumerate_natural_subforests,
                               enumerate_blowups, natural_structure,
                               union_find)
from outerspine.words import reduce_letters
from iso_oracle import graph_isomorphisms, graphs_isomorphic


def sewing_needle():
    # two vertices V, W; edge A: V-W; loop B at W; plus a rank-(n-1) rose at V
    # here just the rank-2 skeleton: A and B with extra loop at V for coreness
    return CoreGraph([0, 1], {1: (0, 1), 2: (1, 1), 3: (0, 0)})


def test_core_graph_validation():
    with pytest.raises(GraphError):
        CoreGraph([0, 1], {1: (0, 1)})  # valence 1
    with pytest.raises(GraphError):
        CoreGraph([0, 1], {1: (0, 0), 2: (1, 1)})  # disconnected
    g = rose(2)
    assert g.rank == 2
    assert theta_graph().rank == 2


def test_natural_structure_theta():
    th = theta_graph()
    out, refinement = natural_structure(th)
    assert graphs_isomorphic(out, th)
    # subdivide one theta edge into two
    g = CoreGraph([0, 1, 2], {1: (0, 2), 2: (2, 1), 3: (0, 1), 4: (0, 1)})
    out, refinement = natural_structure(g)
    assert graphs_isomorphic(out, th)
    chain = next(ch for ch in refinement.values() if len(ch) == 2)
    assert {abs(d) for d in chain} == {1, 2}


def test_natural_structure_subdivided_rose():
    # rank-3 rose with one petal subdivided three times
    g = CoreGraph([0, 1, 2, 3],
                  {1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (3, 0),
                   5: (0, 0), 6: (0, 0)})
    out, _ = natural_structure(g)
    assert graphs_isomorphic(out, rose(3))


def test_natural_structure_circle_rejected():
    g = CoreGraph([0, 1], {1: (0, 1), 2: (1, 0)})
    with pytest.raises(GraphError):
        natural_structure(g)


def test_enumerate_natural_subforests():
    assert enumerate_natural_subforests(rose(3)) == [frozenset()]
    th = theta_graph()
    forests = enumerate_natural_subforests(th)
    assert sorted(forests, key=sorted) == sorted(
        [frozenset(), frozenset([1]), frozenset([2]), frozenset([3])],
        key=sorted)
    needle = sewing_needle()
    forests = enumerate_natural_subforests(needle)
    assert frozenset([1]) in forests and frozenset() in forests
    assert frozenset([2]) not in forests  # loop


def push(path, forest):
    """Push an edge path through a forest collapse: erase the forest edges."""
    return tuple(d for d in path if abs(d) not in forest)


def test_collapse_theta_to_rose():
    th = theta_graph()
    out, vmap = collapse(th, [1])
    assert graphs_isomorphic(out, rose(2))
    assert out.rank == th.rank
    assert set(out.edges) == {2, 3}
    assert vmap == {0: 0, 1: 0}
    out2, vmap2 = collapse(th, [])
    assert out2.edges == th.edges and vmap2 == {0: 0, 1: 1}
    with pytest.raises(GraphError):
        collapse(th, [1, 2])  # cycle


def test_collapse_needle():
    needle = sewing_needle()
    out, _ = collapse(needle, [1])
    assert out.rank == needle.rank
    assert graphs_isomorphic(out, rose(2))


def test_pushforward_path():
    th = theta_graph()
    out, vmap = collapse(th, [1])
    # f ebar g (edges 2, -1, 3 from vertex 0) pushes to the loop 2 3
    pushed = push((2, -1, 3), {1})
    assert pushed == (2, 3)
    assert out.check_path(pushed, vmap[0]) == vmap[0]
    # identity collapse keeps circuits
    assert push((2, -3), set()) == (2, -3)


def test_pushforward_vs_oracle_random():
    rng = random.Random(7)
    for _ in range(60):
        g = theta_graph() if rng.random() < 0.5 else sewing_needle()
        forests = [f for f in enumerate_natural_subforests(g) if f]
        f = rng.choice(forests)
        out, vmap = collapse(g, f)
        # random reduced path from vertex 0
        path = []
        v = 0
        for _ in range(rng.randint(1, 8)):
            d = rng.choice([d for d in g.directions(v)
                            if not path or d != -path[-1]])
            path.append(d)
            v = g.head(d)
        pushed = push(path, f)
        # a reduced path stays reduced: the forest holds no closed path
        assert reduce_letters(pushed)[0] == pushed
        if pushed:
            assert out.check_path(pushed, vmap[0]) == vmap[v]
        else:
            assert vmap[0] == vmap[v]


def test_blowups_rose2():
    blows = list(enumerate_blowups(rose(2)))
    assert len(blows) == 3
    for g2, new_eid in blows:
        assert g2.rank == 2
        back, vmap = collapse(g2, [new_eid])
        assert back.edges == rose(2).edges
        assert set(vmap.values()) == {0}


def test_blowups_theta_none():
    assert list(enumerate_blowups(theta_graph())) == []


def test_blowups_rose3_count():
    blows = list(enumerate_blowups(rose(3)))
    assert len(blows) == 25
    for g2, new_eid in blows:
        back, _ = collapse(g2, [new_eid])
        assert back.edges == rose(3).edges


def test_graph_isomorphisms_rose():
    isos = list(graph_isomorphisms(rose(2), rose(2)))
    # petal permutations x orientation flips: 2! * 2^2 = 8
    assert len(isos) == 8
    isos3 = list(graph_isomorphisms(theta_graph(), theta_graph()))
    # vertex swap x 3! edge matchings, orientations forced: 2 * 6 = 12
    assert len(isos3) == 12
    assert not graphs_isomorphic(rose(2), theta_graph())


def test_rank_preserved_random_collapse():
    rng = random.Random(3)
    g = rose(3)
    for _ in range(40):
        blows = list(enumerate_blowups(g))
        if blows and rng.random() < 0.6:
            g = rng.choice(blows)[0]
        else:
            forests = [f for f in enumerate_natural_subforests(g) if f]
            if not forests:
                continue
            g2, _ = collapse(g, rng.choice(forests))
            if g2.is_natural():
                g = g2
        assert g.rank == 3


def union_find_oracle(ends):
    """union_find as it was: a nested find with path halving, then one
    find per endpoint."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for e, o, t in ends:
        ro, rt = find(o), find(t)
        if ro != rt:
            parent[rt] = ro
            joined.append(e)
    return {v: find(v) for v in parent}, joined


def test_union_find_matches_oracle():
    # representatives, their order and the joined edges are all the same,
    # on random multigraphs with loops and parallel edges
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 30)
        ends = [(e, rng.randrange(n), rng.randrange(n))
                for e in range(1, rng.randint(1, 2 * n) + 1)]
        root, joined = union_find(ends)
        want_root, want_joined = union_find_oracle(ends)
        assert list(root.items()) == list(want_root.items())
        assert joined == want_joined
