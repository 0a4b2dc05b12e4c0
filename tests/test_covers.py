import random

from outerspine import graphs, sampling
from outerspine.marked import MarkedGraph
from outerspine.words import (Endomorphism, basis_word, invert_letters,
                              is_automorphism, reduce_letters, word)
from outerspine.covers import (based_core, stallings_core,
                               labeled_isomorphism, FreeFactorSystem,
                               realizes, minimal_subtree_collapse_check)
from subgroup_tools import (conjugate_into, ffs_partial_order,
                            subgroup_generators, subgroups_conjugate)


def test_stallings_core_subrose():
    G = MarkedGraph.rose_identity(3)
    K = stallings_core([basis_word(1, 3), basis_word(2, 3)], G)
    assert K.rank == 2
    assert sorted(l for _, _, l in K.edges.values()) == [1, 2]


def test_stallings_core_cycle():
    G = MarkedGraph.rose_identity(2)
    K = stallings_core([word([1, 2], 2)], G)
    assert K.rank == 1
    assert len(K.edges) == 2
    assert sorted(l for _, _, l in K.edges.values()) == [1, 2]


def test_stallings_core_based_trim_tail():
    G = MarkedGraph.rose_identity(2)
    K = based_core([basis_word(1, 2)], G)
    assert K.tail_labels == ()
    K2 = based_core([word([2, 1, -2], 2)], G)
    assert K2.tail_labels == (2,)
    assert K2.core.rank == 1


def test_full_basis_reproduces_graph():
    G = MarkedGraph.rose_identity(3)
    K = stallings_core([basis_word(i, 3) for i in range(1, 4)], G)
    assert sorted(l for _, _, l in K.edges.values()) == [1, 2, 3]
    assert K.rank == 3
    # over a theta-marked graph too
    g = graphs.theta_graph()
    T = MarkedGraph(g, 0, [(1, -3), (2, -3)])
    K = stallings_core([basis_word(1, 2), basis_word(2, 2)], T)
    assert sorted(l for _, _, l in K.edges.values()) == [1, 2, 3]


def test_subgroups_conjugate():
    G = MarkedGraph.rose_identity(3)
    A = stallings_core([basis_word(1, 3)], G)
    B = stallings_core([word([2, 1, -2], 3)], G)
    C = stallings_core([basis_word(2, 3)], G)
    assert subgroups_conjugate(A, B)
    assert not subgroups_conjugate(A, C)
    D1 = stallings_core([word([1, 1], 3), basis_word(2, 3)], G)
    D2 = stallings_core([word([1, 1, 1], 3).conjugate_by(basis_word(1, 3)),
                         word([1, 1], 3).conjugate_by(basis_word(1, 3)),
                         basis_word(2, 3).conjugate_by(basis_word(1, 3))], G)
    # D2 generates the a1-conjugate of <a1^2, a2>... careful: build directly
    g = basis_word(1, 3)
    gens = [w.conjugate_by(g) for w in [word([1, 1], 3), basis_word(2, 3)]]
    D2 = stallings_core(gens, G)
    assert subgroups_conjugate(D1, D2)


def test_coindex():
    n = 4
    F = FreeFactorSystem.of([[basis_word(i, n) for i in range(1, n)]], n)
    assert F.coindex() == 1
    F2 = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    assert F2.coindex() == 2
    F3 = FreeFactorSystem.of([[basis_word(i, 3) for i in range(1, 4)]], 3)
    assert F3.coindex() == 0


def test_ffs_partial_order():
    F1 = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    F2 = FreeFactorSystem.of([[basis_word(1, 3), basis_word(2, 3)]], 3)
    F3 = FreeFactorSystem.of([[basis_word(2, 3), basis_word(3, 3)]], 3)
    assert ffs_partial_order(F1, F1)
    assert ffs_partial_order(F1, F2)
    assert not ffs_partial_order(F1, F3)
    assert not ffs_partial_order(F2, F1)


def test_realizes_rose():
    G = MarkedGraph.rose_identity(3)
    F = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    w = realizes(G, F)
    assert w is not None
    assert w.edges == frozenset([1])
    # non-free-factor <a1^2> is never realized
    bad = FreeFactorSystem.of([[word([1, 1], 3)]], 3)
    assert realizes(G, bad) is None


def test_realizes_after_witness_action():
    G = MarkedGraph.rose_identity(3)
    phi1 = is_automorphism(Endomorphism.from_lists([[1], [2], [3, 1, 2]], 3))
    H = G.act(phi1)
    F = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    assert realizes(H, F) is not None


def test_realizes_two_components():
    # petals of a rose all share the vertex: no disjoint realization there
    G = MarkedGraph.rose_identity(3)
    F = FreeFactorSystem.of([[basis_word(1, 3)], [basis_word(2, 3)]], 3)
    assert realizes(G, F) is None
    # barbell-with-extra-loop realizes it
    g = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (0, 1), 4: (0, 0)})
    B = MarkedGraph(g, 0, [(1,), (3, 2, -3), (4,)])
    w = realizes(B, F)
    assert w is not None
    assert len(w.components) == 2
    assert w.components == (frozenset([1]), frozenset([2]))
    # components come back in the system's order
    F_rev = FreeFactorSystem.of([[basis_word(2, 3)], [basis_word(1, 3)]], 3)
    w_rev = realizes(B, F_rev)
    assert w_rev.edges == w.edges
    assert w_rev.components == tuple(reversed(w.components))


def test_minimal_subtree_collapse_theta():
    g = graphs.theta_graph()
    G = MarkedGraph(g, 0, [(1, -3), (2, -3)])
    assert minimal_subtree_collapse_check(G, [], [basis_word(1, 2)])
    assert minimal_subtree_collapse_check(G, [1], [basis_word(1, 2)])
    assert minimal_subtree_collapse_check(G, [3], [basis_word(1, 2)])


def test_minimal_subtree_collapse_random():
    rng = random.Random(23)
    checked = 0
    for _ in range(200):
        n = rng.choice([2, 3])
        G = MarkedGraph.rose_identity(n)
        # randomize by blow-ups and actions
        for _ in range(rng.randint(0, 3)):
            blows = []
            for v in sorted(G.graph.vertices):
                for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
                    blows.append((v, p1, p2))
            if blows and rng.random() < 0.7:
                v, p1, p2 = rng.choice(blows)
                G, _, _ = G.blowup_marked(v, p1, p2)
        forests = graphs.enumerate_natural_subforests(G.graph)
        forest = rng.choice(forests)
        k = rng.randint(1, 2)
        gens = []
        for _ in range(k):
            ls = [rng.choice([i for i in range(1, n + 1)] +
                             [-i for i in range(1, n + 1)])
                  for _ in range(rng.randint(1, 4))]
            w = word(ls, n)
            if not w.is_trivial():
                gens.append(w)
        if not gens:
            continue
        assert minimal_subtree_collapse_check(G, forest, gens)
        checked += 1
    assert checked >= 150


def test_subgroup_generators_roundtrip():
    G = MarkedGraph.rose_identity(3)
    gens = [word([2, 1, -2], 3), basis_word(3, 3)]
    K = based_core(gens, G)
    got = subgroup_generators(K, G)
    assert labeled_isomorphism(K.core, stallings_core(got, G)) is not None


def test_conjugate_into():
    G = MarkedGraph.rose_identity(3)
    A = stallings_core([word([2, 1, -2], 3)], G)
    B = stallings_core([basis_word(1, 3), basis_word(2, 3)], G)
    assert conjugate_into(A, B) is not None
    C = stallings_core([basis_word(3, 3)], G)
    assert conjugate_into(C, B) is None


def test_based_core_loops():
    """Each generator's loop lies in the core, closed at the attach vertex,
    and conjugated back through the tail it spells the generator's path."""
    rng = random.Random(12)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        G = sampling.random_marked_graph(rng, n, rng.randint(1, 3))
        gens = [sampling.random_reduced_word(rng, n, 5)
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:  # a common conjugator gives a long tail
            c = sampling.random_reduced_word(rng, n, 3)
            gens = [w.conjugate_by(c) for w in gens]
        if all(w.is_trivial() for w in gens):
            continue
        K = based_core(gens, G)
        core, tail = K.core, K.tail_labels
        assert len(K.loops) == len(gens)
        for w, loop in zip(gens, K.loops):
            assert all(abs(d) in core.edges for d in loop)
            end = K.attach
            for d in loop:
                assert core.tail(d) == end
                end = core.head(d)
            assert end == K.attach
            labels = tail + core.path_labels(loop) + invert_letters(tail)
            assert reduce_letters(labels)[0] == G.expand(w.letters)
            checked += 1
    assert checked >= 80
