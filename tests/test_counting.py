import random

import pytest

from outerspine import counting, graphs
from outerspine.marked import MarkedGraph
from outerspine.words import (Endomorphism, CyclicWord, basis_word, word,
                              is_automorphism)
from outerspine.covers import FreeFactorSystem, realizes
from outerspine.counting import (build_context, count_i, lipschitz_audit,
                                 CountError, ConjugateIntoB)
from outerspine.witness import u_k, occurrence_count


def rose_ctx(n=3, r=1):
    G = MarkedGraph.rose_identity(n)
    A = [basis_word(i, n) for i in range(1, r + 1)]
    B = [basis_word(i, n) for i in range(1, r + 2)]
    return build_context([A], B, G), G


def test_build_context_rose():
    ctx, G = rose_ctx()
    assert ctx.shape == "loop_at_core"
    assert len(ctx.block) == 1
    assert ctx.K.rank == 2


def test_build_context_rank_mismatch():
    G = MarkedGraph.rose_identity(3)
    A = [basis_word(1, 3)]
    B = [basis_word(i, 3) for i in range(1, 4)]
    with pytest.raises(CountError):
        build_context([A], B, G)


def test_count_examples():
    ctx, G = rose_ctx()
    c0 = CyclicWord.of(basis_word(3, 3))
    assert count_i(ctx, c0).value == 0
    c1 = CyclicWord.of(word([3, 1, 2], 3))
    assert count_i(ctx, c1).value == 1
    c5 = CyclicWord.of(basis_word(3, 3) * u_k(3, 2, 5))
    assert count_i(ctx, c5).value == 5


def test_count_rejects_B_classes():
    ctx, G = rose_ctx()
    with pytest.raises(ConjugateIntoB):
        count_i(ctx, CyclicWord.of(word([1, 2], 3)))
    with pytest.raises(ConjugateIntoB):
        count_i(ctx, CyclicWord.of(word([2, 1, 1, -2], 3).conjugate_by(
            basis_word(3, 3))))


def test_count_conjugacy_invariance():
    ctx, G = rose_ctx()
    base = word([3, 1, 2, 2], 3)
    for g in [basis_word(1, 3), word([2, 3], 3), word([-3, 1], 3)]:
        c = CyclicWord.of(base.conjugate_by(g))
        assert count_i(ctx, c).value == count_i(ctx, CyclicWord.of(base)).value


def test_count_matches_matrix_oracle():
    ctx, G = rose_ctx()
    for k in range(11):
        ck = CyclicWord.of(basis_word(3, 3) * u_k(3, 2, k))
        assert count_i(ctx, ck).value == occurrence_count(2, 2, k)


def test_equivariance():
    n = 3
    G = MarkedGraph.rose_identity(n)
    A = [basis_word(1, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    psi = is_automorphism(Endomorphism.from_lists([[1], [2], [3, 2]], n))
    c = CyclicWord.of(word([3, 1, 2], n))
    lhs_ctx = build_context([A], B, G.act(psi))
    lhs = count_i(lhs_ctx, c).value
    A2 = [psi.apply(w) for w in A]
    B2 = [psi.apply(w) for w in B]
    rhs_ctx = build_context([A2], B2, G)
    rhs = count_i(rhs_ctx, psi.apply_cyclic(c)).value
    assert lhs == rhs


def test_equivariance_random():
    rng = random.Random(17)
    n = 3
    G0 = MarkedGraph.rose_identity(n)
    A = [basis_word(1, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    tried = 0
    for _ in range(40):
        imgs = [[x] for x in range(1, n + 1)]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(n)
            j = rng.choice([x for x in range(n) if x != i])
            if rng.random() < 0.5:
                imgs[i] = list((word(imgs[j], n) * word(imgs[i], n)).letters)
            else:
                imgs[i] = list((word(imgs[i], n) * word(imgs[j], n)).letters)
        psi = is_automorphism(Endomorphism.from_lists(imgs, n))
        if psi is None:
            continue
        c = CyclicWord.of(word([3, 1, 2], n))
        try:
            lhs = count_i(build_context([A], B, G0.act(psi)), c).value
            rhs_ctx = build_context([[psi.apply(w) for w in A]],
                                    [psi.apply(w) for w in B], G0)
            rhs = count_i(rhs_ctx, psi.apply_cyclic(c)).value
        except CountError:
            continue
        assert lhs == rhs
        tried += 1
    assert tried >= 10


def test_lipschitz_audit_blowup_collapse():
    n = 3
    G = MarkedGraph.rose_identity(n)
    A = [basis_word(1, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    c = CyclicWord.of(word([3, 1, 2, 1, 2, 2], n))
    F = FreeFactorSystem.of([A], n)
    base = count_i(build_context([A], B, G), c).value
    for v in sorted(G.graph.vertices):
        for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
            blown, new_eid, _ = G.blowup_marked(v, p1, p2)
            if realizes(blown, F) is None:
                continue
            i1, i2 = lipschitz_audit([A], B, blown, [new_eid], c)
            assert i1 <= i2 <= i1 + 2
            assert i2 == base


def test_lipschitz_audit_folds_each_core_once(monkeypatch):
    """The audit folds B and each A over G alone: the cores over G/F are
    collapses of those, whether or not G/F is natural."""
    folded = []
    fold = counting.stallings_core

    def counting_fold(gens, G):
        folded.append(gens)
        return fold(gens, G)

    monkeypatch.setattr(counting, "stallings_core", counting_fold)
    n = 3
    G = MarkedGraph.rose_identity(n)
    blown, new_eid, _ = G.blowup_marked(0, (1, -1), (2, -2, 3, -3))
    A0, A1 = [basis_word(1, n)], [basis_word(2, n)]
    B = A0 + A1
    c = CyclicWord.of(word([3, 1, 2, 1, 2, 2], n))
    assert lipschitz_audit([A0], B, blown, [new_eid], c) == (3, 3)
    assert len(folded) == 2
    # two subdivided petals, a1 = e1 e4 and a2 = e2 e5: G/e1 keeps the
    # valence-2 vertex of a2's petal
    g = graphs.CoreGraph([0, 1, 2], {1: (0, 1), 2: (0, 2), 3: (0, 0),
                                     4: (1, 0), 5: (2, 0)})
    G = MarkedGraph(g, 0, [(1, 4), (2, 5), (3,)])
    folded.clear()
    c = CyclicWord.of(word([3, 1, 2, 2], n))
    assert lipschitz_audit([A0], B, G, [1], c) == (2, 2)
    assert len(folded) == 2
    # case 2: a1's and a2's loops joined through a3's vertex by e3 and e5
    g = graphs.CoreGraph([0, 1, 2], {1: (0, 0), 2: (1, 1), 3: (0, 2),
                                     4: (2, 2), 5: (2, 1)})
    G = MarkedGraph(g, 0, [(1,), (3, 5, 2, -5, -3), (3, 4, -3)])
    folded.clear()
    c = CyclicWord.of(word([3, 1, 3, 2], n))
    assert lipschitz_audit([A0, A1], B, G, [3], c) == (0, 2)
    assert len(folded) == 3


def test_two_component_context():
    # barbell-with-extra-loop: A0 = <a1>, A1 = <a2>, B = <a1, a2>
    g = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (0, 1), 4: (0, 0)})
    G = MarkedGraph(g, 0, [(1,), (3, 2, -3), (4,)])
    n = 3
    A0 = [basis_word(1, n)]
    A1 = [basis_word(2, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    ctx = build_context([A0, A1], B, G)
    assert ctx.shape == "edge"
    c = CyclicWord.of(word([3, 1, 2], n))
    assert count_i(ctx, c).value >= 1
