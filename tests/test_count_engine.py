"""Seeded differential tests of the one-pass crossing count against the
two-pass trace it replaced (tests/count_oracle.py), and of the composed
segment summaries against the one-pass count."""

import random

import count_oracle
import witness_oracle
from outerspine import counting, graphs, sampling, witness
from outerspine.counting import (CountError, build_context, close, compose,
                                 edge_summary)
from outerspine.marked import MarkedGraph
from outerspine.words import CyclicWord, ReducedWord, basis_word, word


def outcome(count, ctx, c):
    try:
        got = count(ctx, c)
    except CountError as exc:
        return type(exc)
    return got.value, got.start


def fixed_contexts():
    """Each complement shape, and the two-component witness complex."""
    n = 3
    out = []
    lollipop = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (0, 1),
                                         4: (0, 0)})
    G = MarkedGraph(lollipop, 0, [(1,), (3, 2, -3), (4,)])
    A0, A1 = [basis_word(1, n)], [basis_word(2, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    out.append((build_context([A0], B, G), B))
    out.append((build_context([A0, A1], B, G), B))
    theta = graphs.CoreGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1),
                                      4: (0, 0)})
    G = MarkedGraph(theta, 0, [(1, -3), (2, -3), (4,)])
    out.append((build_context([A0], B, G), B))
    G = MarkedGraph.rose_identity(n)
    B = [basis_word(1, n), word([2, 3], n)]
    out.append((build_context([A0], B, G), B))
    cx = witness.case2_build(witness.WitnessParams(4, "two_component",
                                                   ranks=(1, 1)))
    out.append((cx.counting_context(), cx.B_gens()))
    return out


def random_contexts(rng, count):
    """Contexts over random spine vertices of ranks 3 and 4; vertices
    outside CVK^[A] (build_context raises) are skipped."""
    out = []
    while len(out) < count:
        n = rng.choice([3, 4])
        r = rng.randint(1, n - 2)
        A = [basis_word(i, n) for i in range(1, r + 1)]
        B = [basis_word(i, n) for i in range(1, r + 2)]
        G = MarkedGraph.rose_identity(n).act(
            sampling.random_stab_auto(rng, n, r, rng.randint(0, 3)))
        for _ in range(rng.randint(0, 3)):
            G = sampling.random_blowup(rng, G) or G
        try:
            out.append((build_context([A], B, G), B))
        except CountError:
            continue
    return out


def random_classes(rng, n, B):
    """Random classes, classes conjugate into B, and long products of both."""
    out = []
    for _ in range(12):
        out.append(sampling.random_reduced_word(rng, n, 12, nontrivial=True))
    for _ in range(6):
        letters = []
        for _ in range(rng.randint(1, 5)):
            b = rng.choice(B)
            letters.extend(b.letters if rng.random() < 0.5
                           else b.inverse().letters)
        g = sampling.random_reduced_word(rng, n, 6)
        out.append(ReducedWord.make(letters, n).conjugate_by(g))
    for _ in range(2):
        w = sampling.random_reduced_word(rng, n, 40, nontrivial=True)
        out.append(w.power(rng.randint(2, 25)))
    return [CyclicWord.of(w) for w in out if not w.is_trivial()]


def test_count_i_matches_two_pass_trace():
    rng = random.Random(71)
    seen = set()
    for ctx, B in fixed_contexts() + random_contexts(rng, 24):
        for c in random_classes(rng, ctx.G.rank, B):
            want = outcome(count_oracle.count_i, ctx, c)
            assert outcome(counting.count_i, ctx, c) == want, c.letters
            seen.add(want if isinstance(want, type) else want[0] > 0)
    # both verdicts and nonzero counts were exercised
    assert {counting.ConjugateIntoB, True, False} <= seen


def test_count_i_matches_two_pass_on_witness_classes():
    params = witness.WitnessParams(4, "connected", r=1)
    ctx = build_context([[basis_word(1, 4)]],
                        [basis_word(1, 4), basis_word(2, 4)],
                        MarkedGraph.rose_identity(4))
    c0 = CyclicWord.of(basis_word(4, 4))
    for k in (0, 5, 10):
        _, phi, _ = witness_oracle.phi_k(params, k)
        ck = phi.apply_cyclic(c0)
        assert outcome(counting.count_i, ctx, ck) == \
            outcome(count_oracle.count_i, ctx, ck)


def bracketed_summary(ctx, circuit, rng):
    """The circuit's summary, composed from its edge summaries in a random
    bracketing."""
    parts = [edge_summary(ctx, a) for a in circuit]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [compose(parts[i], parts[i + 1])]
    return parts[0]


def test_close_of_composed_edge_summaries_matches_count_i():
    rng = random.Random(73)
    seen = set()
    block_lengths = set()
    for ctx, B in fixed_contexts() + random_contexts(rng, 24):
        block_lengths.add(len(ctx.block))
        for c in random_classes(rng, ctx.G.rank, B):
            want = outcome(counting.count_i, ctx, c)
            want = want if isinstance(want, type) else want[0]
            W = bracketed_summary(ctx, ctx.G.circuit_of(c), rng)
            try:
                got = close(W)
            except CountError as exc:
                got = type(exc)
            assert got == want, c.letters
            seen.add(want if isinstance(want, type) else want > 0)
    assert {counting.ConjugateIntoB, True, False} <= seen
    # windows that straddle junctions: blocks longer than one edge
    assert max(block_lengths) > 1
