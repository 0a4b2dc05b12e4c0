"""The three complement shapes of the counting context, exercised directly."""

import pytest

from outerspine import graphs
from outerspine.marked import MarkedGraph
from outerspine.words import CyclicWord, basis_word, word
from outerspine.counting import build_context, count_i, ConjugateIntoB


def test_lollipop_shape():
    # loop e2 hangs off the A-core through connector e3
    g = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (0, 1), 4: (0, 0)})
    G = MarkedGraph(g, 0, [(1,), (3, 2, -3), (4,)])
    n = 3
    ctx = build_context([[basis_word(1, n)]],
                        [basis_word(1, n), basis_word(2, n)], G)
    assert ctx.shape == "loop"
    assert [abs(ctx.K.label_of(d)) for d in ctx.block] == [2]
    c = CyclicWord.of(word([3, 2], n))
    assert count_i(ctx, c) == 1
    c2 = CyclicWord.of(word([3, 2, 2], n))
    assert count_i(ctx, c2) == 2
    c3 = CyclicWord.of(word([3, 1], n))
    assert count_i(ctx, c3) == 0


def test_edge_shape_distinct_endpoints():
    # theta-plus-petal: the A-core is a two-edge cycle, the complement a
    # single natural edge joining its two vertices
    g = graphs.CoreGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 0)})
    G = MarkedGraph(g, 0, [(1, -3), (2, -3), (4,)])
    n = 3
    ctx = build_context([[basis_word(1, n)]],
                        [basis_word(1, n), basis_word(2, n)], G)
    assert ctx.shape == "edge"
    assert [abs(ctx.K.label_of(d)) for d in ctx.block] == [2]
    assert count_i(ctx, CyclicWord.of(word([3, 2], n))) == 1
    assert count_i(ctx, CyclicWord.of(word([3, 1], n))) == 0
    # crossing twice via a2 a1^-1 a2 ... the stay a2 a1^-1 a2 crosses twice
    assert count_i(ctx, CyclicWord.of(word([3, 2, -1, 2], n))) == 2


def test_subdivided_loop_block():
    # B = <a1, a2 a3>: the B-core's loop is simplicially subdivided into two
    # edges, and partial traversals must not count
    n = 3
    G = MarkedGraph.rose_identity(n)
    A = [basis_word(1, n)]
    B = [basis_word(1, n), word([2, 3], n)]
    ctx = build_context([A], B, G)
    assert ctx.shape == "loop_at_core"
    assert len(ctx.block) == 2
    # a2 alone traverses only half the loop: zero complete crossings
    assert count_i(ctx, CyclicWord.of(basis_word(2, n))) == 0
    # a2 a3 lives in B: undefined
    with pytest.raises(ConjugateIntoB):
        count_i(ctx, CyclicWord.of(word([2, 3], n)))
    # a2^2 a3 crosses the full loop exactly once per stay
    assert count_i(ctx, CyclicWord.of(word([2, 2, 3], n))) == 1
    # two full periods in one stay
    assert count_i(ctx, CyclicWord.of(word([2, 2, 3, 2, 3], n))) == 2
