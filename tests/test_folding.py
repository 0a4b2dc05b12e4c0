import random

import pytest

from fold_oracle import snapshot
from outerspine import folding, graphs
from outerspine.folding import LabeledGraph, fold_onto, fold_words
from outerspine.words import word, reduce_letters


def test_fold_basis_gives_rose():
    assert fold_onto([(1,), (2,), (3,)], graphs.rose(3), 0) is not None


def test_fold_theta_images():
    # theta (m=2, n=3): images e1 e2, e1, e3 generate freely
    assert fold_onto([(1, 2), (1,), (3,)], graphs.rose(3), 0) is not None


def test_fold_proper_subgroup():
    assert fold_onto([(1, 1), (2,)], graphs.rose(2), 0) is None
    # <a1 a2> core is a 2-cycle after pruning
    core = fold_words([(1, 2)]).core()
    assert len(core.edges) == 2 and core.rank == 1


def test_history_recovers_inverse():
    vals = fold_onto([(1, 2), (1,), (3,)], graphs.rose(3), 0,
                     track_history=True)
    # vals[j] expresses a_j in terms of x_i -> image_i
    images = [word([1, 2], 3), word([1], 3), word([3], 3)]

    def ev(xword):
        out = []
        for a in xword:
            im = images[abs(a) - 1]
            out.extend(im.letters if a > 0 else im.inverse().letters)
        return reduce_letters(out)[0]

    for j in range(1, 4):
        assert ev(vals[j]) == (j,)


def test_history_random_bases():
    rng = random.Random(11)
    for _ in range(40):
        n = 3
        imgs = [[i] for i in range(1, n + 1)]
        # random Nielsen moves keep it a basis
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(n)
            j = rng.choice([x for x in range(n) if x != i])
            which = rng.random()
            wi = list(imgs[i])
            wj = imgs[j]
            if which < 0.45:
                cand = wj + wi
            elif which < 0.9:
                cand = wi + [-a for a in reversed(wj)]
            else:
                cand = [-a for a in reversed(wi)]
            red = reduce_letters(cand)[0]
            if red:
                imgs[i] = list(red)
        words = [tuple(w) for w in imgs]
        rose = graphs.rose(n)
        assert fold_onto(words, rose, 0) == {j: () for j in range(1, n + 1)}
        vals = fold_onto(words, rose, 0, track_history=True)

        def ev(xword):
            out = []
            for a in xword:
                im = words[abs(a) - 1]
                out.extend(im if a > 0 else [-x for x in reversed(im)])
            return reduce_letters(out)[0]

        for j in range(1, n + 1):
            assert ev(vals[j]) == (j,)


def test_based_core_and_tail():
    # <a2 a1 a2^-1>: core is the a1 loop, tail spells a2
    core, tail, q, based = fold_words([(2, 1, -2)]).based_core()
    assert core.rank == 1
    assert len(core.edges) == 1
    assert [based.label_of(d) for d in tail] == [2]
    assert q in core.vertices


def test_trivial_core_raises():
    for words in ([], [()], [(), ()]):
        folded = fold_words(words)
        gr = snapshot(folded)
        assert gr.edges == {} and gr.vertices == {0} and gr.base == 0
        for core in (folded.based_core, folded.core, folded.core_edges):
            with pytest.raises(folding.FoldError, match="trivial core"):
                core()


def random_word_list(rng, n):
    """A few words over the rank-n alphabet, some unreduced, some empty."""
    return [tuple(rng.choice([1, -1]) * rng.randint(1, n)
                  for _ in range(rng.randint(0, 8)))
            for _ in range(rng.randint(1, n + 1))]


def test_plain_fold_ignores_word_order_and_redundant_words():
    """Any permutation of the words, and the words with products and
    conjugates of earlier ones added, generate the same subgroup and give
    the identical snapshot, which is also the whole-loop history fold's."""
    rng = random.Random(1601)
    for _ in range(300):
        n = rng.randint(1, 4)
        words = random_word_list(rng, n)
        gr = snapshot(fold_words(words))
        assert gr.edges == \
            snapshot(fold_words(words, track_history=True)).edges
        assert gr.base == 0
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert snapshot(fold_words(shuffled)).edges == gr.edges
        more = list(words)
        for _ in range(3):
            u, v = rng.choice(more), rng.choice(more)
            inv = tuple(-a for a in reversed(v))
            more.insert(rng.randint(0, len(more)), rng.choice(
                [u + v, inv + u + v, reduce_letters(v + u + inv)[0]]))
        assert snapshot(fold_words(more)).edges == gr.edges


def test_plain_fold_keeps_hairs_of_unreduced_words():
    # the backtrack a1 a1^-1 folds to a hanging edge
    assert snapshot(fold_words([(1, -1, 2)])).edges == {
        1: (0, 1, 1), 2: (0, 0, 2)}
    # a pure conjugator c c^-1 is all hair
    assert snapshot(fold_words([(1, 2, -2, -1)])).edges == {
        1: (0, 1, 1), 2: (1, 2, 2)}
    # both reads stop at the base: the conjugator a2 is laid down as an arc
    # and only a3 closes into a loop at its end
    assert snapshot(fold_words([(1,), (2, 3, -2)])).edges == {
        1: (0, 0, 1), 2: (0, 1, 2), 3: (1, 1, 3)}


def test_plain_fold_merges_a_word_read_through():
    # a1 is read completely to the middle of the a1 a1 cycle, whose two
    # vertices then merge: a relation fold, so the rank drops to 1
    gr = snapshot(fold_words([(1, 1), (1,)]))
    assert gr.edges == {1: (0, 0, 1)} and gr.rank == 1
    # a1 a4 is read forward to a1's end and backward to a3's end: the two
    # reads meet mid-word and their ends merge
    gr = snapshot(fold_words([(1, 2), (3, 4), (1, 4)]))
    assert gr.edges == {1: (0, 1, 1), 2: (1, 0, 2), 3: (0, 1, 3),
                        4: (1, 0, 4)}


def test_plain_fold_attaches_only_the_unread_middle(monkeypatch):
    """Freely reduced words whose reads never close up start no fold: the
    shared conjugator is read, or laid down once as an arc, and each word
    adds only its middle. The whole-loop history fold re-finds it."""
    folds = []
    real = folding.Folder.fold

    def counting(self, d1, d2):
        folds.append(self.track)
        real(self, d1, d2)

    monkeypatch.setattr(folding.Folder, "fold", counting)
    c = (2, -3, 2, 2, 1)
    inv = tuple(-a for a in reversed(c))
    words = [inv + (a,) + c for a in (1, 3, 4)]
    gr = snapshot(fold_words(words))
    assert folds == [] and gr.rank == 3 and len(gr.edges) == 8
    assert snapshot(fold_words(words, track_history=True)).edges == gr.edges
    assert len(folds) == 33 - 8 and all(folds)


def test_history_fold_raises_when_the_gauge_fails(monkeypatch):
    """Folding two a1 edges with transfer words x1 and x2 needs a gauge
    move at the head of the second; with the move a no-op the fold finds
    the two words still differ."""
    monkeypatch.setattr(folding.Folder, "_gauge", lambda self, w, g: None)
    with pytest.raises(folding.FoldError, match="gauge failed"):
        fold_words([(1, 2), (1, 3)], track_history=True)


def test_labeled_graph_refuses_two_directions_of_one_label():
    with pytest.raises(folding.FoldError, match="not an immersion"):
        LabeledGraph({1: (0, 1, 1), 2: (0, 2, 1)}, 0)
    with pytest.raises(folding.FoldError, match="not an immersion"):
        LabeledGraph({1: (0, 1, 1), 2: (2, 1, 1)}, 0)
    assert LabeledGraph({1: (0, 1, 1), 2: (1, 0, 1)}, 0).rank == 1
