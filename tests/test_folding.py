import random

import pytest

from outerspine import folding
from outerspine.folding import fold_words, is_full_rose, rose_petal_values
from outerspine.words import word, reduce_letters


def test_fold_basis_gives_rose():
    gr = fold_words([(1,), (2,), (3,)]).snapshot()
    assert is_full_rose(gr, 3)


def test_fold_theta_images():
    # theta (m=2, n=3): images e1 e2, e1, e3 generate freely
    gr = fold_words([(1, 2), (1,), (3,)]).snapshot()
    assert is_full_rose(gr, 3)


def test_fold_proper_subgroup():
    gr = fold_words([(1, 1), (2,)]).snapshot()
    assert not is_full_rose(gr, 2)
    # <a1 a2> core is a 2-cycle after pruning
    core = fold_words([(1, 2)]).core()
    assert len(core.edges) == 2 and core.rank == 1


def test_history_recovers_inverse():
    gr = fold_words([(1, 2), (1,), (3,)], track_history=True).snapshot()
    vals = rose_petal_values(gr, 3)
    # vals[j-1] expresses a_j in terms of x_i -> image_i
    images = [word([1, 2], 3), word([1], 3), word([3], 3)]

    def ev(xword):
        out = []
        for a in xword:
            im = images[abs(a) - 1]
            out.extend(im.letters if a > 0 else im.inverse().letters)
        return reduce_letters(out)[0]

    for j in range(1, 4):
        assert ev(vals[j - 1]) == (j,)


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
        gr = fold_words(words, track_history=False).snapshot()
        assert is_full_rose(gr, n)
        gr = fold_words(words, track_history=True).snapshot()
        vals = rose_petal_values(gr, n)

        def ev(xword):
            out = []
            for a in xword:
                im = words[abs(a) - 1]
                out.extend(im if a > 0 else [-x for x in reversed(im)])
            return reduce_letters(out)[0]

        for j in range(1, n + 1):
            assert ev(vals[j - 1]) == (j,)


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
        gr = folded.snapshot()
        assert gr.edges == {} and gr.vertices == {0} and gr.base == 0
        with pytest.raises(folding.FoldError):
            folded.based_core()
        with pytest.raises(folding.FoldError):
            folded.core()


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
        gr = fold_words(words).snapshot()
        assert gr.edges == \
            fold_words(words, track_history=True).snapshot().edges
        assert gr.base == 0
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert fold_words(shuffled).snapshot().edges == gr.edges
        more = list(words)
        for _ in range(3):
            u, v = rng.choice(more), rng.choice(more)
            inv = tuple(-a for a in reversed(v))
            more.insert(rng.randint(0, len(more)), rng.choice(
                [u + v, inv + u + v, reduce_letters(v + u + inv)[0]]))
        assert fold_words(more).snapshot().edges == gr.edges


def test_plain_fold_keeps_hairs_of_unreduced_words():
    # the backtrack a1 a1^-1 folds to a hanging edge
    assert fold_words([(1, -1, 2)]).snapshot().edges == {1: (0, 1, 1),
                                                         2: (0, 0, 2)}
    # a pure conjugator c c^-1 is all hair
    assert fold_words([(1, 2, -2, -1)]).snapshot().edges == {1: (0, 1, 1),
                                                             2: (1, 2, 2)}
    # both reads stop at the base: the conjugator a2 is laid down as an arc
    # and only a3 closes into a loop at its end
    assert fold_words([(1,), (2, 3, -2)]).snapshot().edges == {
        1: (0, 0, 1), 2: (0, 1, 2), 3: (1, 1, 3)}


def test_plain_fold_merges_a_word_read_through():
    # a1 is read completely to the middle of the a1 a1 cycle, whose two
    # vertices then merge: a relation fold, so the rank drops to 1
    gr = fold_words([(1, 1), (1,)]).snapshot()
    assert gr.edges == {1: (0, 0, 1)} and gr.rank == 1
    # a1 a4 is read forward to a1's end and backward to a3's end: the two
    # reads meet mid-word and their ends merge
    gr = fold_words([(1, 2), (3, 4), (1, 4)]).snapshot()
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
    gr = fold_words(words).snapshot()
    assert folds == [] and gr.rank == 3 and len(gr.edges) == 8
    assert fold_words(words, track_history=True).snapshot().edges == gr.edges
    assert len(folds) == 33 - 8 and all(folds)
