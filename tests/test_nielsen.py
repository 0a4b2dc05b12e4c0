"""Seeded differential tests of `words.nielsen_product`, which builds a
product of Nielsen generators and its inverse by Nielsen moves, against
the fold it replaced: `is_automorphism` on the composed endomorphism finds
the same inverse, and the samplers give the automorphisms they gave when
they composed their steps and folded the product."""

import random

from outerspine import sampling
from outerspine.words import Endomorphism, is_automorphism, nielsen_product


def generator_endo(tok, n):
    """The endomorphism of one Nielsen generator, written out."""
    imgs = [[x] for x in range(1, n + 1)]
    if tok[0] == "perm":
        imgs = [[x] for x in tok[1]]
    elif tok[0] == "inv":
        imgs[tok[1] - 1] = [-tok[1]]
    else:
        kind, i, j, s = tok
        imgs[i - 1] = [s * j, i] if kind == "L" else [i, s * j]
    return Endomorphism.from_lists(imgs, n)


def random_tokens(rng, n, count):
    tokens = []
    for _ in range(count):
        kind = rng.choice(["perm", "inv", "L", "R"])
        if kind == "perm":
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            tokens.append(("perm", tuple(rng.choice([1, -1]) * x
                                         for x in sigma)))
        elif kind == "inv":
            tokens.append(("inv", rng.randint(1, n)))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            tokens.append((kind, i, j, rng.choice([1, -1])))
    return tokens


def test_nielsen_product_matches_the_fold():
    """Every generator kind, both signs of a transvection, ranks 2-6: the
    product is the composed endomorphism, and its inverse is the one the
    fold finds."""
    rng = random.Random(26)
    kinds = set()
    for n in range(2, 7):
        for _ in range(60):
            tokens = random_tokens(rng, n, rng.randint(0, 8))
            endo = Endomorphism.identity(n)
            for tok in tokens:
                endo = generator_endo(tok, n).compose(endo)
            want = is_automorphism(endo)
            auto = nielsen_product(tokens, n)
            assert want is not None
            assert auto.endo == want.endo
            assert auto.inverse_endo == want.inverse_endo
            kinds.update((n,) + tok[:1] + tok[3:] for tok in tokens)
    assert kinds == {(n,) + k for n in range(2, 7) for k in
                     [("perm",), ("inv",), ("L", 1), ("L", -1), ("R", 1),
                      ("R", -1)]}


# The samplers as they were when each step was folded to an automorphism
# and the composed product was folded again for its inverse.

def fold_transvection(n, i, j, side="R"):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [j, i] if side == "L" else [i, j]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def fold_inversion(n, i):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [-i]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def fold_random_token_auto(rng, n, moves):
    endo = Endomorphism.identity(n)
    for _ in range(moves):
        if rng.random() < 0.15:
            endo = fold_inversion(n, rng.randint(1, n)).endo.compose(endo)
        else:
            i = rng.randint(1, n)
            j = rng.choice([x for x in range(1, n + 1) if x != i])
            endo = fold_transvection(n, i, j, rng.choice(["L", "R"])) \
                .endo.compose(endo)
    return is_automorphism(endo)


def fold_random_stab_auto(rng, n, r, moves):
    endo = Endomorphism.identity(n)
    for _ in range(moves):
        kind = rng.random()
        if kind < 0.35 and r >= 2:
            i = rng.randint(1, r)
            j = rng.choice([x for x in range(1, r + 1) if x != i])
            step = fold_transvection(n, i, j, rng.choice(["L", "R"]))
        elif kind < 0.5:
            step = fold_inversion(n, rng.randint(1, r))
        else:
            j = rng.randint(r + 1, n)
            i = rng.choice([x for x in range(1, n + 1) if x != j])
            step = fold_transvection(n, j, i, rng.choice(["L", "R"]))
        endo = step.endo.compose(endo)
    return is_automorphism(endo)


def same(got, want):
    return (got.endo, got.inverse_endo) == (want.endo, want.inverse_endo)


def test_samplers_match_their_fold_based_construction():
    """For fixed seeds the samplers make the same draws and return the same
    automorphism, inverse included, as the fold-based construction."""
    for n in range(2, 6):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    for side in "LR":
                        assert same(sampling.transvection(n, i, j, side),
                                    fold_transvection(n, i, j, side))
        for seed in range(60):
            moves = seed % 7
            r = 1 + seed % (n - 1)
            for sample, oracle, args in (
                    (sampling.random_token_auto, fold_random_token_auto,
                     (n, moves)),
                    (sampling.random_stab_auto, fold_random_stab_auto,
                     (n, r, moves))):
                rng, rng_oracle = random.Random(seed), random.Random(seed)
                assert same(sample(rng, *args), oracle(rng_oracle, *args))
                assert rng.getstate() == rng_oracle.getstate()
