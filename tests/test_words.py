import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from outerspine.words import (ReducedWord, CyclicWord, Endomorphism, WordError,
                              word, basis_word, cyclic_reduce,
                              is_automorphism, canonical_rotation,
                              least_rotation,
                              conjugate_letters, cyclic_core,
                              eventually_periodic_form, invert_letters,
                              reduce_letters, substitute)
from iso_oracle import primitive_root, simultaneous_conjugator


def rand_letters(rng, rank, n):
    out = []
    for _ in range(n):
        a = rng.choice([i for i in range(1, rank + 1)] +
                       [-i for i in range(1, rank + 1)])
        out.append(a)
    return out


letters_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)


def test_reduce_basic():
    assert word([1, -1], 3).letters == ()
    assert word([1, 2, -2, 3], 3).letters == (1, 3)
    # positive substitution concatenations stay reduced
    assert word([1, 2, 1], 3).letters == (1, 2, 1)


def test_reduce_rejects_out_of_range():
    with pytest.raises(WordError):
        word([4], 3)
    with pytest.raises(WordError):
        word([0], 3)


@given(letters_st)
@settings(max_examples=200, deadline=None)
def test_reduce_idempotent_and_inverse_cancels(ls):
    w = word(ls, 3)
    assert word(w.letters, 3) == w
    assert (w * w.inverse()).is_trivial()


def test_cyclic_reduce_examples():
    c, conj = cyclic_reduce(word([1, 2, -1], 3))
    assert c.letters == (2,)
    assert conj.letters == (1,)
    c, conj = cyclic_reduce(word([3, 1, 2], 3))
    assert c == CyclicWord.of(word([3, 1, 2], 3))
    assert conj * c.representative() * conj.inverse() == word([3, 1, 2], 3)
    # postcondition w = conj . cyc . conj^-1, brute-checked
    w = word([-2, 1, 2, 2], 3)
    c, conj = cyclic_reduce(w)
    assert conj * c.representative() * conj.inverse() == w
    assert c.letters == (1, 2)  # canonical rotation of the length-2 core


@given(letters_st.filter(lambda ls: any(ls)))
@settings(max_examples=200, deadline=None)
def test_cyclic_reduce_postcondition(ls):
    w = word(ls, 3)
    if w.is_trivial():
        return
    c, conj = cyclic_reduce(w)
    assert conj * c.representative() * conj.inverse() == w
    n = len(c.letters)
    for i in range(n):
        assert c.letters[i] != -c.letters[(i + 1) % n]
    assert c.letters == canonical_rotation(c.letters)


def kernel_cases(seed, count=300):
    """Seeded letter tuples over rank 3: empty, length 1, random (often not
    reduced) and proper powers, whose rotations repeat."""
    rng = random.Random(seed)
    cases = [(), (1,), (-3,)]
    for i in range(count):
        if i % 3 == 0:
            cases.append(tuple(rand_letters(rng, 3, rng.randrange(2))))
        elif i % 3 == 1:
            cases.append(tuple(rand_letters(rng, 3, rng.randrange(13))))
        else:
            period = rand_letters(rng, 3, rng.randrange(1, 4))
            cases.append(tuple(period * rng.randrange(2, 5)))
    return cases


def brute_reduce(letters):
    """Delete the first cancelling pair until none is left."""
    out = list(letters)
    cancelled = 0
    i = 0
    while i + 1 < len(out):
        if out[i] == -out[i + 1]:
            del out[i:i + 2]
            cancelled += 1
            i = 0
        else:
            i += 1
    return tuple(out), cancelled


def test_substitute_matches_expand_then_reduce():
    rng = random.Random(7)
    for letters in kernel_cases(1):
        image = {i: tuple(rand_letters(rng, 3, rng.randrange(4)))
                 for i in (1, 2, 3)}
        expanded = []
        for a in letters:
            if a > 0:
                expanded.extend(image[a])
            else:
                expanded.extend(-x for x in reversed(image[-a]))
        assert substitute(letters, image) == brute_reduce(expanded)



def test_conjugate_letters_matches_full_reduction():
    """Seeded reduced p and u, p often built from prefixes of u and of u^-1
    so that both junctions cancel, in part or through all of p."""
    rng = random.Random(18)
    for _ in range(3000):
        u = reduce_letters(rand_letters(rng, 2, rng.randrange(6)))[0]
        pieces = [u[:rng.randrange(len(u) + 1)],
                  tuple(rand_letters(rng, 2, rng.randrange(3))),
                  invert_letters(u[:rng.randrange(len(u) + 1)])]
        if rng.random() < 0.5:
            pieces[:2] = pieces[1::-1]
        p = reduce_letters(sum(pieces, ()))[0]
        assert conjugate_letters(p, u) == \
            brute_reduce(invert_letters(u) + p + u)[0]

def long_cases(seed):
    """Seeded tuples of at least 1000 letters: random ones, proper powers,
    and powers with one letter changed, whose rotations share long
    prefixes."""
    rng = random.Random(seed)
    cases = []
    for _ in range(4):
        cases.append(tuple(rand_letters(rng, 3, rng.randrange(1000, 1500))))
        period = rand_letters(rng, 3, rng.randrange(1, 30))
        power = period * (1000 // len(period) + 1)
        cases.append(tuple(power))
        power[rng.randrange(len(power))] = rng.choice([1, -1, 2, -2, 3, -3])
        cases.append(tuple(power))
    return cases


def test_least_rotation_is_smallest_least_offset():
    for letters in kernel_cases(6) + long_cases(7):
        rotations = [letters[r:] + letters[:r] for r in range(len(letters))]
        want = rotations.index(min(rotations)) if rotations else 0
        assert least_rotation(letters) == want


def test_canonical_rotation_is_least_rotation():
    for letters in kernel_cases(2) + long_cases(8):
        rotations = [letters[r:] + letters[:r] for r in range(len(letters))]
        assert canonical_rotation(letters) == min(rotations, default=())


def test_eventually_periodic_form_spells_the_ray():
    """The reduced W Z^k is the prefix of head period^k that drops as many
    letters at the end as the normal form dropped from W."""
    rng = random.Random(4)
    for letters in kernel_cases(5):
        period = cyclic_core(brute_reduce(letters)[0])[1]
        if not period:
            continue
        p = len(period)
        # heads that cancel into the period, some by more than one period
        tail = period * rng.randrange(3) + period[:rng.randrange(p)]
        for W in (brute_reduce(rand_letters(rng, 3, rng.randrange(6)))[0],
                  brute_reduce(tuple(rand_letters(rng, 3, rng.randrange(4)))
                               + invert_letters(tail))[0]):
            head, per = eventually_periodic_form(W, period)
            assert per in [period[r:] + period[:r] for r in range(p)]
            k = len(W) + 2
            ray = head + per * k
            assert brute_reduce(ray)[1] == 0
            dropped = len(W) - len(head)
            red = brute_reduce(W + period * k)[0]
            assert red == ray[:len(ray) - dropped]


def test_cyclic_reduce_smallest_offset():
    for letters in kernel_cases(3):
        red = brute_reduce(letters)[0]
        if not red:
            continue
        w = ReducedWord(red, 3)
        c, conj = cyclic_reduce(w)
        assert conj * c.representative() * conj.inverse() == w
        prefix, core = cyclic_core(red)
        assert prefix + core + tuple(-a for a in reversed(prefix)) == red
        assert len(core) == 1 or core[0] != -core[-1]
        offsets = [r for r in range(len(core))
                   if core[r:] + core[:r] == c.letters]
        assert conj == word(prefix + core[:offsets[0]], 3)


def theta_endo(n, m):
    images = []
    for i in range(1, n + 1):
        if i == 1:
            images.append([1, m])
        elif i <= m:
            images.append([i - 1])
        else:
            images.append([i])
    return Endomorphism.from_lists(images, n)


def test_apply_theta():
    th = theta_endo(3, 2)
    assert th.apply(basis_word(1, 3)).letters == (1, 2)
    assert Endomorphism.identity(3).apply(word([1, -2], 3)) == word([1, -2], 3)
    w = basis_word(1, 3)
    for _ in range(3):
        w = th.apply(w)
    assert w.letters == (1, 2, 1, 1, 2)


def test_compose():
    th = theta_endo(3, 2)
    psi = Endomorphism.from_lists([[2], [-2, 1], [3]], 3)
    assert th.compose(psi) == Endomorphism.identity(th.rank)
    assert psi.compose(th) == Endomorphism.identity(psi.rank)
    ident = Endomorphism.identity(3)
    assert ident.compose(th) == th


@given(st.integers(0, 10000))
@settings(max_examples=60, deadline=None)
def test_apply_respects_composition(seed):
    rng = random.Random(seed)
    n = 3
    f = Endomorphism.from_lists([rand_letters(rng, n, rng.randint(1, 3))
                                 for _ in range(n)], n)
    g = Endomorphism.from_lists([rand_letters(rng, n, rng.randint(1, 3))
                                 for _ in range(n)], n)
    w = word(rand_letters(rng, n, 5), n)
    assert f.compose(g).apply(w) == f.apply(g.apply(w))


def test_is_automorphism():
    th = theta_endo(3, 2)
    auto = is_automorphism(th)
    assert auto is not None
    ident = Endomorphism.identity(auto.rank)
    assert auto.endo.compose(auto.inverse_endo) == ident
    bad = Endomorphism.from_lists([[1, 2], [1, 2], [3]], 3)
    assert is_automorphism(bad) is None
    phi1 = Endomorphism.from_lists([[1], [2], [3, 1, 2]], 3)
    auto = is_automorphism(phi1)
    assert auto is not None
    assert auto.inverse_endo.images[2] == word([3, -2, -1], 3)


def test_is_automorphism_non_surjective():
    sub = Endomorphism.from_lists([[1], [2], [1, 2]], 3)
    assert is_automorphism(sub) is None
    # injective but not surjective (image is a proper free factor's mate)
    sq = Endomorphism.from_lists([[1, 1], [2], [3]], 3)
    assert is_automorphism(sq) is None
    # abelianization has determinant 1, yet a2 a1 a2 a1^-1 a2^-1 and a1
    # generate a proper subgroup: only the fold can reject this one
    det_one = Endomorphism.from_lists([[1], [2, 1, 2, -1, -2]], 2)
    assert is_automorphism(det_one) is None


@given(st.integers(0, 10000))
@settings(max_examples=40, deadline=None)
def test_random_token_autos_invert(seed):
    rng = random.Random(seed)
    n = 3
    endo = Endomorphism.identity(n)
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(["L", "R", "inv"])
        i = rng.randint(1, n)
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        if kind == "L":
            imgs = [list(im.letters) for im in Endomorphism.identity(n).images]
            imgs[i - 1] = [j] + imgs[i - 1]
        elif kind == "R":
            imgs = [list(im.letters) for im in Endomorphism.identity(n).images]
            imgs[i - 1] = imgs[i - 1] + [j]
        else:
            imgs = [list(im.letters) for im in Endomorphism.identity(n).images]
            imgs[i - 1] = [-i]
        endo = Endomorphism.from_lists(imgs, n).compose(endo)
    auto = is_automorphism(endo)
    assert auto is not None
    ident = Endomorphism.identity(auto.rank)
    assert auto.endo.compose(auto.inverse_endo) == ident
    assert auto.inverse_endo.compose(auto.endo) == ident


def brute_force_conjugator(us, vs, max_len):
    rank = us[0].rank
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for L in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=L):
            if any(combo[i] == -combo[i + 1] for i in range(L - 1)):
                continue
            g = ReducedWord(tuple(combo), rank)
            if all(u.conjugate_by(g) == v for u, v in zip(us, vs)):
                return g
    return None


def test_simultaneous_conjugator_examples():
    u = (word([1, 2], 2),)
    v = (word([2, 1], 2),)
    g = simultaneous_conjugator(u, v)
    assert g is not None
    assert u[0].conjugate_by(g) == v[0]
    us = (basis_word(1, 2), basis_word(2, 2))
    assert simultaneous_conjugator(us, us).is_trivial() or \
        all(u.conjugate_by(simultaneous_conjugator(us, us)) == u for u in us)
    assert simultaneous_conjugator(
        (basis_word(1, 2), basis_word(2, 2)),
        (basis_word(2, 2), basis_word(1, 2))) is None


@given(st.integers(0, 20000))
@settings(max_examples=250, deadline=None)
def test_simultaneous_conjugator_vs_brute_force(seed):
    rng = random.Random(seed)
    rank = 2
    us = tuple(word(rand_letters(rng, rank, rng.randint(1, 3)), rank)
               for _ in range(2))
    if all(u.is_trivial() for u in us):
        return
    g = word(rand_letters(rng, rank, rng.randint(0, 2)), rank)
    if rng.random() < 0.5:
        vs = tuple(u.conjugate_by(g) for u in us)
    else:
        vs = tuple(word(rand_letters(rng, rank, rng.randint(1, 3)), rank)
                   for _ in range(2))
    found = simultaneous_conjugator(us, vs)
    brute = brute_force_conjugator(us, vs, 5)
    if brute is not None:
        assert found is not None
        assert all(u.conjugate_by(found) == v for u, v in zip(us, vs))
    if found is not None and len(found) <= 5:
        assert brute is not None


def test_primitive_root():
    w = word([1, 2, 1, 2], 2)
    z = primitive_root(w)
    assert z == word([1, 2], 2)
    w = word([2, 1, 1, -2], 2)
    z = primitive_root(w)
    assert z * z == w
