"""Test oracles for the witness tables: theta's inverse, the pair-count
recursion on theta, single rows of `witness_rows` and their composed
factorization, and the case-2 image path Phi'_k(gamma') built letter by
letter. Only tests import this module."""

from itertools import islice

from outerspine import witness
from outerspine.words import Automorphism, invert_letters, reduce_letters


def theta_inverse(n, m):
    auto, _ = witness.theta(n, m)
    return Automorphism(auto.inverse_endo, auto.endo)


def pair_counts(n, m, k):
    """Counts of adjacent ordered letter pairs in Theta^k(e_1).

    Linear recursion on (letter counts, pair counts); exact, independent of
    expanding the word. Images are positive so no cancellation ever occurs.
    """
    th, _ = witness.theta(n, m)
    images = {i: th.endo.images[i - 1].letters for i in range(1, m + 1)}
    letters = {i: 0 for i in range(1, m + 1)}
    letters[1] = 1
    pairs = {}
    for _ in range(k):
        new_letters = {i: 0 for i in range(1, m + 1)}
        for x, cnt in letters.items():
            for y in images[x]:
                new_letters[y] += cnt
        new_pairs = {}
        for x, cnt in letters.items():
            im = images[x]
            for a, b in zip(im, im[1:]):
                new_pairs[(a, b)] = new_pairs.get((a, b), 0) + cnt
        for (x1, x2), cnt in pairs.items():
            a, b = images[x1][-1], images[x2][0]
            new_pairs[(a, b)] = new_pairs.get((a, b), 0) + cnt
        letters, pairs = new_letters, new_pairs
    return letters, pairs


def phi_k(params, k):
    """The row (k, phi_k, Nielsen upper bound) of `witness_rows`."""
    if k < 0:
        raise witness.WitnessError("need k >= 0")
    return next(islice(witness.witness_rows(params), k, None))


def verify_factorization(params, k):
    """compose(theta^k, phi_0, thetabar^k) equals phi_k on the basis."""
    th, _ = witness.theta(params.n, params.m)
    _, built, _ = phi_k(params, 0)
    _, phi, _ = phi_k(params, k)
    for _ in range(k):
        built = th.endo.compose(built).compose(th.inverse_endo)
    return built == phi


def u_prime_path(cx, k):
    """u'_k: u_k with eta0 insertions at the H_0/H_1 transitions, for the
    case-2 complex cx."""
    uk = witness.u_k(cx.params.n, cx.params.m, k)
    p = cx.params.ranks[0]

    def side(letter):
        return 0 if abs(letter) <= p else 1

    out = []
    letters = uk.letters
    if side(letters[0]) == 0:
        out.append(-cx.eta0)
    for i, a in enumerate(letters):
        out.append(a)
        if i + 1 < len(letters):
            s1, s2 = side(a), side(letters[i + 1])
            if s1 == 0 and s2 == 1:
                out.append(cx.eta0)
            elif s1 == 1 and s2 == 0:
                out.append(-cx.eta0)
    if side(letters[-1]) == 0:
        out.append(cx.eta0)
    red, cancelled = reduce_letters(out)
    if cancelled:
        raise witness.WitnessError("cancellation in u'_%d" % k)
    return red


def phi_image_of_gamma(cx, k):
    """Phi'_k(gamma') = rho' eta1 u'_k sigma' u'_k^-1 eta1^-1, and the
    no-cancellation certificate."""
    up = u_prime_path(cx, k)
    rho = (cx.h2_edges[0],)
    path = rho + (cx.eta1,) + up + cx.sigma_path + invert_letters(up) \
        + (-cx.eta1,)
    red, cancelled = reduce_letters(path)
    if cancelled:
        raise witness.WitnessError("cancellation in Phi'_k(gamma')")
    return red
