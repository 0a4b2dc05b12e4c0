"""Distortion witnesses: the substitution automorphisms, conjugated
transvection families, the two/multi-component complexes, and the report.

The witnesses are phi_k = theta^k phi_0 theta^-k, and `witness_rows` is
the one generator of them: it certifies theta and phi_0 once per table,
after which each phi_k is one substitution of u_k = theta^k(e_1) into
phi_0's images.

Everything is exact: occurrence counts come from integer transition-matrix
powers (arbitrary precision) independently of the trace-based counter, and
growth never gets fitted numerically.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .words import (CyclicWord, Endomorphism, Automorphism, ReducedWord,
                    basis_word, invert_letters, reduce_letters, substitute,
                    word)
from .marked import MarkedGraph
from .graphs import CoreGraph
from . import counting


class WitnessError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Nielsen generator bookkeeping.
#
# Fixed generating set for word-length accounting: signed basis permutations,
# inversions, and both-sided transvections. theta() checks theta's token
# expression by composition, phi_0 is defined by its tokens, and row k's
# Nielsen bound is 2k |theta| + |phi_0| in tokens.
# ---------------------------------------------------------------------------

def token_endo(tok, n):
    kind = tok[0]
    if kind == "perm":
        sigma = tok[1]
        return Endomorphism(n, tuple(
            basis_word(sigma[i], n) if sigma[i] > 0
            else basis_word(-sigma[i], n).inverse()
            for i in range(n)))
    if kind == "inv":
        i = tok[1]
        images = [basis_word(j, n) for j in range(1, n + 1)]
        images[i - 1] = images[i - 1].inverse()
        return Endomorphism(n, tuple(images))
    if kind in ("L", "R"):
        _, i, j, s = tok
        images = [basis_word(x, n) for x in range(1, n + 1)]
        aj = basis_word(j, n) if s > 0 else basis_word(j, n).inverse()
        if kind == "L":
            images[i - 1] = aj * images[i - 1]
        else:
            images[i - 1] = images[i - 1] * aj
        return Endomorphism(n, tuple(images))
    raise WitnessError("unknown token %r" % (tok,))


def tokens_to_endo(tokens, n):
    """Compose tokens, first token applied first."""
    out = Endomorphism.identity(n)
    for tok in tokens:
        out = token_endo(tok, n).compose(out)
    return out


def theta_tokens(n, m):
    """The substitution map as [cyclic signed permutation, one transvection]."""
    sigma = list(range(1, n + 1))
    for i in range(2, m + 1):
        sigma[i - 1] = i - 1
    sigma[0] = m
    return [("perm", tuple(sigma)), ("L", m, 1, +1)]


def theta(n, m):
    """e_1 -> e_1 e_m, e_i -> e_{i-1} (2<=i<=m), identity above m."""
    if not (2 <= m <= n - 1):
        raise WitnessError("need 2 <= m <= n-1")
    images = []
    for i in range(1, n + 1):
        if i == 1:
            images.append(word([1, m], n))
        elif i <= m:
            images.append(basis_word(i - 1, n))
        else:
            images.append(basis_word(i, n))
    endo = Endomorphism(n, tuple(images))
    inv = theta_inverse_endo(n, m)
    auto = Automorphism(endo, inv)
    toks = theta_tokens(n, m)
    if tokens_to_endo(toks, n) != endo:
        raise WitnessError("token expression for theta broke")
    return auto, toks


def theta_inverse_endo(n, m):
    """e_i -> e_{i+1} (i<m), e_m -> e_2^-1 e_1, identity above m."""
    images = []
    for i in range(1, n + 1):
        if i < m:
            images.append(basis_word(i + 1, n))
        elif i == m:
            images.append(word([-2, 1], n))
        else:
            images.append(basis_word(i, n))
    return Endomorphism(n, tuple(images))


def theta_inverse(n, m):
    auto, _ = theta(n, m)
    return auto.inverse()


def theta_powers(th):
    """Yield u_0 = e_1, u_1 = Theta(e_1), u_2 = Theta^2(e_1), ... endlessly,
    for th = theta(n, m)[0].

    Each step applies th to the previous item and raises unless no letter
    cancels (the train-track certificate).
    """
    w = basis_word(1, th.rank)
    while True:
        yield w
        w, cancelled = th.endo.apply_counting_cancellation(w)
        if cancelled:
            raise WitnessError("train-track positivity violated")


def u_k(n, m, k):
    """Theta^k(e_1), with the no-cancellation train-track certificate."""
    if k < 0:
        raise WitnessError("need k >= 0")
    return next(islice(theta_powers(theta(n, m)[0]), k, None))


# -- exact integer matrices --------------------------------------------------

def transition_matrix(m):
    """M[j][i] = occurrences of e_{j+1} in Theta(e_{i+1}), restricted to the
    exponentially growing subrose."""
    M = [[0] * m for _ in range(m)]
    M[0][0] = 1
    M[m - 1][0] = 1
    for i in range(2, m + 1):
        M[i - 2][i - 1] = 1
    return M


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_pow(M, k):
    n = len(M)
    R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    P = [row[:] for row in M]
    while k:
        if k & 1:
            R = mat_mul(R, P)
        P = mat_mul(P, P)
        k >>= 1
    return R


def occurrence_count(m, j, k):
    """Occurrences of e_j in Theta^k(e_1), by matrix powers (big integers)."""
    return mat_pow(transition_matrix(m), k)[j - 1][0]


def pair_counts(n, m, k):
    """Counts of adjacent ordered letter pairs in Theta^k(e_1).

    Linear recursion on (letter counts, pair counts); exact, independent of
    expanding the word. Images are positive so no cancellation ever occurs.
    """
    th, _ = theta(n, m)
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


# ---------------------------------------------------------------------------
# Witness parameters and the three cases.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessParams:
    n: int
    case: str                  # "connected" | "two_component" | "multi_component"
    r: int = 0                 # connected: rank of A, 1 <= r <= n-2
    ranks: tuple = ()          # component ranks (cases 2 and 3)

    def __post_init__(self):
        if self.case == "connected":
            if not (1 <= self.r <= self.n - 2):
                raise WitnessError("connected case needs 1 <= r <= n-2")
        elif self.case == "two_component":
            if len(self.ranks) != 2 or min(self.ranks) < 1:
                raise WitnessError("two_component case needs two ranks")
            if self.coindex() < 2:
                raise WitnessError("two_component case needs coindex >= 2")
        elif self.case == "multi_component":
            if len(self.ranks) < 3 or min(self.ranks) < 1:
                raise WitnessError("multi_component case needs >= 3 ranks")
            if self.coindex() < 2:
                raise WitnessError("coindex >= 2 required")
            if sum(self.ranks[2:]) > self.coindex() - 1:
                raise WitnessError("extra components must fit in the spare rose")
        else:
            raise WitnessError("unknown case %r" % self.case)

    def coindex(self):
        if self.case == "connected":
            return (self.n - 1) - (self.r - 1)
        return (self.n - 1) - sum(r - 1 for r in self.ranks)

    @property
    def m(self):
        if self.case == "connected":
            return self.r + 1
        return self.ranks[0] + self.ranks[1]


def phi_zero_tokens(params):
    n = params.n
    if params.case == "connected":
        return [("R", n, 1, +1)]
    m = params.m
    toks = []
    for j in range(m + 1, n + 1):
        toks.append(("L", j, 1, -1))
        toks.append(("R", j, 1, +1))
    return toks


def witness_rows(params):
    """Yield the rows (k, phi_k, Nielsen upper bound), k = 0, 1, 2, ...

    phi_k = theta^k phi_0 theta^-k, with phi_0 = tokens_to_endo(
    phi_zero_tokens(params)). The checks run once per table: theta and
    theta^-1 map <e_1..e_m> into itself and fix each e_j with j > m, and
    phi_0 fixes e_1..e_m and sends each e_j with j > m to a word in e_1 and
    e_j. Then phi_k fixes e_1..e_m, and phi_k(e_j) is phi_0(e_j) with e_1
    replaced by u_k = theta^k(e_1). `verify_factorization` is the oracle
    that composes the product.
    """
    n, m = params.n, params.m
    th, th_toks = theta(n, m)
    for endo in (th.endo, th.inverse_endo):
        for i, im in enumerate(endo.images, 1):
            if (any(abs(a) > m for a in im.letters) if i <= m
                    else im.letters != (i,)):
                raise WitnessError("theta does not keep the subrose "
                                   "<e_1..e_%d> at e_%d" % (m, i))
    p0_toks = phi_zero_tokens(params)
    phi0 = tokens_to_endo(p0_toks, n)
    for i, im in enumerate(phi0.images, 1):
        if (im.letters != (i,) if i <= m
                else not {abs(a) for a in im.letters} <= {1, i}):
            raise WitnessError("phi_0 is not a witness at e_%d" % i)
    fixed = phi0.images[:m]
    for k, uk in enumerate(theta_powers(th)):
        moved = tuple(ReducedWord._derived(
            substitute(im.letters, {1: uk.letters, j: (j,)})[0], n)
            for j, im in enumerate(phi0.images[m:], m + 1))
        yield k, Endomorphism(n, fixed + moved), \
            2 * k * len(th_toks) + len(p0_toks)


def phi_k(params, k):
    """The row (k, phi_k, Nielsen upper bound) of `witness_rows`."""
    if k < 0:
        raise WitnessError("need k >= 0")
    return next(islice(witness_rows(params), k, None))


def verify_factorization(params, k):
    """compose(theta^k, phi_0, thetabar^k) equals phi_k on the basis."""
    th, _ = theta(params.n, params.m)
    _, built, _ = phi_k(params, 0)
    _, phi, _ = phi_k(params, k)
    for _ in range(k):
        built = th.endo.compose(built).compose(th.inverse_endo)
    return built == phi


# -- case 2 / case 3 complex -------------------------------------------------

@dataclass
class Case2Complex:
    params: object
    Gp: MarkedGraph           # the blown-up graph G' (basepoint on H'_1)
    G: MarkedGraph            # G = G'/eta0
    eta0: int
    eta1: int
    h0_edges: tuple
    h1_edges: tuple
    h2_edges: tuple
    sigma_path: tuple         # sigma' in G'
    gamma_path: tuple         # gamma' in G', based at v2
    c0: CyclicWord

    def A0_gens(self):
        return [basis_word(i, self.params.n) for i in range(1, self.params.ranks[0] + 1)]

    def A1_gens(self):
        m = self.params.m
        return [basis_word(i, self.params.n)
                for i in range(self.params.ranks[0] + 1, m + 1)]

    def B_gens(self):
        return [basis_word(i, self.params.n) for i in range(1, self.params.m + 1)]

    def u_prime_path(self, k):
        """u'_k: u_k with eta0 insertions at the H_0/H_1 transitions."""
        uk = u_k(self.params.n, self.params.m, k)
        p = self.params.ranks[0]

        def side(letter):
            return 0 if abs(letter) <= p else 1

        out = []
        letters = uk.letters
        if side(letters[0]) == 0:
            out.append(-self.eta0)
        for i, a in enumerate(letters):
            out.append(a)
            if i + 1 < len(letters):
                s1, s2 = side(a), side(letters[i + 1])
                if s1 == 0 and s2 == 1:
                    out.append(self.eta0)
                elif s1 == 1 and s2 == 0:
                    out.append(-self.eta0)
        if side(letters[-1]) == 0:
            out.append(self.eta0)
        red, cancelled = reduce_letters(out)
        if cancelled:
            raise WitnessError("cancellation in u'_%d" % k)
        return red

    def phi_image_of_gamma(self, k):
        """Phi'_k(gamma') = rho' eta1 u'_k sigma' u'_k^-1 eta1^-1, and the
        no-cancellation certificate."""
        up = self.u_prime_path(k)
        rho = (self.h2_edges[0],)
        path = rho + (self.eta1,) + up + self.sigma_path + invert_letters(up) \
            + (-self.eta1,)
        red, cancelled = reduce_letters(path)
        if cancelled:
            raise WitnessError("cancellation in Phi'_k(gamma')")
        return red

    def counting_context(self):
        return counting.build_context(
            [self.A0_gens(), self.A1_gens()], self.B_gens(), self.Gp)


def case2_build(params):
    """The marked graph pair (G', G) with sigma', gamma', c_0 per the
    two-component construction (also used for >= 3 components)."""
    if params.case == "connected":
        raise WitnessError("case2_build needs a multi-component parameter set")
    n = params.n
    p, q = params.ranks[0], params.ranks[1]
    m = p + q
    spare = n - m
    h0 = tuple(range(1, p + 1))
    h1 = tuple(range(p + 1, m + 1))
    h2 = tuple(range(m + 1, m + spare + 1))
    eta0 = m + spare + 1
    eta1 = m + spare + 2
    edges = {}
    for e in h0:
        edges[e] = (0, 0)
    for e in h1:
        edges[e] = (1, 1)
    for e in h2:
        edges[e] = (2, 2)
    edges[eta0] = (0, 1)
    edges[eta1] = (2, 1)
    graph = CoreGraph([0, 1, 2], edges)
    marking = []
    for i in range(1, n + 1):
        if i <= p:
            marking.append((-eta0, i, eta0))
        elif i <= m:
            marking.append((i,))
        else:
            marking.append((-eta1, i, eta1))
    Gp = MarkedGraph(graph, 1, marking)
    G, _ = Gp.collapse_marked([eta0])
    l0, l1 = h0[0], h1[0]
    sigma = (l1, -eta0, l0, eta0, -l1)
    gamma = (h2[0], eta1) + sigma + (-eta1,)
    c0 = CyclicWord.of(Gp.path_to_word(gamma, at_vertex=2))
    return Case2Complex(params, Gp, G, eta0, eta1, h0, h1, h2, sigma, gamma, c0)


# -- distortion report --------------------------------------------------------

@dataclass
class ReportRow:
    k: int
    upper_nielsen: int
    i_k: int
    spine_lb: int


def distortion_report(params, k_max):
    """Exact per-k table: Nielsen upper bound, crossing count, spine bound.

    One pass over `witness_rows`: row k+1 takes u_{k+1} from u_k by one
    application of Theta. Case 1 counts are cross-checked against the
    matrix-power oracle.
    """
    n, m = params.n, params.m
    if params.case == "connected":
        A = [basis_word(i, n) for i in range(1, params.r + 1)]
        B = [basis_word(i, n) for i in range(1, m + 1)]
        ctx = counting.build_context([A], B, MarkedGraph.rose_identity(n))
        c0 = CyclicWord.of(basis_word(n, n))
    else:
        cx = case2_build(params)
        ctx = cx.counting_context()
        c0 = cx.c0
    rows = []
    for k, phi, upper in islice(witness_rows(params), k_max + 1):
        ik = counting.count_i(ctx, phi.apply_cyclic(c0)).value
        if params.case == "connected":
            oracle = occurrence_count(m, m, k)
            if ik != oracle:
                raise WitnessError("trace count %d disagrees with matrix "
                                   "oracle %d at k=%d" % (ik, oracle, k))
        rows.append(ReportRow(k, upper, ik, ik // 2))
    return rows


def report_csv(rows):
    lines = ["k,upper_nielsen,i_k,spine_lb"]
    for r in rows:
        lines.append("%d,%d,%d,%d" % (r.k, r.upper_nielsen, r.i_k, r.spine_lb))
    return "\n".join(lines) + "\n"


def ratio_within_of_golden(num, den, eps=Fraction(1, 1000)):
    """|num/den - (1+sqrt 5)/2| < eps, decided in exact rational arithmetic."""
    r = Fraction(num, den)
    x = 2 * r - 1
    lo, hi = x - 2 * eps, x + 2 * eps
    if hi <= 0:
        return False
    lo_ok = lo <= 0 or lo * lo < 5
    hi_ok = hi * hi > 5
    return lo_ok and hi_ok
