"""Distortion witnesses: the substitution automorphisms, conjugated
transvection families, the two/multi-component complexes, and the report.

The witnesses are phi_k = theta^k phi_0 theta^-k, and `witness_rows` is
the one generator of them: it certifies theta and phi_0 once per table,
after which each phi_k is one substitution of u_k = theta^k(e_1) into
phi_0's images.

`distortion_report` never expands a row: each class phi_k(c_0) is a
straight-line program over theta (symbols for theta^k(e_i), and for
their inverses when the class reads one, each built from row k-1's
symbols), and its crossing count comes from the counting layer's segment
summaries, composed only where two summarized middles meet and once to
close the class, so a row costs the same at every k. The tests hold it to
the two-pass letter walk of `count_oracle.count_i` on the expanded rows of
`witness_rows`.

Everything is exact: integers of arbitrary precision, no fitted growth.
The case-1 counts are cross-checked on every row against the occurrence
count of e_m in theta^k(e_1), a column of the transition matrix's powers
stepped once per row, independently of the trace.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from typing import NamedTuple

from .words import (CyclicWord, Endomorphism, ReducedWord, basis_word,
                    invert_letters, nielsen_product, substitute)
from .marked import MarkedGraph
from .graphs import CoreGraph
from . import counting
from .counting import close, compose, path_summary


class WitnessError(ValueError):
    pass


def theta_tokens(n, m):
    """The substitution map as [cyclic signed permutation, one transvection]."""
    sigma = list(range(1, n + 1))
    for i in range(2, m + 1):
        sigma[i - 1] = i - 1
    sigma[0] = m
    return [("perm", tuple(sigma)), ("L", m, 1, +1)]


def theta(n, m):
    """e_1 -> e_1 e_m, e_i -> e_{i-1} (2<=i<=m), identity above m; the
    automorphism of its tokens, checked against these images."""
    if not (2 <= m <= n - 1):
        raise WitnessError("need 2 <= m <= n-1")
    images = [(1, m)] + [(i - 1,) for i in range(2, m + 1)] \
        + [(i,) for i in range(m + 1, n + 1)]
    toks = theta_tokens(n, m)
    auto = nielsen_product(toks, n)
    if [im.letters for im in auto.endo.images] != images:
        raise WitnessError("token expression for theta broke")
    return auto, toks


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


def transition_columns(m):
    """Yield M^k e_1 for k = 0, 1, 2, ... endlessly: the occurrences of
    e_1..e_m in Theta^k(e_1), each column one step of M from the last,
    read through M's m + 1 nonzero entries."""
    entries = [(j, i, x) for j, row in enumerate(transition_matrix(m))
               for i, x in enumerate(row) if x]
    column = [1] + [0] * (m - 1)
    while True:
        yield column
        step = [0] * m
        for j, i, x in entries:
            step[j] += x * column[i]
        column = step


def occurrence_count(m, j, k):
    """Occurrences of e_j in Theta^k(e_1): entry j of M^k e_1."""
    return next(islice(transition_columns(m), k, None))[j - 1]


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
            if len(self.ranks) != 2:
                raise WitnessError("two_component case needs two ranks")
            if min(self.ranks) < 1:
                raise WitnessError("component ranks must be >= 1")
            if self.coindex() < 2:
                raise WitnessError("two_component case needs coindex >= 2")
        elif self.case == "multi_component":
            if len(self.ranks) < 3:
                raise WitnessError("multi_component case needs >= 3 ranks")
            if min(self.ranks) < 1:
                raise WitnessError("component ranks must be >= 1")
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


def _certified(params):
    """(theta, its tokens, phi_0, its tokens), certified once per table:
    theta and theta^-1 map <e_1..e_m> into itself and fix each e_j with
    j > m, and phi_0 fixes e_1..e_m and sends each e_j with j > m to a word
    in e_1 and e_j."""
    n, m = params.n, params.m
    th, th_toks = theta(n, m)
    for endo in (th.endo, th.inverse_endo):
        for i, im in enumerate(endo.images, 1):
            if (any(abs(a) > m for a in im.letters) if i <= m
                    else im.letters != (i,)):
                raise WitnessError("theta does not keep the subrose "
                                   "<e_1..e_%d> at e_%d" % (m, i))
    p0_toks = phi_zero_tokens(params)
    phi0 = nielsen_product(p0_toks, n).endo
    for i, im in enumerate(phi0.images, 1):
        if (im.letters != (i,) if i <= m
                else not {abs(a) for a in im.letters} <= {1, i}):
            raise WitnessError("phi_0 is not a witness at e_%d" % i)
    return th, th_toks, phi0, p0_toks


def witness_rows(params):
    """Yield the rows (k, phi_k, Nielsen upper bound), k = 0, 1, 2, ...

    phi_k = theta^k phi_0 theta^-k, with phi_0 = nielsen_product(
    phi_zero_tokens(params)). With the checks of `_certified`, phi_k fixes
    e_1..e_m, and phi_k(e_j) is phi_0(e_j) with e_1 replaced by
    u_k = theta^k(e_1). The tests compose the product as an oracle.
    """
    n, m = params.n, params.m
    th, th_toks, phi0, p0_toks = _certified(params)
    fixed = phi0.images[:m]
    for k, uk in enumerate(theta_powers(th)):
        moved = tuple(ReducedWord._derived(
            substitute(im.letters, {1: uk.letters, j: (j,)})[0], n)
            for j, im in enumerate(phi0.images[m:], m + 1))
        yield k, Endomorphism(n, fixed + moved), \
            2 * k * len(th_toks) + len(p0_toks)


# -- case 2 / case 3 complex -------------------------------------------------

@dataclass
class Case2Complex:
    params: object
    Gp: MarkedGraph           # the blown-up graph G' (basepoint on H'_1)
    eta0: int
    eta1: int
    h2_edges: tuple
    sigma_path: tuple         # sigma' in G'
    c0: CyclicWord

    @cached_property
    def G(self):
        """G = G'/eta0."""
        return self.Gp.collapse_marked([self.eta0])[0]

    def A0_gens(self):
        return [basis_word(i, self.params.n) for i in range(1, self.params.ranks[0] + 1)]

    def A1_gens(self):
        m = self.params.m
        return [basis_word(i, self.params.n)
                for i in range(self.params.ranks[0] + 1, m + 1)]

    def B_gens(self):
        return [basis_word(i, self.params.n) for i in range(1, self.params.m + 1)]

    def counting_context(self):
        return counting.build_context(
            [self.A0_gens(), self.A1_gens()], self.B_gens(), self.Gp)


def case2_build(params):
    """The marked graph pair (G', G) with sigma' and c_0, the class of
    gamma', per the two-component construction (also used for >= 3
    components)."""
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
    # The marking paths are closed and reduced by construction, and the
    # one fold of `inverse_marking_values` in path_to_word certifies that
    # they generate pi_1, as `MarkedGraph.check_generates` would.
    Gp = MarkedGraph._derived(graph, 1, marking)
    l0, l1 = h0[0], h1[0]
    sigma = (l1, -eta0, l0, eta0, -l1)
    gamma = (h2[0], eta1) + sigma + (-eta1,)
    c0 = CyclicWord.of(Gp.path_to_word(gamma, at_vertex=2))
    return Case2Complex(params, Gp, eta0, eta1, h2, sigma, c0)


# -- witness rows as straight-line programs ------------------------------------
#
# A row's class c_k = phi_k(c_0) is held as a program over theta: the symbol
# E_{k,i} is the reduced G-edge path of theta^k(e_i) (i <= m) and I_{k,i} its
# inverse; E_{k+1,i} is the concatenation of E_{k,y} over the letters y of
# theta(e_i), and I_{k+1,i} that of the I_{k,y} in reverse order. The I
# symbols exist only when the class reads one: not in case 1, where
# phi_0(e_n) = e_n e_1, but in cases 2 and 3, where e_1^-1 occurs. A path
# is an explicit head, a counting summary of its middle and an explicit
# tail. Explicit edges after a middle stay explicit until the next middle
# arrives; the stretch between two middles is then summarized by one walk
# (`counting.path_summary`) and the three pieces composed
# (`counting.compose`). A stepped symbol is cut back to `_END_EDGES`
# explicit edges at each end, so a row costs the same at every k.

# Explicit G-edges kept at each end of a stepped symbol. Cancellation at a
# junction is read off the explicit ends; one that would reach a
# summarized middle raises WitnessError, so a count is exact or refused.
_END_EDGES = 4


class _Summaries(dict):
    """summaries[path]: `counting.path_summary` of an explicit piece of the
    row programs, kept for one report, since the pieces repeat from row to
    row (a summary is never changed once built, so they are shared)."""

    def __init__(self, ctx):
        self.ctx = ctx

    def __missing__(self, path):
        got = self[path] = path_summary(self.ctx, path)
        return got


class _Path(NamedTuple):
    head: tuple      # the whole path when mid is None
    mid: object      # counting.Summary of the middle, or None
    tail: tuple


def _explicit(edges):
    return _Path(edges, None, ())


def _cut(memo, P):
    """P with at most `_END_EDGES` explicit edges at each end; the edges
    in between join the middle. An already cut P comes back unchanged."""
    c = _END_EDGES
    head, mid, tail = P
    if mid is None:
        if len(head) <= 2 * c:
            return P
        return _Path(head[:c], memo[head[c:-c]], head[-c:])
    if len(head) <= c and len(tail) <= c:
        return P
    if len(head) > c:
        mid = compose(memo[head[c:]], mid)
    if len(tail) > c:
        mid = compose(mid, memo[tail[:-c]])
    return _Path(head[:c], mid, tail[-c:])


def _cancelled(left, right):
    """How many edges cancel where the path left meets the path right."""
    j, most = 0, min(len(left), len(right))
    while j < most and left[-1 - j] == -right[j]:
        j += 1
    return j


def _join(memo, pieces):
    """The reduced concatenation of reduced paths."""
    head, mid, tail = pieces[0]
    for q_head, q_mid, q_tail in pieces[1:]:
        left = head if mid is None else tail
        j = _cancelled(left, q_head)
        if ((mid is not None and j == len(left))
                or (q_mid is not None and j == len(q_head))):
            raise WitnessError("cancellation reaches a compressed middle")
        joint = left[:len(left) - j] + q_head[j:]
        if mid is None:
            head, mid, tail = joint, q_mid, q_tail
        elif q_mid is None:
            tail = joint
        else:
            mid = compose(compose(mid, memo[joint]), q_mid)
            tail = q_tail
    return _Path(head, mid, tail)


def _count_cyclic(memo, P):
    """counting.count_i's value for the class of the closed path P: an
    explicit P is counted as count_i counts (`counting.count_loop`), and a
    compressed one as its middle followed by one closing stretch, tail
    then head, a rotation of the same cyclic word."""
    if P.mid is None:
        return counting.count_loop(memo.ctx, P.head)
    j = _cancelled(P.tail, P.head)
    if j == len(P.head) or j == len(P.tail):
        raise WitnessError("cancellation reaches a compressed middle")
    return close(compose(
        P.mid, memo[P.tail[:len(P.tail) - j] + P.head[j:]]))


def _row_counts(ctx, c0, th, phi0, m):
    """Yield i_k = count_i(ctx, phi_k(c_0)) for k = 0, 1, 2, ... from the
    row programs, never expanding a row.

    c_k is c_0 with each letter e_j^{+-1} (j > m) replaced by phi_0(e_j)^{+-1}
    in which each e_1^{+-1} is the symbol E_{k,1} or I_{k,1}; every other
    letter, the e_1..e_m that phi_k fixes included, is its marking path.
    The I symbols are built and stepped only when the class reads I_{k,1}
    (cases 2 and 3). A symbol whose theta image is one letter is that
    letter's symbol of the row before (E_{k+1,i} = E_{k,i-1} for i >= 2,
    theta's images, which `theta` checks), passed on with no join and no
    cut, so each row steps one new symbol per family: E_{k+1,1}, and
    I_{k+1,1} in cases 2 and 3.

    Summaries are composed only where two middles meet and once to close:
    once the symbols are compressed, a case-1 row composes three times
    (two to step E_{k,1} = E_{k-1,1} E_{k-1,m}, one to close), and a row
    of cases 2 and 3 seven times (two more to step I_{k,1}, and two where
    the row's I_{k,1} and E_{k,1} meet).

    Cancellation where pieces meet (the cyclic closing junction included):
    - case 1: G is the rose and u_k = theta^k(e_1) is a positive word, so
      no edge cancels;
    - cases 2 and 3: the marking paths of e_1..e_p and of the spare letters
      are eta0- and eta1-conjugates of loops, so at most the one eta0 or
      eta1 conjugator edge cancels at a junction.
    Both are far inside `_END_EDGES`; a junction that would cancel into a
    compressed middle raises WitnessError instead of miscounting.
    """
    G = ctx.G
    template = []            # 1 and -1 stand for E_{k,1} and I_{k,1}
    for x in c0.letters:
        if abs(x) <= m:
            template.append(_explicit(G.expand((x,))))
            continue
        im = phi0.images[abs(x) - 1].letters
        for y in (im if x > 0 else invert_letters(im)):
            template.append(y if abs(y) == 1
                            else _explicit(G.expand((y,))))
    images = {i: th.endo.images[i - 1].letters for i in range(1, m + 1)}
    E = {i: _explicit(G.expand((i,))) for i in images}
    I = ({i: _explicit(invert_letters(G.expand((i,)))) for i in images}
         if -1 in template else None)
    memo = _Summaries(ctx)
    while True:
        yield _count_cyclic(memo, _join(memo, [
            E[1] if p == 1 else I[1] if p == -1 else p for p in template]))
        E = {i: E[im[0]] if len(im) == 1
             else _cut(memo, _join(memo, [E[y] for y in im]))
             for i, im in images.items()}
        if I is not None:
            I = {i: I[im[0]] if len(im) == 1
                 else _cut(memo, _join(memo, [I[y] for y in reversed(im)]))
                 for i, im in images.items()}


# -- distortion report --------------------------------------------------------

@dataclass
class ReportRow:
    k: int
    upper_nielsen: int
    i_k: int
    spine_lb: int


def distortion_report(params, k_max):
    """Exact per-k table: Nielsen upper bound, crossing count, spine bound.

    The counts come from the row programs (`_row_counts`), so a row costs
    the same at every k. theta is certified once per table: besides the
    checks of `witness_rows`, its images of e_1..e_m must be positive
    words, so no theta^k(e_1) cancels (theta_powers' certificate, for every
    k at once). Case 1 counts are cross-checked against the occurrence
    count of e_m in theta^k(e_1), a column of M^k stepped once per row.
    """
    n, m = params.n, params.m
    th, th_toks, phi0, p0_toks = _certified(params)
    if any(a < 0 for im in th.endo.images[:m] for a in im.letters):
        raise WitnessError("train-track positivity violated")
    if params.case == "connected":
        A = [basis_word(i, n) for i in range(1, params.r + 1)]
        B = [basis_word(i, n) for i in range(1, m + 1)]
        ctx = counting.build_context([A], B, MarkedGraph.rose_identity(n))
        c0 = CyclicWord.of(basis_word(n, n))
    else:
        cx = case2_build(params)
        ctx = cx.counting_context()
        c0 = cx.c0
    columns = (transition_columns(m) if params.case == "connected"
               else repeat(None))
    rows = []
    for k, ik, column in zip(range(k_max + 1),
                             _row_counts(ctx, c0, th, phi0, m), columns):
        if column is not None and ik != column[m - 1]:
            raise WitnessError("trace count %d disagrees with matrix "
                               "oracle %d at k=%d" % (ik, column[m - 1], k))
        rows.append(ReportRow(k, 2 * k * len(th_toks) + len(p0_toks), ik,
                              ik // 2))
    return rows


def report_csv(rows):
    lines = ["k,upper_nielsen,i_k,spine_lb"]
    for r in rows:
        lines.append("%d,%d,%d,%d" % (r.k, r.upper_nielsen, r.i_k, r.spine_lb))
    return "\n".join(lines) + "\n"


def ratio_within_of_golden(num, den):
    """|num/den - (1+sqrt 5)/2| < 1/1000, decided in exact arithmetic."""
    x = 2 * Fraction(num, den) - 1
    lo, hi = x - Fraction(2, 1000), x + Fraction(2, 1000)
    if hi <= 0:
        return False
    lo_ok = lo <= 0 or lo * lo < 5
    hi_ok = hi * hi > 5
    return lo_ok and hi_ok
