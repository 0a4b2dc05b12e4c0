import random
from itertools import islice
from types import SimpleNamespace

import pytest

from outerspine import cli, counting, witness
from outerspine.words import (CyclicWord, Endomorphism, basis_word, word,
                              invert_letters, is_automorphism,
                              nielsen_product, substitute)
from outerspine.marked import MarkedGraph, equivalent
from outerspine.covers import FreeFactorSystem, realizes
from outerspine.counting import count_i
from outerspine.witness import (theta, u_k, occurrence_count, theta_powers,
                                ReportRow, WitnessParams,
                                case2_build, distortion_report, report_csv,
                                ratio_within_of_golden, WitnessError,
                                witness_rows)
from witness_oracle import (theta_inverse, pair_counts, phi_k,
                            verify_factorization, u_prime_path,
                            phi_image_of_gamma)


def test_theta_shape():
    th, toks = theta(3, 2)
    assert th.images[0] == word([1, 2], 3)
    assert th.images[1] == basis_word(1, 3)
    assert th.images[2] == basis_word(3, 3)
    assert len(toks) == 2
    inv = theta_inverse(3, 2)
    assert inv.images[0] == basis_word(2, 3)
    assert inv.images[1] == word([-2, 1], 3)
    assert th.endo.compose(inv.endo) == Endomorphism.identity(th.rank)


def test_theta_general_m():
    for n, m in [(4, 2), (4, 3), (5, 4), (5, 2)]:
        th, toks = theta(n, m)
        assert is_automorphism(th.endo) is not None
        # the tokens' product is theta's explicit images
        assert nielsen_product(toks, n).endo.images == (word([1, m], n),) \
            + tuple(basis_word(i - 1, n) for i in range(2, m + 1)) \
            + tuple(basis_word(i, n) for i in range(m + 1, n + 1))
        inv = theta_inverse(n, m)
        assert th.endo.compose(inv.endo) == Endomorphism.identity(th.rank)
        for i in range(m + 1, n + 1):
            assert th.images[i - 1] == basis_word(i, n)
            assert inv.images[i - 1] == basis_word(i, n)


def test_u_k_values():
    assert u_k(3, 2, 0) == basis_word(1, 3)
    assert u_k(3, 2, 1) == word([1, 2], 3)
    assert u_k(3, 2, 2).letters == (1, 2, 1)
    assert u_k(3, 2, 3).letters == (1, 2, 1, 1, 2)
    with pytest.raises(WitnessError):
        u_k(3, 2, -1)


def test_train_track_positivity():
    for n in range(3, 6):
        for m in range(2, n):
            w = u_k(n, m, 12)  # raises on any cancellation
            assert all(a > 0 for a in w.letters)


def test_occurrence_counts_fibonacci():
    counts = [occurrence_count(2, 2, k) for k in range(1, 7)]
    assert counts == [1, 1, 2, 3, 5, 8]
    assert occurrence_count(2, 2, 0) == 0
    # matrix equals direct letter count up to k = 12
    for k in range(13):
        w = u_k(3, 2, k)
        for j in (1, 2):
            direct = sum(1 for a in w.letters if abs(a) == j)
            assert occurrence_count(2, j, k) == direct


def test_pair_counts_oracle():
    for k in range(9):
        w = u_k(4, 3, k)
        letters, pairs = pair_counts(4, 3, k)
        for j in range(1, 4):
            assert letters[j] == sum(1 for a in w.letters if a == j)
        direct = {}
        for a, b in zip(w.letters, w.letters[1:]):
            direct[(a, b)] = direct.get((a, b), 0) + 1
        assert pairs == direct


def test_phi_k_case1():
    params = WitnessParams(3, "connected", r=1)
    k0, phi0, up0 = phi_k(params, 0)
    assert k0 == 0
    assert phi0.images[2] == word([3, 1], 3)
    assert up0 == 1
    k1, phi1, up1 = phi_k(params, 1)
    assert k1 == 1
    assert phi1.images[2] == word([3, 1, 2], 3)
    assert up1 == 2 * 2 + 1
    with pytest.raises(WitnessError):
        phi_k(params, -1)
    for k in range(5):
        assert verify_factorization(params, k)


def test_phi_k_stabilizes_systems():
    params = WitnessParams(3, "connected", r=1)
    G0 = MarkedGraph.rose_identity(3)
    FA = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    FB = FreeFactorSystem.of([[basis_word(1, 3), basis_word(2, 3)]], 3)
    for k in range(6):
        _, phi, _ = phi_k(params, k)
        acted = G0.act(phi)
        assert realizes(acted, FA) is not None
        assert realizes(acted, FB) is not None


def test_params_validation():
    with pytest.raises(WitnessError):
        WitnessParams(3, "connected", r=2)
    with pytest.raises(WitnessError):
        WitnessParams(4, "two_component", ranks=(2, 2))  # coindex 1
    WitnessParams(3, "two_component", ranks=(1, 1))      # coindex 2
    with pytest.raises(WitnessError):
        # coindex 2 but the extra rank-2 component needs a rank-1 spare rose
        WitnessParams(4, "multi_component", ranks=(1, 1, 2))
    WitnessParams(4, "multi_component", ranks=(1, 1, 1))
    WitnessParams(5, "multi_component", ranks=(1, 1, 1))


def test_case2_build_shape():
    params = WitnessParams(3, "two_component", ranks=(1, 1))
    cx = case2_build(params)
    assert cx.Gp.rank == 3
    assert cx.G.rank == 3
    assert equivalent(cx.G, cx.Gp.collapse_marked([cx.eta0])[0]) is not None
    # u'_0: u_0 = e_1 in H_0, so both insertions fire
    assert u_prime_path(cx, 0) == (-cx.eta0, 1, cx.eta0)
    # class of gamma' equals b_1 a_{l1} a_{l0} a_{l1}^-1 in the basis
    expected = CyclicWord.of(word([3, 2, 1, -2], 3))
    assert cx.c0 == expected


def test_case3_build_rank_with_rank_two_extra_component():
    # the spare rose carries the n - m letters outside A_0 * A_1
    params = WitnessParams(5, "multi_component", ranks=(1, 1, 2))
    cx = case2_build(params)
    assert cx.Gp.rank == 5
    assert cx.G.rank == 5
    assert len(cx.h2_edges) == 3


def test_case2_baseline_is_two():
    params = WitnessParams(3, "two_component", ranks=(1, 1))
    cx = case2_build(params)
    ctx = cx.counting_context()
    assert count_i(ctx, cx.c0).value == 2


def test_case2_no_cancellation_and_growth():
    params = WitnessParams(3, "two_component", ranks=(1, 1))
    cx = case2_build(params)
    prev = None
    for k in range(8):
        path = phi_image_of_gamma(cx, k)  # raises on cancellation
        up = u_prime_path(cx, k)
        crossings = sum(1 for d in up if abs(d) == cx.eta0)
        # oracle: transitions in u_k via the pair-count recursion
        letters, pairs = pair_counts(3, 2, k)
        p = params.ranks[0]
        trans = sum(cnt for (a, b), cnt in pairs.items()
                    if (abs(a) <= p) != (abs(b) <= p))
        uk = u_k(3, 2, k).letters
        boundary = (1 if abs(uk[0]) <= p else 0) + (1 if abs(uk[-1]) <= p else 0)
        assert crossings == trans + boundary
        if prev is not None and k >= 3:
            assert crossings >= prev
        prev = crossings


def test_case2_phi_k_matches_gamma_image():
    params = WitnessParams(3, "two_component", ranks=(1, 1))
    cx = case2_build(params)
    for k in range(5):
        _, phi, _ = phi_k(params, k)
        ck = phi.apply_cyclic(cx.c0)
        via_path = CyclicWord.of(cx.Gp.path_to_word(phi_image_of_gamma(cx, k),
                                                    at_vertex=2))
        assert ck == via_path


def test_distortion_report_case1():
    params = WitnessParams(3, "connected", r=1)
    rows = distortion_report(params, 10)
    assert [r.i_k for r in rows] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [r.upper_nielsen for r in rows] == [4 * k + 1 for k in range(11)]
    # exponential-vs-linear: the count/bound ratio strictly grows from k = 4
    from fractions import Fraction
    ratios = [Fraction(r.i_k, r.upper_nielsen) for r in rows]
    assert all(ratios[k + 1] > ratios[k] for k in range(4, 10))
    csv = report_csv(rows)
    assert csv.splitlines()[0] == "k,upper_nielsen,i_k,spine_lb"
    assert csv.splitlines()[1] == "0,1,0,0"


def test_distortion_report_case2():
    params = WitnessParams(3, "two_component", ranks=(1, 1))
    rows = distortion_report(params, 6)
    # k = 0 row counts phi_0(c_0): u'_0 crosses eta0 twice, sigma' twice more
    assert rows[0].i_k == 6
    assert rows[-1].i_k > rows[2].i_k


def _rows_one_k_at_a_time(params, k_max):
    """The table rebuilt row by row from phi_k, each row from scratch."""
    n, m = params.n, params.m
    if params.case == "connected":
        ctx = counting.build_context(
            [[basis_word(i, n) for i in range(1, params.r + 1)]],
            [basis_word(i, n) for i in range(1, m + 1)],
            MarkedGraph.rose_identity(n))
        c0 = CyclicWord.of(basis_word(n, n))
    else:
        cx = case2_build(params)
        ctx, c0 = cx.counting_context(), cx.c0
    rows = []
    for k in range(k_max + 1):
        _, phi, upper = phi_k(params, k)
        ik = count_i(ctx, phi.apply_cyclic(c0)).value
        rows.append(ReportRow(k, upper, ik, ik // 2))
    return rows


def _seeded_params(rng):
    out = []
    for r in (1, 2, 3):
        out.append(WitnessParams(rng.randint(r + 2, r + 4), "connected", r=r))
    for ranks in ((1, 1), (1, 2)):
        n = rng.randint(sum(ranks) + 1, sum(ranks) + 3)
        out.append(WitnessParams(n, "two_component", ranks=ranks))
    for ranks in ((1, 1, 1), (1, 1, 1, 1)):
        n = rng.randint(len(ranks) + 1, len(ranks) + 3)
        out.append(WitnessParams(n, "multi_component", ranks=ranks))
    return out


def test_distortion_report_matches_rows_built_one_k_at_a_time():
    rng = random.Random(8)
    for _ in range(2):
        for params in _seeded_params(rng):
            k_max = rng.randint(6, 12)
            assert distortion_report(params, k_max) == \
                _rows_one_k_at_a_time(params, k_max), params


# The longest explicit path a row program summarizes, measured for every
# k <= 60 (k <= 100 in case 1): a cut symbol keeps `_END_EDGES` explicit
# edges at each end, so the stretches between middles stay this short.
CASE1_LONGEST_SUMMARY = 9
CASE23_LONGEST_SUMMARY = 24


def bound_summarized_paths(monkeypatch, edges):
    """Make `witness.path_summary` raise on a path longer than `edges`, so
    a row program that stops cutting its symbols fails at once instead of
    growing like theta^k(e_1)."""
    def summary(ctx, path):
        if len(path) > edges:
            raise AssertionError("summarized a path of %d edges" % len(path))
        return counting.path_summary(ctx, path)

    monkeypatch.setattr(witness, "path_summary", summary)


def test_compressed_rows_match_expanded_rows(monkeypatch):
    """The row programs against the expanded classes for k <= 16, in all
    three cases, ranks (2, 2) and r = 4 included; no row summarizes a
    path longer than its case's bound."""
    for params in (WitnessParams(3, "connected", r=1),
                   WitnessParams(5, "connected", r=2),
                   WitnessParams(6, "connected", r=4),
                   WitnessParams(4, "two_component", ranks=(1, 2)),
                   WitnessParams(6, "two_component", ranks=(2, 1)),
                   WitnessParams(5, "two_component", ranks=(2, 2)),
                   WitnessParams(5, "multi_component", ranks=(1, 1, 1)),
                   WitnessParams(6, "multi_component", ranks=(1, 1, 1, 1))):
        bound_summarized_paths(monkeypatch, CASE1_LONGEST_SUMMARY
                               if params.case == "connected"
                               else CASE23_LONGEST_SUMMARY)
        assert distortion_report(params, 16) == \
            _rows_one_k_at_a_time(params, 16), params


def test_case1_rows_at_k100_equal_letter_counts(monkeypatch):
    """i_k is the number of e_m in theta^k(e_1), from the letter-count
    recursion, through k = 100; no row summarizes a path longer than
    `CASE1_LONGEST_SUMMARY`."""
    bound_summarized_paths(monkeypatch, CASE1_LONGEST_SUMMARY)
    for n, r in ((4, 2), (5, 1), (6, 4)):
        m = r + 1
        rows = distortion_report(WitnessParams(n, "connected", r=r), 100)
        th, _ = theta(n, m)
        images = [th.endo.images[i].letters for i in range(m)]
        counts = [1] + [0] * (m - 1)          # letters of theta^k(e_1)
        for row in rows:
            assert row.i_k == counts[m - 1]
            new = [0] * m
            for x, cnt in enumerate(counts):
                for y in images[x]:
                    new[y - 1] += cnt
            counts = new
        assert rows[-1].i_k > 10 ** 9


def recurrence_residuals(coeffs, seq):
    """sum_j coeffs[j] seq[k + j] for every k where it is defined; coeffs
    run from the constant term up."""
    d = len(coeffs) - 1
    return [sum(c * seq[k + j] for j, c in enumerate(coeffs))
            for k in range(len(seq) - d)]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rows_obey_theta_recurrence():
    """Every row through k = 150, in all three cases, obeys the linear
    recurrence of P_m(x) = x^m - x^(m-1) - 1 (case 1) or of
    P_m(x) (x^m - 1) (cases 2 and 3), exactly, at every k where the
    recurrence reaches back no further than k = 0.

    Derivation. P_m is the characteristic polynomial of theta's transition
    matrix M on e_1..e_m (e_1 -> e_1 e_m, e_i -> e_(i-1)). In case 1, i_k
    is the number of e_m in u_k = theta^k(e_1) (the report's matrix check),
    a fixed linear functional of M^k e_1, so Cayley-Hamilton gives the
    recurrence for every k. In cases 2 and 3 the block is eta0, which u'_k
    crosses once at each change between H_0 and H_1 letters in u_k; the
    longest run adds a term that depends only on the letters at the ends
    of u_k (the window c_0 puts around it). The first letter of u_k is
    always e_1 and the last cycles with period m (e_1, e_m, ..., e_2), so
    that term is annihilated by x^m - 1. The counts N_k of two-letter
    factors of u_k follow N_(k+1) = A L_k + B N_k, with L_k the letter
    counts, since a factor of theta(w) lies inside theta(x) for a letter x
    of w or spans theta(x) theta(y) for a factor xy; B sends xy to
    (last letter of theta(x), first letter of theta(y)), an m-cycle on the
    first letter times a map that sends every second letter to e_1 within
    m - 1 steps, so its characteristic polynomial is
    (x^m - 1) x^(m^2 - m). Hence i_k is annihilated by
    P_m(x) (x^m - 1) x^(m^2 - m) once the longest run is the one along
    u'_k; the power of x only delays the start. The rows satisfy the
    recurrence without that delay, from its degree on, which this checks
    (the bench checks only that cases 2 and 3 grow, and
    `test_compressed_rows_match_expanded_rows` stops at k = 16).
    """
    cases = [WitnessParams(3, "connected", r=1),
             WitnessParams(5, "connected", r=3),
             WitnessParams(7, "connected", r=5),
             WitnessParams(4, "two_component", ranks=(1, 1)),
             WitnessParams(5, "two_component", ranks=(1, 2)),
             WitnessParams(6, "two_component", ranks=(2, 2)),
             WitnessParams(5, "multi_component", ranks=(1, 1, 1)),
             WitnessParams(6, "multi_component", ranks=(1, 1, 1, 1))]
    for params in cases:
        m = params.m
        p_m = [-1] + [0] * (m - 2) + [-1, 1]
        coeffs = p_m if params.case == "connected" \
            else poly_mul(p_m, [-1] + [0] * (m - 1) + [1])
        counts = [row.i_k for row in distortion_report(params, 150)]
        assert recurrence_residuals(coeffs, counts) == \
            [0] * (151 - len(coeffs) + 1), params
        assert counts[-1] > 10 ** 12, params


def counted_report_work(monkeypatch):
    """Count `counting.compose` and `witness._join` calls; returns the
    counter and a function that runs one report and returns its counts."""
    calls = {"compose": 0, "join": 0}

    def counted(key, f):
        def g(*args):
            calls[key] += 1
            return f(*args)
        return g

    compose = counted("compose", counting.compose)
    monkeypatch.setattr(counting, "compose", compose)
    monkeypatch.setattr(witness, "compose", compose)
    monkeypatch.setattr(witness, "_join", counted("join", witness._join))

    def report(params, k_max):
        calls.update(compose=0, join=0)
        distortion_report(params, k_max)
        return dict(calls)
    return report


# Compositions per row once the symbols have compressed middles. Case 1:
# two to step E_{k,1} = E_{k-1,1} E_{k-1,m} (the junction stretch, then the
# second middle) and one to close the class. Cases 2 and 3 read I_{k,1} as
# well: two more to step it, and two where the row's I and E middles meet.
CASE1_COMPOSES_PER_ROW = 3
CASE23_COMPOSES_PER_ROW = 7


def test_case1_row_work_is_constant(monkeypatch):
    """Ten more rows cost exactly ten times a fixed number of compositions
    at every m, and two joins each in case 1: the row and the one new
    symbol E_{k,1}; the other E_{k,i} are passed on unjoined. Case 1 never
    reads an inverse symbol, so none is stepped; cases 2 and 3 read
    I_{k,1} and step it with one more join per row."""
    report = counted_report_work(monkeypatch)
    K = 20
    for n, r in ((3, 1), (5, 2), (6, 3), (7, 4)):
        params = WitnessParams(n, "connected", r=r)
        before, after = report(params, K), report(params, K + 10)
        assert after["compose"] - before["compose"] == \
            10 * CASE1_COMPOSES_PER_ROW, params
        assert after["join"] - before["join"] == 10 * 2, params
    for params in (WitnessParams(4, "two_component", ranks=(1, 2)),
                   WitnessParams(5, "multi_component", ranks=(1, 1, 1))):
        before, after = report(params, K), report(params, K + 10)
        assert after["compose"] - before["compose"] == \
            10 * CASE23_COMPOSES_PER_ROW, params
        assert after["join"] - before["join"] == 10 * 3, params


def test_short_end_edges_raise(monkeypatch):
    """With one explicit edge per end, the eta0 edges that cancel between
    consecutive H_0 letters reach a compressed middle: the report refuses
    instead of miscounting."""
    monkeypatch.setattr(witness, "_END_EDGES", 1)
    with pytest.raises(WitnessError, match="compressed middle") as exc:
        distortion_report(WitnessParams(4, "two_component", ranks=(1, 2)), 8)
    assert exc.traceback[-1].name == "_join"


def assert_cli_refuses(capsys, args, message):
    """`outerspine witness args` exits 2 with the one line 'error: message'
    on stderr and no traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness"] + args)
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_closing_cancellation_into_the_middle_raises(monkeypatch, capsys):
    """A closed path whose tail ends in the inverse of its head cancels
    through the whole head at the closing junction: `_count_cyclic`
    refuses, on rows that `_join` built without a raise."""
    count_cyclic = witness._count_cyclic

    def closing_cancels(ctx, P):
        if P.mid is not None:
            P = P._replace(tail=P.tail + invert_letters(P.head))
        return count_cyclic(ctx, P)

    monkeypatch.setattr(witness, "_count_cyclic", closing_cancels)
    with pytest.raises(WitnessError, match="compressed middle") as exc:
        distortion_report(WitnessParams(4, "two_component", ranks=(1, 2)), 8)
    assert exc.traceback[-1].name == "_count_cyclic"
    assert_cli_refuses(capsys, ["--case", "1", "--n", "3", "--r", "1",
                                "--kmax", "12"],
                       "cancellation reaches a compressed middle")


def test_entry_runs_that_meet_raise(monkeypatch, capsys):
    """A closing summary with a second open run at an entry vertex makes
    two entry runs meet: `counting.close` refuses with its certificate
    error, not the conjugate-into-B verdict, and the CLI exits 3, since
    valid input cannot make the step of an immersion non-injective."""
    close = counting.close

    def meeting(W):
        v = W.tables.entries[W.last][0]
        return close(W._replace(arrivals={**W.arrivals, v: (0, ())}))

    monkeypatch.setattr(witness, "close", meeting)
    with pytest.raises(counting.CountCertificateError,
                       match="two entry runs meet") as exc:
        distortion_report(WitnessParams(3, "two_component", ranks=(1, 1)), 3)
    assert isinstance(exc.value, counting.CountError)
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness", "--case", "2", "--n", "3", "--ranks", "1", "1",
                  "--kmax", "3"])
    assert exc.value.code == 3
    assert capsys.readouterr().err == ("AUDIT VIOLATION: two entry runs "
                                       "meet: the step is not injective\n")


def test_negative_theta_image_raises(monkeypatch, capsys):
    """theta with e_1 -> e_1 e_2^-1 keeps the subrose and is invertible,
    but its image of e_1 is not positive: the report refuses before any
    row, since powers of theta may then cancel."""
    bad = is_automorphism(Endomorphism(3, (word([1, -2], 3), basis_word(1, 3),
                                           basis_word(3, 3))))
    monkeypatch.setattr(witness, "theta",
                        lambda n, m: (bad, witness.theta_tokens(n, m)))
    with pytest.raises(WitnessError, match="positivity") as exc:
        distortion_report(WitnessParams(3, "connected", r=1), 4)
    assert exc.traceback[-1].name == "distortion_report"
    assert_cli_refuses(capsys, ["--case", "1", "--n", "3", "--r", "1",
                                "--kmax", "4"],
                       "train-track positivity violated")


def test_case1_count_against_wrong_matrix_raises(monkeypatch):
    """The per-row matrix oracle is live: a wrong transition matrix makes
    the case-1 report raise at the first row it gets wrong."""
    monkeypatch.setattr(witness, "transition_matrix",
                        lambda m: [[int(i == j) for j in range(m)]
                                   for i in range(m)])
    with pytest.raises(WitnessError, match="disagrees with matrix"):
        distortion_report(WitnessParams(3, "connected", r=1), 4)


def test_witness_rows_match_composed_conjugates():
    """Each row is theta^k phi_0 theta^-k, and the fold finds its inverse
    theta^k phi_0^-1 theta^-k, in all three cases for k <= 10."""
    rng = random.Random(14)
    for params in _seeded_params(rng):
        n, m = params.n, params.m
        th, _ = theta(n, m)
        _, phi0, _ = phi_k(params, 0)
        # phi_0 moves e_j (j > m) by e_1; its inverse moves it by e_1^-1
        inv0 = Endomorphism(n, phi0.images[:m] + tuple(
            word(substitute(im.letters, {1: (-1,), j: (j,)})[0], n)
            for j, im in enumerate(phi0.images[m:], m + 1)))
        assert phi0.compose(inv0) == Endomorphism.identity(phi0.rank)
        built_inv = inv0
        for k, phi, _ in islice(witness_rows(params), 11):
            assert verify_factorization(params, k), (params, k)
            auto = is_automorphism(phi)
            assert auto is not None and auto.inverse_endo == built_inv
            built_inv = th.endo.compose(built_inv).compose(th.inverse_endo)


def test_theta_leaving_its_subrose_raises(monkeypatch):
    # e1 -> e1 e3 is invertible and positive, but moves <e1, e2> out of itself
    bad = is_automorphism(Endomorphism(3, (word([1, 3], 3), basis_word(2, 3),
                                           basis_word(3, 3))))
    monkeypatch.setattr(witness, "theta",
                        lambda n, m: (bad, witness.theta_tokens(n, m)))
    with pytest.raises(WitnessError, match="subrose"):
        distortion_report(WitnessParams(3, "connected", r=1), 4)


def test_theta_powers_letter_counts():
    rng = random.Random(8)
    for n, m in [(3, 2), (4, 3), (5, 2), (6, 4), (6, 5)]:
        k_max = rng.randint(10, 14)
        for k, w in zip(range(k_max + 1), theta_powers(theta(n, m)[0])):
            for j in range(1, n + 1):
                direct = sum(1 for a in w.letters if a == j)
                assert direct == (occurrence_count(m, j, k) if j <= m else 0)
            assert all(a > 0 for a in w.letters)
        assert w == u_k(n, m, k_max)


def test_golden_ratio_test():
    assert ratio_within_of_golden(1618, 1000)
    assert not ratio_within_of_golden(3, 2)
    fib = [0, 1]
    for _ in range(30):
        fib.append(fib[-1] + fib[-2])
    assert ratio_within_of_golden(fib[22], fib[21])


def test_theta_token_check_raises(monkeypatch):
    identity = nielsen_product([], 3)
    monkeypatch.setattr(witness, "nielsen_product",
                        lambda tokens, n: identity)
    with pytest.raises(WitnessError):
        theta(3, 2)


def test_theta_powers_raises_on_cancellation(monkeypatch):
    # e1 -> e1 e2, e2 -> e2^-1 is invertible, but its square cancels e2 e2^-1
    bad = is_automorphism(Endomorphism(3, (word([1, 2], 3), word([-2], 3),
                                           basis_word(3, 3))))
    monkeypatch.setattr(witness, "theta",
                        lambda n, m: (bad, witness.theta_tokens(n, m)))
    assert u_k(3, 2, 1) == word([1, 2], 3)
    with pytest.raises(WitnessError, match="positivity"):
        u_k(3, 2, 2)
    with pytest.raises(WitnessError, match="positivity"):
        distortion_report(WitnessParams(3, "connected", r=1), 4)


def test_u_prime_path_cancellation_raises(monkeypatch):
    cx = case2_build(WitnessParams(3, "two_component", ranks=(1, 1)))
    monkeypatch.setattr(witness, "u_k",
                        lambda n, m, k: SimpleNamespace(letters=(1, -1)))
    with pytest.raises(WitnessError):
        u_prime_path(cx, 1)
