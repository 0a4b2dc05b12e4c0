"""Each workload's check accepts the program's answer and rejects a
deliberately wrong one.

    python3 -m pytest bench/tests -q
"""

import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run as bench_run  # noqa: E402
from kernel import SpeedProbe  # noqa: E402
from outerspine import retract_aut, retract_split  # noqa: E402
from outerspine import spine as spine_layer  # noqa: E402
from outerspine import witness as witness_layer  # noqa: E402
from workloads import audit, membership, spine, witness  # noqa: E402
from workloads.common import Op  # noqa: E402


def answer(wl, op):
    return wl.run(op, wl.prepare(op))


def test_witness_check_rejects_wrong_rows():
    for case, line, m in ((1, "--case 1 --n 3 --r 1 --kmax 8", 2),
                          (2, "--case 2 --n 3 --ranks 1 1 --kmax 6", 2)):
        op = Op("report_case%d" % case, {"params": line},
                info={"case": case, "n": 3, "m": m,
                      "k_max": int(line.split()[-1])})
        rows = answer(witness, op)
        assert witness.check(op, rows, {})
        last = rows[-1]
        wrong = [("upper_nielsen", 1), ("spine_lb", -1)]
        if case == 1:   # cases 2 and 3 are checked for monotone counts only
            wrong.append(("i_k", 1))
        for field, delta in wrong:
            setattr(last, field, getattr(last, field) + delta)
            assert not witness.check(op, rows, {}), field
            setattr(last, field, getattr(last, field) - delta)
        assert not witness.check(op, rows[:-1], {})
    # case 2: a count that drops as k grows
    rows[-1].i_k, rows[-1].spine_lb = 0, 0
    assert not witness.check(op, rows, {})


def test_witness_recurrence_is_fibonacci_for_rank_three():
    assert [witness.letter_counts(2, k)[2] for k in range(11)] == \
        [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_membership_check_rejects_flipped_verdicts():
    ops = membership.setup(1)
    seen = set()
    for op in ops:
        key = (op.kind, op.expect)
        if key in seen:
            continue
        seen.add(key)
        verdict = answer(membership, op)
        assert verdict is op.expect
        assert membership.check(op, verdict, {})
        assert not membership.check(op, not verdict, {})
    assert seen == {("realizes", True), ("realizes", False),
                    ("in_CVKT", True), ("in_CVKT", False)}


def test_spine_checks_reject_wrong_counts_and_distances():
    ops = spine.setup(1)
    nb = next(op for op in ops if op.kind == "neighbors" and op.info["rank"] == 3)
    count = answer(spine, nb)
    assert spine.check(nb, count, {})
    assert not spine.check(nb, count + 1, {})
    assert not spine.check(nb, count - 1, {})
    bfs = next(op for op in ops if op.kind == "bfs_distance")
    fold = next(op for op in ops if op.kind == "fold_path"
                and op.info["pair"] == bfs.info["pair"])
    memo = {}
    assert spine.check(fold, answer(spine, fold), memo)
    d = answer(spine, bfs)
    assert spine.check(bfs, d, memo)
    assert not spine.check(bfs, None, memo)
    assert not spine.check(bfs, memo[bfs.info["pair"]] + 1, memo)
    assert not spine.check(bfs, d, {})


def test_audit_checks_reject_answers_outside_the_bounds():
    ops = audit.setup(1)
    for kind, wrong in (("bracket", [(3, 2), (1, 4)]), ("rj", [False])):
        op = next(op for op in ops if op.kind == kind)
        got = answer(audit, op)
        assert audit.check(op, got, {}), kind
        for w in wrong:
            assert not audit.check(op, w, {}), (kind, w)
    for kind in ("pointed", "split"):
        op = next(op for op in ops if op.kind == kind)
        assert audit.check(op, answer(audit, op), {}), kind


def run_raising(wl, kind, exc):
    """Tally one operation whose call into the program raises exc."""
    def fail(op, args):
        raise exc
    fake = types.SimpleNamespace(
        prepare=lambda op: (), run=fail, check=wl.check,
        CERTIFICATE_ERRORS=wl.CERTIFICATE_ERRORS)
    runner = bench_run.Runner(fake, SpeedProbe())
    runner.run_op(0, Op(kind, {}), {})
    return runner


def test_failed_certificates_count_as_wrong_answers():
    # The pointed and splitting audits return 0 or 1 and raise when the
    # theorem's bound breaks; so do the witness and fold-path certificates.
    for wl, kind, exc in (
            (audit, "pointed", retract_aut.PointedError(
                "hull collapse does not reproduce the retraction")),
            (audit, "split", retract_split.SplitError(
                "retractions are further than one collapse apart")),
            (witness, "report_case1", witness_layer.WitnessError(
                "trace count 3 disagrees with matrix oracle 5 at k=4")),
            (spine, "fold_path", spine_layer.SpineError(
                "certificate 0: collapse mismatch"))):
        runner = run_raising(wl, kind, exc)
        assert (runner.failed, runner.wrong_answers) == (1, 1), kind
    # any other raise is a failed operation but not a wrong answer
    runner = run_raising(audit, "pointed", KeyError(3))
    assert (runner.failed, runner.wrong_answers) == (1, 0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "witness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
