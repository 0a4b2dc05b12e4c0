"""Acceptance gate: every criterion at its pinned count and tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the one-line PASS/FAIL
verdicts; `outerspine selftest` prints the same lines.
"""

import pytest

from outerspine import acceptance, counting


def _run(index, want):
    """Run one criterion; it must pass with exactly the detail line `want`,
    which pins its counts for the fixed seeds."""
    name, fn = acceptance.CRITERIA[index]
    ok, detail = fn()
    print("%s  criterion %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "criterion %s failed: %s" % (name, detail)
    assert detail == want


def test_criterion_1_counting_identity():
    _run(0, "i_k column [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55] (expected "
            "[0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55])")


def test_criterion_2_baseline_values():
    _run(1, "case-1 baseline 0 (want 0), case-2 baseline 2 (want 2)")


def test_criterion_3_count_bracket():
    _run(2, "500 randomized collapse instances, zero violations")


def test_criterion_4_cores_commute_with_collapses():
    _run(3, "200 randomized (G, E, B) instances, zero violations")


def test_criterion_5_pointed_retraction():
    _run(4, "200 identity checks, 300 collapse audits, zero violations")


def test_criterion_6_splitting_retraction():
    _run(5, "41 ball vertices fixed, 300 collapse audits in {0,1}")


def test_criterion_7_distortion_gap():
    _run(6, "k* = 12 (needs <= 12), golden-ratio check at k=20: True")


def test_criterion_8_witness_stabilization():
    _run(7, "132 realize checks, zero failures")


def test_criterion_9_fold_paths():
    _run(8, "100 paths verified (34 guarded), 6 BFS cross-checks")


def test_criterion_10_train_track_positivity():
    _run(9, "6 (n, m) pairs positive through k=12")


def test_criterion_3_reports_count_certificate_failures(monkeypatch):
    """Criterion 3 skips the inputs that counting refuses, but a failed
    count certificate is the program's fault: it propagates, and `run_all`
    prints FAIL."""
    real = counting.close
    calls = []

    def faulty(W):
        calls.append(W)
        if len(calls) % 7 == 0:
            raise counting.CountCertificateError("two entry runs meet")
        return real(W)
    monkeypatch.setattr(counting, "close", faulty)
    with pytest.raises(counting.CountCertificateError):
        acceptance.criterion_3(instances=60)
    lines = []
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[2:3])
    assert not acceptance.run_all(out=lines.append)
    assert lines == ["FAIL  criterion 3 count bracket under collapse: raised "
                     "CountCertificateError('two entry runs meet')"]
