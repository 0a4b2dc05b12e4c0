import random

import pytest

from outerspine import cli, graphs, retract_aut, textio
from outerspine.marked import CertificateError, MarkedGraph, MarkingError
from outerspine.words import Endomorphism, is_automorphism
from outerspine.retract_aut import (PointedError, pointed_equivalent, embed_j,
                                    retract_r, lipschitz_audit)


def pointed_transvection(n, i, j, side="R"):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [i, j] if side == "R" else [j, i]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def test_embed_j_rose():
    w = MarkedGraph.rose_identity(2)
    x = embed_j(w)
    assert x.rank == 3
    assert pointed_equivalent(x, MarkedGraph.rose_identity(3)) is not None


def test_rj_identity_on_rose():
    w = MarkedGraph.rose_identity(2)
    x = embed_j(w)
    r = retract_r(x)
    assert pointed_equivalent(r, w) is not None


def test_retract_ignores_top_letter_image():
    # pointed R_3 with a3 -> e3 e1: minimal subtree is untouched
    g = graphs.rose(3)
    x = MarkedGraph(g, 0, [(1,), (2,), (3, 1)])
    r = retract_r(x)
    assert pointed_equivalent(r, MarkedGraph.rose_identity(2)) is not None


def test_retract_with_trim_tail():
    # a1 -> e2 e1 e2^-1, a2 -> e2 e3 e2^-1, a3 -> e2: the <a1,a2>-core hangs
    # off the basepoint along e2, so the trim tail is nonempty and the
    # retracted marking is the tail-conjugated trace
    g = graphs.rose(3)
    x = MarkedGraph(g, 0, [(2, 1, -2), (2, 3, -2), (2,)])
    r = retract_r(x)
    assert r.rank == 2
    r.check_generates()
    # tail conjugation straightens both images into plain petals
    assert pointed_equivalent(r, MarkedGraph.rose_identity(2)) is not None


def test_rj_identity_random():
    rng = random.Random(31)
    n = 3
    count = 0
    for _ in range(60):
        w = MarkedGraph.rose_identity(n - 1)
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(1, n - 1)
            j = rng.choice([x for x in range(1, n) if x != i])
            w = w.act(pointed_transvection(n - 1, i, j,
                                           rng.choice(["L", "R"])))
        # maybe blow up to a non-rose shape
        for _ in range(rng.randint(0, 2)):
            cands = []
            for v in sorted(w.graph.vertices):
                for p1, p2 in graphs.vertex_direction_bipartitions(w.graph, v):
                    cands.append((v, p1, p2))
            if cands:
                v, p1, p2 = rng.choice(cands)
                w, _, _ = w.blowup_marked(v, p1, p2)
        x = embed_j(w)
        r = retract_r(x)
        assert pointed_equivalent(r, w) is not None
        count += 1
    assert count == 60


def test_equivariance():
    n = 3
    x = MarkedGraph.rose_identity(n)
    rng = random.Random(13)
    for _ in range(20):
        i = rng.randint(1, n - 1)
        j = rng.choice([k for k in range(1, n) if k != i])
        phi = pointed_transvection(n, i, j, rng.choice(["L", "R"]))
        lhs = retract_r(x.act(phi))
        # phi preserves <a_1..a_{n-1}>: its first n-1 images lie there
        restricted = Endomorphism.from_lists(
            [im.letters for im in phi.endo.images[:n - 1]], n - 1)
        rhs = retract_r(x).act(restricted)
        assert pointed_equivalent(lhs, rhs) is not None


def test_lipschitz_audit_simple():
    # blow up the pointed rose and collapse back: distances stay in {0, 1}
    n = 3
    x0 = MarkedGraph.rose_identity(n)
    for v in sorted(x0.graph.vertices):
        for p1, p2 in graphs.vertex_direction_bipartitions(x0.graph, v):
            x, new_eid, _ = x0.blowup_marked(v, p1, p2)
            d, _ = lipschitz_audit(x, [new_eid])
            assert d in (0, 1)


def test_rank_guard():
    with pytest.raises(MarkingError):
        retract_r(MarkedGraph.rose_identity(1))


def cyclic_hull(monkeypatch):
    """Keep every edge of r(x) in the hull, which then has a cycle."""
    monkeypatch.setattr(retract_aut, "chain_hull",
                        lambda chains, edges: frozenset(chains))


def empty_hull(monkeypatch):
    """Leave every hull empty."""
    monkeypatch.setattr(retract_aut, "chain_hull",
                        lambda chains, edges: frozenset())


def other_retraction(monkeypatch):
    """Make retract_r answer r(x) acted on by a1 -> a1 a2."""
    real = retract_aut.retract_r
    monkeypatch.setattr(retract_aut, "retract_r", lambda x: real(x).act(
        pointed_transvection(x.rank - 1, 1, 2)))


AUDIT_FAULTS = [
    (cyclic_hull, "hull is not a forest"),
    (empty_hull, "empty hull but retractions differ"),
    (other_retraction, "hull collapse does not reproduce the retraction"),
]


@pytest.mark.parametrize("fault, message", AUDIT_FAULTS,
                         ids=[f.__name__ for f, _ in AUDIT_FAULTS])
def test_hull_with_a_cycle_is_a_violation(fault, message, monkeypatch,
                                          tmp_path, capsys):
    """A hull that keeps every edge of r(x) has a cycle; the audit reports
    it as a violation (exit 3), not as a failed collapse of bad input. So
    does each other failure of the collapse certificate: the raise is a
    PointedError and a CertificateError."""
    x, new_eid, _ = MarkedGraph.rose_identity(3).blowup_marked(
        0, (1, -1), (2, -2, 3, -3))
    assert lipschitz_audit(x, [new_eid])[0] == 1
    fault(monkeypatch)
    with pytest.raises(PointedError, match="^%s$" % message) as exc:
        lipschitz_audit(x, [new_eid])
    assert isinstance(exc.value, CertificateError)
    graph = tmp_path / "x.txt"
    graph.write_text(textio.print_marked(x, pointed=True))
    with pytest.raises(SystemExit) as exc:
        cli.main(["retract-aut-audit", str(graph), "--collapse",
                  "e%d" % new_eid])
    assert exc.value.code == 3
    assert capsys.readouterr().err == "AUDIT VIOLATION: %s\n" % message
