import random
import sys
from types import SimpleNamespace

import pytest

import split_oracle
from outerspine import (acceptance, cli, graphs, marked, retract_split,
                        sampling, textio, words)
from outerspine.marked import CertificateError, MarkedGraph, equivalent
from outerspine.words import (Endomorphism, basis_word, word, identity_word,
                              is_automorphism)
from outerspine.covers import FreeFactorSystem, based_core
from outerspine.retract_split import (SplittingBlueprint, RayDatum,
                                      RetractionData, default_retraction_data,
                                      coindex1_to_splitting, in_CVKT,
                                      retract_R, retraction_audit, SplitError,
                                      attach_point)


def loop_bp(n=3):
    gens = tuple(basis_word(i, n) for i in range(1, n))
    return SplittingBlueprint("loop", (gens,), n, n)


def transv(n, i, j, side="R"):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [i, j] if side == "R" else [j, i]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def test_blueprint_validation():
    loop_bp(3)
    with pytest.raises(SplitError):
        SplittingBlueprint("loop", ((basis_word(1, 3), word([1, 1], 3)),), 3, 3)
    SplittingBlueprint("segment",
                       ((basis_word(1, 3),),
                        (basis_word(2, 3), basis_word(3, 3))), 0, 3)


def test_coindex1_to_splitting():
    F = FreeFactorSystem.of([[basis_word(1, 3), basis_word(2, 3)]], 3)
    bp = coindex1_to_splitting(F)
    assert bp.kind == "loop"
    F2 = FreeFactorSystem.of([[basis_word(1, 3)],
                              [basis_word(2, 3), basis_word(3, 3)]], 3)
    bp2 = coindex1_to_splitting(F2)
    assert bp2.kind == "segment"
    with pytest.raises(SplitError):
        coindex1_to_splitting(FreeFactorSystem.of([[basis_word(1, 3)]], 3))


def test_in_CVKT_rose():
    bp = loop_bp(3)
    G = MarkedGraph.rose_identity(3)
    got = in_CVKT(G, bp)
    assert got is not None
    w, eid = got
    assert eid == 3
    bad = G.act(transv(3, 1, 3))  # a1 -> a1 a3 wrecks the subrose
    assert in_CVKT(bad, bp) is None


def test_in_CVKT_segment_barbell():
    bp = SplittingBlueprint("segment",
                            ((basis_word(1, 3),),
                             (basis_word(2, 3), basis_word(3, 3))), 0, 3)
    g = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (1, 1), 4: (0, 1)})
    G = MarkedGraph(g, 0, [(1,), (4, 2, -4), (4, 3, -4)])
    got = in_CVKT(G, bp)
    assert got is not None
    _, eid = got
    assert eid == 4


def test_attach_point_examples():
    n = 3
    bp = loop_bp(n)
    G = MarkedGraph.rose_identity(n)
    sub = based_core(bp.vertex_gens[0], G)
    t = basis_word(n, n)
    Q1, a1 = attach_point(G, sub, RayDatum(identity_word(n), t))
    Q2, a2 = attach_point(G, sub, RayDatum(identity_word(n), t.inverse()))
    assert Q1 == sub.attach and a1 == ()
    assert Q2 == sub.attach and a2 == ()
    # marking a3 -> e1 e3: the stable ray runs along e1 before exiting
    H = G.act(transv(n, 3, 1, side="L"))
    assert H.marking[2] == (1, 3)
    sub = based_core(bp.vertex_gens[0], H)
    Q1, a1 = attach_point(H, sub, RayDatum(identity_word(n), t))
    assert len(a1) == 1
    Q2, a2 = attach_point(H, sub, RayDatum(identity_word(n), t.inverse()))
    assert a2 == ()


def test_attach_point_invalid_ray():
    n = 3
    bp = loop_bp(n)
    G = MarkedGraph.rose_identity(n)
    sub = based_core(bp.vertex_gens[0], G)
    from outerspine.retract_split import InvalidRay
    with pytest.raises(InvalidRay):
        attach_point(G, sub, RayDatum(identity_word(n), basis_word(1, n)))


def test_retraction_fixes_rose():
    bp = loop_bp(3)
    G = MarkedGraph.rose_identity(3)
    R = retract_R(G, default_retraction_data(bp))
    assert equivalent(R, G) is not None
    assert in_CVKT(R, bp) is not None


def test_retraction_fixes_CVKT_points():
    bp = loop_bp(3)
    data = default_retraction_data(bp)
    G = MarkedGraph.rose_identity(3).act(transv(3, 3, 1, side="L"))
    assert in_CVKT(G, bp) is not None
    R = retract_R(G, data)
    assert equivalent(R, G) is not None
    # blow up within the subrose: still a CVK^T vertex, still fixed
    G2, _, _ = G.blowup_marked(0, (1, -1), (2, -2, 3, -3))
    if in_CVKT(G2, bp) is not None:
        R2 = retract_R(G2, data)
        assert equivalent(R2, G2) is not None


def test_retraction_moves_outside_points():
    bp = loop_bp(3)
    data = default_retraction_data(bp)
    G = MarkedGraph.rose_identity(3).act(transv(3, 1, 3))  # not in CVK^T
    assert in_CVKT(G, bp) is None
    R = retract_R(G, data)
    assert in_CVKT(R, bp) is not None


def test_retraction_audit_small():
    bp = loop_bp(3)
    data = default_retraction_data(bp)
    G = MarkedGraph.rose_identity(3)
    for v in sorted(G.graph.vertices):
        for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
            blown, new_eid, _ = G.blowup_marked(v, p1, p2)
            d = retraction_audit(blown, [new_eid], data)
            assert d in (0, 1)


def test_retraction_audit_decides_no_automorphism(monkeypatch):
    """The blueprint decides its free decomposition once, when it is built;
    retract_R reads the inverse it kept instead of folding it again."""
    calls = []
    real = words.is_automorphism

    def counted(f):
        calls.append(f)
        return real(f)

    data = default_retraction_data(loop_bp(3))
    G = MarkedGraph.rose_identity(3)
    blown, new_eid, _ = G.blowup_marked(0, (1, -1), (2, -2, 3, -3))
    for name, module in list(sys.modules.items()):
        if (name.startswith("outerspine") and getattr(
                module, "is_automorphism", None) is real):
            monkeypatch.setattr(module, "is_automorphism", counted)
    assert retraction_audit(blown, [new_eid], data) in (0, 1)
    assert calls == []


def test_segment_retraction_fixes_barbell():
    bp = SplittingBlueprint("segment",
                            ((basis_word(1, 3),),
                             (basis_word(2, 3), basis_word(3, 3))), 0, 3)
    g = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (1, 1), 4: (0, 1)})
    G = MarkedGraph(g, 0, [(1,), (4, 2, -4), (4, 3, -4)])
    data = default_retraction_data(bp)
    R = retract_R(G, data)
    assert in_CVKT(R, bp) is not None
    assert equivalent(R, G) is not None


def retract_R_inputs(monkeypatch):
    """Every (G, data) that criterion 6 retracts, on its ball and in its
    audits, then the benchmark's audit splits: loop blueprint
    <a1, a2> * <a3>, 4-edge random spine vertices and a collapse of each,
    and segment blueprints <a1> * <a2, a3> on random spine vertices."""
    inputs = []
    real = retract_split._retract

    def recording(G, data):
        inputs.append((G, data))
        return real(G, data)

    monkeypatch.setattr(retract_split, "_retract", recording)
    assert acceptance.criterion_6()[0]
    monkeypatch.undo()
    rng = random.Random(61)
    loop = default_retraction_data(loop_bp(3))
    segment = default_retraction_data(SplittingBlueprint(
        "segment", ((basis_word(1, 3),), (basis_word(2, 3), basis_word(3, 3))),
        0, 3))
    for k in range(160):
        G = sampling.random_marked_graph(rng, 3, rng.randint(0, 3))
        forests = graphs.enumerate_natural_subforests(G.graph,
                                                      include_empty=False)
        if k % 2:
            inputs.append((G, segment))
        elif forests and len(G.graph.edges) == 4:
            H = G.collapse_marked(rng.choice(forests))[0].natural_marked()
            inputs += [(G, loop), (H, loop)]
    return inputs


def test_retract_R_derives_what_the_checking_constructors_accept(monkeypatch):
    """retract_R builds its graph and marked graph unchecked (its docstring
    says why they are valid). Rebuilt with the checking constructors, which
    check the core graph and refold the marking, every output is accepted
    and the same, and it lies in the subcomplex."""
    inputs = retract_R_inputs(monkeypatch)
    assert len(inputs) > 500
    outs = [retract_R(G, data) for G, data in inputs]
    monkeypatch.setattr(retract_split, "CoreGraph",
                        SimpleNamespace(_derived=graphs.CoreGraph))
    monkeypatch.setattr(retract_split, "MarkedGraph",
                        SimpleNamespace(_derived=MarkedGraph))
    for (G, data), out in zip(inputs, outs):
        checked = retract_R(G, data)
        assert (checked.graph.vertices, checked.graph.edges,
                checked.basepoint, checked.marking) == \
            (out.graph.vertices, out.graph.edges, out.basepoint, out.marking)
        assert in_CVKT(out, data.blueprint) is not None


def audit_blueprints(n):
    """Loop and segment blueprints of rank n: the standard ones, and a loop
    whose vertex group's first generator is a1 a2."""
    b = [basis_word(i, n) for i in range(1, n + 1)]
    yield SplittingBlueprint("loop", (tuple(b[:-1]),), n, n)
    yield SplittingBlueprint("loop", ((b[0] * b[1],) + tuple(b[1:-1]),), n, n)
    for k in range(1, n):
        yield SplittingBlueprint("segment", (tuple(b[:k]), tuple(b[k:])), 0, n)


def audit_outcome(audit, G, forest, data):
    try:
        return audit(G, forest, data)
    except SplitError as exc:
        return type(exc).__name__


def test_retraction_audit_matches_forest_search():
    """The hull certificate gives the search oracle's answer on seeded
    audits: loop and segment blueprints at ranks 2-4, default rays and
    random rays with prefixes, spine vertices blown up at random."""
    rng = random.Random(2707)
    seen = set()
    for k in range(900):
        n = 2 + k % 3
        bps = list(audit_blueprints(n))
        bp = bps[rng.randrange(len(bps))]
        if k % 2:
            data = default_retraction_data(bp)
        else:
            data = RetractionData(bp, tuple(RayDatum(
                sampling.random_reduced_word(rng, n, 3),
                sampling.random_reduced_word(rng, n, 3, nontrivial=True))
                for _ in range(2)))
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        for _ in range(rng.randint(0, 2)):
            G = sampling.random_blowup(rng, G) or G
        forest = sampling.random_relatively_natural_forest(rng, G)
        if forest is None:
            continue
        want = audit_outcome(split_oracle.search_audit, G, forest, data)
        assert audit_outcome(retraction_audit, G, forest, data) == want, k
        seen.add((bp.kind, n, want))
    for kind in ("loop", "segment"):
        assert {(kind, n, d) for n in (3, 4) for d in (0, 1)} <= seen
        assert (kind, 2, 0) in seen
    assert {want for *_, want in seen} == {0, 1, "InvalidRay"}


def blown_rose():
    """The rank-3 rose with loop e1 pushed off along a new edge e4: a
    member of the loop blueprint's subcomplex, one collapse from the rose."""
    G = MarkedGraph.rose_identity(3)
    blown, eid, _ = G.blowup_marked(0, (1, -1), (2, -2, 3, -3))
    return blown, [eid]


def test_distance_one_audit_collapses_once(monkeypatch):
    """No forest search: R(G) with its hull collapsed is compared once with
    R(G/F), by `marked.collapse_matches`, which builds no collapsed graph
    when its based walk matches: G alone is collapsed, into G/F."""
    assert not hasattr(retract_split, "enumerate_natural_subforests")
    G, forest = blown_rose()
    data = default_retraction_data(loop_bp(3))

    def no_search(*args, **kwargs):
        raise AssertionError("forest search in the audit")

    collapsed = []
    real_collapse = MarkedGraph.collapse_marked

    def counted_collapse(self, f):
        collapsed.append(self)
        return real_collapse(self, f)

    matched = []
    real_matches = marked.collapse_matches

    def counted_matches(*args):
        matched.append(args)
        return real_matches(*args)

    compared = []

    def counted_equivalent(G1, G2):
        compared.append((G1, G2))
        return equivalent(G1, G2)

    monkeypatch.setattr(graphs, "enumerate_natural_subforests", no_search)
    monkeypatch.setattr(MarkedGraph, "collapse_marked", counted_collapse)
    monkeypatch.setattr(marked, "collapse_matches", counted_matches)
    monkeypatch.setattr(marked, "equivalent", counted_equivalent)
    assert retraction_audit(G, forest, data) == 1
    assert collapsed == [G]
    assert len(matched) == 1 and compared == []


# A distance-1 audit whose hull has two edges (collapse e5).
HULL_TWO = """graph { v: v0 v1 v2; e: e1 v0 v2; e2 v1 v2; e3 v1 v0; e4 v2 v1;
                e5 v0 v2; }
marking { a1 = e1 e5^-1 e1 e4 e3; a2 = e5 e4 e2 e5^-1; a3 = e1 e4 e3; }
"""
LOOP_BLUEPRINT = ('splitting { type: loop; vertex A = a1 a2; stable: a3; '
                  'ray1: prefix "", period a3; ray2: prefix "", period a3^-1 }')


def corrupt_labels(monkeypatch):
    """Move every label of R(G) to the next ambient edge id."""
    real = retract_split._retract

    def shifted(G, data):
        R, labels = real(G, data)
        m = max(G.graph.edges)
        return R, {e: lab % m + 1 for e, lab in labels.items()}

    monkeypatch.setattr(retract_split, "_retract", shifted)


def short_hull(monkeypatch):
    """Drop the least edge of every hull."""
    real = graphs.chain_hull
    monkeypatch.setattr(graphs, "chain_hull",
                        lambda chains, edges: real(chains, edges) -
                        {min(real(chains, edges))})


def dead_period(monkeypatch):
    """Read every ray as the empty word, whose period dies in any marking."""
    monkeypatch.setattr(RayDatum, "reduced_form", lambda ray: ((), ()))


def stray_attach(monkeypatch):
    """Move the attach vertex q of every vertex core to another core vertex,
    so a ray enters the core away from it."""
    real = retract_split.based_core

    def moved(gens, G):
        sub = real(gens, G)
        return sub._replace(attach=min(v for v in sub.core.vertices
                                       if v != sub.attach))

    monkeypatch.setattr(retract_split, "based_core", moved)


def outside(monkeypatch):
    """Refuse every retraction output as a member of the subcomplex."""
    monkeypatch.setattr(retract_split, "in_CVKT", lambda G, bp: None)


AUDIT_FAULTS = [
    (corrupt_labels, "empty hull but retractions differ"),
    (short_hull, "hull collapse does not reproduce the retraction"),
    (dead_period, "ray period dies in the marking"),
    (stray_attach, "ray entered the core away from q"),
    (outside, "retraction output left the subcomplex"),
]


@pytest.mark.parametrize("fault, message", AUDIT_FAULTS,
                         ids=[f.__name__ for f, _ in AUDIT_FAULTS])
def test_audit_faults_are_violations(fault, message, monkeypatch, tmp_path,
                                     capsys):
    """Each certificate on the audit's path, made to fail, raises a
    SplitError that is a CertificateError, and the CLI exits 3 with one
    `AUDIT VIOLATION:` line."""
    data = default_retraction_data(loop_bp(3))
    G = textio.parse_marked(HULL_TWO)
    assert retraction_audit(G, [5], data) == 1
    graph = tmp_path / "G.txt"
    graph.write_text(HULL_TWO)
    bp = tmp_path / "bp.txt"
    bp.write_text(LOOP_BLUEPRINT)
    fault(monkeypatch)
    with pytest.raises(SplitError, match="^%s$" % message) as exc:
        retraction_audit(G, [5], data)
    assert isinstance(exc.value, CertificateError)
    with pytest.raises(SplitError):
        retraction_audit(*blown_rose(), data)
    with pytest.raises(SystemExit) as exc:
        cli.main(["retract-split-audit", "--graph", str(graph),
                  "--blueprint", str(bp), "--collapse", "e5"])
    assert exc.value.code == 3
    assert capsys.readouterr().err == "AUDIT VIOLATION: %s\n" % message


def test_hull_with_a_cycle_is_a_violation(monkeypatch, tmp_path, capsys):
    """A hull that keeps every edge of R(G) has a cycle; the audit reports
    it as a violation (exit 3), not as a failed collapse of bad input."""
    monkeypatch.setattr(graphs, "chain_hull",
                        lambda chains, edges: frozenset(chains))
    with pytest.raises(SplitError, match="hull is not a forest") as exc:
        retraction_audit(*blown_rose(), default_retraction_data(loop_bp(3)))
    assert isinstance(exc.value, CertificateError)
    graph = tmp_path / "G.txt"
    graph.write_text(HULL_TWO)
    bp = tmp_path / "bp.txt"
    bp.write_text(LOOP_BLUEPRINT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["retract-split-audit", "--graph", str(graph),
                  "--blueprint", str(bp), "--collapse", "e5"])
    assert exc.value.code == 3
    assert capsys.readouterr().err == \
        "AUDIT VIOLATION: hull is not a forest\n"
