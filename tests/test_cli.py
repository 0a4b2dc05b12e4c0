import contextlib
import io
import subprocess
import sys

import pytest

from outerspine import cli, covers, folding, sampling, spine, textio, witness
from outerspine.marked import MarkedGraph, equivalent
from outerspine.retract_aut import embed_j
from outerspine import graphs


def call_cli(args):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli(args, expect=0):
    code, out, err = call_cli(args)
    assert code == expect, err
    return out


def run_cli_error(args):
    """Run a command that must exit 2 with a single `error:` line."""
    code, _, err = call_cli(args)
    assert code == 2, err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    return err


def run_process(args, flags=()):
    """Run the CLI as `python [flags] -m outerspine.cli args`."""
    return subprocess.run([sys.executable, *flags, "-m", "outerspine.cli"]
                          + args, capture_output=True, text=True)


def write_rose(tmp_path, name="rose.txt", n=3, pointed=False):
    G = MarkedGraph.rose_identity(n)
    p = tmp_path / name
    p.write_text(textio.print_marked(G, pointed=pointed))
    return str(p)


def test_reduce():
    out = run_cli(["reduce", "a1 a1^-1 a2", "--rank", "2"])
    assert out.strip() == "a2"


def test_apply_theta():
    out = run_cli(["apply", "--rank", "3", "--images", "a1 a2, a1, a3",
                   "--word", "a1"])
    assert out.strip() == "a1 a2"


def test_compose_inverse():
    out = run_cli(["compose", "--rank", "3", "--f", "a1 a2, a1, a3",
                   "--g", "a2, a2^-1 a1, a3"])
    assert out.strip() == "a1, a2, a3"


def test_is_auto():
    out = run_cli(["is-auto", "--rank", "3", "--images", "a1 a2, a1, a3"])
    assert out.splitlines()[0] == "true"
    out = run_cli(["is-auto", "--rank", "3", "--images", "a1 a2, a1 a2, a3"])
    assert out.strip() == "false"


def test_count_i_known_values(tmp_path):
    rose = write_rose(tmp_path)
    out = run_cli(["count-i", "--graph", rose, "--a", "a1",
                   "--b", "a1, a2", "--cls", "a3"])
    assert out.strip() == "0"
    out = run_cli(["count-i", "--graph", rose, "--a", "a1",
                   "--b", "a1, a2", "--cls", "a3 a1 a2"])
    assert out.strip() == "1"


def test_count_i_precondition_error(tmp_path):
    rose = write_rose(tmp_path)
    code, _, _ = call_cli(["count-i", "--graph", rose, "--a", "a1",
                          "--b", "a1, a2", "--cls", "a1 a2"])
    assert code == 2


def test_count_i_refuses_a_count_that_depends_on_the_embedding(tmp_path):
    """B = <a1, a2 a1 a2^-1> is not a free factor: the A-core of <a1>
    embeds in its core twice, and the two images count this class 1 and 2
    times, so the count is refused."""
    rose = write_rose(tmp_path)
    err = run_cli_error(["count-i", "--graph", rose, "--a", "a1",
                         "--b", "a1, a2 a1 a2^-1",
                         "--cls", "a3^-1 a1^-1 a2 a1 a2^-1 a1^-1"])
    assert "more than once" in err


# Two subdivided petals and a loop: a1 and a2 each run over two edges
# through a valence-2 vertex.
TWO_PETALS = ("graph { v: v0 v1 v2; e: e1 v0 v1; e2 v0 v2; e3 v0 v0; "
              "e4 v1 v0; e5 v2 v0; }\n"
              "marking { a1 = e1 e4; a2 = e2 e5; a3 = e3; }\n")


def lipschitz_audit_args(tmp_path, b="a1, a2", cls="a3 a1 a2 a2",
                         collapse="e1"):
    p = tmp_path / "petals.txt"
    p.write_text(TWO_PETALS)
    return ["lipschitz-audit", "--graph", str(p), "--a", "a1", "--b", b,
            "--cls", cls, "--collapse", collapse]


def test_lipschitz_audit_known_brackets(tmp_path):
    # G/e1 keeps a valence-2 vertex and is counted as it is; G/{e1, e2}
    # is the natural rose
    for collapse in ("e1", "e1, e2"):
        out = run_cli(lipschitz_audit_args(tmp_path, collapse=collapse))
        assert out.strip() == "2 2"


def test_lipschitz_audit_precondition_errors(tmp_path):
    run_cli_error(lipschitz_audit_args(tmp_path, b="a1 a2"))
    run_cli_error(lipschitz_audit_args(tmp_path, cls="a1"))


def test_three_A_components_exit_2(tmp_path, capsys):
    """Counting takes one or two A-components: a third is refused as bad
    input, also where all three cores embed in K."""
    rose = write_rose(tmp_path, n=4)
    three = ["--a", "a1", "--a", "a2", "--a", "a1"]
    for args in (["count-i", "--graph", rose] + three +
                 ["--b", "a1,a2", "--cls", "a4 a1"],
                 lipschitz_audit_args(tmp_path) + three[2:]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            "error: counting takes one or two A-components, got 3\n"


def test_witness_csv():
    out = run_cli(["witness", "--case", "1", "--n", "3", "--r", "1",
                   "--kmax", "10"])
    lines = out.strip().splitlines()
    assert lines[0] == "k,upper_nielsen,i_k,spine_lb"
    iks = [int(l.split(",")[2]) for l in lines[1:]]
    assert iks == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_witness_case3_rank_two_extra_component():
    out = run_cli(["witness", "--case", "3", "--n", "5", "--ranks", "1", "1",
                   "2", "--kmax", "3"])
    lines = out.strip().splitlines()
    assert lines[0] == "k,upper_nielsen,i_k,spine_lb"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2, 3]


def test_witness_negative_kmax_exits_2():
    err = run_cli_error(["witness", "--case", "1", "--n", "4", "--r", "2",
                         "--kmax", "-1"])
    assert "--kmax" in err


def test_witness_component_rank_below_one_exits_2():
    """Two or three ranks are given, one of them 0: the refusal names the
    rank, not the number of ranks."""
    for args in (["--case", "2", "--n", "4", "--ranks", "0", "1"],
                 ["--case", "3", "--n", "5", "--ranks", "1", "0", "1"]):
        err = run_cli_error(["witness"] + args + ["--kmax", "2"])
        assert err == "error: component ranks must be >= 1\n"


def test_witness_wrong_number_of_ranks_exits_2():
    for args, message in (
            (["--case", "2", "--n", "4", "--ranks", "1", "1", "1"],
             "two_component case needs two ranks"),
            (["--case", "3", "--n", "5", "--ranks", "1", "1"],
             "multi_component case needs >= 3 ranks")):
        err = run_cli_error(["witness"] + args + ["--kmax", "2"])
        assert err == "error: %s\n" % message


def test_malformed_marking_exits_2(tmp_path):
    graph = "graph { v: v0; e: e1 v0 v0; e2 v0 v0; }\n"
    for i, marking in enumerate(["marking { a1 e1; a2 = e2; }",
                                 "marking { a1 = e7; a2 = e2; }",
                                 "marking { a1 = a1; a2 = e2; }"]):
        p = tmp_path / ("bad%d.txt" % i)
        p.write_text(graph + marking + "\n")
        run_cli_error(["realizes", "--graph", str(p), "--component", "a1"])


def test_repeated_declaration_exits_2(tmp_path):
    cases = [("graph { v: v0; e: e1 v0 v0; e1 v0 v0; e2 v0 v0; }\n"
              "marking { a1 = e1; a2 = e2; }\n", "repeated edge e1"),
             ("graph { v: v0; e: e1 v0 v0; e2 v0 v0; }\n"
              "marking { a1 = e1; a1 = e2; a2 = e2; }\n",
              "repeated marking letter a1")]
    for i, (text, message) in enumerate(cases):
        p = tmp_path / ("dup%d.txt" % i)
        p.write_text(text)
        assert message in run_cli_error(["collapse", str(p), "--edges", "e1"])


def test_repeated_blueprint_statement_exits_2(tmp_path):
    segment = "splitting { type: segment; vertex A0 = a1; vertex A1 = a2 a3; %s }"
    cases = [("splitting { type: segment; type: loop; vertex A = a1 a2; "
              "stable: a3 }", "repeated type statement"),
             (segment % "stable: a2", "segment blueprint has no stable"),
             (segment % "frobnicate", "unknown blueprint statement")]
    rose = write_rose(tmp_path)
    for i, (text, message) in enumerate(cases):
        bp = tmp_path / ("bp%d.txt" % i)
        bp.write_text(text + "\n")
        assert message in run_cli_error(
            ["split-membership", "--graph", rose, "--blueprint", str(bp)])


def test_relation_fold_marking_exits_2(tmp_path):
    # the marking paths fold onto a rank-2 graph of the rank-3 graph's edges
    p = tmp_path / "rel.txt"
    p.write_text("graph { v: v0 v1; e: e1 v0 v1; e2 v0 v1; e3 v1 v0; "
                 "e4 v1 v0; }\n"
                 "marking { a1 = e1 e3; a2 = e2 e4; a3 = e1 e3 e1 e3; }\n")
    err = run_cli_error(["realizes", "--graph", str(p), "--component", "a1"])
    assert "do not generate" in err


def test_edge_token_in_word_exits_2():
    run_cli_error(["reduce", "e1 a2", "--rank", "2"])


def test_fold_path_rank_mismatch_exits_2(tmp_path):
    r2 = write_rose(tmp_path, "r2.txt", n=2)
    r3 = write_rose(tmp_path, "r3.txt", n=3)
    assert "rank mismatch" in run_cli_error(["fold-path", r2, r3])


def test_spine_bfs_rank_mismatch_exits_2(tmp_path):
    r2 = write_rose(tmp_path, "r2.txt", n=2)
    r3 = write_rose(tmp_path, "r3.txt", n=3)
    err = run_cli_error(["spine-bfs", r2, r3, "--cap", "3"])
    assert "rank mismatch: 2 vs 3" in err


def test_directory_argument_exits_2(tmp_path):
    r2 = write_rose(tmp_path, "r2.txt", n=2)
    run_cli_error(["equiv", str(tmp_path), str(tmp_path)])
    run_cli_error(["spine-bfs", r2, str(tmp_path), "--cap", "1"])


def test_non_utf8_graph_file_exits_2(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"graph { v: v0; e: e1 v0 v0; }\n\xff\xfe\n")
    run_cli_error(["equiv", str(p), str(p)])


def test_witness_out_directory_exits_2(tmp_path):
    run_cli_error(["witness", "--case", "1", "--n", "4", "--r", "2",
                   "--kmax", "1", "--out", str(tmp_path)])


def test_witness_opens_out_before_report(tmp_path, monkeypatch, capsys):
    def report(*args):
        raise RuntimeError("distortion_report ran before --out was opened")

    monkeypatch.setattr(witness, "distortion_report", report)
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness", "--case", "1", "--n", "4", "--r", "2",
                  "--kmax", "30", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_retract_aut_rank_1_exits_2(tmp_path):
    r1 = write_rose(tmp_path, "r1.txt", n=1, pointed=True)
    for args in (["retract-aut", r1],
                 ["retract-aut-audit", r1, "--collapse", ""]):
        assert "rank must be at least 2" in run_cli_error(args)


def test_pointed_graph_without_basepoint_exits_2(tmp_path):
    rose = write_rose(tmp_path, n=3)
    assert "basepoint" in run_cli_error(["retract-aut", rose])


def test_retract_aut_fixed_point(tmp_path):
    w = MarkedGraph.rose_identity(2)
    x = embed_j(w)
    p = tmp_path / "pointed.txt"
    p.write_text(textio.print_marked(x, pointed=True))
    out = run_cli(["retract-aut", str(p)])
    r = textio.parse_marked(out, pointed=True)
    from outerspine.retract_aut import pointed_equivalent
    assert pointed_equivalent(r, w) is not None


def test_split_membership_and_retract(tmp_path):
    rose = write_rose(tmp_path)
    bp = tmp_path / "bp.txt"
    bp.write_text('splitting { type: loop; vertex A = a1 a2; stable: a3; '
                  'ray1: prefix "", period a3; ray2: prefix "", period a3^-1 }')
    out = run_cli(["split-membership", "--graph", rose, "--blueprint", str(bp)])
    assert out.splitlines()[0] == "true"
    out = run_cli(["retract-split", "--graph", rose, "--blueprint", str(bp)])
    got = textio.parse_marked(out)
    assert equivalent(got, MarkedGraph.rose_identity(3)) is not None


def test_blueprint_of_another_rank_exits_2(tmp_path):
    """A blueprint is read at the graph's rank: a rank-2 blueprint on the
    rank-3 rose, and a rank-3 one on the rank-2 rose, are refused by every
    blueprint command (the rank is not inferred from the letters)."""
    bp2 = tmp_path / "bp2.txt"
    bp2.write_text("splitting { type: loop; vertex A = a1; stable: a2 }\n")
    bp3 = tmp_path / "bp3.txt"
    bp3.write_text("splitting { type: loop; vertex A = a1 a2; stable: a3 }\n")
    for rose, bp in ((write_rose(tmp_path, "r3.txt", n=3), bp2),
                     (write_rose(tmp_path, "r2.txt", n=2), bp3)):
        common = ["--graph", rose, "--blueprint", str(bp)]
        for args in (["retract-split"] + common,
                     ["split-membership"] + common,
                     ["retract-split-audit"] + common + ["--collapse", ""]):
            assert run_cli_error(args) == \
                "error: loop blueprint needs one rank n-1 vertex group\n"


def test_ray_in_the_vertex_group_boundary_exits_2(tmp_path, capsys):
    """A ray whose period lies in the vertex group is bad input, for the
    retraction and for its audit alike."""
    graph = tmp_path / "G.txt"
    graph.write_text("graph { v: v0 v1; e: e1 v0 v0; e2 v0 v1; e3 v1 v1; "
                     "e4 v1 v1; }\nmarking { a1 = e1; a2 = e2 e3 e2^-1; "
                     "a3 = e2 e4 e2^-1; }\n")
    bp = tmp_path / "bp.txt"
    bp.write_text('splitting { type: loop; vertex A = a1 a2; stable: a3; '
                  'ray1: prefix "", period a1; ray2: prefix "", period a3^-1 }')
    common = ["--graph", str(graph), "--blueprint", str(bp)]
    for args in (["retract-split"] + common,
                 ["retract-split-audit"] + common + ["--collapse", "e2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            "error: ray stays in the vertex cover forever\n"


def test_equiv_and_act(tmp_path):
    rose = write_rose(tmp_path, n=2)
    other = tmp_path / "acted.txt"
    out = run_cli(["act", rose, "--images", "a2, a1"])
    other.write_text(out)
    assert run_cli(["equiv", rose, str(other)]).strip() == "equivalent"
    out = run_cli(["act", rose, "--images", "a1 a2, a2"])
    other.write_text(out)
    assert run_cli(["equiv", rose, str(other)]).strip() == "not equivalent"


def test_circuit(tmp_path):
    rose = write_rose(tmp_path)
    out = run_cli(["circuit", rose, "--cls", "a3 a1 a2"])
    assert out.strip() == "e1 e2 e3"


def test_spine_bfs(tmp_path):
    rose = write_rose(tmp_path, n=2)
    out = run_cli(["act", rose, "--images", "a1 a2, a2"])
    other = tmp_path / "acted.txt"
    other.write_text(out)
    got = run_cli(["spine-bfs", rose, str(other), "--cap", "4"])
    assert got.strip() == "2"


def test_spine_bfs_negative_cap_exits_2(tmp_path):
    rose = write_rose(tmp_path, n=2)
    err = run_cli_error(["spine-bfs", rose, rose, "--cap", "-1"])
    assert "--cap" in err


def test_fold_path_cli(tmp_path):
    rose = write_rose(tmp_path, n=2)
    out = run_cli(["act", rose, "--images", "a1 a2, a2"])
    other = tmp_path / "acted.txt"
    other.write_text(out)
    got = run_cli(["fold-path", rose, str(other)])
    assert got == FOLD_PATH_ROSE2_STDOUT


FOLD_PATH_ROSE2_STDOUT = """\
length: 2
vertex 0:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; }
marking { a1 = e1; a2 = e2; }
certificate 0: up collapse of {e2}
vertex 1:
graph { v: v0 v2; e: e1 v0 v2; e2 v0 v2; e3 v0 v2; }
marking { a1 = e1 e2^-1; a2 = e3 e2^-1; }
certificate 1: down collapse of {e3}
vertex 2:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; }
marking { a1 = e1 e2; a2 = e2; }
"""


@pytest.mark.parametrize("n", [3, 4])
def test_fold_path_cli_at_ranks_3_and_4(tmp_path, n):
    """The printed path of one seeded pair per rank, as the folding
    construction numbers its vertices and edges (the pairs of
    `sampling.random_marked_graph` with seeds 7 and 6)."""
    *ends, stdout = FOLD_PATH_PINS[n]
    args = ["fold-path"]
    for i, text in enumerate(ends):
        p = tmp_path / ("end%d.txt" % i)
        p.write_text(text)
        args.append(str(p))
    assert run_cli(args) == stdout


FOLD_PATH_RANK3_LEFT = """\
graph { v: v0 v1 v2; e: e1 v0 v2; e2 v1 v0; e3 v2 v1; e4 v0 v1; e5 v0 v2; }
marking { a1 = e1 e5^-1; a2 = e1 e5^-1 e4 e2; a3 = e5 e3 e4^-1; }
"""


FOLD_PATH_RANK3_RIGHT = """\
graph { v: v0 v1 v2 v3; e: e1 v0 v1; e2 v3 v2; e3 v1 v0; e4 v2 v3; e5 v0 v2; e6 v1 v3; }
marking { a1 = e1 e6 e4^-1 e5^-1; a2 = e5 e4 e2 e5^-1; a3 = e5 e4 e6^-1 e3; }
"""


FOLD_PATH_RANK3_STDOUT = """\
length: 10
vertex 0:
graph { v: v0 v1 v2; e: e1 v0 v2; e2 v1 v0; e3 v2 v1; e4 v0 v1; e5 v0 v2; }
marking { a1 = e1 e5^-1; a2 = e1 e5^-1 e4 e2; a3 = e5 e3 e4^-1; }
certificate 0: down collapse of {e1, e2}
vertex 1:
graph { v: v1; e: e3 v1 v1; e4 v1 v1; e5 v1 v1; }
marking { a1 = e5^-1; a2 = e5^-1 e4; a3 = e5 e3 e4^-1; }
certificate 1: up collapse of {e4}
vertex 2:
graph { v: v0 v7; e: e1 v0 v7; e2 v0 v7; e3 v0 v0; e4 v0 v7; }
marking { a1 = e3^-1; a2 = e3^-1 e2 e4^-1; a3 = e3 e1 e2^-1; }
certificate 2: up collapse of {e4}
vertex 3:
graph { v: v0 v3 v8; e: e1 v0 v3; e2 v0 v3; e3 v0 v8; e4 v0 v8; e5 v3 v8; }
marking { a1 = e3 e4^-1; a2 = e3 e5^-1 e2^-1; a3 = e4 e3^-1 e1 e5 e4^-1; }
certificate 3: down collapse of {e5}
vertex 4:
graph { v: v0 v2; e: e1 v0 v2; e2 v0 v2; e3 v0 v2; e4 v0 v2; }
marking { a1 = e4 e3^-1; a2 = e4 e2^-1; a3 = e3 e4^-1 e1 e3^-1; }
certificate 4: up collapse of {e5}
vertex 5:
graph { v: v0 v2 v10; e: e1 v0 v10; e2 v0 v2; e3 v0 v2; e4 v0 v10; e5 v2 v10; }
marking { a1 = e3 e5 e4^-1; a2 = e3 e2^-1; a3 = e4 e5^-1 e3^-1 e1 e4^-1; }
certificate 5: down collapse of {e4}
vertex 6:
graph { v: v0 v2; e: e1 v0 v0; e2 v0 v2; e3 v0 v2; e4 v0 v2; }
marking { a1 = e4 e2^-1; a2 = e4 e3^-1; a3 = e2 e4^-1 e1; }
certificate 6: down collapse of {e4}
vertex 7:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; }
marking { a1 = e2^-1; a2 = e3; a3 = e2 e1; }
certificate 7: up collapse of {e3}
vertex 8:
graph { v: v0 v12; e: e1 v0 v0; e2 v0 v12; e3 v0 v12; e4 v0 v12; }
marking { a1 = e2 e3^-1; a2 = e3 e4^-1; a3 = e3 e2^-1 e1; }
certificate 8: down collapse of {e4}
vertex 9:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; }
marking { a1 = e3^-1 e2^-1; a2 = e2; a3 = e2 e3 e1; }
certificate 9: up collapse of {e1, e2, e5}
vertex 10:
graph { v: v0 v1 v2 v3; e: e1 v0 v1; e2 v3 v2; e3 v1 v0; e4 v2 v3; e5 v0 v2; e6 v1 v3; }
marking { a1 = e1 e6 e4^-1 e5^-1; a2 = e5 e4 e2 e5^-1; a3 = e5 e4 e6^-1 e3; }
"""


FOLD_PATH_RANK4_LEFT = """\
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e4 v0 v0; }
marking { a1 = e1; a2 = e2; a3 = e3 e1; a4 = e2 e4^-1; }
"""


FOLD_PATH_RANK4_RIGHT = """\
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e4 v0 v0; }
marking { a1 = e1 e3 e2; a2 = e2; a3 = e3; a4 = e4 e2; }
"""


FOLD_PATH_RANK4_STDOUT = """\
length: 12
vertex 0:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e4 v0 v0; }
marking { a1 = e1; a2 = e2; a3 = e3 e1; a4 = e2 e4^-1; }
certificate 0: up collapse of {e4}
vertex 1:
graph { v: v0 v8; e: e1 v0 v8; e2 v0 v0; e3 v0 v0; e4 v0 v8; e5 v0 v8; }
marking { a1 = e1 e4^-1; a2 = e5 e4^-1; a3 = e2 e1 e4^-1; a4 = e5 e4^-1 e3^-1; }
certificate 1: down collapse of {e5}
vertex 2:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e4 v0 v0; }
marking { a1 = e1 e2; a2 = e2; a3 = e3 e1 e2; a4 = e2 e4^-1; }
certificate 2: up collapse of {e5}
vertex 3:
graph { v: v0 v9; e: e1 v0 v9; e2 v0 v0; e3 v0 v9; e4 v0 v0; e5 v0 v9; }
marking { a1 = e5 e1^-1 e2; a2 = e2; a3 = e3 e1^-1 e2; a4 = e2 e4^-1; }
certificate 3: up collapse of {e5}
vertex 4:
graph { v: v0 v1 v10; e: e1 v0 v1; e2 v0 v1; e3 v0 v1; e4 v0 v10; e5 v0 v10; e6 v0 v10; }
marking { a1 = e1 e2^-1 e6 e5^-1; a2 = e6 e5^-1; a3 = e3 e2^-1 e6 e5^-1; a4 = e6 e5^-1 e4 e5^-1; }
certificate 4: down collapse of {e6}
vertex 5:
graph { v: v0 v1; e: e1 v0 v1; e2 v0 v1; e3 v0 v0; e4 v0 v1; e5 v0 v0; }
marking { a1 = e1 e2^-1 e3; a2 = e3; a3 = e4 e2^-1 e3; a4 = e3 e5^-1 e3; }
certificate 5: up collapse of {e5}
vertex 6:
graph { v: v0 v1 v11; e: e1 v0 v1; e2 v0 v1; e3 v0 v1; e4 v0 v11; e5 v0 v11; e6 v0 v11; }
marking { a1 = e1 e2^-1 e6 e5^-1; a2 = e6 e5^-1; a3 = e3 e2^-1 e6 e5^-1; a4 = e6 e4^-1 e6 e5^-1; }
certificate 6: down collapse of {e6}
vertex 7:
graph { v: v0 v1; e: e1 v0 v1; e2 v0 v1; e3 v0 v0; e4 v0 v1; e5 v0 v0; }
marking { a1 = e1 e2^-1 e3; a2 = e3; a3 = e4 e2^-1 e3; a4 = e5^-1 e3; }
certificate 7: down collapse of {e5}
vertex 8:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e4 v0 v0; }
marking { a1 = e1 e2; a2 = e2; a3 = e3 e2; a4 = e4^-1 e2; }
certificate 8: up collapse of {e4}
vertex 9:
graph { v: v0 v13; e: e1 v0 v0; e2 v0 v13; e3 v0 v0; e4 v0 v13; e5 v0 v13; }
marking { a1 = e1 e4 e5^-1; a2 = e4 e5^-1; a3 = e2 e5^-1; a4 = e3^-1 e4 e5^-1; }
certificate 9: down collapse of {e5}
vertex 10:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e4 v0 v0; }
marking { a1 = e1 e2; a2 = e2; a3 = e3; a4 = e4^-1 e2; }
certificate 10: up collapse of {e4}
vertex 11:
graph { v: v0 v14; e: e1 v0 v14; e2 v0 v0; e3 v0 v0; e4 v0 v14; e5 v0 v14; }
marking { a1 = e1 e4^-1 e2; a2 = e2; a3 = e5 e4^-1; a4 = e3^-1 e2; }
certificate 11: down collapse of {e5}
vertex 12:
graph { v: v0; e: e1 v0 v0; e2 v0 v0; e3 v0 v0; e10 v0 v0; }
marking { a1 = e1 e2 e3; a2 = e3; a3 = e2; a4 = e10^-1 e3; }
"""

FOLD_PATH_PINS = {
    3: (FOLD_PATH_RANK3_LEFT, FOLD_PATH_RANK3_RIGHT, FOLD_PATH_RANK3_STDOUT),
    4: (FOLD_PATH_RANK4_LEFT, FOLD_PATH_RANK4_RIGHT, FOLD_PATH_RANK4_STDOUT),
}


def test_collapse_and_blowups(tmp_path):
    """`blowups` prints the sum over vertices of 2^(d-1) - 1 - d blow-ups,
    one for each split of a vertex's d directions into two sides of size
    >= 2, and collapsing each one's new edge gives back the input."""
    T = MarkedGraph(graphs.theta_graph(), 0, [(1, -3), (2, -3)])
    p = tmp_path / "theta.txt"
    p.write_text(textio.print_marked(T))
    out = run_cli(["collapse", str(p), "--edges", "e3"])
    G = textio.parse_marked(out)
    assert G.rank == 2
    for G, count in ((MarkedGraph.rose_identity(2), 3),
                     (MarkedGraph.rose_identity(3), 25), (T, 0)):
        p.write_text(textio.print_marked(G))
        head, *graphs_out = run_cli(["blowups", str(p)]).split("graph {")
        assert head == "%d blow-ups\n" % count
        assert len(graphs_out) == count
        for text in graphs_out:
            H = textio.parse_marked("graph {" + text)
            (new_eid,) = set(H.graph.edges) - set(G.graph.edges)
            assert equivalent(H.collapse_marked([new_eid])[0], G) is not None


def test_coindex_cli():
    out = run_cli(["coindex", "--rank", "3", "--component", "a1"])
    assert out.strip() == "2"
    out = run_cli(["coindex", "--rank", "4",
                   "--component", "a1, a2, a3"])
    assert out.strip() == "1"


def test_coindex_cli_trivial_component():
    err = run_cli_error(["coindex", "--rank", "3", "--component", "a1",
                         "--component", ""])
    assert err == "error: trivial subgroup has no core\n"


def test_realizes_cli(tmp_path):
    rose = write_rose(tmp_path)
    out = run_cli(["realizes", "--graph", rose, "--component", "a1"])
    assert out.startswith("witness")
    out = run_cli(["realizes", "--graph", rose, "--component", "a1 a1"])
    assert out.strip() == "none"


def test_realizes_cli_trivial_component_after_failing_one(tmp_path):
    """A trivial component is an input error even when an earlier
    component's core fails to embed: every component is checked before
    any is folded."""
    rose = write_rose(tmp_path)
    err = run_cli_error(["realizes", "--graph", rose, "--component", "a1 a2",
                         "--component", ""])
    assert err == "error: trivial subgroup has no core\n"


def test_core_cli(tmp_path):
    rose = write_rose(tmp_path, n=2)
    out = run_cli(["core", "--graph", rose, "--gens", "a1 a2"])
    assert "rank: 1" in out


def test_core_cli_based_numbering(tmp_path):
    """`core` numbers vertices v<i> and core edges k<i> by first visit from
    the base, so its output is fixed whatever order the folds are made in."""
    p = tmp_path / "g.txt"
    p.write_text("graph { v: v0 v1; e: e1 v0 v1; e2 v1 v1; e3 v0 v0;"
                 " e4 v0 v1; }\n"
                 "marking { a1 = e3; a2 = e1 e2 e1^-1; a3 = e1 e4^-1; }\n"
                 "basepoint: v0\n")
    out = run_cli(["core", "--graph", str(p), "--based", "--gens",
                   "a3 a2 a1 a2^-1 a3^-1, a3 a2 a3 a2 a3^-1"])
    assert out == ("rank: 2\n"
                   "k4: v3 -> v4 over e2\n"
                   "k5: v5 -> v3 over e2\n"
                   "k6: v6 -> v4 over e1\n"
                   "k7: v7 -> v4 over e4\n"
                   "k8: v7 -> v5 over e1\n"
                   "k9: v6 -> v6 over e3\n"
                   "attach: v3\n"
                   "tail: e1 e4^-1 e1\n")


def test_core_cli_unbased_numbering(tmp_path):
    """Unbased `core` folds the generators conjugated onto the first one's
    axis, so the numbering starts at a point of that axis, on the core."""
    p = tmp_path / "g.txt"
    p.write_text("graph { v: v0 v1; e: e1 v0 v1; e2 v1 v1; e3 v0 v0;"
                 " e4 v0 v1; }\n"
                 "marking { a1 = e3; a2 = e1 e2 e1^-1; a3 = e1 e4^-1; }\n"
                 "basepoint: v0\n")
    out = run_cli(["core", "--graph", str(p), "--gens",
                   "a3 a2 a1 a2^-1 a3^-1, a3 a2 a3 a2 a3^-1"])
    assert out == ("rank: 2\n"
                   "k1: v0 -> v1 over e1\n"
                   "k2: v0 -> v0 over e3\n"
                   "k3: v2 -> v1 over e2\n"
                   "k4: v3 -> v1 over e4\n"
                   "k5: v4 -> v2 over e2\n"
                   "k6: v3 -> v4 over e1\n")


def assert_audit_violation(args, message):
    code, out, err = call_cli(args)
    assert (code, out, err) == (3, "", "AUDIT VIOLATION: %s\n" % message)


def test_core_loop_faults_exit_3(tmp_path, monkeypatch):
    """A generator loop that does not close in the based core is the
    fold's fault, not the input's: `core --based` exits 3 with one line.
    The faults are put in by hand: the trace of each generator's path
    stops one letter short, or its loop is not conjugated through the
    tail (a2 a1 a2^-1 over the rose hangs its core off a tail)."""
    rose = write_rose(tmp_path, pointed=True)
    args = ["core", "--graph", rose, "--based", "--gens", "a2 a1 a2^-1"]
    assert run_cli(args).endswith("tail: e2\n")
    trace = folding.LabeledGraph.trace
    with monkeypatch.context() as m:
        m.setattr(folding.LabeledGraph, "trace",
                  lambda self, v, letters: trace(self, v, letters[:-1]))
        assert_audit_violation(args, "generator loop strayed off the "
                                     "based core")
    monkeypatch.setattr(covers, "conjugate_letters", lambda w, u: w)
    assert_audit_violation(args, "generator loop left the core")


def test_fold_path_certificate_faults_exit_3(tmp_path, monkeypatch):
    """A fold path whose certificate fails is the construction's fault, not
    the input's: `fold-path` exits 3 with one line for each of verify's
    four checks and the terminus check, each failure put in by hand. Two
    ends of different ranks are the input's fault and exit 2."""
    rose = write_rose(tmp_path, n=2)
    other = tmp_path / "acted.txt"
    other.write_text(run_cli(["act", rose, "--images", "a1 a2, a2"]))
    args = ["fold-path", rose, str(other)]
    assert issubclass(spine.PathCertificateError, spine.SpineError)
    phi = sampling.transvection(2, 1, 2)
    path, step = spine.SpinePath, spine.SpineStep
    faults = [
        ("SpinePath", lambda vertices, steps, **kw:
            path(vertices + vertices[-1:], steps, **kw), "malformed path"),
        ("SpineStep", lambda kind, X, forest: step(kind, X.act(phi), forest),
         "certificate 0: representative mismatch"),
        ("collapse_matches", lambda *args: False,
         "certificate 0: collapse mismatch"),
        ("equivalent", lambda *args: None,
         "fold terminus does not match the target rose")]
    for name, fault, message in faults:
        with monkeypatch.context() as m:
            m.setattr(spine, name, fault)
            assert_audit_violation(args, message)
    with monkeypatch.context() as m:
        m.setattr(graphs.CoreGraph, "is_natural", lambda self: False)
        assert_audit_violation(args, "vertex 0 is not natural")
    err = run_cli_error(["fold-path", rose, write_rose(tmp_path, "r3.txt")])
    assert err == "error: rank mismatch: 2 vs 3\n"


# The tests above run the CLI in process; these four run it as a program.

def test_module_entry_point():
    proc = run_process(["reduce", "a1 a1^-1 a2", "--rank", "2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "a2\n", "")


def test_exits_2_and_3_print_no_traceback(tmp_path):
    """A precondition error exits 2 and an audit violation 3, each with one
    stderr line. The violation is a fault put in before `main` runs: every
    hull keeps all of r(x)'s edges (as in test_retract_aut)."""
    rose = write_rose(tmp_path)
    proc = run_process(["count-i", "--graph", rose, "--a", "a1",
                        "--b", "a1, a2", "--cls", "a1 a2"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    x, new_eid, _ = MarkedGraph.rose_identity(3).blowup_marked(
        0, (1, -1), (2, -2, 3, -3))
    graph = tmp_path / "x.txt"
    graph.write_text(textio.print_marked(x, pointed=True))
    script = ("import sys\n"
              "from outerspine import cli, retract_aut\n"
              "retract_aut.chain_hull = lambda c, e: frozenset(c)\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, "retract-aut-audit",
                           str(graph), "--collapse", "e%d" % new_eid],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == \
        (3, "AUDIT VIOLATION: hull is not a forest\n")


def test_checks_hold_under_python_O(tmp_path):
    """`python -O` strips asserts: a marking that does not generate is
    still refused, and the witness report is the one run in process."""
    p = tmp_path / "rel.txt"
    p.write_text("graph { v: v0 v1; e: e1 v0 v1; e2 v0 v1; e3 v1 v0; "
                 "e4 v1 v0; }\n"
                 "marking { a1 = e1 e3; a2 = e2 e4; a3 = e1 e3 e1 e3; }\n")
    proc = run_process(["realizes", "--graph", str(p), "--component", "a1"],
                       flags=["-O"])
    assert proc.returncode == 2
    assert "do not generate" in proc.stderr
    args = ["witness", "--case", "1", "--n", "3", "--r", "1", "--kmax", "10"]
    proc = run_process(args, flags=["-O"])
    assert (proc.returncode, proc.stdout) == (0, run_cli(args))


def test_selftest_is_the_same_under_python_O():
    """The whole selftest, every criterion's line, prints the same under
    `python -O` as in process: no check of it rests on an assert."""
    proc = run_process(["selftest"], flags=["-O"])
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, run_cli(["selftest"]), "")
