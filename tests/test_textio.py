import pytest

from outerspine import textio
from outerspine.marked import MarkedGraph
from outerspine.retract_aut import pointed_equivalent
from outerspine.retract_split import (SplitError, SplittingBlueprint,
                                      default_retraction_data)
from outerspine.words import basis_word, word, identity_word
from outerspine import graphs


def test_word_roundtrip():
    w = word([1, -2, 3], 3)
    assert textio.parse_word(textio.print_word(w), 3) == w
    assert textio.print_word(identity_word(3)) == "1"
    assert textio.parse_word("1", 3) == identity_word(3)
    assert textio.parse_word("a1 a2^-1 a3", 3) == w


def test_graph_roundtrip():
    g = graphs.theta_graph()
    text = textio.print_graph(g)
    g2 = textio.parse_graph(text)
    assert g2.edges == g.edges
    assert g2.vertices == g.vertices
    assert textio.print_graph(g2) == text


def test_marked_roundtrip():
    G = MarkedGraph(graphs.theta_graph(), 0, [(1, -3), (2, -3)])
    text = textio.print_marked(G)
    G2 = textio.parse_marked(text)
    assert G2.marking == G.marking
    assert G2.basepoint == G.basepoint
    assert textio.print_marked(G2) == text


def test_pointed_roundtrip():
    x = MarkedGraph.rose_identity(3)
    text = textio.print_marked(x, pointed=True)
    assert "basepoint: v0" in text
    x2 = textio.parse_marked(text, pointed=True)
    assert pointed_equivalent(x, x2) is not None
    assert textio.print_marked(x2, pointed=True) == text


def test_blueprint_roundtrip():
    bp = SplittingBlueprint("loop",
                            ((basis_word(1, 3), basis_word(2, 3)),), 3, 3)
    data = default_retraction_data(bp)
    text = textio.print_blueprint(data)
    data2 = textio.parse_blueprint(text)
    assert data2.blueprint == bp
    assert data2.rays == data.rays
    assert textio.print_blueprint(data2) == text


def test_blueprint_literal_example():
    text = ('splitting { type: loop; vertex A = a1 a2; stable: a3; '
            'ray1: prefix "", period a3; ray2: prefix "", period a3^-1 }')
    data = textio.parse_blueprint(text)
    assert data.blueprint.kind == "loop"
    assert data.blueprint.stable == 3
    assert data.rays[0].period == basis_word(3, 3)
    assert data.rays[1].period == basis_word(3, 3).inverse()


def test_segment_blueprint_roundtrip():
    bp = SplittingBlueprint("segment",
                            ((basis_word(1, 3),),
                             (basis_word(2, 3), basis_word(3, 3))), 0, 3)
    data = default_retraction_data(bp)
    text = textio.print_blueprint(data)
    data2 = textio.parse_blueprint(text)
    assert data2.blueprint == bp


def test_blueprint_generator_commas():
    # one trailing comma marks a lone generator; any other empty piece is
    # the identity generator, so these are not read as free splittings
    text = "splitting { type: segment; vertex A0 = a1 a2,; vertex A1 = a2 }"
    data = textio.parse_blueprint(text, 2)
    assert data.blueprint.vertex_gens[0] == (word([1, 2], 2),)
    text = "splitting { type: segment; vertex A0 = %s; vertex A1 = a3 }"
    textio.parse_blueprint(text % "a1, a2", 3)
    for gens in ("a1,, a2", ", a1, a2", "a1, a2,,"):
        with pytest.raises(SplitError):
            textio.parse_blueprint(text % gens, 3)


def test_derive_basepoint():
    G = MarkedGraph(graphs.theta_graph(), 0, [(1, -3), (2, -3)])
    text = textio.print_marked(G)  # no basepoint line for unpointed
    assert "basepoint" not in text
    G2 = textio.parse_marked(text)
    assert G2.basepoint == 0


def test_pointed_needs_basepoint_line():
    text = textio.print_marked(MarkedGraph.rose_identity(3))
    assert textio.parse_marked(text).basepoint == 0
    with pytest.raises(textio.FormatError):
        textio.parse_marked(text, pointed=True)


def test_malformed_marking_is_format_error():
    graph = "graph { v: v0; e: e1 v0 v0; e2 v0 v0; }\n"
    for marking in ["marking { a1 e1; a2 = e2; }",
                    "marking { a1 = e7; a2 = e2; }"]:
        with pytest.raises(textio.FormatError):
            textio.parse_marked(graph + marking)


def test_repeated_declarations_are_format_errors():
    marking = "marking { a1 = e1; a2 = e2; }"
    for graph, name in [("graph { v: v0; e: e1 v0 v0; e1 v0 v0; e2 v0 v0; }",
                         "e1"),
                        ("graph { v: v0 v0; e: e1 v0 v0; e2 v0 v0; }", "v0")]:
        with pytest.raises(textio.FormatError, match="repeated .*%s" % name):
            textio.parse_graph(graph)
        with pytest.raises(textio.FormatError, match="repeated .*%s" % name):
            textio.parse_marked(graph + "\n" + marking)
    graph = "graph { v: v0; e: e1 v0 v0; e2 v0 v0; }\n"
    with pytest.raises(textio.FormatError, match="repeated marking letter a1"):
        textio.parse_marked(graph + "marking { a1 = e1; a1 = e2; a2 = e2; }")


def test_blueprint_statement_errors():
    head = "splitting { type: loop; vertex A = a1 a2; stable: a3; %s }"
    r1, r2 = 'ray1: prefix "", period a3', 'ray2: prefix "", period a3^-1'
    textio.parse_blueprint(head % "; ".join([r1, r2]))
    for extra, message in [("type: segment", "repeated type"),
                           ("stable: a2", "repeated stable"),
                           ("; ".join([r1, r1, r2]), "repeated ray1"),
                           ("; ".join([r1, r2, r2]), "repeated ray2"),
                           ("; ".join([r1, r2, 'ray3: prefix "", period a3']),
                            "ray index"),
                           (r1, "both ray1 and ray2"),
                           (r2, "both ray1 and ray2"),
                           ("frobnicate", "unknown blueprint statement")]:
        with pytest.raises(textio.FormatError, match=message):
            textio.parse_blueprint(head % extra)
    segment = "splitting { type: segment; vertex A0 = a1; vertex A1 = a2 a3; %s }"
    textio.parse_blueprint(segment % "")
    for extra, message in [("stable: a2", "segment blueprint has no stable"),
                           ("frobnicate", "unknown blueprint statement")]:
        with pytest.raises(textio.FormatError, match=message):
            textio.parse_blueprint(segment % extra)
