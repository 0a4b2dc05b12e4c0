import random

import pytest

from outerspine import graphs, marked, sampling
from outerspine.folding import FoldError
from outerspine.marked import (MarkedGraph, MarkingError, canonical_key,
                               collapse_matches, equivalent)
from outerspine.spine import fold_path
from outerspine.words import (Endomorphism, CyclicWord, basis_word, word,
                              is_automorphism, reduce_letters, substitute)
from iso_oracle import graphs_isomorphic
from marked_oracle import (oracle_blowup_marking, oracle_chain_rewrite,
                           oracle_collapse_matches)


def transvection(n, i, j, side="R"):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [i, j] if side == "R" else [j, i]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def petal_swap(n, i, j):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [j]
    imgs[j - 1] = [i]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def theta_marked():
    # theta graph with marking a1 = e1 ebar3, a2 = e2 ebar3
    g = graphs.theta_graph()
    return MarkedGraph(g, 0, [(1, -3), (2, -3)])


def test_rose_identity_valid():
    G = MarkedGraph.rose_identity(3)
    assert G.rank == 3
    G.check_generates()


def test_invalid_marking_rejected():
    g = graphs.rose(2)
    with pytest.raises(MarkingError):
        MarkedGraph(g, 0, [(1,), (1,)])  # does not generate
    with pytest.raises(MarkingError):
        MarkedGraph(g, 0, [(1, -1), (2,)])  # not reduced


def relation_marking():
    # rank 3 graph on two vertices; the third marking path is the square of
    # the first, so the paths fold (with one relation fold) onto a rank-2
    # graph that still holds every edge once
    g = graphs.CoreGraph({0, 1}, {1: (0, 1), 2: (0, 1), 3: (1, 0), 4: (1, 0)})
    return g, 0, [(1, 3), (2, 4), (1, 3, 1, 3)]


def test_relation_fold_marking_rejected():
    with pytest.raises(MarkingError):
        MarkedGraph(*relation_marking())


def test_relation_fold_has_no_inverse_marking():
    # the unchecked constructor lets the invalid marking through
    G = MarkedGraph._derived(*relation_marking())
    with pytest.raises((MarkingError, FoldError)):
        G.inverse_marking_values()
    with pytest.raises((MarkingError, FoldError)):
        G.path_to_word((1, 3))


def test_theta_marking_valid():
    G = theta_marked()
    G.check_generates()
    assert G.rank == 2


def test_act_phi1():
    G = MarkedGraph.rose_identity(3)
    phi1 = is_automorphism(Endomorphism.from_lists([[1], [2], [3, 1, 2]], 3))
    H = G.act(phi1)
    assert H.marking == ((1,), (2,), (3, 1, 2))
    ident = Endomorphism.identity(3)
    assert G.act(ident).marking == G.marking


def test_act_is_right_action():
    rng = random.Random(5)
    G = theta_marked()
    for _ in range(20):
        i = rng.randint(1, 2)
        f = transvection(2, i, 3 - i, side=rng.choice(["L", "R"]))
        g = petal_swap(2, 1, 2)
        lhs = G.act(f).act(g)
        rhs = G.act(f.endo.compose(g.endo))
        assert equivalent(lhs, rhs) is not None


def test_circuit_of():
    G = MarkedGraph.rose_identity(3)
    assert G.circuit_of(CyclicWord.of(basis_word(3, 3))) == (3,)
    c = CyclicWord.of(word([3, 1, 2], 3))
    assert G.circuit_of(c) == (1, 2, 3)
    # conjugacy invariance
    c2 = CyclicWord.of(word([1, 3, 1, 2, -1], 3))
    assert G.circuit_of(c2) == G.circuit_of(CyclicWord.of(word([3, 1, 2], 3)))
    th = theta_marked()
    circ = th.circuit_of(CyclicWord.of(basis_word(1, 2)))
    assert len(circ) == 2  # crosses the two theta edges


def test_equivalent_reflexive_and_swap():
    G = MarkedGraph.rose_identity(2)
    assert equivalent(G, G) is not None
    swapped = MarkedGraph(G.graph, 0, [(2,), (1,)])
    assert equivalent(G, swapped) is not None
    transv = G.act(transvection(2, 1, 2))
    assert equivalent(G, transv) is None


def test_equivalent_reflexive_is_identity_without_centres(monkeypatch):
    rng = random.Random(31)
    samples = [theta_marked()] + [sampling.random_marked_graph(rng, n, 3)
                                 for n in (2, 3, 4, 4)]
    # the based walk matches a copy of the same marked graph, as it does
    # the object itself, and reads the identity off the two markings with
    # no centre
    copies = [equivalent(G, MarkedGraph._derived(G.graph, G.basepoint,
                                                 G.marking))
              for G in samples]

    def refuse(G):
        raise AssertionError("centre computed")
    monkeypatch.setattr("outerspine.marked._centre", refuse)
    monkeypatch.setattr("outerspine.marked._descend", refuse)
    for G, copy in zip(samples, copies):
        vmap, emap, g = equivalent(G, G)
        assert vmap == {v: v for v in G.graph.vertices}
        assert emap == {e: e for e in G.graph.edges}
        assert g.letters == () and g.rank == G.rank
        assert (vmap, emap, g) == copy


def test_equivalent_symmetric_transitive_sample():
    G = theta_marked()
    phi = transvection(2, 1, 2)
    A = G.act(phi)
    B = A.act(petal_swap(2, 1, 2))
    assert equivalent(A, B) is None or equivalent(B, A) is not None
    # equivalence with a collapsed-and-blown-back representative
    H, _ = G.collapse_marked([1])
    assert H.rank == 2


def test_marking_preserving_symmetries_of_rose():
    # equivalent(G, act(G, phi)) iff phi is a signed petal permutation
    G = MarkedGraph.rose_identity(2)
    assert equivalent(G, G.act(petal_swap(2, 1, 2))) is not None
    inv = is_automorphism(Endomorphism.from_lists([[-1], [2]], 2))
    assert equivalent(G, G.act(inv)) is not None
    assert equivalent(G, G.act(transvection(2, 1, 2))) is None


def test_collapse_marked_theta():
    G = theta_marked()
    H, _ = G.collapse_marked([3])
    assert H.rank == 2
    assert graphs_isomorphic(H.graph, graphs.rose(2))
    # round trip: collapsing a blow-up is the identity on spine vertices
    for v in sorted(G.graph.vertices):
        for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
            blown, new_eid, _ = G.blowup_marked(v, p1, p2)
            back, _ = blown.collapse_marked([new_eid])
            assert equivalent(back, G) is not None


def test_path_to_word_roundtrip():
    G = theta_marked()
    vals = G.inverse_marking_values()
    for i, p in enumerate(G.marking):
        assert G.path_to_word(p) == basis_word(i + 1, 2)


def test_natural_marked():
    g = graphs.CoreGraph([0, 1], {1: (0, 1), 2: (1, 0), 3: (0, 0)})
    G = MarkedGraph(g, 0, [(1, 2), (3,)])
    N = G.natural_marked()
    assert N.graph.is_natural()
    assert N.rank == 2
    assert equivalent(N, N) is not None


def subdivide(G, eid):
    """Insert a valence-2 vertex in edge eid (eid runs to it, a new edge on)."""
    o, t = G.graph.edges[eid]
    v, e = max(G.graph.vertices) + 1, max(G.graph.edges) + 1
    edges = dict(G.graph.edges)
    edges[eid], edges[e] = (o, v), (v, t)
    g = graphs.CoreGraph(sorted(G.graph.vertices | {v}), edges)
    image = {d: (d,) for d in G.graph.edges}
    image[eid] = (eid, e)
    marking = [substitute(p, image)[0] for p in G.marking]
    return MarkedGraph(g, G.basepoint, marking)


def test_naturalize_random():
    rng = random.Random(23)
    for i in range(120):
        n = 2 + i % 3
        if i % 2:
            G = sampling.random_pointed_graph(rng, n, rng.randint(0, 4))
        else:
            G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        # un-naturalize: collapse without merging, subdivide, move the base
        forests = [f for f in graphs.enumerate_natural_subforests(G.graph) if f]
        if forests and rng.random() < 0.5:
            G, _ = G.collapse_marked(rng.choice(forests))
        for _ in range(rng.randint(0, 3)):
            G = subdivide(G, rng.choice(sorted(G.graph.edges)))
        if rng.random() < 0.5:
            G = G.rebase(rng.choice(sorted(G.graph.vertices)))
        for keep_base in (True, False):
            N, chains = G.naturalize(keep_base)
            N.check_generates()
            if keep_base:
                assert N.basepoint == G.basepoint
            assert all(N.graph.valence(v) >= 3 or
                       (keep_base and v == N.basepoint)
                       for v in N.graph.vertices)
            assert sorted(abs(d) for ch in chains.values() for d in ch) == \
                sorted(G.graph.edges)
            old = G.rebase(N.basepoint).marking
            assert [substitute(q, chains)[0] for q in N.marking] == \
                [reduce_letters(p)[0] for p in old]
            if not keep_base:
                assert N.natural_marked() is N


def test_blowup_lift_matches_junction_walk():
    # every bipartition of seeded marked and pointed graphs, some rebased:
    # the substitution lift gives the junction walk's marking exactly, and
    # the checking constructor accepts it
    rng = random.Random(41)
    blowups = 0
    for i in range(60):
        n = 2 + i % 3
        if i % 2:
            G = sampling.random_pointed_graph(rng, n, rng.randint(1, 6))
        else:
            G = sampling.random_marked_graph(rng, n, rng.randint(1, 6))
        if i % 3:
            G = G.rebase(rng.choice(sorted(G.graph.vertices)))
        for v in sorted(G.graph.vertices):
            for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
                B, new_eid, (v1, v2) = G.blowup_marked(v, p1, p2)
                assert (B.basepoint, B.marking) == \
                    oracle_blowup_marking(G, v, p1, p2)
                assert v1 == v and new_eid in B.graph.edges
                MarkedGraph(graphs.CoreGraph(B.graph.vertices, B.graph.edges),
                            B.basepoint, B.marking)
                blowups += 1
    assert blowups > 1000


def test_naturalize_lift_matches_chain_lookup():
    # graphs with valence-2 vertices, naturalized with and without the
    # basepoint kept: the substitution lift gives the chain lookup's
    # marking exactly, and the checking constructor accepts it
    rng = random.Random(43)
    merged = 0
    for i in range(80):
        n = 2 + i % 3
        if i % 2:
            G = sampling.random_pointed_graph(rng, n, rng.randint(0, 4))
        else:
            G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        for _ in range(rng.randint(1, 3)):
            G = subdivide(G, rng.choice(sorted(G.graph.edges)))
        if rng.random() < 0.5:
            G = G.rebase(rng.choice(sorted(G.graph.vertices)))
        for keep_base in (True, False):
            N, chains = G.naturalize(keep_base)
            old = G.rebase(N.basepoint).marking
            assert N.marking == tuple(oracle_chain_rewrite(p, chains)
                                      for p in old)
            MarkedGraph(graphs.CoreGraph(N.graph.vertices, N.graph.edges),
                        N.basepoint, N.marking)
            merged += len(N.graph.edges) < len(G.graph.edges)
    assert merged >= 150


def test_natural_marked_matches_naturalize():
    # natural_marked returns a natural graph itself; on every graph it is
    # the marked graph naturalize(keep_base=False) returns
    rng = random.Random(31)
    natural = 0
    for i in range(120):
        G = sampling.random_marked_graph(rng, 2 + i % 3, rng.randint(0, 4))
        if i % 2:
            for _ in range(rng.randint(1, 3)):
                G = subdivide(G, rng.choice(sorted(G.graph.edges)))
            if rng.random() < 0.5:
                G = G.rebase(rng.choice(sorted(G.graph.vertices)))
        N, _ = G.naturalize(keep_base=False)
        got = G.natural_marked()
        assert (got.graph.vertices, got.graph.edges, got.basepoint,
                got.marking) == (N.graph.vertices, N.graph.edges,
                                 N.basepoint, N.marking)
        assert (got is G) == G.graph.is_natural() == (i % 2 == 0)
        natural += got is G
    assert natural == 60


def test_canonical_key_matches_equivalent_on_theta_blowups():
    G = theta_marked()
    H, _ = G.collapse_marked([3])
    assert canonical_key(G) == canonical_key(G)
    for v in sorted(H.graph.vertices):
        for p1, p2 in graphs.vertex_direction_bipartitions(H.graph, v):
            B, _, _ = H.blowup_marked(v, p1, p2)
            assert (canonical_key(B) == canonical_key(G)) == \
                (equivalent(B, G) is not None)


def check_collapse(X, forest, H, keep_base=False):
    """`collapse_matches` against the collapse it replaces, built and put
    in normal form: the same verdict, or the same GraphError."""
    def run(decide):
        try:
            return decide(X, forest, H, keep_base)
        except graphs.GraphError as exc:
            return "GraphError: %s" % exc
    got = run(collapse_matches)
    assert got == run(oracle_collapse_matches)
    return got


def test_collapse_matches_agrees_with_the_built_collapse(monkeypatch):
    """Seeded differential test of `collapse_matches`: fold-path steps
    against their lower vertex and a wrong one, every forest of rank-3
    graphs against its collapse and a rebased copy of it (the based walk
    fails, and `equivalent` searches the centres), pointed forests in both
    normal forms, also on graphs with a valence-2 vertex (X in no normal
    form, and the collapse is built), and forests that are not forests."""
    searched = []

    def counted_equivalent(G1, G2):
        searched.append(G1)
        return equivalent(G1, G2)
    monkeypatch.setattr(marked, "equivalent", counted_equivalent)
    rng = random.Random(35)
    verdicts = []
    for n in (2, 3, 4):
        phi = sampling.transvection(n, 1, 2)
        for _ in range(6):
            path = fold_path(sampling.random_marked_graph(rng, n, 3),
                             sampling.random_marked_graph(rng, n, 3))
            for i, st in enumerate(path.steps):
                upper, lower = path.vertices[i:i + 2]
                if st.kind == "up":
                    upper, lower = lower, upper
                assert check_collapse(upper, st.forest, lower)
                verdicts.append(check_collapse(upper, st.forest,
                                               lower.act(phi)))
    assert len(verdicts) > 100 and not any(verdicts)
    walks_failed = len(searched)
    for _ in range(8):
        X = sampling.random_marked_graph(rng, 3, 3)
        for f in graphs.enumerate_natural_subforests(X.graph,
                                                     include_empty=False):
            H = X.collapse_marked(f)[0].natural_marked()
            assert check_collapse(X, f, H)
            for v in sorted(H.graph.vertices - {H.basepoint})[:1]:
                assert check_collapse(X, f, H.rebase(v))
    assert len(searched) - walks_failed > 20
    not_normal = 0
    for i in range(60):
        x = sampling.random_pointed_graph(rng, rng.choice((2, 3)), 3)
        f = sampling.random_relatively_natural_forest(rng, x)
        if f is None:
            continue
        if i % 3:
            # a valence-2 vertex, made the basepoint every other time
            x = subdivide(x, rng.choice(sorted(x.graph.edges)))
            if i % 3 == 2:
                x = x.rebase(max(x.graph.vertices))
        phi = sampling.transvection(x.rank, 1, 2)
        collapsed = x.collapse_marked(f)[0]
        # x/f as it is equals its normal form only if it is natural
        not_normal += check_collapse(x, f, collapsed) is False
        for keep_base in (True, False):
            H = collapsed.naturalize(keep_base)[0]
            assert check_collapse(x, f, H, keep_base)
            assert not check_collapse(x, f, H.act(phi), keep_base)
            for v in sorted(H.graph.vertices - {H.basepoint})[:1]:
                assert check_collapse(x, f, H.rebase(v), keep_base) \
                    == (not keep_base)
    assert not_normal > 10
    X = sampling.random_marked_graph(rng, 3, 3)
    unknown = max(X.graph.edges) + 1
    for keep_base in (False, True):
        assert check_collapse(X, set(X.graph.edges), X, keep_base) \
            == "GraphError: edge set contains a cycle"
        assert check_collapse(X, {unknown}, X, keep_base) \
            == "GraphError: unknown edge %d" % unknown
    assert check_collapse(MarkedGraph.rose_identity(2), {1}, X) \
        == "GraphError: edge set contains a cycle"
