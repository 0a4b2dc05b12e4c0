"""Seeded differential tests of the folding engine against the two machines
it replaced (tests/fold_oracle.py). The oracle's graphs are compared after
`fold_oracle.canonical`, the first-visit numbering of
`fold_oracle.snapshot` and of the engine's cores, so the untracked
read-then-attach fold meets the oracle's whole-loop fold edge for edge.
The engine's one-walk cores are compared with the oracle's two prunings of
the same snapshot, its unnumbered `core_edges` with those cores, and
`folding.fold_onto` with the snapshot checks it replaced."""

import random

import pytest

import fold_oracle
from outerspine import covers, folding, graphs, sampling, spine, textio
from outerspine.folding import FoldError, LabeledGraph, fold_onto, fold_words
from outerspine.marked import MarkedGraph, MarkingError
from outerspine.retract_split import SplittingBlueprint, in_CVKT
from outerspine.words import (Endomorphism, basis_word, is_automorphism,
                              reduce_letters, substitute, word)


def random_wedge(rng, n):
    """Words over the rank-n alphabet, some unreduced, some empty, and some
    repeated or powered, so that relation folds occur."""
    words = []
    for _ in range(rng.randint(1, n + 2)):
        roll = rng.random()
        if roll < 0.15 and words:
            w = rng.choice(words)
            words.append(w * rng.randint(1, 3))
        else:
            length = rng.randint(0, 10)
            words.append(tuple(rng.choice([1, -1]) * rng.randint(1, n)
                               for _ in range(length)))
    return words


def random_basis(rng, n):
    return [im.letters for im in sampling.random_token_auto(
        rng, n, rng.randint(1, 8)).images]


def assert_same_graph(a, b):
    """Same edge ids and labels, and one vertex bijection carrying a's base
    and every edge of a onto b's."""
    assert set(a.edges) == set(b.edges)
    vmap = {a.base: b.base}
    for eid, (o, t, lab) in a.edges.items():
        o2, t2, lab2 = b.edges[eid]
        assert lab == lab2
        for x, y in ((o, o2), (t, t2)):
            assert vmap.setdefault(x, y) == y
    assert len(set(vmap.values())) == len(vmap) == len(b.vertices)


def assert_cores_match_oracle(folded):
    """The engine's cores of a folded graph equal the oracle's prunings of
    its snapshot: identical edges, vertices and base, and the same tail
    and attach vertex; `core_edges`, unnumbered, spells a
    graph label-isomorphic to the core; a trivial core raises either way.
    Returns whether the based graph has a tail."""
    gr = fold_oracle.snapshot(folded)
    if not fold_oracle.pruned(gr).edges:
        for entry in (folded.core, folded.core_edges, folded.based_core):
            with pytest.raises(FoldError):
                entry()
        return False
    old = fold_oracle.based_core_and_tail(gr)
    new = folded.based_core()
    assert new[1:3] == old[1:3]
    pairs = list(zip((old[0], old[3]), (new[0], new[3])))
    pairs.append((fold_oracle.Folded(gr).core(), folded.core()))
    for a, b in pairs:
        assert (b.edges, b.vertices, b.base) == (a.edges, a.vertices, a.base)
    edges = LabeledGraph(dict(enumerate(folded.core_edges(), 1)), None)
    assert covers.labeled_isomorphism(edges, pairs[-1][1]) is not None
    return bool(new[1])


def hanging_wedge(rng, n):
    """A random wedge with each word conjugated by its own random word, so
    the fold hangs trees off the core, plus a proper power of one of them
    and sometimes the trivial word."""
    words = []
    for w in random_wedge(rng, n):
        c = tuple(rng.choice([1, -1]) * rng.randint(1, n)
                  for _ in range(rng.randint(0, 5)))
        words.append(tuple(-a for a in reversed(c)) + w + c)
    words.append(rng.choice(words) * rng.randint(2, 3))
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words) + 1), ())
    return words


def evaluate(xword, words):
    """Transfer word read in the input words, freely reduced."""
    return substitute(xword, dict(enumerate(words, 1)))[0]


def transfer(gr, path):
    """Transfer word of a path in the tracked graph gr, freely reduced
    (closed paths at the base give exact values)."""
    return reduce_letters([x for d in path
                           for x in fold_oracle.dval(gr, d)])[0]


def assert_transfers_spell(gr, words):
    """Tracing input word i from the base spells a closed path whose
    transfer word, read in the input words, is word i."""
    for w in words:
        path, end, consumed = gr.trace(gr.base, w)
        assert consumed == len(w) and end == gr.base
        assert evaluate(transfer(gr, path), words) == reduce_letters(w)[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wedges_match_oracle(n):
    rng = random.Random(600 + n)
    relation_folds = 0
    for _ in range(150):
        words = random_wedge(rng, n)
        old = fold_oracle.canonical(fold_oracle.fold_words(words))
        folded = fold_words(words)
        assert_same_graph(old, fold_oracle.snapshot(folded))
        tracked = fold_words(words, track_history=True)
        assert_same_graph(old, fold_oracle.snapshot(tracked))
        assert_transfers_spell(fold_oracle.snapshot(tracked), words)
        if old.rank < sum(1 for w in words if reduce_letters(w)[0]):
            relation_folds += 1
        assert_cores_match_oracle(folded)
        assert_cores_match_oracle(tracked)
    assert relation_folds > 30


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cores_match_oracle(n):
    """Wedges with hanging trees, proper powers and trivial words, folded
    with and without history: the one-walk cores, unbased and based, equal
    the oracle's prunings of the snapshot."""
    rng = random.Random(1900 + n)
    tails = trivial = 0
    for _ in range(200):
        words = hanging_wedge(rng, n)
        for track in (False, True):
            folded = fold_words(words, track_history=track)
            tails += assert_cores_match_oracle(folded)
            trivial += not fold_oracle.snapshot(folded).rank
    assert tails > 40 and trivial > 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bases_match_oracle(n):
    rng = random.Random(700 + n)
    for _ in range(60):
        words = random_basis(rng, n)
        old = fold_oracle.canonical(
            fold_oracle.fold_words(words, track_history=True))
        new = fold_oracle.snapshot(fold_words(words, track_history=True))
        assert_same_graph(old, new)
        assert new.vals == old.vals
        petals = fold_onto(words, graphs.rose(n), 0, track_history=True)
        assert fold_oracle.rose_petal_values(old, n) == \
            [petals[i] for i in range(1, n + 1)]
        for i, w in enumerate(words, 1):
            path, end, _ = new.trace(new.base, w)
            assert end == new.base and transfer(new, path) == (i,)


def printed(path):
    return ([textio.print_marked(v) for v in path.vertices],
            [(s.kind, sorted(s.forest), textio.print_marked(s.X))
             for s in path.steps])


def test_fold_paths_match_oracle(monkeypatch):
    made = []

    class Recording(folding.Folder):
        def next_fold(self):
            fold = super().next_fold()
            if fold is not None:
                made.append(fold)
            return fold

    monkeypatch.setattr(spine, "Folder", Recording)
    rng = random.Random(43)
    rose = MarkedGraph.rose_identity(3)
    pairs = []
    for _ in range(10):
        H = rose.act(sampling.random_token_auto(rng, 3, rng.randint(1, 5)))
        pairs += [(rose, H), (H, rose)]
    for _ in range(6):
        pairs.append((sampling.random_marked_graph(rng, 3, 3),
                      sampling.random_marked_graph(rng, 3, 3)))
    lengths = 0
    for G1, G2 in pairs:
        folds = []
        old = fold_oracle.fold_path(G1, G2, folds)
        made.clear()
        new = spine.fold_path(G1, G2)
        assert made == folds
        assert printed(new) == printed(old)
        lengths += len(folds)
    assert lengths > 60


def oracle_fold_words(word_list, track_history=False):
    return fold_oracle.Folded(fold_oracle.canonical(
        fold_oracle.fold_words(word_list, track_history)))


def conjugated_system(rng, n):
    """Components of a system over F_n, each generator conjugated by one
    long random word per component; about half the systems have one
    component that is no free factor (a proper power or a commutator in
    place of a generator)."""
    r = rng.randint(1, n - 1)
    comps = [list(range(1, r + 1))]
    if r + 1 < n and rng.random() < 0.5:
        comps.append([r + 1])
    bad = rng.randrange(len(comps)) if rng.random() < 0.5 else None
    system = []
    for ci, comp in enumerate(comps):
        gens = [basis_word(i, n) for i in comp]
        if ci == bad:
            k = rng.randrange(len(comp))
            i = comp[k]
            j = rng.choice([x for x in range(1, n + 1) if x != i])
            gens[k] = word(rng.choice([[i] * rng.choice((2, 3)),
                                       [i, j, -i, -j]]), n)
        c = sampling.random_reduced_word(rng, n, 12, nontrivial=True)
        system.append([c.inverse() * g * c for g in gens])
    return r, system


def based_cores(system, G):
    return [(K.core.edges, K.attach, K.tail_labels, K.loops)
            for K in (covers.based_core(gens, G) for gens in system)]


def test_membership_matches_whole_loop_fold(monkeypatch):
    """Based cores and membership verdicts from the read-then-attach fold
    equal those from the whole-loop oracle fold, on blown-up marked graphs
    of ranks 3-6 and systems with long conjugators."""
    rng = random.Random(1600)
    verdicts = []
    for n in (3, 4, 5, 6):
        for _ in range(12):
            r, system = conjugated_system(rng, n)
            G = MarkedGraph.rose_identity(n).act(
                sampling.random_stab_auto(rng, n, r, 4))
            for _ in range(rng.randint(1, n)):
                G = sampling.random_blowup(rng, G) or G
            F = covers.FreeFactorSystem.of(system, n)
            vertex = [basis_word(i, n) for i in range(1, n)]
            bp = SplittingBlueprint("loop", (tuple(vertex),), n, n)
            new = (based_cores(system, G), covers.realizes(G, F),
                   in_CVKT(G, bp))
            with monkeypatch.context() as m:
                m.setattr(folding, "fold_words", oracle_fold_words)
                old = (based_cores(system, G), covers.realizes(G, F),
                       in_CVKT(G, bp))
            assert new == old
            verdicts.append((new[1] is not None, new[2] is not None))
    for i in (0, 1):
        assert 5 < sum(v[i] for v in verdicts) < len(verdicts) - 5


def subgroup_cores(gens, G):
    K = covers.stallings_core(gens, G)
    B = covers.based_core(gens, G)
    return ([(g.edges, g.vertices, g.base) for g in (K, B.core, B.based)]
            + [B.tail_labels, B.attach, B.loops])


def test_subgroup_cores_match_oracle(monkeypatch):
    """`covers.stallings_core` and `covers.based_core` over random marked
    graphs, from the engine's cores and from the oracle's prunings of the
    same snapshots: identical core and based graphs, tails, attach
    vertices and generator loops. Each generator is conjugated by a shared
    word or by its own, one is a proper power and some systems have a
    trivial generator."""
    real = folding.fold_words

    def oracle(word_list, track_history=False):
        return fold_oracle.Folded(
            fold_oracle.snapshot(real(word_list, track_history)))

    rng = random.Random(1901)
    tails = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        gens = [sampling.random_reduced_word(rng, n, 4, nontrivial=True)
                for _ in range(rng.randint(1, 3))]
        root = rng.choice(gens)
        gens.append(word(root.letters * rng.randint(2, 3), n))
        shared = rng.random() < 0.5
        c = sampling.random_reduced_word(rng, n, 4)
        gens = [w.conjugate_by(c if shared else
                               sampling.random_reduced_word(rng, n, 4))
                for w in gens]
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), word([], n))
        new = subgroup_cores(gens, G)
        with monkeypatch.context() as m:
            m.setattr(folding, "fold_words", oracle)
            assert subgroup_cores(gens, G) == new
        tails += bool(new[3])
    assert tails > 40


def relabeled(words, old, new):
    """The words with edge id `old` read as `new`."""
    return [tuple(new if d == old else -new if d == -old else d for d in w)
            for w in words]


def marking_cases(rng, n):
    """(words, graph, base) over one random marked graph G of rank n: G's
    marking; the marking with one path replaced by a product of two others,
    a relation that drops the rank; the marking rebased to another vertex
    but checked at G's basepoint; and the marking with one edge id read as
    a fresh id, so the fold misses an edge of G, or as another edge's id,
    so the fold may hold that id twice."""
    G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
    graph, base, marking = G.graph, G.basepoint, list(G.marking)
    i = rng.randrange(n)
    j, k = (rng.choice([x for x in range(n) if x != i]) for _ in range(2))
    relation = list(marking)
    relation[i] = reduce_letters(marking[j] + marking[k])[0]
    e = rng.choice(sorted(graph.edges))
    f = rng.choice([x for x in graph.edges if x != e])
    cases = [marking, relation, relabeled(marking, e, max(graph.edges) + 1),
             relabeled(marking, e, f)]
    others = sorted(graph.vertices - {base})
    if others:
        cases.append(list(G.rebase(rng.choice(others)).marking))
    return [(words, graph, base) for words in cases]


def oracle_verdict(words, graph, base, track):
    """The snapshot check's message, or None when the fold is a copy."""
    folded = fold_oracle.snapshot(fold_words(words, track))
    try:
        fold_oracle.check_folded_is_graph(folded, graph, base)
    except MarkingError as e:
        return str(e)
    return None


def test_fold_onto_matches_snapshot_checks():
    """`fold_onto` against the snapshot checks it replaced, plain and with
    history, on valid markings, rank-dropping relations, markings moved
    off the base and markings that miss or double an edge: the same
    verdict, and on a copy the same transfer word for every edge. Each of
    the old check's four messages occurs."""
    theta = graphs.theta_graph()
    # e1, e2 join the base 0 and the vertex 1, which carries the loop e3
    lasso = graphs.CoreGraph([0, 1], {1: (0, 1), 2: (1, 0), 3: (1, 1)})
    # the fold of (1, 1), (2, 1) is a theta whose edges read 1, 1, 2; that
    # of (1, -2), (1, -4) a theta whose edges read 1, 2, 4; and the loop
    # (1, 3, 2) with its square folds to the circle e1 e3 e2: each edge
    # once and the base's directions right, but on three vertices
    cases = [([(1, 1), (2, 1)], theta, 0), ([(1, -2), (1, -4)], theta, 0),
             ([(1, 3, 2), (1, 3, 2) * 2], lasso, 0)]
    rng = random.Random(3300)
    for _ in range(60):
        cases += marking_cases(rng, rng.randint(2, 4))
    messages = {}
    for words, graph, base in cases:
        verdict = oracle_verdict(words, graph, base, False)
        assert oracle_verdict(words, graph, base, True) == verdict
        messages[verdict] = messages.get(verdict, 0) + 1
        plain = fold_onto(words, graph, base)
        tracked = fold_onto(words, graph, base, track_history=True)
        if verdict is not None:
            assert plain is None and tracked is None
            continue
        assert plain == {e: () for e in graph.edges}
        assert tracked == fold_oracle.inverse_marking_values(words, graph,
                                                             base)
    assert set(messages) == {None, "marking images do not generate pi_1",
                             "marking fold duplicated an edge",
                             "marking fold missed edges",
                             "marking fold base mismatch"}
    assert min(messages.values()) >= 2


def test_fold_onto_rose_matches_petal_checks():
    """`fold_onto` over the rose against `is_full_rose` and
    `rose_petal_values`, on automorphisms and on random, mostly
    non-invertible endomorphisms; `is_automorphism` returns the petals'
    words as the inverse."""
    rng = random.Random(3301)
    verdicts = []
    for _ in range(200):
        n = rng.randint(2, 4)
        if rng.random() < 0.5:
            f = sampling.random_token_auto(rng, n, rng.randint(1, 8)).endo
        else:
            f = Endomorphism(n, tuple(
                sampling.random_reduced_word(rng, n, 4) for _ in range(n)))
        words = [im.letters for im in f.images]
        gr = fold_oracle.snapshot(fold_words(words, track_history=True))
        full = fold_oracle.is_full_rose(gr, n)
        assert (fold_onto(words, graphs.rose(n), 0) is not None) == full
        vals = fold_onto(words, graphs.rose(n), 0, track_history=True)
        auto = is_automorphism(f)
        assert (vals is not None) == (auto is not None) == full
        verdicts.append(full)
        if full:
            petals = fold_oracle.rose_petal_values(gr, n)
            assert [vals[i] for i in range(1, n + 1)] == petals
            assert [im.letters for im in auto.inverse_endo.images] == petals
    assert 50 < sum(verdicts) < 150
