"""Differential test: the unbased Stallings core folded on the first
generator's axis against the plain fold of the whole generator paths.

`covers.stallings_core` conjugates every generator onto the axis of the
first nontrivial one, in F_n and again at edge level, before it folds, so
the shared conjugator is never laid down. The oracle is the fold it
replaces: expand each generator through the marking, fold the loops at one
base and prune. Both must give label-isomorphic cores, and `realizes` must
give the same verdict and the same edge sets on either. `core_images`,
which reads each core's edges off the folding engine, must give what the
numbered core gives.
"""

import random

from outerspine import covers, sampling
from outerspine.covers import (CoreSubgraphWitness, FreeFactorSystem,
                               core_images, labeled_isomorphism, realizes,
                               stallings_core)
from outerspine.folding import LabeledGraph, fold_words
from outerspine.marked import MarkedGraph
from outerspine.textio import parse_marked
from outerspine.words import ReducedWord, basis_word, cyclic_core, word

KINDS = ("conjugators", "trivial first", "proper power", "rank one",
         "tailed axis")


def whole_words_core(gens, G):
    """The unbased core as it was folded before: every generator's whole
    path, conjugator and all, folded at one base, then pruned."""
    paths = [G.expand(w.letters) for w in gens]
    return fold_words([p for p in paths if p]).core()


def oracle_realizes(G, components):
    """`covers.core_images` over the whole-words cores: one (edge set,
    vertex set) per component, or None."""
    images = []
    used = set()
    for gens in components:
        K = whole_words_core(gens, G)
        verts = {G.graph.tail(K.label_of(K.directions(v)[0]))
                 for v in K.vertices}
        if len(verts) != len(K.vertices) or verts & used:
            return None
        used |= verts
        images.append((frozenset(lab for _, _, lab in K.edges.values()),
                       frozenset(verts)))
    return CoreSubgraphWitness.of(images)


def numbered_core_images(G, F):
    """`covers.core_images` as it was: each component's image read off its
    numbered core, `stallings_core(gens, G)`."""
    images = []
    used = set()
    for gens in F.components:
        core = stallings_core(gens, G)
        image = {}
        for o, t, lab in core.edges.values():
            image[o], image[t] = G.graph.edges[lab]
        verts = set(image.values())
        if len(verts) != len(image) or verts & used:
            return None
        used |= verts
        images.append((frozenset(lab for _, _, lab in core.edges.values()),
                       frozenset(verts)))
    return images


def conjugated(rng, n, w):
    return w.conjugate_by(sampling.random_reduced_word(rng, n, 4))


def tailed_axis_word(rng, G, tries=200):
    """A cyclically reduced word whose expanded path is not cyclically
    reduced, or None if none turns up."""
    for _ in range(tries):
        w = sampling.random_reduced_word(rng, G.rank, 4, nontrivial=True)
        if not cyclic_core(w.letters)[0] and \
                cyclic_core(G.expand(w.letters))[0]:
            return w
    return None


def generators(rng, G, kind):
    n = G.rank
    rand = [sampling.random_reduced_word(rng, n, 4, nontrivial=True)
            for _ in range(rng.randint(1, 3))]
    if kind == "conjugators":
        return [conjugated(rng, n, w) for w in rand]
    if kind == "trivial first":
        c = sampling.random_reduced_word(rng, n, 4)
        return [ReducedWord((), n)] + [w.conjugate_by(c) for w in rand]
    if kind == "proper power":
        root = sampling.random_reduced_word(rng, n, 3, nontrivial=True)
        power = word(root.letters * rng.randint(2, 3), n)
        return [conjugated(rng, n, power)] + \
            [conjugated(rng, n, w) for w in rand[1:]]
    if kind == "rank one":
        power = word(rand[0].letters * rng.randint(1, 2), n)
        return [conjugated(rng, n, power)]
    first = tailed_axis_word(rng, G)
    if first is None:
        return None
    return [first] + [conjugated(rng, n, w) for w in rand[1:]]


def check_case(rng, G, gens):
    new = stallings_core(gens, G)
    old = whole_words_core(gens, G)
    assert labeled_isomorphism(new, old) is not None
    assert 0 in new.vertices   # the fold's base lies on the core
    LabeledGraph(new.edges, None)   # an immersion
    assert all(new.valence(v) >= 2 for v in new.vertices)
    # a second component, a conjugate of one basis letter, for two-part
    # systems
    components = [gens]
    if rng.random() < 0.5:
        i = rng.randint(1, G.rank)
        components.append([conjugated(rng, G.rank, basis_word(i, G.rank))])
    got = realizes(G, FreeFactorSystem.of(components, G.rank))
    assert got == oracle_realizes(G, components)
    return got is not None


def test_axis_core_matches_whole_words_fold():
    """At least 200 seeded subgroups over random marked graphs of rank 2-5,
    at least 20 of each kind in KINDS, and after every ten a conjugated
    whole basis, which the graph realizes unless a second component is
    added."""
    rng = random.Random(18)
    seen = dict.fromkeys(KINDS, 0)
    verdicts = set()
    cases = 0
    while cases < 220 or min(seen.values()) < 20:
        n = rng.randint(2, 5)
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        kind = KINDS[cases % len(KINDS)]
        gens = generators(rng, G, kind)
        if gens is None:
            continue
        verdicts.add(check_case(rng, G, gens))
        seen[kind] += 1
        cases += 1
        if cases % 10 == 0:
            basis = [conjugated(rng, n, basis_word(i, n))
                     for i in range(1, n + 1)]
            verdicts.add(check_case(rng, G, basis))
            cases += 1
    assert verdicts == {True, False}


def test_axis_core_of_tailed_cyclic_word():
    """a2 is cyclically reduced but spells e1 e2 e1^-1: the core is the
    loop e2 alone, and a conjugate of a2 gives the same core."""
    G = parse_marked("graph { v: v0 v1; e: e1 v0 v1; e2 v1 v1; e3 v0 v0;"
                     " e4 v0 v1; }\n"
                     "marking { a1 = e3; a2 = e1 e2 e1^-1; a3 = e1 e4^-1; }\n"
                     "basepoint: v0\n")
    for gens in ([basis_word(2, 3)],
                 [basis_word(2, 3).conjugate_by(ReducedWord((1, 3), 3))]):
        core = stallings_core(gens, G)
        assert list(core.edges.values()) == [(0, 0, 2)]
        assert labeled_isomorphism(core, whole_words_core(gens, G))


def test_realizes_folds_up_to_the_first_failing_component(monkeypatch):
    """`realizes` folds the components in order and stops at the first
    whose core fails to embed or meets an earlier image: a system whose
    first component is a conjugated proper power folds only that one. On
    every seeded system the verdict matches `oracle_realizes`, and the
    cores folded are the components of the shortest failing prefix, in
    order (the whole system when it is realized)."""
    calls = []
    real = covers._axis_fold

    def counting(gens, G):
        calls.append(gens)
        return real(gens, G)

    monkeypatch.setattr(covers, "_axis_fold", counting)
    rng = random.Random(19)
    early = 0
    for case in range(120):
        n = rng.randint(2, 5)
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        components = [[conjugated(rng, n, basis_word(i, n))]
                      for i in rng.sample(range(1, n + 1), rng.randint(1, n))]
        if case % 2 == 0:
            root = sampling.random_reduced_word(rng, n, 3, nontrivial=True)
            components.insert(0, [conjugated(rng, n,
                                             word(root.letters * 2, n))])
        calls.clear()
        got = realizes(G, FreeFactorSystem.of(components, n))
        assert got == oracle_realizes(G, components)
        prefix = next((k for k in range(1, len(components) + 1)
                       if oracle_realizes(G, components[:k]) is None),
                      len(components))
        assert calls == [tuple(c) for c in components[:prefix]]
        if case % 2 == 0:
            assert got is None and prefix == 1
        early += prefix < len(components)
    assert early > 60


def test_core_images_match_numbered_cores():
    """`core_images` reads each core's edges off the folding engine; on
    250 seeded systems over marked graphs of rank 2-6 it returns exactly
    the (edge set, vertex set) pairs read off the numbered cores, or None
    where they give None. The system is <a_1..a_r>, on a rose moved by
    its stabilizer, or with a basis letter outside it as a second
    component, on a rose blown up between the two factors' petals; then
    the graph is blown up at random, each generator conjugated, and
    sometimes one generator made a proper power."""
    rng = random.Random(32)
    verdicts = {}
    for case in range(250):
        n = 2 + case % 5
        r = rng.randint(1, n - 1)
        G = MarkedGraph.rose_identity(n)
        components = [[basis_word(i, n) for i in range(1, r + 1)]]
        if rng.random() < 0.4:
            G = G.blowup_marked(
                0, tuple(d for i in range(1, r + 1) for d in (i, -i)),
                tuple(d for i in range(r + 1, n + 1) for d in (i, -i)))[0]
            components.append([basis_word(rng.randint(r + 1, n), n)])
        else:
            G = G.act(sampling.random_stab_auto(rng, n, r, 4))
        for _ in range(rng.randint(0, n)):
            G = sampling.random_blowup(rng, G) or G
        if rng.random() < 0.3:
            gens = rng.choice(components)
            k = rng.randrange(len(gens))
            gens[k] = gens[k] * gens[k]
        components = [[conjugated(rng, n, w) for w in gens]
                      for gens in components]
        F = FreeFactorSystem.of(components, n)
        got = core_images(G, F)
        assert got == numbered_core_images(G, F)
        kind = len(components), got is not None
        verdicts[kind] = verdicts.get(kind, 0) + 1
    assert len(verdicts) == 4 and min(verdicts.values()) > 25, verdicts
