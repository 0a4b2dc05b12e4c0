"""Cross-module invariant suites (order relations, symmetry groups)."""

import itertools
import random
from itertools import islice

from outerspine import graphs, retract_aut, spine
from outerspine.marked import MarkedGraph, equivalent
from outerspine.witness import WitnessParams, theta, theta_powers, witness_rows
from outerspine.words import (Endomorphism, CyclicWord, basis_word,
                              cyclic_reduce, word, is_automorphism)
from outerspine.covers import (FreeFactorSystem, based_core, realizes,
                               stallings_core)
from outerspine.counting import build_context, count_i
from outerspine.folding import LabeledGraph, fold_words
from outerspine.retract_split import coindex1_to_splitting, in_CVKT
from outerspine import sampling
from fold_oracle import snapshot
from subgroup_tools import ffs_partial_order, subgroups_conjugate


def small_systems_f3():
    """A family of free factor systems in F_3 used by the order tests."""
    n = 3
    a = [basis_word(i, n) for i in range(1, 4)]
    conj = a[0].conjugate_by(a[1])  # a2^-1 a1 a2
    return [
        FreeFactorSystem.of([[a[0]]], n),
        FreeFactorSystem.of([[conj]], n),
        FreeFactorSystem.of([[a[1]]], n),
        FreeFactorSystem.of([[a[0], a[1]]], n),
        FreeFactorSystem.of([[a[1], a[2]]], n),
        FreeFactorSystem.of([[a[0]], [a[1]]], n),
        FreeFactorSystem.of([[a[0]], [a[1], a[2]]], n),
        FreeFactorSystem.of([[a[0], a[1], a[2]]], n),
    ]


def systems_equal(F1, F2):
    G = MarkedGraph.rose_identity(F1.rank)
    c1 = F1.cores_over(G)
    c2 = F2.cores_over(G)
    if len(c1) != len(c2):
        return False
    for perm in itertools.permutations(range(len(c2))):
        if all(subgroups_conjugate(c1[i], c2[perm[i]]) for i in range(len(c1))):
            return True
    return False


def equal_up_to_rank_one_padding(F1, F2):
    """F1's components match distinct F2 components, the rest have rank 1."""
    G = MarkedGraph.rose_identity(F1.rank)
    c1 = F1.cores_over(G)
    c2 = F2.cores_over(G)
    if len(c1) > len(c2):
        return False
    for combo in itertools.permutations(range(len(c2)), len(c1)):
        if not all(subgroups_conjugate(c1[i], c2[combo[i]])
                   for i in range(len(c1))):
            continue
        rest = set(range(len(c2))) - set(combo)
        if all(c2[j].rank == 1 for j in rest):
            return True
    return False


def test_coindex_monotone_with_equality_case():
    # Monotonicity holds on the nose. The literal "equality iff equal" claim
    # fails (adding a rank-1 component changes nothing in the sum); the
    # correct equality case allows exactly rank-one padding, and the pair
    # {[<a1>]} < {[<a1>],[<a2>]} below witnesses why the sharper claim dies.
    systems = small_systems_f3()
    for F1 in systems:
        for F2 in systems:
            if not ffs_partial_order(F1, F2):
                continue
            assert F2.coindex() <= F1.coindex()
            if F2.coindex() == F1.coindex():
                assert equal_up_to_rank_one_padding(F1, F2)
            else:
                assert not systems_equal(F1, F2)
    A = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    B = FreeFactorSystem.of([[basis_word(1, 3)], [basis_word(2, 3)]], 3)
    assert ffs_partial_order(A, B)
    assert A.coindex() == B.coindex() == 2
    assert not systems_equal(A, B)


def test_count_B_translation_invariance():
    n = 3
    G = MarkedGraph.rose_identity(n)
    A = [basis_word(1, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    ctx = build_context([A], B, G)
    base = word([3, 1, 2, 1], n)
    v0 = count_i(ctx, CyclicWord.of(base))
    for b_ls in [[1], [2], [1, 2], [-2, 1, 1]]:
        b = word(b_ls, n)
        assert count_i(ctx, CyclicWord.of(b * base * b.inverse())) == v0


def signed_permutations(n):
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product([1, -1], repeat=n):
            imgs = [[perm[i] * signs[i]] for i in range(n)]
            yield is_automorphism(Endomorphism.from_lists(imgs, n))


def test_rose_marking_preserving_symmetries():
    # equivalent(G, act(G, phi)) iff phi is a signed petal permutation
    G = MarkedGraph.rose_identity(2)
    for phi in signed_permutations(2):
        assert equivalent(G, G.act(phi)) is not None
    for i, j, side in [(1, 2, "R"), (2, 1, "R"), (1, 2, "L")]:
        assert equivalent(G, G.act(sampling.transvection(2, i, j, side))) is None


def test_splitting_membership_matches_realize_shape():
    # coindex-1 membership == realized system + single complement edge
    n = 3
    F = FreeFactorSystem.of([[basis_word(1, n), basis_word(2, n)]], n)
    data_bp = coindex1_to_splitting(F)
    rng = random.Random(77)
    agree = 0
    for _ in range(40):
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        member = in_CVKT(G, data_bp) is not None
        w = realizes(G, F)
        shape = False
        if w is not None:
            comp = set(G.graph.edges) - set(w.edges)
            shape = len(comp) == 1
        assert member == shape
        agree += 1
    assert agree == 40


def test_full_basis_core_reproduces_marked_graph():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([2, 3])
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        K = stallings_core([basis_word(i, n) for i in range(1, n + 1)], G)
        assert sorted(l for _, _, l in K.edges.values()) == \
            sorted(G.graph.edges)


def test_collapse_preserves_betti_random():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.choice([2, 3])
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        forests = graphs.enumerate_natural_subforests(G.graph)
        f = rng.choice(forests)
        H, vmap = G.collapse_marked(f)
        assert H.rank == G.rank
        # quotient-map property: every source edge collapsed or kept, every
        # source vertex mapped onto a target vertex
        assert set(H.graph.edges) | set(f) == set(G.graph.edges)
        assert not set(H.graph.edges) & set(f)
        assert set(vmap) == G.graph.vertices
        assert set(vmap.values()) == H.graph.vertices


def rebuilt(x):
    """Rebuild a derived object with its class's checking public
    constructor, which raises on an invalid object, and require an equal
    object. A marked graph's graph is rebuilt too, and the public
    MarkedGraph constructor runs check_generates."""
    if isinstance(x, LabeledGraph):
        y = LabeledGraph(x.edges, x.base)
        assert (y.vertices, y.edges, y.base, y.rank) == \
            (x.vertices, x.edges, x.base, x.rank)
    elif isinstance(x, graphs.CoreGraph):
        y = graphs.CoreGraph(x.vertices, x.edges)
        assert (y.vertices, y.edges, y.rank) == (x.vertices, x.edges, x.rank)
    elif isinstance(x, MarkedGraph):
        y = MarkedGraph(rebuilt(x.graph), x.basepoint, x.marking)
        assert (y.basepoint, y.marking, y.rank) == \
            (x.basepoint, x.marking, x.rank)
    else:
        assert type(x.letters) is tuple
        y = type(x)(x.letters, x.rank)
        assert y == x
    return y


def test_collapse_and_blowup_incidence_random(monkeypatch):
    """Every derivation from seeded spine inputs rebuilds through the
    checking constructors: roses, actions, collapses, blow-ups, rebasings,
    naturalizations, neighbours and fold paths (each vertex and each
    fold's normalized star). Collapses and blow-ups also keep their
    incidences, and collapsing a blow-up's new edge gives back its
    input."""
    stars = []
    hulls = spine._hulls

    def recording(star, *forests):
        nat, out = hulls(star, *forests)
        stars.append(nat)
        return nat, out
    monkeypatch.setattr(spine, "_hulls", recording)
    rng = random.Random(23)
    blowups = 0
    for i in range(40):
        n = rng.choice([2, 3, 4])
        rebuilt(graphs.rose(n))
        rebuilt(MarkedGraph.rose_identity(n))
        G = rebuilt(sampling.random_marked_graph(rng, n, rng.randint(0, 5)))
        g = G.graph
        rebuilt(G.act(sampling.random_token_auto(rng, n, 2)))
        for v in sorted(g.vertices):
            for keep_base in (True, False):
                rebuilt(G.rebase(v).naturalize(keep_base)[0])
        f = rng.choice(graphs.enumerate_natural_subforests(g))
        rebuilt(graphs.collapse(g, f)[0])
        H, vmap = G.collapse_marked(f)
        for eid, (o, t) in g.edges.items():
            if eid in f:
                assert vmap[o] == vmap[t]
            else:
                assert H.graph.edges[eid] == (vmap[o], vmap[t])
        assert set(H.graph.edges) == set(g.edges) - f
        assert len(H.graph.vertices) == len(g.vertices) - len(f)
        assert H.basepoint == vmap[G.basepoint]
        rebuilt(H)
        if i % 8 == 0:
            for X in spine.neighbors(G):
                rebuilt(X)
            stars.clear()
            path = spine.fold_path(G, G.act(sampling.transvection(n, 1, 2)))
            for X in path.vertices + stars:
                rebuilt(X)

        cands = [(v, p1, p2) for v in sorted(g.vertices)
                 for p1, p2 in graphs.vertex_direction_bipartitions(g, v)]
        if not cands:
            continue
        v, p1, p2 = rng.choice(cands)
        rebuilt(graphs.blow_up(g, v, p1, p2)[0])
        B, new_eid, (v1, v2) = G.blowup_marked(v, p1, p2)
        blowups += 1
        assert B.graph.edges[new_eid] == (v1, v2)
        rebuilt(B)
        back, bmap = B.collapse_marked([new_eid])
        assert bmap[v1] == bmap[v2]
        assert back.graph.edges == g.edges
        assert back.marking == G.marking
        assert equivalent(back, G) is not None
    assert blowups >= 20


def test_pointed_derivations_rebuild_random():
    """Seeded audit inputs: pointed graphs, their loop embeddings and
    based-core retractions, and the collapsed side of each pointed audit
    rebuild through the checking constructors."""
    rng = random.Random(29)
    for k in range(30):
        x = rebuilt(sampling.random_pointed_graph(rng, 2 + k % 3, k % 4))
        rebuilt(x.natural_marked())
        w = rebuilt(retract_aut.embed_j(x))
        r = rebuilt(retract_aut.retract_r(w))
        assert retract_aut.pointed_equivalent(r, x) is not None
        rebuilt(retract_aut.retract_r(x))
        forest = sampling.random_relatively_natural_forest(rng, x)
        if forest is not None:
            rebuilt(retract_aut.lipschitz_audit(x, forest)[1])


def test_folded_graph_derivations_rebuild_random():
    """Seeded subgroup generators over random spine vertices: the folded
    snapshots (with and without history), their prunings, based cores and
    tails, and the cores of covers.stallings_core and covers.based_core
    rebuild through the checking LabeledGraph constructor."""
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 4)
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        gens = [sampling.random_reduced_word(rng, n, 6, nontrivial=True)
                for _ in range(rng.randint(1, 3))]
        paths = [G.expand(w.letters) for w in gens]
        for track in (False, True):
            folded = fold_words(paths, track_history=track)
            rebuilt(snapshot(folded))
            rebuilt(folded.core())
            core, _, _, based = folded.based_core()
            rebuilt(core)
            rebuilt(based)
        rebuilt(stallings_core(gens, G))
        rebuilt(based_core(gens, G).core)


def test_word_derivations_rebuild_random():
    """Seeded word and witness inputs: inverses, products, class
    representatives, endomorphism images, cyclic_reduce's class and
    conjugator, theta's powers and every witness row's images rebuild
    through the checking constructors."""
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 4)
        u = sampling.random_reduced_word(rng, n, 12)
        v = sampling.random_reduced_word(rng, n, 12)
        rebuilt(u.inverse())
        rebuilt(u * v)
        f = sampling.random_token_auto(rng, n, 3)
        rebuilt(f.endo.apply_counting_cancellation(u)[0])
        if not v.is_trivial():
            c, conj = cyclic_reduce(v)
            rebuilt(c)
            rebuilt(conj)
            rebuilt(c.representative())
            assert conj * c.representative() * conj.inverse() == v
    for params in (WitnessParams(4, "connected", r=2),
                   WitnessParams(4, "two_component", ranks=(1, 2)),
                   WitnessParams(5, "multi_component", ranks=(1, 1, 1))):
        th, _ = theta(params.n, params.m)
        for uk in islice(theta_powers(th), 9):
            rebuilt(uk)
        c0 = CyclicWord.of(basis_word(params.n, params.n))
        for _, phi, _ in islice(witness_rows(params), 9):
            for im in phi.images:
                rebuilt(im)
            rebuilt(phi.apply_cyclic(c0))
