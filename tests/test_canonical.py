"""Seeded differential tests of the canonical keys against the equalities.

`marked.canonical_key` must agree with `equivalent` (key equality iff a
witness exists) and induce the same partition as `old_canonical_key`, and
`canonical_form` with the isomorphism search `graphs_isomorphic` of
tests/iso_oracle.py, on relabelled and rebased copies, on transvection and
signed-petal-permutation images at ranks 2-4 (K_{3,3} included), and on
spine-neighbour candidates. `canonical_form` and `old_canonical_key` are
the test oracles of tests/canonical_oracle.py. `marked.VertexSet` must
split the same candidates, and the balls of the spine, into the classes
of `canonical_key`.
"""

import itertools
import random

from outerspine import graphs, sampling
from outerspine.graphs import CoreGraph
from outerspine.marked import (MarkedGraph, VertexSet, canonical_key,
                               circuit_lengths, equivalent)
from outerspine.spine import neighbors
from outerspine.words import Endomorphism, is_automorphism, substitute
from canonical_oracle import canonical_form, old_canonical_key
from iso_oracle import graphs_isomorphic


def k33_marked():
    """K_{3,3} (rank 4): edges 1..9 join a in {0,1,2} to b in {3,4,5};
    tree e1, e2, e3, e4, e7 and one loop per co-tree edge."""
    edges = {3 * a + b - 2: (a, b) for a in range(3) for b in range(3, 6)}
    g = CoreGraph(range(6), edges)
    return MarkedGraph(g, 0, [(1, -4, 5, -2), (1, -4, 6, -3),
                              (1, -7, 8, -2), (1, -7, 9, -3)])


def prism():
    """The triangular prism: 3-regular on 6 vertices like K_{3,3}, and
    colour refinement alone does not tell the two apart."""
    return CoreGraph(range(6), {1: (0, 1), 2: (1, 2), 3: (2, 0), 4: (3, 4),
                                5: (4, 5), 6: (5, 3), 7: (0, 3), 8: (1, 4),
                                9: (2, 5)})


def relabel_graph(g, rng):
    """A copy of g with fresh vertex and edge ids and random orientations;
    returns (copy, vertex map, signed edge map)."""
    verts = sorted(g.vertices)
    vmap = dict(zip(verts, rng.sample(range(100, 100 + 4 * len(verts)),
                                      len(verts))))
    eids = sorted(g.edges)
    emap = {e: rng.choice((1, -1)) * f for e, f in
            zip(eids, rng.sample(range(1, 4 * len(eids) + 1), len(eids)))}
    edges = {}
    for e, (o, t) in g.edges.items():
        edges[abs(emap[e])] = ((vmap[o], vmap[t]) if emap[e] > 0
                               else (vmap[t], vmap[o]))
    return CoreGraph(vmap.values(), edges), vmap, emap


def relabel(G, rng):
    """A relabelled copy of G (see relabel_graph) rebased at a random
    vertex: the same spine vertex."""
    g, vmap, emap = relabel_graph(G.graph, rng)
    H = MarkedGraph(g, vmap[G.basepoint],
                    [graphs.map_path(emap, p) for p in G.marking])
    return H.rebase(rng.choice(sorted(g.vertices)))


def signed_permutation(rng, n):
    perm = rng.sample(range(1, n + 1), n)
    return is_automorphism(Endomorphism.from_lists(
        [[rng.choice((1, -1)) * i] for i in perm], n))


def base_graphs(rng):
    out = [k33_marked()]
    for n in (2, 3, 4):
        out.append(MarkedGraph.rose_identity(n))
        out.extend(sampling.random_marked_graph(rng, n, 3) for _ in range(2))
    return out


def assert_key_iff_equivalent(cands):
    keys = [canonical_key(h) for h in cands]
    for i, j in itertools.combinations(range(len(cands)), 2):
        assert (keys[i] == keys[j]) == \
            (equivalent(cands[i], cands[j]) is not None)


def assert_same_partition_as_old_key(cands):
    """canonical_key and old_canonical_key split cands into the same
    classes; returns the number of classes."""
    new = [canonical_key(h) for h in cands]
    old = [old_canonical_key(h) for h in cands]
    classes = len(set(zip(new, old)))
    assert len(set(new)) == classes == len(set(old))
    return classes


def test_key_invariant_under_relabelling_and_rebase():
    rng = random.Random(11)
    for G in base_graphs(rng):
        key = canonical_key(G)
        for _ in range(4):
            H = relabel(G, rng)
            assert canonical_key(H) == key
            assert equivalent(H, G) is not None


def test_key_matches_equivalent_on_automorphism_images():
    rng = random.Random(12)
    for G in base_graphs(rng):
        n = G.rank
        autos = [sampling.transvection(n, i, j, side)
                 for i in range(1, n + 1) for j in range(1, n + 1) if i != j
                 for side in "LR"]
        autos = rng.sample(autos, min(len(autos), 6))
        autos += [signed_permutation(rng, n) for _ in range(3)]
        images = [G] + [relabel(G.act(phi), rng) for phi in autos]
        assert_key_iff_equivalent(images)


def test_key_matches_equivalent_on_neighbor_candidates():
    rng = random.Random(13)
    for n in (2, 3, 4):
        G = sampling.random_marked_graph(rng, n, 2)
        cands = neighbors(G)
        assert_key_iff_equivalent(rng.sample(cands, min(len(cands), 16)))
        # the candidates around a neighbour include G again
        key = canonical_key(G)
        back = neighbors(rng.choice(cands))
        hits = [canonical_key(x) == key for x in back]
        assert hits == [equivalent(x, G) is not None for x in back]
        assert any(hits)


def partition_sets():
    """Two seeded candidate sets: random graphs of ranks 2-4, each with a
    relabelled copy and its neighbours (351 spine vertices), and K_{3,3}'s
    transvection and signed-permutation images, each with two relabelled
    copies (32)."""
    rng = random.Random(15)
    cands = []
    for n in (2, 3, 4):
        for _ in range(5):
            G = sampling.random_marked_graph(rng, n, 3)
            cands += [G, relabel(G, rng)] + neighbors(G)
    K = k33_marked()
    autos = [sampling.transvection(4, i, j, side) for i, j in
             itertools.permutations(range(1, 5), 2) for side in "LR"]
    autos += [signed_permutation(rng, 4) for _ in range(8)]
    images = [K.act(phi) for phi in autos]
    return cands, images + [relabel(H, rng) for H in images for _ in range(2)]


def test_key_partition_matches_old_key():
    cands, images = partition_sets()
    classes = assert_same_partition_as_old_key(cands + images)
    # the set has both repeated and distinct spine vertices
    assert 1 < classes < len(cands + images)


def ball_candidates(G, radius):
    """Every neighbour met while growing the ball of the given radius
    around G, repeats included, in the order met; G comes first."""
    out, keys, frontier = [G], {canonical_key(G)}, [G]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for h in neighbors(g):
                out.append(h)
                key = canonical_key(h)
                if key not in keys:
                    keys.add(key)
                    nxt.append(h)
        frontier = nxt
    return out


def assert_vertexset_matches_keys(cands):
    """Add cands one at a time to a VertexSet: before each add, `in` must
    agree with membership of the key, add must be True exactly for a new
    key, and afterwards the vertex is in. Returns (classes, classes that
    share their circuit lengths with another class)."""
    S, keys, buckets = VertexSet(), set(), {}
    for h in cands:
        key = canonical_key(h)
        assert (h in S) == (key in keys)
        assert S.add(h) == (key not in keys)
        assert h in S
        keys.add(key)
        buckets.setdefault(circuit_lengths(h), set()).add(key)
    return len(keys), sum(len(b) for b in buckets.values() if len(b) > 1)


def test_vertexset_partition_matches_keys():
    cands, images = partition_sets()
    assert assert_vertexset_matches_keys(cands)[0] == 351
    assert assert_vertexset_matches_keys(images)[0] == 32
    rng = random.Random(16)
    shared = 0
    for n, radius in ((2, 3), (3, 2), (4, 1)):
        for G in [MarkedGraph.rose_identity(n)] + [
                sampling.random_marked_graph(rng, n, 3) for _ in range(2)]:
            shared += assert_vertexset_matches_keys(
                ball_candidates(G.natural_marked(), radius))[1]
    # distinct vertices share buckets, so the keyed buckets are exercised
    assert shared > 100


def subdivided(G, e):
    """G with edge e subdivided at a new vertex, which becomes the
    basepoint: a marked graph that naturalizes to G's spine vertex."""
    g = G.graph
    o, t = g.edges[e]
    m, f = max(g.vertices) + 1, max(g.edges) + 1
    edges = dict(g.edges)
    edges[e], edges[f] = (o, m), (m, t)
    image = {x: (x,) for x in g.edges}
    image[e] = (e, f)
    H = MarkedGraph(CoreGraph(list(g.vertices) + [m], edges), G.basepoint,
                    [substitute(p, image)[0] for p in G.marking])
    return H.rebase(m)


def test_circuit_lengths_invariant_on_equivalent_copies():
    rng = random.Random(17)
    for G in base_graphs(rng):
        lengths = circuit_lengths(G)
        copies = [relabel(G, rng) for _ in range(3)]
        copies += [G.rebase(v) for v in sorted(G.graph.vertices)]
        copies += [subdivided(G, e).naturalize(keep_base=False)[0]
                   for e in sorted(G.graph.edges)]
        for H in copies:
            assert equivalent(H, G) is not None
            assert circuit_lengths(H) == lengths


def test_canonical_form_matches_graphs_isomorphic():
    rng = random.Random(14)
    gs = [k33_marked().graph, prism()]
    for n in (2, 3, 4):
        gs.extend(sampling.random_marked_graph(rng, n, 4, act_moves=0).graph
                  for _ in range(5))
    gs += [relabel_graph(g, rng)[0] for g in gs]
    forms = [canonical_form(g) for g in gs]
    for i, j in itertools.combinations(range(len(gs)), 2):
        assert (forms[i][0] == forms[j][0]) == graphs_isomorphic(gs[i], gs[j])
    # relabelling carries the orderings onto the copy's orderings
    half = len(gs) // 2
    for g, (enc, orders) in zip(gs[:half], forms[:half]):
        copy, vmap, _ = relabel_graph(g, rng)
        enc2, orders2 = canonical_form(copy)
        assert enc2 == enc
        assert sorted(sorted(o.items()) for o in orders2) == \
            sorted(sorted((vmap[v], c) for v, c in o.items()) for o in orders)
