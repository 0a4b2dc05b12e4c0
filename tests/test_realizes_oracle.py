"""Differential test: `realizes` (embedding check) against a subgraph search.

The oracle is the earlier definition of CVK^F membership taken literally: try
every edge subset of G, prune it to a core subgraph, and accept when its
components are label-isomorphic to the system's cores in some order. It is
exponential in |E| and lives here only to check the direct test.
"""

import itertools
import random

from outerspine import sampling
from outerspine.covers import FreeFactorSystem, labeled_isomorphism, realizes
from outerspine.folding import LabeledGraph
from outerspine.graphs import CoreGraph
from outerspine.marked import MarkedGraph
from outerspine.words import basis_word


def subgraph_components(G, edge_set):
    """Connected components of an edge subset, as edge-id frozensets."""
    remaining = set(edge_set)
    comps = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        verts = set(G.graph.edges[seed])
        changed = True
        while changed:
            changed = False
            for eid in list(remaining - comp):
                o, t = G.graph.edges[eid]
                if o in verts or t in verts:
                    comp.add(eid)
                    verts.update((o, t))
                    changed = True
        comps.append(frozenset(comp))
        remaining -= comp
    return comps


def core_prune_edges(G, edge_set):
    """Prune an edge subset to core form (drop valence-1 vertices)."""
    edge_set = set(edge_set)
    while True:
        deg = {}
        for eid in edge_set:
            for v in G.graph.edges[eid]:
                deg[v] = deg.get(v, 0) + 1
        bad = {v for v, d in deg.items() if d == 1}
        if not bad:
            return frozenset(edge_set)
        edge_set = {eid for eid in edge_set
                    if not set(G.graph.edges[eid]) & bad}


def component_as_labeled(G, comp_edges):
    """A core subgraph component as a core graph (identity labels)."""
    edges = {eid: (G.graph.edges[eid][0], G.graph.edges[eid][1], eid)
             for eid in comp_edges}
    return LabeledGraph(edges, None)


def search_realizes(G, F):
    """(edges, component edge sets in F's order) of the first core subgraph
    realizing F, or None."""
    cores = F.cores_over(G)
    target_ranks = sorted(k.rank for k in cores)
    eids = sorted(G.graph.edges)
    seen = set()
    for r in range(1, len(eids) + 1):
        for combo in itertools.combinations(eids, r):
            pruned = core_prune_edges(G, combo)
            if not pruned or pruned in seen:
                continue
            seen.add(pruned)
            comps = subgraph_components(G, pruned)
            if len(comps) != len(cores):
                continue
            labeled = [component_as_labeled(G, c) for c in comps]
            if sorted(k.rank for k in labeled) != target_ranks:
                continue
            for perm in itertools.permutations(range(len(cores))):
                if all(labeled_isomorphism(labeled[i], cores[perm[i]])
                       for i in range(len(cores))):
                    by_system = [None] * len(cores)
                    for i, j in enumerate(perm):
                        by_system[j] = comps[i]
                    return pruned, tuple(by_system)
    return None


def random_blocks(rng, n):
    """A partition of a random nonempty part of the basis, as letter lists."""
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    letters = letters[:rng.randint(1, n)]
    blocks = []
    while letters:
        k = rng.randint(1, len(letters))
        blocks.append(letters[:k])
        letters = letters[k:]
    return blocks


def random_system(rng, n, blocks):
    """The blocks as components, some conjugated; sometimes spoiled by a
    proper power or a commutator, which no core subgraph carries."""
    comps = []
    for b in blocks:
        gens = [basis_word(i, n) for i in b]
        if rng.random() < 0.4:
            g = sampling.random_reduced_word(rng, n, 3, nontrivial=True)
            gens = [w.conjugate_by(g) for w in gens]
        comps.append(gens)
    roll = rng.random()
    if roll < 0.2:
        c = rng.choice(comps)
        i = rng.randrange(len(c))
        c[i] = c[i] * c[i]
    elif roll < 0.3:
        i, j = rng.sample(range(1, n + 1), 2)
        x, y = basis_word(i, n), basis_word(j, n)
        comps.append([x * y * x.inverse() * y.inverse()])
    return FreeFactorSystem.of(comps, n)


def block_rose(n, blocks):
    """A marked graph realizing the blocks: block j is a subrose at vertex j,
    joined to vertex 0 by edge n + j; the other letters are petals at 0."""
    edges = {i: (0, 0) for i in range(1, n + 1)}
    marking = [(i,) for i in range(1, n + 1)]
    for j, b in enumerate(blocks[1:], 1):
        edges[n + j] = (0, j)
        for i in b:
            edges[i] = (j, j)
            marking[i - 1] = (n + j, i, -(n + j))
    return MarkedGraph(CoreGraph(list(range(len(blocks))), edges), 0, marking)


def assert_agrees(G, F):
    got = realizes(G, F)
    want = search_realizes(G, F)
    assert (got is not None) == (want is not None)
    if got is not None:
        assert got.edges == want[0]
        assert got.components == want[1]
    return got is not None


def test_realizes_matches_subgraph_search():
    rng = random.Random(2010)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.choice([2, 3, 4])
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 4),
                                         act_moves=rng.randint(0, 2))
        F = random_system(rng, n, random_blocks(rng, n))
        verdicts[assert_agrees(G, F)] += 1
    assert verdicts[True] >= 500 and verdicts[False] >= 500, verdicts


def test_realizes_matches_subgraph_search_multi_component():
    # random graphs seldom separate the components of a system; blown-up
    # block roses do, and a blow-up keeps the realization
    rng = random.Random(1009)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        blocks = random_blocks(rng, n)
        while len(blocks) < 2:
            blocks = random_blocks(rng, n)
        G = block_rose(n, blocks)
        for _ in range(rng.randint(0, 3)):
            G = sampling.random_blowup(rng, G) or G
        F = random_system(rng, n, blocks)
        verdicts[assert_agrees(G, F)] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 50, verdicts
