"""Deterministic randomized instance generators for the audit suites.

Everything takes an explicit random.Random so suites are reproducible.
Automorphisms are products of Nielsen generators built by
`words.nielsen_product`, which writes down their inverses in closed form:
no sampler folds.
"""

from . import graphs
from .words import ReducedWord, nielsen_product
from .marked import MarkedGraph


def random_reduced_word(rng, rank, max_len, nontrivial=False):
    while True:
        ls = []
        for _ in range(rng.randint(0 if not nontrivial else 1, max_len)):
            choices = [i for i in range(1, rank + 1)] + \
                      [-i for i in range(1, rank + 1)]
            if ls:
                choices = [a for a in choices if a != -ls[-1]]
            ls.append(rng.choice(choices))
        w = ReducedWord(tuple(ls), rank)
        if not nontrivial or not w.is_trivial():
            return w


def transvection(n, i, j, side="R"):
    """a_i -> a_j a_i (side "L") or a_i a_j (side "R")."""
    return nielsen_product([(side, i, j, 1)], n)


def random_token_auto(rng, n, moves):
    tokens = []
    for _ in range(moves):
        if rng.random() < 0.15:
            tokens.append(("inv", rng.randint(1, n)))
        else:
            i = rng.randint(1, n)
            j = rng.choice([x for x in range(1, n + 1) if x != i])
            tokens.append((rng.choice(["L", "R"]), i, j, 1))
    return nielsen_product(tokens, n)


def random_stab_auto(rng, n, r, moves):
    """A random element of the stabilizer of [<a_1..a_r>] (as a product of
    block transvections/inversions that visibly preserve the factor)."""
    tokens = []
    for _ in range(moves):
        kind = rng.random()
        if kind < 0.35 and r >= 2:
            i = rng.randint(1, r)
            j = rng.choice([x for x in range(1, r + 1) if x != i])
            tokens.append((rng.choice(["L", "R"]), i, j, 1))
        elif kind < 0.5:
            tokens.append(("inv", rng.randint(1, r)))
        else:
            j = rng.randint(r + 1, n)
            i = rng.choice([x for x in range(1, n + 1) if x != j])
            tokens.append((rng.choice(["L", "R"]), j, i, 1))
    return nielsen_product(tokens, n)


def random_blowup(rng, G):
    cands = []
    for v in sorted(G.graph.vertices):
        for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
            cands.append((v, p1, p2))
    if not cands:
        return None
    v, p1, p2 = rng.choice(cands)
    out, _, _ = G.blowup_marked(v, p1, p2)
    return out


def _random_walk(rng, n, steps, act_moves, normal_form):
    """Rose, then random blow-ups / collapses / actions, in `normal_form`."""
    G = MarkedGraph.rose_identity(n)
    if act_moves:
        G = G.act(random_token_auto(rng, n, rng.randint(0, act_moves)))
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            out = random_blowup(rng, G)
            if out is not None:
                G = out
        elif roll < 0.85:
            forest = random_relatively_natural_forest(rng, G)
            if forest is not None:
                G = normal_form(G.collapse_marked(forest)[0])
        else:
            G = G.act(random_token_auto(rng, n, 1))
    return normal_form(G)


def random_marked_graph(rng, n, steps, act_moves=2):
    """Random spine vertex: start at the rose, blow up / collapse / act."""
    return _random_walk(rng, n, steps, act_moves, MarkedGraph.natural_marked)


def random_pointed_graph(rng, n, steps):
    """Random pointed graph: like random_marked_graph, but the basepoint is
    kept through every collapse and in the result."""
    return _random_walk(rng, n, steps, 2,
                        lambda x: x.naturalize(keep_base=True)[0])


def random_relatively_natural_forest(rng, x):
    """A uniformly random nonempty natural subforest of x, or None."""
    forests = graphs.enumerate_natural_subforests(x.graph, include_empty=False)
    return rng.choice(forests) if forests else None
