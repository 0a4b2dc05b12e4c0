"""Test oracles for the crossing count.

`count_i` is the two-pass count the library used before `counting.count_i`
walked each entry state once. The first pass colours the trace states to
find a cycle (a class conjugate into B); the second walks every entry
state's run. `lipschitz_audit` is the bracket audit as it was before the
collapsed side's context was derived from the uncollapsed one: it builds
both contexts from scratch, the second over the natural representative
of G/F. Only the differential tests in test_count_engine.py import this
module.
"""

from outerspine import counting
from outerspine.counting import (ConjugateIntoB, CountError, CrossingCount,
                                 build_context)
from outerspine.words import invert_letters


def _count_block(mu, block):
    rev = invert_letters(block)
    q = len(block)
    n = 0
    for i in range(len(mu) - q + 1):
        win = mu[i:i + q]
        if win == block or win == rev:
            n += 1
    return n


def count_i(ctx, c):
    circuit = ctx.G.circuit_of(c)
    if not circuit:
        raise CountError("trivial class")
    K = ctx.K
    L = len(circuit)
    states = [(v, p) for v in K.vertices for p in range(L)]

    def step(state):
        v, p = state
        d = K.step(v, circuit[p])
        if d is None:
            return None, None
        return d, (K.head(d), (p + 1) % L)

    # cycle detection over the partial deterministic transition
    color = {}
    for s in states:
        if s in color:
            continue
        path = []
        cur = s
        while cur is not None and color.get(cur) is None:
            color[cur] = 1
            path.append(cur)
            _, cur = step(cur)
        if cur is not None and color.get(cur) == 1:
            raise ConjugateIntoB("class is conjugate into B; count undefined")
        for x in path:
            color[x] = 2

    best = 0
    for (v, p) in states:
        back = K.step(v, -circuit[(p - 1) % L])
        if back is not None:
            continue  # not an entry state
        mu = []
        cur = (v, p)
        budget = len(states) + 1
        while budget:
            d, nxt = step(cur)
            if d is None:
                break
            mu.append(d)
            cur = nxt
            budget -= 1
        if not budget:
            raise CountError("entry-state run exceeded budget")
        best = max(best, _count_block(tuple(mu), ctx.block))
    return CrossingCount(best)


def lipschitz_audit(A_gens_list, B_gens, G, forest, c):
    ctx1 = build_context(A_gens_list, B_gens, G)
    G2 = G.collapse_marked(forest)[0].natural_marked()
    ctx2 = build_context(A_gens_list, B_gens, G2)
    return counting.count_i(ctx1, c).value, counting.count_i(ctx2, c).value
