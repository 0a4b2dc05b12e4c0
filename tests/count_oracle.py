"""Test oracles for the crossing count.

`count_i` is the two-pass letter walk the library used before
`counting.count_i` walked each entry state once, and later closed a path
summary. The first pass colours the trace states to find a cycle (a class
conjugate into B); the second walks every entry state's run and scans its
windows. It shares no code with the summary engine, so the tests that
hold the summaries to it do not hold them to themselves.
`lipschitz_audit` is the bracket audit as it was before the collapsed
side's context was derived from the uncollapsed one: it builds both
contexts from scratch, the second over the natural representative
of G/F. `classify_complement` is the block search the locate step ran
before it read the block off the complement in one walk (`counting._block`):
it checks the complement's count and connectivity, prunes its leaves to
find its cycle, and picks the attachment vertex among candidates,
returning None where the shape matches neither rank-increment case.
`locate_first_embedding` is the locate step as it was before it refused
an A-core with two images in K: it counts against the first embedding
whose complement classifies. `edge_summary` and `composed_summary` are
the segment summaries as `counting.path_summary` built them before it
walked the path: one summary per edge, composed edge by edge.
`per_run_summary`, `per_run_compose` and `per_run_close` are the summary
kernel as it was before each path was walked in one loop: one `_trace`
call per run, every open run listed by `_open_runs` and carried through
`_through`. They are copied as they were, except that the entry test is
read off the step table directly and two entry runs that meet raise
plain CountError. Only the differential tests
import this module: test_count_engine.py, and test_witness.py for its
row-by-row table.
"""

import itertools
from itertools import islice

from outerspine import counting
from outerspine.counting import (ConjugateIntoB, CountError,
                                 CountingContext, Summary, build_context,
                                 compose)
from outerspine.covers import embeddings
from outerspine.graphs import union_find
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
    return best


def edge_summary(ctx, a):
    """Summary of the one-letter segment a (a signed G-edge)."""
    tb = ctx.tables
    through = {}
    for v in tb.out:
        d = tb.out[v].get(a)
        if d is None:
            through[v] = (None, 0, (), ())
        else:
            t, hit = tb.move((), d)
            through[v] = (tb.heads[d], hit, t, (d,))
    return Summary(tb, a, through, {}, 0)


def composed_summary(ctx, path):
    """Summary of a nonempty explicit path, composed from its edges'
    summaries left to right."""
    got = edge_summary(ctx, path[0])
    for a in path[1:]:
        got = compose(got, edge_summary(ctx, a))
    return got


def _entries_after(tb, a):
    """Vertices v where (v, next position) has no predecessor after the
    letter a: the entry test of count_i."""
    return tuple(v for v in tb.out if -a not in tb.out[v])


def _through(S, v, s):
    """(exit vertex or None, crossings, window state) of the run entering
    S at v with window state s. The window state changes only windows that
    end within the run's first q - 1 edges, and the exit state only if the
    run is shorter than q."""
    u, c, t, head = S.through[v]
    if s:
        tb = S.tables
        if len(head) < tb.q:
            c, t = tb.run(s, head)
        else:
            c += tb.run(s, head[:-1])[0] - tb.run((), head[:-1])[0]
    return u, c, t


def _trace(tb, v, path, p):
    """(exit vertex or None, crossings, window state, first q K-edges) of
    the run entering path at position p and K vertex v with an empty
    window."""
    out, heads, q = tb.out, tb.heads, tb.q
    s, hits, head = (), 0, []
    for a in islice(path, p, None):
        d = out[v].get(a)
        if d is None:
            return None, hits, s, tuple(head)
        if len(head) < q:
            head.append(d)
        s, hit = tb.move(s, d)
        hits += hit
        v = heads[d]
    return v, hits, s, tuple(head)


def per_run_summary(ctx, path):
    """Summary of a nonempty explicit path, read off one walk from every
    K vertex at its start and one from every entry state inside it."""
    tb = ctx.tables
    through = {v: _trace(tb, v, path, 0) for v in tb.out}
    arrivals = {}
    best = 0
    for p in range(1, len(path)):
        for v in _entries_after(tb, path[p - 1]):
            u, c, t, _ = _trace(tb, v, path, p)
            if u is None:
                best = max(best, c)
            else:
                arrivals[u] = (c, t)
    return Summary(tb, path[-1], through, arrivals, best)


def _open_runs(S):
    """(vertex, crossings, window state) of each run from an entry state
    that is alive right after S: those that started inside S, and those
    that start there."""
    return ([(u, c, t) for u, (c, t) in S.arrivals.items()]
            + [(v, 0, ()) for v in _entries_after(S.tables, S.last)])


def per_run_compose(S, T):
    """Summary of the segment S followed by T. The states at T's start
    that are entries are those v with -S.last not in out[v]."""
    tb = S.tables
    q = tb.q
    through = {}
    for v, (u, c, t, head) in S.through.items():
        if u is not None:
            if len(head) < q:
                head = (head + T.through[u][3])[:q]
            u, c2, t = _through(T, u, t)
            c += c2
        through[v] = (u, c, t, head)
    best = max(S.best, T.best)
    arrivals = dict(T.arrivals)
    for u, c, t in _open_runs(S):
        u, c2, t = _through(T, u, t)
        if u is None:
            best = max(best, c + c2)
        else:
            arrivals[u] = (c + c2, t)
    return Summary(tb, T.last, through, arrivals, best)


def per_run_close(W):
    """count_i's value for the cyclic word whose one period W summarizes.

    Every run from an entry state is followed lap by lap through W until
    it dies. The states at W's start that no such run meets lie on cycles
    of the step, i.e. are alive periodic points of W's through-map: the
    class is then conjugate into B, as in count_i's coverage test.
    """
    best = W.best
    met = set()
    for u, c, t in _open_runs(W):
        while u is not None:
            if u in met:
                raise CountError("two entry runs meet: the step is not "
                                 "injective")
            met.add(u)
            u, c2, t = _through(W, u, t)
            c += c2
        best = max(best, c)
    if len(met) < len(W.tables.out):
        raise ConjugateIntoB("class is conjugate into B; count undefined")
    return best


def lipschitz_audit(A_gens_list, B_gens, G, forest, c):
    ctx1 = build_context(A_gens_list, B_gens, G)
    G2 = G.collapse_marked(forest)[0].natural_marked()
    ctx2 = build_context(A_gens_list, B_gens, G2)
    return counting.count_i(ctx1, c), counting.count_i(ctx2, c)


def locate_first_embedding(G, K, A_cores):
    if len(A_cores) == 1:
        if A_cores[0].rank + 1 != K.rank:
            raise CountError("rank(B) must exceed rank(A) by one")
        embedded = False
        for vmap, emap in embeddings(A_cores[0], K):
            embedded = True
            eset, vset = frozenset(emap.values()), frozenset(vmap.values())
            res = classify_complement(K, eset, vset, False)
            if res is not None:
                return CountingContext(G, K, (eset,), (vset,), *res)
        if not embedded:
            raise CountError("A-core 0 does not embed in the B-core "
                             "(G not in CVK^[A])")
        raise CountError("complement shape matches neither rank-increment "
                         "case")
    if A_cores[0].rank + A_cores[1].rank != K.rank:
        raise CountError("rank(A_0) + rank(A_1) must equal rank(B)")
    images = []
    for i, KA in enumerate(A_cores):
        images.append([(frozenset(emap.values()), frozenset(vmap.values()))
                       for vmap, emap in embeddings(KA, K)])
        if not images[-1]:
            raise CountError("A-core %d does not embed in the B-core "
                             "(G not in CVK^[A])" % i)
    for (e0, v0), (e1, v1) in itertools.product(*images):
        if e0 & e1 or v0 & v1:
            continue
        res = classify_complement(K, e0 | e1, v0 | v1, True)
        if res is None:
            continue
        block, shape = res
        ends = {K.tail(block[0]), K.head(block[-1])}
        if ends & v0 and ends & v1:
            return CountingContext(G, K, (e0, e1), (v0, v1), block, shape)
    raise CountError("complement shape matches neither rank-increment case")


def classify_complement(K, a_edges, a_vertices, two_component):
    """Identify the crossing block in the complement, or None if the shape
    does not match the rank-difference-one dichotomy."""
    comp = set(K.edges) - set(a_edges)
    if not comp:
        return None
    cverts = set()
    for eid in comp:
        o, t, _ = K.edges[eid]
        cverts.update((o, t))
    free = cverts - set(a_vertices)
    if len(comp) - len(free) != 1:
        return None
    if not _edges_connected(K, comp):
        return None
    cyc = _cycle_part(K, comp)
    if two_component:
        if cyc:
            return None
        return _chain_block(K, comp, a_vertices)
    if not cyc:
        return _chain_block(K, comp, a_vertices)
    connector = comp - cyc
    # attachment vertex: where the connector (or the A-core) meets the cycle
    cyc_verts = set()
    for eid in cyc:
        o, t, _ = K.edges[eid]
        cyc_verts.update((o, t))
    if connector:
        deg = _degrees(K, comp)
        candidates = [v for v in cyc_verts if deg.get(v, 0) >= 3]
        if len(candidates) != 1:
            return None
        w = candidates[0]
        shape = "loop"
    else:
        candidates = [v for v in cyc_verts if v in a_vertices]
        if len(candidates) != 1:
            return None
        w = candidates[0]
        shape = "loop_at_core"
    return counting._walk(K, cyc, w, closed=True), shape


def _degrees(K, edge_set):
    deg = {}
    for eid in edge_set:
        o, t, _ = K.edges[eid]
        deg[o] = deg.get(o, 0) + 1
        deg[t] = deg.get(t, 0) + 1
    return deg


def _edges_connected(K, edge_set):
    root, _ = union_find((eid, *K.edges[eid][:2]) for eid in edge_set)
    return len(set(root.values())) == 1


def _cycle_part(K, edge_set):
    """Edges on the unique cycle of the complement (empty if it is a tree)."""
    edges = set(edge_set)
    while True:
        deg = _degrees(K, edges)
        leaves = {v for v, d in deg.items() if d == 1}
        if not leaves:
            return edges
        nxt = {eid for eid in edges if not set(K.edges[eid][:2]) & leaves}
        if nxt == edges:
            return edges
        edges = nxt


def _chain_block(K, comp, a_vertices):
    deg = _degrees(K, comp)
    ends = sorted(v for v, d in deg.items() if d == 1)
    if len(ends) != 2 or any(v not in a_vertices for v in ends):
        return None
    return counting._walk(K, comp, ends[0], closed=False), "edge"
