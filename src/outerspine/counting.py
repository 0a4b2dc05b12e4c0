"""The crossing-count i_{A,B}(c, G) and its Lipschitz/equivariance audits.

The count works at quotient level: K is the core of the B-cover of G, the
A-core(s) embed in K, and the rank count fixes the shape of the
complement, so one walk over it reads off the distinguished crossing
block E (a natural chain or loop, stored as simplicial directed edges;
`_block`). The axis of c is traced through K as a periodic line; each
maximal stay is a path, and crossings are complete traversals of the block.

`count_i` walks a class letter by letter. A class held as a straight-line
program (the witness rows) is counted instead from segment summaries:
`path_summary` for an explicit path, read off one walk of its runs,
`compose` for a concatenation of summarized segments and `close` for the
cyclic word. A summary records, for each K vertex, where the run
entering there leaves the segment (or that it dies inside) and its
crossings; the runs that start inside the segment and are still alive
at its end; and the most crossings of a run that starts and dies inside.
Window states of the block matcher carry a crossing across a junction.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .covers import collapse_labeled, embeddings, stallings_core
from .words import cyclic_core, invert_letters


class CountError(ValueError):
    pass


class ConjugateIntoB(CountError):
    """The traced class lives in B: the count is undefined."""


@dataclass
class CountingContext:
    G: object                # ambient MarkedGraph
    K: object                # LabeledGraph, core of the B-cover
    A_edge_sets: tuple       # frozenset of K-edge ids per embedded A-component
    A_vertex_sets: tuple
    block: tuple             # directed K-edges: the crossing block E
    shape: str               # "edge" | "loop" | "loop_at_core"

    @cached_property
    def tables(self):
        """The step tables and block matcher that summaries share."""
        return _Tables(self)


_SHAPE = "complement shape matches neither rank-increment case"


def _block(K, a_edges, a_vertices):
    """The crossing block E and its shape, read off the complement C of the
    embedded A-cores in one walk.

    The embedded A-cores have Euler characteristic sum(1 - rank(A_i)) and
    K has 1 - rank(B), so the rank checks of `_locate` give
    |C| - |free vertices| = 1, free meaning off the A-cores. A component
    D of C adds rank(D) - 1 + (its vertices on the A-cores) to the left
    side. K is connected, so D meets an A-core and adds at least 0, and 0
    only if it is a tree hanging at one vertex, whose other leaves would
    have valence 1 in K; K is a core graph, so none hangs. Hence C is
    connected, its leaves lie on the A-cores, and it is a chain joining
    two A-vertices (in case 2 one on each core, as K is connected), a
    cycle through one A-vertex, or a lollipop whose stick ends at one.

    The walk starts at the least end (C-degree 1), or, with no end, at the
    cycle's A-vertex, and steps along the least unused direction until
    none is left. A chain walk stops at its other end and is the block
    ("edge"); the cycle walk closes up and is the block ("loop_at_core");
    a lollipop walk stops at the knot of C-degree 3, which it left before,
    and its suffix from there is the block ("loop"). Where C breaks the
    argument, the count above or `_walk` raises.
    """
    comp = K.edges.keys() - a_edges
    deg = {}
    for eid in comp:
        for v in K.edges[eid][:2]:
            deg[v] = deg.get(v, 0) + 1
    if len(comp) - len(deg.keys() - a_vertices) != 1:
        raise CountError(_SHAPE)
    start = min(deg, key=lambda v: (deg[v] != 1, v not in a_vertices, v))
    walk = _walk(K, comp, start, closed=deg[start] != 1)
    stop = K.head(walk[-1])
    knot = next((i for i, d in enumerate(walk) if K.tail(d) == stop), None)
    if knot is None:
        return walk, "edge"
    return walk[knot:], "loop" if knot else "loop_at_core"


def _walk(K, edges, start, closed):
    """The walk from start along the least unused direction in edges until
    none is left; it must use them all, and if closed, end at start."""
    block = []
    cur = start
    used = set()
    while outs := [d for d in K.directions(cur)
                   if abs(d) in edges and abs(d) not in used]:
        d = min(outs, key=lambda x: (abs(x), x < 0))
        block.append(d)
        used.add(abs(d))
        cur = K.head(d)
    if closed and (len(used) != len(edges) or cur != start):
        raise CountError("cycle walk did not close up over its cycle")
    if len(used) != len(edges):
        raise CountError("chain walk missed edges of its component")
    return tuple(block)


def _fold(A_gens_list, B_gens, G):
    """The fold step: the B-core and the A-cores over G."""
    return (stallings_core(B_gens, G),
            [stallings_core(gens, G) for gens in A_gens_list])


def _image(KA, K, i):
    """(edge set, vertex set) of the one image of the i-th A-core in K.

    The count depends on that image, so it must be unique. It is where B
    is a free factor of F_n, as in the paper: free factors are malnormal,
    so a conjugate of A inside B is B-conjugate to A. Otherwise it need
    not be (A = <a1> in B = <a1, a2 a1 a2^-1> embeds twice), and then the
    count is undefined.
    """
    images = {(frozenset(emap.values()), frozenset(vmap.values()))
              for vmap, emap in embeddings(KA, K)}
    if not images:
        raise CountError("A-core %d does not embed in the B-core "
                         "(G not in CVK^[A])" % i)
    if len(images) > 1:
        raise CountError("count undefined: the A-core embeds in K more "
                         "than once")
    return images.pop()


def _locate(G, K, A_cores):
    """The locate step: check the ranks, embed the A-cores in K, each at
    its one image (`_image`), and read the block off the complement of
    their union (`_block`)."""
    ranks = [KA.rank for KA in A_cores]
    if len(ranks) == 1:
        if ranks[0] + 1 != K.rank:
            raise CountError("rank(B) must exceed rank(A) by one")
    elif len(ranks) == 2:
        if sum(ranks) != K.rank:
            raise CountError("rank(A_0) + rank(A_1) must equal rank(B)")
    else:
        raise CountError("counting takes one or two A-components, got %d"
                         % len(ranks))
    esets, vsets = zip(*(_image(KA, K, i) for i, KA in enumerate(A_cores)))
    a_vertices = frozenset().union(*vsets)
    if len(a_vertices) != sum(map(len, vsets)):
        raise CountError(_SHAPE)
    return CountingContext(G, K, esets, vsets,
                           *_block(K, frozenset().union(*esets), a_vertices))


def build_context(A_gens_list, B_gens, G):
    """Counting context for one A (case 1) or two disjoint A's (case 2):
    fold the cores over G, then locate the A-cores and the block in K."""
    return _locate(G, *_fold(A_gens_list, B_gens, G))


@dataclass
class CrossingCount:
    value: int


def _count_block(mu, block, rev):
    q = len(block)
    n = 0
    for i in range(len(mu) - q + 1):
        win = mu[i:i + q]
        if win == block or win == rev:
            n += 1
    return n


def count_i(ctx, c):
    """Maximum number of complete crossings of the block by the periodic
    trace of c through K, over all start positions and phases. Every
    rotation of the circuit has the same states, up to a shift of the
    phase, so the trace starts from c's cyclic core as it is read, not
    from a least rotation.

    A trace that cycles proves c conjugate into B, which is an error (the
    quantity is undefined there).

    One pass, O(|V(K)| L) for a circuit of L letters (times the block
    length for the window test). The states are the pairs (v, p); a state
    steps along the edge leaving v labelled circuit[p]. K is an immersion,
    so a state has at most one successor and at most one predecessor: the
    step is injective. Its orbits are therefore disjoint paths and cycles,
    and the runs from the entry states (no predecessor) cover every state
    on a path exactly once. The run from each entry state is walked once,
    and the states it covers are counted; fewer than |V(K)| L covered
    states means some state lies on a cycle, i.e. c is conjugate into B.
    """
    circuit = cyclic_core(ctx.G.expand(c.letters))[1]
    if not circuit:
        raise CountError("trivial class")
    K = ctx.K
    out, heads = K.step_tables()
    L = len(circuit)
    n_states = len(K.vertices) * L
    block = ctx.block
    rev = invert_letters(block)
    covered = 0
    best = 0
    for v in K.vertices:
        out_v = out[v]
        for p in range(L):
            if -circuit[p - 1] in out_v:
                continue  # not an entry state
            mu = []
            u, q = v, p
            budget = n_states + 1
            while budget:
                d = out[u].get(circuit[q])
                if d is None:
                    break
                mu.append(d)
                u = heads[d]
                q = q + 1 if q + 1 < L else 0
                budget -= 1
            if not budget:
                raise CountError("entry-state run exceeded budget")
            covered += len(mu) + 1
            best = max(best, _count_block(tuple(mu), block, rev))
    if covered < n_states:
        raise ConjugateIntoB("class is conjugate into B; count undefined")
    return CrossingCount(best)


# -- segment summaries -------------------------------------------------------

class _Tables:
    """K's step tables, the entry test and the block/reverse-block matcher.

    A window state is the longest suffix of the K-edges walked so far that
    is a proper prefix of the block or of its reverse (a KMP state for the
    two patterns). A window completes where a state of length q - 1 is
    extended to the block or its reverse, which is exactly where the last
    q edges are one of them: the windows count_i's scan counts.
    """

    def __init__(self, ctx):
        self.out, self.heads = ctx.K.step_tables()
        self.vertices = sorted(ctx.K.vertices)
        self.block = ctx.block
        self.rev = invert_letters(ctx.block)
        self.q = len(ctx.block)
        self.paths = {}          # summaries by path
        self._entries = {}
        self._moves = {}

    def entries_after(self, a):
        """Vertices v where (v, next position) has no predecessor after the
        letter a: the entry test of count_i."""
        got = self._entries.get(a)
        if got is None:
            got = self._entries[a] = tuple(
                v for v in self.vertices if -a not in self.out[v])
        return got

    def move(self, s, d):
        """Window state after the K-edge d, and 1 if a window completed."""
        got = self._moves.get((s, d))
        if got is None:
            new = s + (d,)
            hit = int(new == self.block or new == self.rev)
            for j in range(min(len(new), self.q - 1), -1, -1):
                suffix = new[len(new) - j:]
                if suffix == self.block[:j] or suffix == self.rev[:j]:
                    break
            got = self._moves[(s, d)] = (suffix, hit)
        return got

    def run(self, s, path):
        """(windows completed, final window state) along path from s."""
        hits = 0
        for d in path:
            s, hit = self.move(s, d)
            hits += hit
        return hits, s


class Summary(NamedTuple):
    """The trace of a segment of a circuit through K.

    through[v] = (exit vertex or None if the run dies, crossings, window
    state at the exit, the run's first q K-edges) for the run entering at
    K vertex v with an empty window; `_through` adjusts it for a run that
    enters mid-window. arrivals[u] = (crossings, window state) for the run
    that starts at an entry state inside the segment and leaves at u (the
    step is injective, so there is at most one per u). best is the most
    crossings of a run that starts and dies inside. last is the segment's
    last letter, which decides the entry states after it.
    """

    tables: _Tables
    last: int
    through: dict
    arrivals: dict
    best: int


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


def path_summary(ctx, path):
    """Summary of a nonempty explicit path, read off one walk from every
    K vertex at its start and one from every entry state inside it. The
    step is injective, so the runs are disjoint: at most |V(K)| |path|
    steps in all. Kept per context, since a program's explicit pieces
    repeat; a summary is never changed once built, so the cache hands out
    shared ones."""
    tb = ctx.tables
    got = tb.paths.get(path)
    if got is None:
        through = {v: _trace(tb, v, path, 0) for v in tb.vertices}
        arrivals = {}
        best = 0
        for p in range(1, len(path)):
            for v in tb.entries_after(path[p - 1]):
                u, c, t, _ = _trace(tb, v, path, p)
                if u is None:
                    best = max(best, c)
                else:
                    arrivals[u] = (c, t)
        got = tb.paths[path] = Summary(tb, path[-1], through, arrivals, best)
    return got


def _open_runs(S):
    """(vertex, crossings, window state) of each run from an entry state
    that is alive right after S: those that started inside S, and those
    that start there."""
    return ([(u, c, t) for u, (c, t) in S.arrivals.items()]
            + [(v, 0, ()) for v in S.tables.entries_after(S.last)])


def compose(S, T):
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


def close(W):
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
    if len(met) < len(W.tables.vertices):
        raise ConjugateIntoB("class is conjugate into B; count undefined")
    return best


def lipschitz_audit(A_gens_list, B_gens, G, forest, c):
    """Counts before and after a forest collapse staying in CVK^[A].

    The harness asserts i_before <= i_after <= i_before + 2.

    The cores are folded once, over G. The core of a subgroup over G/F is
    its core over G with the label preimage of F collapsed (Stallings,
    "Topology of finite graphs", 1983; criterion 4 checks it), so the
    context on G/F locates the A-cores and the block in the collapsed
    B-core from the collapsed A-cores. The locate step runs on them from
    scratch: a collapse can join two vertices of an embedded A-core through
    F-edges outside it, and then G/F is not in CVK^[A].

    G/F is not naturalized. A valence-2 vertex of G/F subdivides the edges
    of K and of the A-cores over it, one K-vertex with one edge in and one
    out for each pass of a core through it. That subdivides the block, the
    circuit and every run through K alike, and keeps the complement's
    edges minus its free vertices, so the count is the one on the natural
    representative (the differential test checks it against folding that
    representative from scratch).

    Each end counts against the one image of each A-core in its K
    (`_image`, which refuses an A-core with two images), so both ends
    count against the same conjugate of A.
    """
    K, A_cores = _fold(A_gens_list, B_gens, G)
    ctx1 = _locate(G, K, A_cores)
    labels = set(forest)
    ctx2 = _locate(G.collapse_marked(forest)[0], collapse_labeled(K, labels),
                   [collapse_labeled(KA, labels) for KA in A_cores])
    return count_i(ctx1, c).value, count_i(ctx2, c).value
