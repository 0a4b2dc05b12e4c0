"""The crossing-count i_{A,B}(c, G) and its Lipschitz/equivariance audits.

The count works at quotient level: K is the core of the B-cover of G, the
A-core(s) embed in K, and the rank count fixes the shape of the
complement, so one walk over it reads off the distinguished crossing
block E (a natural chain or loop, stored as simplicial directed edges;
`_block`). The axis of c is traced through K as a periodic line; each
maximal stay is a path, and crossings are complete traversals of the block.

The count has one engine, segment summaries of the trace: `path_summary`
for an explicit path, `compose` for a concatenation of summarized segments
and `close` for the cyclic word. `count_i` summarizes a class's circuit in
one walk and closes it; a class held as a straight-line program (the
witness rows) composes the summaries of its pieces first. A summary records,
for each K vertex, where the run entering there leaves the segment (or
that it dies inside) and its crossings; the runs that start inside the
segment and are still alive at its end; and the most crossings of a run
that starts and dies inside. Window states of the block matcher carry a
crossing across a junction. Each of the three is one loop: over the
path's runs, O(|V(K)| |path|) steps, or over the O(|V(K)|) runs alive at
a junction, each reading its exit straight off the next through map.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .covers import collapse_labeled, embeddings, stallings_core
from .marked import CertificateError
from .words import cyclic_core, invert_letters


class CountError(ValueError):
    pass


class ConjugateIntoB(CountError):
    """The traced class lives in B: the count is undefined."""


class CountCertificateError(CountError, CertificateError):
    """A certificate of the count failed on valid input: K is not an
    immersion, or its complement broke `_block`'s argument after the
    count check (the CLI's exit 3)."""


@dataclass
class CountingContext:
    G: object                # ambient MarkedGraph
    K: object                # LabeledGraph, core of the B-cover
    A_edge_sets: tuple       # frozenset of K-edge ids per embedded A-component
    A_vertex_sets: tuple
    block: tuple             # directed K-edges: the crossing block E
    shape: str               # "edge" | "loop" | "loop_at_core"

    def __post_init__(self):
        # built at once: the step tables and block matcher that summaries
        # share cost a one-shot count less than a cached_property would
        self.tables = _Tables(self)


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
    and its suffix from there is the block ("loop"). Input outside the
    hypotheses can break the count, which then refuses (CountError, exit
    2). Past it the argument uses only that K is a connected core graph,
    which the fold guarantees, so `_walk`'s two raises are certificates
    (CountCertificateError, exit 3).
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
    none is left; it must use them all, and if closed, end at start
    (`_block`'s argument)."""
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
        raise CountCertificateError("cycle walk did not close up over its "
                                    "cycle")
    if len(used) != len(edges):
        raise CountCertificateError("chain walk missed edges of its "
                                    "component")
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


# -- segment summaries -------------------------------------------------------

class _Entries(dict):
    """entries[a]: the K vertices v where (v, next position) has no
    predecessor after the letter a, i.e. -a does not leave v; filled per
    letter on first use, for the letters that end a segment where
    `compose` and `close` start runs."""

    __slots__ = ("out",)

    def __init__(self, out):
        self.out = out

    def __missing__(self, a):
        out = self.out
        got = self[a] = [v for v in out if -a not in out[v]]
        return got


class _Tables:
    """K's step tables, the entry table and the block/reverse-block matcher.

    A window state is the longest suffix of the K-edges walked so far that
    is a proper prefix of the block or of its reverse (a KMP state for the
    two patterns). A window completes where a state of length q - 1 is
    extended to the block or its reverse, which is exactly where the last
    q edges are one of them. From the empty state only the first edge of
    the block or of its reverse (`starts`) leads anywhere: any other K-edge
    leaves the state empty and completes no window, so `path_summary`
    skips the memo for it.

    `entries` is the entry table (`_Entries`); `moves` memoizes `move`,
    and the walkers read it inline.
    """

    __slots__ = ("out", "heads", "block", "rev", "q", "starts", "moves",
                 "entries")

    def __init__(self, ctx):
        self.out, self.heads = ctx.K.step_tables()
        self.block = ctx.block
        self.rev = invert_letters(ctx.block)
        self.q = len(ctx.block)
        self.starts = (self.block[0], self.rev[0])
        self.moves = {}
        self.entries = _Entries(self.out)

    def move(self, s, d):
        """Window state after the K-edge d, and 1 if a window completed,
        put into `moves`."""
        new = s + (d,)
        hit = int(new == self.block or new == self.rev)
        for j in range(min(len(new), self.q - 1), -1, -1):
            suffix = new[len(new) - j:]
            if suffix == self.block[:j] or suffix == self.rev[:j]:
                break
        got = self.moves[(s, d)] = (suffix, hit)
        return got

    def run(self, s, path):
        """(windows completed, final window state) along path from s."""
        hits = 0
        for d in path:
            s, hit = self.moves.get((s, d)) or self.move(s, d)
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


def _through(tb, entry, s):
    """(exit vertex or None, crossings, window state) of the run that the
    through entry `entry` records, entered with the nonempty window state s
    instead of an empty one. The window state changes only windows that
    end within the run's first q - 1 edges, and the exit state only if the
    run is shorter than q. With an empty s the walkers read the entry
    itself."""
    u, c, t, head = entry
    if len(head) < tb.q:
        c, t = tb.run(s, head)
    else:
        c += tb.run(s, head[:-1])[0] - tb.run((), head[:-1])[0]
    return u, c, t


def path_summary(ctx, path):
    """Summary of a nonempty explicit path, read off one loop over its
    runs: one from every K vertex at its start, which keeps its first q
    K-edges, and one from every entry state inside it that takes a step (a
    run that dies at once crosses nothing).

    The trace states are the pairs (v, p) of a K vertex and a position of
    the path; a state steps along the edge leaving v labelled path[p]. K
    is an immersion, so a state has at most one successor and at most one
    predecessor: the step is injective. An entry state inside the path has
    no predecessor (-path[p - 1] does not leave v), so no run steps onto
    it, and two runs that reach one state would give it two predecessors:
    the runs are disjoint, at most |V(K)| |path| steps in all, each one
    lookup in the step table and, unless the window state stays empty
    (`_Tables.starts`), one in the window-move memo."""
    tb = ctx.tables
    out, heads, q, moves, starts = tb.out, tb.heads, tb.q, tb.moves, \
        tb.starts
    through, arrivals, best = {}, {}, 0
    runs = [(v, 0) for v in out]
    runs += [(v, p) for p in range(1, len(path)) for v in out
             if -path[p - 1] not in out[v] and path[p] in out[v]]
    for v, p in runs:
        u, c, s, head = v, 0, (), []
        keep = 0 if p else q
        for a in path[p:]:
            d = out[u].get(a)
            if d is None:
                u = None
                break
            if keep:
                head.append(d)
                keep -= 1
            if s or d in starts:
                s, hit = moves.get((s, d)) or tb.move(s, d)
                c += hit
            u = heads[d]
        if not p:
            through[v] = (u, c, s, tuple(head))
        elif u is None:
            if c > best:
                best = c
        else:
            arrivals[u] = (c, s)
    return Summary(tb, path[-1], through, arrivals, best)


def compose(S, T):
    """Summary of the segment S followed by T, in one pass over S's runs:
    each run alive at S's end reads its exit off T's through map, and only
    a run that carries a window into T goes through `_through`. The open
    runs are S's arrivals and the entry states at T's start, those v with
    -S.last not in out[v], which start with an empty window. O(|V(K)|)
    lookups, whatever the lengths."""
    tb = S.tables
    q = tb.q
    Tt = T.through
    through = {}
    for v, (u, c, t, head) in S.through.items():
        if u is not None:
            entry = Tt[u]
            if len(head) < q:
                head = (head + entry[3])[:q]
            if t:
                u, c2, t = _through(tb, entry, t)
            else:
                u, c2, t, _ = entry
            c += c2
        through[v] = (u, c, t, head)
    best = max(S.best, T.best)
    arrivals = dict(T.arrivals)
    for u, (c, t) in S.arrivals.items():
        if t:
            u, c2, t = _through(tb, Tt[u], t)
        else:
            u, c2, t, _ = Tt[u]
        if u is None:
            best = max(best, c + c2)
        else:
            arrivals[u] = (c + c2, t)
    for v in tb.entries[S.last]:
        u, c, t, _ = Tt[v]
        if u is None:
            best = max(best, c)
        else:
            arrivals[u] = (c, t)
    return Summary(tb, T.last, through, arrivals, best)


def close(W):
    """count_i's value for the cyclic word whose one period W summarizes:
    the most complete crossings of the block by the periodic trace of the
    word through K, over all start positions and phases.

    The trace states are the pairs (v, p) of a K vertex and a position of
    the word, stepping as in `path_summary`; the step is injective, so its
    orbits are disjoint paths and cycles, and the runs from the entry
    states (no predecessor) cover every state on a path exactly once.
    Every run from an entry state (W's arrivals, and the entry states at
    its start) is followed lap by lap through W's through map until it
    dies. A K vertex at W's start that a second entry run reaches would be
    a state with two predecessors, so "two entry runs meet" is the
    certificate that the step is injective (CountCertificateError, exit
    3), and the laps meet each K vertex at most once, O(|V(K)|) lookups in
    all. Every orbit that does not die passes W's start, so the states
    there that no entry run meets lie on cycles of the step: the trace of
    the word is periodic, the class is conjugate into B and the count is
    undefined (ConjugateIntoB). This coverage test is the count's one
    finiteness test.
    """
    tb = W.tables
    Wt = W.through
    best = W.best
    met = set()
    runs = [(u, c, t) for u, (c, t) in W.arrivals.items()]
    runs += [(v, 0, ()) for v in tb.entries[W.last]]
    for u, c, t in runs:
        while u is not None:
            if u in met:
                raise CountCertificateError("two entry runs meet: the step "
                                            "is not injective")
            met.add(u)
            if t:
                u, c2, t = _through(tb, Wt[u], t)
            else:
                u, c2, t, _ = Wt[u]
            c += c2
        if c > best:
            best = c
    if len(met) < len(Wt):
        raise ConjugateIntoB("class is conjugate into B; count undefined")
    return best


def count_loop(ctx, loop):
    """count_i's value for the class of the closed G-edge path loop: the
    summary of its cyclic core, closed. Every rotation of the circuit has
    the same trace states, up to a shift of the phase, so the core is
    summarized as it is read, not from a least rotation."""
    circuit = cyclic_core(loop)[1]
    if not circuit:
        raise CountError("trivial class")
    return close(path_summary(ctx, circuit))


def count_i(ctx, c):
    """i_{A,B}(c, G): the most complete crossings of the block by the
    periodic trace of c through K (`count_loop`, `close`). A trace that
    cycles proves c conjugate into B, where the quantity is undefined
    (ConjugateIntoB)."""
    return count_loop(ctx, ctx.G.expand(c.letters))


def lipschitz_audit(A_gens_list, B_gens, G, forest, c):
    """Counts (i, i') before and after a forest collapse staying in
    CVK^[A], certified to satisfy i <= i' <= i + 2, the crossing count's
    2-Lipschitz bound; CountCertificateError otherwise.

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
    i1, i2 = count_i(ctx1, c), count_i(ctx2, c)
    if not i1 <= i2 <= i1 + 2:
        raise CountCertificateError("bracket violated: %d -> %d" % (i1, i2))
    return i1, i2
