"""Stallings folding over a signed alphabet, with optional history tracking.

The alphabet is {1..m} with -a meaning a reversed; a "word" is a sequence of
signed labels. Folding the wedge of loops spelled by a list of words yields
the immersed graph of the subgroup they generate (over the rose on the
alphabet, or over a marked graph's edge set when labels are graph edges).

`Folder` is the one folding engine. Each vertex keeps its directions by
label, so a fold is found and made without scanning the edges, and merging
two vertices moves the smaller incidence map into the larger one (Touikan,
"A fast algorithm for Stallings' folding process", IJAC 2006). In history
mode, and for `spine.fold_path`, which drives the engine one fold at a
time, whole loops are attached at the base and folded in one fixed order:
at the least vertex with two directions of one label, the first such pair
in (|eid|, sign) order. Plain folds (`fold_words` without history) read
each word through the graph folded so far and attach only the unread
middle (`Folder.add_word`), so they make only the folds the new piece
starts. Either way the result is numbered by first visit from the base,
so it does not depend on the order the folds were made in.

`fold_words` returns the folded engine. The engine prunes its own incidence
maps for the Stallings core (`Folder.core`, `Folder.based_core`) and then
numbers and emits the graph in one first-visit walk from the base
(`Folder._emit`), leaving out the pruned edges: each core is built once,
and keeps the numbers the whole folded graph would give its edges and
vertices. A caller that needs only where the core's edges run, as
membership does, takes `Folder.core_edges`: the same pruning, the edges
read off the engine's own vertices, with no walk, no numbering and no
`LabeledGraph`. Markings and automorphisms are certified by `fold_onto`,
which asks whether the fold is a copy of a given graph and reads the
transfer words off the engine's own edges, again with no walk.

History mode attaches to every edge a transfer word over a second alphabet
x_1..x_k (one letter per input word) such that the transfer product along any
closed path at the base, with x_i read as the i-th input word, spells that
path. Folds keep the invariant via gauge moves at non-base vertices, which
touch only the edges at the gauged vertex. When the input words are a free
basis of the subgroup they generate, no fold drops rank and the transfer
words are the unique expressions in that basis; this is what computes
inverse automorphisms and generator expressions exactly.
"""

import heapq

from .words import reduce_letters, invert_letters


class FoldError(ValueError):
    pass


def _mul(*vals):
    out = []
    for v in vals:
        out.extend(v)
    red, _ = reduce_letters(out)
    return red


def _order(d):
    """Position of a direction in the fold order: by |eid|, +eid first."""
    return abs(d), d < 0


def _first_collision(out):
    """First pair of directions with one label, in fold order, or None."""
    best = None
    for ds in out.values():
        if len(ds) > 1:
            d1, d2 = sorted(ds, key=_order)[:2]
            if best is None or _order(d2) < _order(best[1]):
                best = d1, d2
    return best


class _Vertex:
    __slots__ = ("id", "out", "valence")

    def __init__(self, vid):
        self.id = vid
        self.out = {}  # signed label -> directions leaving this vertex
        self.valence = 0


class Folder:
    """A graph being folded. Edges are eid -> [origin, terminus, signed
    label, transfer word]; vertex 0 is the base, and a merged vertex keeps
    the smaller id of the two, so the base keeps id 0."""

    def __init__(self, track_history=False):
        self.track = track_history
        self.edges = {}
        self.vertices = {}
        self.next_vertex = 0
        self.next_edge = 1
        self._pending = []  # heap of vertex ids that may have a collision
        self.base = self._new_vertex()

    def _new_vertex(self):
        v = _Vertex(self.next_vertex)
        self.vertices[v.id] = v
        self.next_vertex += 1
        return v

    def _link(self, v, label, d):
        ds = v.out.setdefault(label, [])
        ds.append(d)
        v.valence += 1
        if len(ds) == 2:
            heapq.heappush(self._pending, v.id)

    def _unlink(self, v, label, d):
        ds = v.out[label]
        ds.remove(d)
        if not ds:
            del v.out[label]
        v.valence -= 1

    def add_loop(self, labels, val=()):
        """Attach a loop at the base spelling `labels`, its first edge
        carrying the transfer word `val`; returns the new edge ids."""
        return self._add_arc(self.base, labels, self.base, val)[0]

    def _add_arc(self, start, labels, end=None, val=()):
        """Lay an arc from `start` spelling `labels` to `end` (a new vertex
        when None), its first edge carrying `val`; returns (new edge ids,
        end vertex). With no labels the arc is the vertex `start`."""
        eids = []
        prev = start
        last = len(labels) - 1
        for i, a in enumerate(labels):
            nxt = end if i == last and end is not None else self._new_vertex()
            eid = self.next_edge
            self.next_edge += 1
            self.edges[eid] = [prev, nxt, a, val if i == 0 else ()]
            self._link(prev, a, eid)
            self._link(nxt, -a, -eid)
            eids.append(eid)
            prev = nxt
        return tuple(eids), prev

    def add_word(self, labels):
        """Add the loop at the base spelling `labels` to the folded graph,
        without history, attaching only what the graph does not already
        read (Kapovich and Myasnikov, "Stallings foldings and subgroups of
        free groups", J. Algebra 248, 2002). The word is read forward from
        the base to u, and its inverse backward from the base to x, the two
        reads not passing each other. If u is x, the longest prefix of the
        unread middle that cancels against its suffix is laid down as an arc
        from u and the rest closes into a loop at the arc's end; otherwise
        the middle is an arc from u to x, and if nothing is left unread u
        and x merge. `fold_all` then makes only the folds this piece starts.
        """
        i, j = 0, len(labels)
        u = x = self.base
        while i < j and (ds := u.out.get(labels[i])):
            u = self._head(ds[0])
            i += 1
        while j > i and (ds := x.out.get(-labels[j - 1])):
            x = self._head(ds[0])
            j -= 1
        if u is not x:
            if i < j:
                self._add_arc(u, labels[i:j], x)
            else:
                self._merge(u, x)
            return
        k = 0
        while i + 2 * k + 1 < j and labels[i + k] == -labels[j - 1 - k]:
            k += 1
        _, y = self._add_arc(u, labels[i:i + k])
        self._add_arc(y, labels[i + k:j - k], y)

    def _head(self, d):
        e = self.edges[abs(d)]
        return e[1] if d > 0 else e[0]

    def _dval(self, d):
        val = self.edges[abs(d)][3]
        return val if d > 0 else invert_letters(val)

    def edge_ends(self):
        """eid -> (origin id, terminus id), in eid order."""
        return {eid: (o.id, t.id) for eid, (o, t, _, _) in self.edges.items()}

    def next_fold(self):
        """The next fold (v, d1, d2), or None when the graph is folded: v is
        the least vertex with two directions of one label, and d1, d2 the
        first such pair in (|eid|, sign) order."""
        pending = self._pending
        while pending:
            v = self.vertices.get(pending[0])
            pair = _first_collision(v.out) if v is not None else None
            if pair is not None:
                return (v.id,) + pair
            heapq.heappop(pending)
        return None

    def fold(self, d1, d2):
        """Identify two directions with the same tail and label: edge |d2|
        goes, and the heads of d1 and d2 merge."""
        u1, u2 = self._head(d1), self._head(d2)
        if self.track and u1 is not u2:
            v, base = self._head(-d1), self.base
            p1, p2 = self._dval(d1), self._dval(d2)
            if u2 is not base and (u2 is not v or u1 is base):
                self._gauge(u2, _mul(invert_letters(p2), p1))
            else:
                self._gauge(u1, _mul(invert_letters(p1), p2))
            if self._dval(d1) != self._dval(d2):
                raise FoldError("gauge failed to equalize transfer words")
        o, t, label, _ = self.edges.pop(abs(d2))
        self._unlink(o, label, abs(d2))
        self._unlink(t, -label, -abs(d2))
        if u1 is not u2:
            self._merge(u1, u2)

    def _gauge(self, w, g):
        """Change transfer coordinates at the non-base vertex w by g."""
        if not g:
            return
        ginv = invert_letters(g)
        for eid in {abs(d) for ds in w.out.values() for d in ds}:
            e = self.edges[eid]
            if e[0] is w and e[1] is w:
                e[3] = _mul(ginv, e[3], g)
            elif e[0] is w:
                e[3] = _mul(ginv, e[3])
            else:
                e[3] = _mul(e[3], g)

    def _merge(self, a, b):
        """Merge vertex b into a: the smaller incidence map moves into the
        larger, and the merged vertex takes the smaller id."""
        vid = min(a.id, b.id)
        if a.valence < b.valence:
            a, b = b, a
        for label, ds in b.out.items():
            for d in ds:
                self.edges[abs(d)][0 if d > 0 else 1] = a
            a.out.setdefault(label, []).extend(ds)
        a.valence += b.valence
        del self.vertices[b.id]
        del self.vertices[a.id]
        a.id = vid
        self.vertices[vid] = a
        if b is self.base:
            self.base = a
        heapq.heappush(self._pending, vid)

    def fold_all(self):
        while (fold := self.next_fold()) is not None:
            self.fold(fold[1], fold[2])

    def _emit(self, dropped, base=0):
        """(graph, enum): the folded graph as a LabeledGraph, every edge
        oriented along its positive label, leaving out the edges whose ids
        are in `dropped`. Vertices are numbered 0.. and edges 1.. in the
        order a breadth-first walk of the whole folded graph from the base
        first meets them, taking each vertex's directions in (|label|, sign)
        order (`_order`), so the numbering does not depend on the order the
        folds were made in, and label-isomorphic based graphs emit
        identically; the survivors of `dropped` keep their numbers. enum
        maps each engine edge id to its signed number (negative when the
        engine edge runs against its label)."""
        vnum = {self.base: 0}
        enum = {}
        edges = {}
        queue = [self.base]
        for v in queue:
            out = v.out
            # (|label|, sign) order: sorting by abs is stable, so +a stays
            # ahead of -a from the descending sort
            for label in sorted(sorted(out, reverse=True), key=abs):
                d = out[label][0]
                eid = abs(d)
                if eid in enum:
                    continue
                o, t, lab, _ = self.edges[eid]
                h = t if d > 0 else o
                if h not in vnum:
                    vnum[h] = len(vnum)
                    queue.append(h)
                k = len(enum) + 1
                enum[eid] = k if lab > 0 else -k
                if eid in dropped:
                    continue
                edges[k] = ((vnum[t], vnum[o], -lab) if lab < 0
                            else (vnum[o], vnum[t], lab))
        return LabeledGraph._derived(edges, base), enum

    def _prune(self):
        """(dropped, tail) for the Stallings core: `dropped` holds the ids of
        the edges deleted by repeatedly deleting every leaf but the base,
        and `tail` the directions of the arc that then runs from the base to
        the first vertex where it would stop being a leaf (empty when the
        base lies on the core). The folded graph itself is left as it is.
        Raises FoldError when nothing is left: the core is trivial."""
        base = self.base
        live = {}  # vertex -> valence left, for the vertices pruning touched
        dropped = set()
        leaves = [v for v in self.vertices.values()
                  if v.valence == 1 and v is not base]
        while leaves:
            v = leaves.pop()
            if live.get(v, 1) != 1:
                continue
            live[v] = 0
            d = next(d for ds in v.out.values() for d in ds
                     if abs(d) not in dropped)
            dropped.add(abs(d))
            h = self._head(d)
            k = live[h] = live.get(h, h.valence) - 1
            if k == 1 and h is not base:
                leaves.append(h)
        # a nonempty remainder has a vertex of valence 1 besides the base
        # unless it holds a cycle, so pruning a tree leaves nothing
        if len(dropped) == len(self.edges):
            raise FoldError("trivial core")
        tail = []
        v, back = base, None
        while len(outs := [d for ds in v.out.values() for d in ds
                           if d != back and abs(d) not in dropped]) == 1:
            tail.append(outs[0])
            back = -outs[0]
            v = self._head(outs[0])
        return dropped, tail

    def core(self):
        """The Stallings core, unbased: the emitted graph with every hanging
        tree pruned away, the survivors keeping their numbers."""
        dropped, tail = self._prune()
        return self._emit(dropped.union(map(abs, tail)), None)[0]

    def core_edges(self):
        """The Stallings core's edges as (origin id, terminus id, positive
        label), each oriented along its label: what `core` numbers, read
        off the engine's own vertices with no walk and no numbering."""
        dropped, tail = self._prune()
        dropped.update(map(abs, tail))
        return [(t.id, o.id, -lab) if lab < 0 else (o.id, t.id, lab)
                for eid, (o, t, lab, _) in self.edges.items()
                if eid not in dropped]

    def based_core(self):
        """(core, tail, attach, based graph): the based graph is the
        emitted graph pruned down to the core and the hanging arc from the
        base to it, the nearest-point arc; `tail` is that arc as directions
        of the based graph, `attach` its core end, and the core is the based
        graph without it, keeping the base only if the base lies on it.
        Numbers are those of the whole folded graph's walk."""
        dropped, tail = self._prune()
        based, enum = self._emit(dropped)
        tail = tuple(enum[d] if d > 0 else -enum[-d] for d in tail)
        arc = set(map(abs, tail))
        edges = {k: e for k, e in based.edges.items() if k not in arc}
        attach = based.head(tail[-1]) if tail else based.base
        return (LabeledGraph._derived(edges, None if tail else based.base),
                tail, attach, based)


class LabeledGraph:
    """Immutable folded graph: an immersion over the label alphabet.

    Edges: eid -> (origin, terminus, positive label). Directed edges are
    +eid/-eid. `base` may be None for unbased (core) forms. The folding
    engine emits cores already pruned and numbered.
    """

    def __init__(self, edges, base):
        self._fill(dict(edges), base)
        # two directions with one label at a vertex share one map entry
        if sum(map(len, self._out.values())) != 2 * len(self.edges):
            raise FoldError("not an immersion")

    @classmethod
    def _derived(cls, edges, base):
        """The graph with no check, for one derived from a folded graph
        (cores); it keeps the given dict."""
        G = object.__new__(cls)
        G._fill(edges, base)
        return G

    def _fill(self, edges, base):
        self.edges = edges
        self.base = base
        self.vertices = set()
        for o, t, _ in edges.values():
            self.vertices.add(o)
            self.vertices.add(t)
        if base is not None:
            self.vertices.add(base)
        self._out = out = {v: {} for v in self.vertices}
        for eid, (o, t, lab) in edges.items():
            out[o][lab] = eid
            out[t][-lab] = -eid
        self.rank = len(edges) - len(self.vertices) + (1 if self.vertices else 0)

    # -- structure ---------------------------------------------------------

    def head(self, d):
        o, t, _ = self.edges[abs(d)]
        return t if d > 0 else o

    def tail(self, d):
        o, t, _ = self.edges[abs(d)]
        return o if d > 0 else t

    def label_of(self, d):
        lab = self.edges[abs(d)][2]
        return lab if d > 0 else -lab

    def valence(self, v):
        return len(self._out[v])

    def step(self, v, signed_label):
        """Directed edge leaving v with the given signed label, or None."""
        return self._out[v].get(signed_label)

    def directions(self, v):
        return list(self._out[v].values())

    def step_tables(self):
        """(out, heads) for tight walks: out[v][signed label] is the
        directed edge leaving v with that label, heads[d] the head of d.
        `out` is the graph's own map; callers must not change it."""
        heads = {}
        for eid, (o, t, _) in self.edges.items():
            heads[eid] = t
            heads[-eid] = o
        return self._out, heads

    def trace(self, v, letters):
        """Follow signed labels from v; returns (path, end, consumed)."""
        path = []
        cur = v
        for i, a in enumerate(letters):
            d = self.step(cur, a)
            if d is None:
                return path, cur, i
            path.append(d)
            cur = self.head(d)
        return path, cur, len(letters)

    def path_labels(self, path):
        return tuple([self.label_of(d) for d in path])


def fold_words(word_list, track_history=False):
    """Fold the wedge of loops spelling the given signed-label words and
    return the folded `Folder`; take its `core`, `core_edges` or
    `based_core`.

    With history every loop is attached whole and folded in the fixed fold
    order; without, each word in turn is read through the graph folded so
    far (`Folder.add_word`). The folded graph is the same either way, and
    so are the cores its walk numbers."""
    fo = Folder(track_history)
    for i, w in enumerate(word_list):
        if track_history:
            fo.add_loop(tuple(w), (i + 1,))
        else:
            fo.add_word(tuple(w))
            fo.fold_all()
    fo.fold_all()
    return fo


def fold_onto(word_list, graph, base, track_history=False):
    """Fold the loops spelled by `word_list` over the edge alphabet of
    `graph` and return each edge id's transfer word, oriented along its
    label, when the fold is a copy of `graph` based at `base`; else None.

    The copy test reads the engine's own edges: as many edges and
    vertices as `graph`, each edge id on exactly one edge, and the base's
    directions those of `base`. (For closed paths at `base` the fold
    immerses into `graph` base to base, so these make it an isomorphism.)
    Without history every transfer word is empty. With it, the words are
    then a free basis of pi_1, and the transfer words along a closed path
    at the base spell its element in that basis, x_i for word i."""
    fo = fold_words(word_list, track_history)
    if (len(fo.edges) != len(graph.edges)
            or len(fo.vertices) != len(graph.vertices)
            or set(fo.base.out) != set(graph.directions(base))):
        return None
    vals = {abs(lab): val if lab > 0 else invert_letters(val)
            for _, _, lab, val in fo.edges.values()}
    return vals if vals.keys() == graph.edges.keys() else None
