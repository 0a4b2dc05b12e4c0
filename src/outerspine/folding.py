"""Stallings folding over a signed alphabet, with optional history tracking.

The alphabet is {1..m} with -a meaning a reversed; a "word" is a sequence of
signed labels. Folding the wedge of loops spelled by a list of words yields
the immersed graph of the subgroup they generate (over the rose on the
alphabet, or over a marked graph's edge set when labels are graph edges).

History mode attaches to every edge a transfer word over a second alphabet
x_1..x_k (one letter per input word) such that the transfer product along any
closed path at the base equals the expression of that path's group element in
terms of the input words. Folds keep the invariant via gauge moves at
non-base vertices; this is what computes inverse automorphisms and
generator expressions exactly.
"""

from .words import reduce_letters, invert_letters


class FoldError(ValueError):
    pass


def _mul(*vals):
    out = []
    for v in vals:
        out.extend(v)
    red, _ = reduce_letters(out)
    return red


class _Fold:
    """Mutable state for one folding run."""

    def __init__(self, track_history):
        self.parent = {}
        self.edges = {}  # eid -> [o, t, label, val]
        self.alive = set()
        self.next_vertex = 0
        self.next_edge = 1
        self.base = self._new_vertex()
        self.track = track_history

    def _new_vertex(self):
        v = self.next_vertex
        self.next_vertex += 1
        self.parent[v] = v
        return v

    def find(self, v):
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra

    def add_loop(self, letters, hist_letter):
        """Attach a loop at the base spelling `letters`."""
        if not letters:
            return
        prev = self.base
        for i, a in enumerate(letters):
            last = i == len(letters) - 1
            nxt = self.base if last else self._new_vertex()
            val = (hist_letter,) if (self.track and i == 0) else ()
            eid = self.next_edge
            self.next_edge += 1
            if a > 0:
                self.edges[eid] = [prev, nxt, a, val]
            else:
                self.edges[eid] = [nxt, prev, -a, invert_letters(val)]
            self.alive.add(eid)
            prev = nxt

    def _directions_at(self, v):
        """Directed edges leaving class v: list of (signed_label, eid, sign, head)."""
        out = []
        for eid in self.alive:
            o, t, lab, _ = self.edges[eid]
            if self.find(o) == v:
                out.append((lab, eid, 1, self.find(t)))
            if self.find(t) == v:
                out.append((-lab, eid, -1, self.find(o)))
        return out

    def _dval(self, eid, sign):
        val = self.edges[eid][3]
        return val if sign > 0 else invert_letters(val)

    def _gauge(self, w, g):
        """Transfer-word change of coordinates at vertex class w != base."""
        if not g:
            return
        ginv = invert_letters(g)
        for eid in self.alive:
            o, t, lab, val = self.edges[eid]
            at_o = self.find(o) == w
            at_t = self.find(t) == w
            if at_o and at_t:
                self.edges[eid][3] = _mul(ginv, val, g)
            elif at_o:
                self.edges[eid][3] = _mul(ginv, val)
            elif at_t:
                self.edges[eid][3] = _mul(val, g)

    def fold_all(self):
        queue = {self.find(self.base)}
        for eid in self.alive:
            o, t, _, _ = self.edges[eid]
            queue.add(self.find(o))
            queue.add(self.find(t))
        while queue:
            v = self.find(queue.pop())
            seen = {}
            redo = False
            for lab, eid, sign, head in self._directions_at(v):
                if lab in seen:
                    self._fold_pair(v, seen[lab], (eid, sign, head))
                    queue.add(self.find(v))
                    queue.add(self.find(head))
                    redo = True
                    break
                seen[lab] = (eid, sign, head)
            if redo:
                queue.add(v)

    def _fold_pair(self, v, d1, d2):
        e1, s1, u1 = d1
        e2, s2, u2 = d2
        u1, u2 = self.find(u1), self.find(u2)
        base = self.find(self.base)
        if self.track:
            v1 = self._dval(e1, s1)
            v2 = self._dval(e2, s2)
            if u1 == u2:
                # Relation fold: would drop rank. Inputs in history mode are
                # verified bases, where this never happens.
                if v1 != v2:
                    raise FoldError("relation fold with mismatched transfer words")
            elif u2 != base and u2 != v:
                self._gauge(u2, _mul(invert_letters(v2), v1))
            elif u1 != base and u1 != v:
                self._gauge(u1, _mul(invert_letters(v1), v2))
            elif u1 == base and u2 == v:
                # d2 is a loop at v; gauge at v solves g = v2^-1 v1.
                self._gauge(v, _mul(invert_letters(v2), v1))
            elif u2 == base and u1 == v:
                self._gauge(v, _mul(invert_letters(v1), v2))
            else:
                raise FoldError("unhandled gauge configuration")
            v1b = self._dval(e1, s1)
            v2b = self._dval(e2, s2)
            if v1b != v2b:
                raise FoldError("gauge failed to equalize transfer words")
        if u1 != u2:
            self.union(u1, u2)
        if e1 != e2:
            self.alive.discard(e2)

    def snapshot(self):
        vmap = {}
        verts = set()
        for eid in self.alive:
            o, t, lab, val = self.edges[eid]
            verts.add(self.find(o))
            verts.add(self.find(t))
        verts.add(self.find(self.base))
        for i, v in enumerate(sorted(verts)):
            vmap[v] = i
        edges = {}
        vals = {} if self.track else None
        for eid in sorted(self.alive):
            o, t, lab, val = self.edges[eid]
            edges[eid] = (vmap[self.find(o)], vmap[self.find(t)], lab)
            if self.track:
                vals[eid] = val
        return LabeledGraph(edges, vmap[self.find(self.base)], vals)


class LabeledGraph:
    """Immutable folded graph: an immersion over the label alphabet.

    Edges: eid -> (origin, terminus, positive label). Directed edges are
    +eid/-eid. `base` may be None for unbased (core) forms.
    """

    def __init__(self, edges, base, vals=None):
        self.edges = dict(edges)
        self.base = base
        self.vals = dict(vals) if vals else None
        self.vertices = set()
        for o, t, _ in self.edges.values():
            self.vertices.add(o)
            self.vertices.add(t)
        if base is not None:
            self.vertices.add(base)
        self._out = {v: {} for v in self.vertices}
        for eid, (o, t, lab) in self.edges.items():
            if lab in self._out[o] or -lab in self._out[t]:
                raise FoldError("not an immersion")
            self._out[o][lab] = eid
            self._out[t][-lab] = -eid
        self.rank = len(self.edges) - len(self.vertices) + (1 if self.vertices else 0)

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
        return tuple(self.label_of(d) for d in path)

    def dval(self, d):
        val = self.vals[abs(d)]
        return val if d > 0 else invert_letters(val)

    def transfer(self, path):
        """Transfer word of a path (closed paths at base give exact values)."""
        return _mul(*[self.dval(d) for d in path])

    def is_connected(self):
        if not self.vertices:
            return True
        seen = {next(iter(self.vertices))}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for d in self.directions(v):
                h = self.head(d)
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        return seen == self.vertices

    # -- pruning -----------------------------------------------------------

    def pruned(self, keep=()):
        """Iteratively delete valence-1 vertices not in `keep`."""
        alive = set(self.edges)
        deg = {v: 0 for v in self.vertices}
        for eid in alive:
            o, t, _ = self.edges[eid]
            deg[o] += 1
            deg[t] += 1
        changed = True
        gone = set()
        while changed:
            changed = False
            for v in list(deg):
                if v in keep or v in gone:
                    continue
                if deg[v] == 1:
                    eid = next(e for e in alive
                               if self.edges[e][0] == v or self.edges[e][1] == v)
                    o, t, _ = self.edges[eid]
                    alive.discard(eid)
                    deg[o] -= 1
                    deg[t] -= 1
                    gone.add(v)
                    changed = True
                elif deg[v] == 0 and (self.base is None or v != self.base):
                    gone.add(v)
                    changed = True
        edges = {eid: self.edges[eid] for eid in alive}
        vals = {eid: self.vals[eid] for eid in alive} if self.vals else None
        base = self.base if (self.base is not None and self.base not in gone) else None
        return LabeledGraph(edges, base, vals)

    def based_core_and_tail(self):
        """(core graph, tail path from base, attachment vertex q).

        The tail is the hanging arc from the base to the core; it is empty
        when the base already lies in the core.
        """
        if self.base is None:
            raise FoldError("graph has no base")
        based = self.pruned(keep=(self.base,))
        core = based.pruned()
        if not core.edges:
            raise FoldError("trivial core")
        tail = []
        cur = self.base
        used = None
        while cur not in core.vertices:
            outs = [d for d in based.directions(cur) if d != used]
            if len(outs) != 1:
                raise FoldError("tail is not an arc")
            d = outs[0]
            tail.append(d)
            used = -d
            cur = based.head(d)
        return core, tuple(tail), cur, based


def fold_words(word_list, track_history=False):
    """Fold the wedge of loops spelling the given signed-label words."""
    st = _Fold(track_history)
    for i, w in enumerate(word_list):
        st.add_loop(tuple(w), i + 1)
    st.fold_all()
    return st.snapshot()


def is_full_rose(gr, n):
    """True iff the folded graph is the rank-n rose with one petal per label."""
    if len(gr.edges) != n:
        return False
    labels = set()
    for o, t, lab in gr.edges.values():
        if o != gr.base or t != gr.base:
            return False
        labels.add(lab)
    return labels == set(range(1, n + 1))


def rose_petal_values(gr, n):
    """Transfer words of the rose petals, indexed by label."""
    out = []
    for i in range(1, n + 1):
        d = gr.step(gr.base, i)
        if d is None:
            raise FoldError("no rose petal labelled %d" % i)
        out.append(gr.dval(d))
    return out
