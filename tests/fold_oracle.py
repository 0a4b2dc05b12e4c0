"""Test oracle: the two folding machines the library used before it had one
engine. `_Fold` scanned every live edge for each fold (quadratic) and took
folds from an unordered queue; `_FoldState` was the spine's own fold loop
(least vertex, first label collision in |eid| order). `snapshot` is a
folded engine's whole graph, numbered by first visit from the base as its
cores are, and `canonical` renumbers any folded graph the same way, so
graphs folded in different orders compare exactly. `pruned` and
`based_core_and_tail` are the cores as they were cut from a snapshot, in
two prunings, before the engine pruned and numbered each core in one walk;
`Folded` serves them in place of a folded engine. `check_folded_is_graph`,
`inverse_marking_values`, `is_full_rose` and `rose_petal_values` are the
checks that a fold is a copy of a graph, and its transfer words, as they
were read off a snapshot before `folding.fold_onto`. The folding tests
import this module.
"""

from outerspine import folding, graphs
from outerspine.folding import FoldError, LabeledGraph, _mul
from outerspine.marked import MarkedGraph, MarkingError, equivalent
from outerspine.spine import (SpineError, SpinePath, SpineStep, _hulls,
                              _tree_collapse_to_rose)
from outerspine.words import invert_letters, substitute


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
        return tracked(edges, vmap[self.find(self.base)], vals)



def fold_words(word_list, track_history=False):
    st = _Fold(track_history)
    for i, w in enumerate(word_list):
        st.add_loop(tuple(w), i + 1)
    st.fold_all()
    return st.snapshot()


def tracked(edges, base, vals):
    """The LabeledGraph of `edges` carrying `vals`, its edges' transfer
    words along their labels (None for a fold without history); the
    library's graphs carry none."""
    gr = LabeledGraph(edges, base)
    gr.vals = vals
    return gr


def snapshot(folder):
    """The folded graph of a `folding.Folder` as a LabeledGraph, every edge
    along its positive label, numbered as its cores are: by first visit
    in a breadth-first walk from the base; with the engine's transfer
    words when it tracks history."""
    gr, enum = folder._emit(())
    vals = None
    if folder.track:
        vals = {}
        for eid, k in enum.items():
            val = folder.edges[eid][3]
            vals[abs(k)] = val if k > 0 else invert_letters(val)
    return tracked(gr.edges, gr.base, vals)


def dval(gr, d):
    """Transfer word of the direction d of a tracked LabeledGraph."""
    val = gr.vals[abs(d)]
    return val if d > 0 else invert_letters(val)


def check_folded_is_graph(folded, graph, base):
    """MarkedGraph._check_folded_is_graph as it was, for the graph and
    basepoint of a marking: raises MarkingError unless the snapshot
    `folded` is a copy of `graph` with its base at `base`."""
    # a rank-dropping (relation) fold leaves every edge once but fewer
    # loops, and its transfer words are then no inverse marking
    if (len(folded.edges) != len(graph.edges)
            or folded.rank != graph.rank):
        raise MarkingError("marking images do not generate pi_1")
    labels = {}
    for eid, (o, t, lab) in folded.edges.items():
        if lab in labels:
            raise MarkingError("marking fold duplicated an edge")
        labels[lab] = (o, t)
    if set(labels) != set(graph.edges):
        raise MarkingError("marking fold missed edges")
    base_labels = {folded.label_of(d) for d in folded.directions(folded.base)}
    if base_labels != set(graph.directions(base)):
        raise MarkingError("marking fold base mismatch")


def inverse_marking_values(marking, graph, base):
    """MarkedGraph.inverse_marking_values as it was: the history fold's
    snapshot checked, then each edge's transfer word by label."""
    folded = snapshot(folding.fold_words(marking, track_history=True))
    check_folded_is_graph(folded, graph, base)
    return {lab: dval(folded, eid)
            for eid, (o, t, lab) in folded.edges.items()}


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
        out.append(dval(gr, d))
    return out


def canonical(gr):
    """A based folded graph renumbered by first visit: vertices 0.. and
    edges 1.. in the order a breadth-first walk from the base first meets
    them, each vertex's directions taken by |label|, the positive label
    first. Label-isomorphic based graphs become identical, transfer words
    included."""
    vnum = {gr.base: 0}
    enum = {}
    queue = [gr.base]
    for v in queue:
        for d in sorted(gr.directions(v),
                        key=lambda d: (abs(gr.label_of(d)), gr.label_of(d) < 0)):
            h = gr.head(d)
            if h not in vnum:
                vnum[h] = len(vnum)
                queue.append(h)
            enum.setdefault(abs(d), len(enum) + 1)
    edges = {enum[eid]: (vnum[o], vnum[t], lab)
             for eid, (o, t, lab) in gr.edges.items()}
    vals = {enum[eid]: val for eid, val in gr.vals.items()} if gr.vals else None
    return tracked(edges, 0, vals)


class _FoldState:
    """Subdivided graph mapping edge-per-edge onto the target rose."""

    def __init__(self, source_rose, images):
        self.base = 0
        self.next_vertex = 1
        self.edges = {}
        self.gmap = {}
        chain_of = {}
        next_eid = 1
        for petal, path in sorted(images.items()):
            if not path:
                raise SpineError("petal image must be nonempty")
            prev = self.base
            chain = []
            for i, d in enumerate(path):
                nxt = self.base if i == len(path) - 1 else self._new_vertex()
                self.edges[next_eid] = (prev, nxt)
                self.gmap[next_eid] = d
                chain.append(next_eid)
                prev = nxt
                next_eid += 1
            chain_of[petal] = tuple(chain)
        self.next_eid = next_eid
        self.marking = [substitute(p, chain_of)[0] for p in source_rose.marking]

    def _new_vertex(self):
        v = self.next_vertex
        self.next_vertex += 1
        return v

    def marked(self):
        verts = {self.base}
        for o, t in self.edges.values():
            verts.update((o, t))
        g = graphs.CoreGraph(sorted(verts), dict(self.edges))
        return MarkedGraph(g, self.base, self.marking)

    def directions(self, v):
        out = []
        for eid, (o, t) in self.edges.items():
            if o == v:
                out.append(eid)
            if t == v:
                out.append(-eid)
        return out

    def dg(self, d):
        g = self.gmap[abs(d)]
        return g if d > 0 else -g

    def head(self, d):
        o, t = self.edges[abs(d)]
        return t if d > 0 else o

    def find_fold(self):
        verts = {self.base}
        for o, t in self.edges.values():
            verts.update((o, t))
        for v in sorted(verts):
            seen = {}
            for d in sorted(self.directions(v), key=abs):
                key = self.dg(d)
                if key in seen and seen[key] != d:
                    return v, seen[key], d
                seen[key] = d
        return None

    def fold_once(self, v, d1, d2):
        """Perform the fold d1 ~ d2; returns the blow-up intermediate (the
        partially folded graph) and the collapse forests certifying both
        spine edges out of it."""
        h1, h2 = self.head(d1), self.head(d2)
        e1, e2 = abs(d1), abs(d2)
        if e1 == e2:
            raise SpineError("a direction cannot fold with itself")
        if h1 == h2:
            raise SpineError("rank-dropping fold; map is not a marking"
                             " preserving homotopy equivalence")
        m = self._new_vertex()
        eta, r1, r2 = self.next_eid, self.next_eid + 1, self.next_eid + 2
        self.next_eid += 3

        star_edges = {eid: ot for eid, ot in self.edges.items()
                      if eid not in (e1, e2)}
        star_edges[eta] = (v, m)
        star_edges[r1] = (m, h1)
        star_edges[r2] = (m, h2)

        old_edges = self.edges

        def rewrite(marking, repl):
            image = {e: repl.get(e, (e,)) for e in old_edges}
            return [substitute(p, image)[0] for p in marking]

        repl_star = {
            e1: (eta, r1) if d1 > 0 else (-r1, -eta),
            e2: (eta, r2) if d2 > 0 else (-r2, -eta),
        }
        star_marking = rewrite(self.marking, repl_star)
        verts = {self.base}
        for o, t in star_edges.values():
            verts.update((o, t))
        star = MarkedGraph(graphs.CoreGraph(sorted(verts), star_edges),
                           self.base, star_marking)

        # successor: merge e2 into e1 (aligned with d1/d2), glue the heads
        if h2 == self.base or (h1 != self.base and h2 < h1):
            keep, drop = h2, h1
        else:
            keep, drop = h1, h2
        sub = {drop: keep}
        next_edges = {}
        for eid, (o, t) in self.edges.items():
            if eid == e2:
                continue
            next_edges[eid] = (sub.get(o, o), sub.get(t, t))
        repl_next = {e2: (e1,) if (d1 > 0) == (d2 > 0) else (-e1,)}
        self.edges = next_edges
        self.gmap.pop(e2)
        self.marking = rewrite(self.marking, repl_next)
        return star, frozenset([eta]), frozenset([r1, r2])


def fold_path(G1, G2, folds):
    """The spine path fold_path built with `_FoldState` (without the F
    guard); appends each fold (v, d1, d2) it makes to `folds`."""
    if G1.rank != G2.rank:
        raise SpineError("rank mismatch: %d vs %d" % (G1.rank, G2.rank))
    G1 = G1.natural_marked()
    G2 = G2.natural_marked()
    vertices = [G1]
    steps = []

    rose1, tree1 = _tree_collapse_to_rose(G1)
    if tree1 is not None:
        vertices.append(rose1)
        steps.append(SpineStep("down", tree1))
    rose2, tree2 = _tree_collapse_to_rose(G2)

    vals = rose1.inverse_marking_values()
    images = {}
    for eid in sorted(rose1.graph.edges):
        path = rose2.expand(vals[eid])
        if not path:
            raise SpineError("petal image collapsed; markings incompatible")
        images[eid] = path

    state = _FoldState(rose1, images)

    while True:
        fold = state.find_fold()
        if fold is None:
            break
        folds.append(fold)
        v, d1, d2 = fold
        star, eta_forest, rs_forest = state.fold_once(v, d1, d2)
        nat_star, (hull_eta, hull_rs0) = _hulls(star, eta_forest, rs_forest)
        nat_after = state.marked().natural_marked()
        if hull_eta:
            got, _ = nat_star.collapse_marked(hull_eta)
            if equivalent(got.natural_marked(), vertices[-1]) is None:
                raise SpineError("blow-up certificate failed")
            vertices.append(nat_star)
            steps.append(SpineStep("up", hull_eta))
        if hull_rs0:
            got, _ = nat_star.collapse_marked(hull_rs0)
            if equivalent(got.natural_marked(), nat_after) is None:
                raise SpineError("fold-down certificate failed")
            if equivalent(nat_after, vertices[-1]) is None:
                if not hull_eta:
                    # in the edge ids of the vertex before the fold
                    emap = equivalent(nat_star, vertices[-1])[1]
                    hull_rs0 = frozenset(abs(emap[e]) for e in hull_rs0)
                vertices.append(nat_after)
                steps.append(SpineStep("down", hull_rs0))

    if tree2 is not None:
        vertices.append(G2)
        steps.append(SpineStep("up", tree2))

    return SpinePath(vertices, steps)


def pruned(gr, keep=()):
    """LabeledGraph.pruned as it was: sweep every vertex until nothing
    changes, finding each leaf's edge by a scan of the live edges."""
    alive = set(gr.edges)
    deg = {v: 0 for v in gr.vertices}
    for eid in alive:
        o, t, _ = gr.edges[eid]
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
                           if gr.edges[e][0] == v or gr.edges[e][1] == v)
                o, t, _ = gr.edges[eid]
                alive.discard(eid)
                deg[o] -= 1
                deg[t] -= 1
                gone.add(v)
                changed = True
            elif deg[v] == 0 and (gr.base is None or v != gr.base):
                gone.add(v)
                changed = True
    edges = {eid: gr.edges[eid] for eid in alive}
    vals = {eid: gr.vals[eid] for eid in alive} if gr.vals else None
    base = gr.base if (gr.base is not None and gr.base not in gone) else None
    return tracked(edges, base, vals)


def based_core_and_tail(gr):
    """LabeledGraph.based_core_and_tail as it was: (core, tail, attach,
    based graph), the based graph the snapshot pruned with its base kept,
    the core that pruned again, and the tail walked from the base."""
    based = pruned(gr, keep=(gr.base,))
    core = pruned(based)
    if not core.edges:
        raise FoldError("trivial core")
    tail = []
    cur = gr.base
    used = None
    while cur not in core.vertices:
        outs = [d for d in based.directions(cur) if d != used]
        if len(outs) != 1:
            raise FoldError("tail is not an arc")
        tail.append(outs[0])
        used = -outs[0]
        cur = based.head(outs[0])
    return core, tuple(tail), cur, based


class Folded:
    """A folded graph as `folding.fold_words` returns it, its cores cut by
    the oracle: `core` drops the base, as `covers.stallings_core` did, and
    `core_edges` reads the edge triples off that core."""

    def __init__(self, gr):
        self.gr = gr

    def core(self):
        core = pruned(self.gr)
        if not core.edges:
            raise FoldError("trivial core")
        return tracked(core.edges, None, core.vals)

    def based_core(self):
        return based_core_and_tail(self.gr)

    def core_edges(self):
        return list(self.core().edges.values())
