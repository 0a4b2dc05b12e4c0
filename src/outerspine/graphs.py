"""Finite core graphs, natural structure, forest collapses, blow-ups.

Vertices and edges are integer ids; a directed edge is +e or -e. An edge
path is a tuple of directed edges with matching endpoints; paths are
reduced, inverted and substituted with the word helpers in `words`.

A forest collapse keeps the surviving edges' ids, so it is the collapsed
graph plus a vertex map. A blow-up is the inverse move: collapsing its new
edge gives back the graph it came from, and the blown-up vertex keeps its
id. This module moves no paths: `marked` lifts markings through each move
by `words.substitute`, and through a collapse by erasing the forest edges.

Checks: `CoreGraph` and the `textio` parsers check every graph; a graph
derived from valid ones (`collapse`, `blow_up`, `natural_structure`, `rose`)
is built unchecked by `CoreGraph._derived`.
"""

import itertools


class GraphError(ValueError):
    pass


class CoreGraph:
    """Connected finite graph, no valence-1 vertices. Immutable by convention."""

    def __init__(self, vertices, edges):
        vertices, edges = frozenset(vertices), dict(edges)
        for eid, (o, t) in edges.items():
            if o not in vertices or t not in vertices:
                raise GraphError("edge %r has unknown endpoint" % eid)
        self._fill(vertices, edges)
        if not self.is_connected():
            raise GraphError("graph not connected")
        for v in self.vertices:
            if self.valence(v) < 2:
                raise GraphError("valence-1 vertex %r (not a core graph)" % v)

    @classmethod
    def _derived(cls, vertices, edges):
        """The graph with no check, derived from valid ones; keeps `edges`."""
        g = object.__new__(cls)
        g._fill(vertices, edges)
        return g

    def _fill(self, vertices, edges):
        self.vertices = frozenset(vertices)
        self.edges = edges  # eid -> (origin, terminus)
        self._out = out = {v: [] for v in self.vertices}
        for eid, (o, t) in edges.items():
            out[o].append(eid)
            out[t].append(-eid)
        self.rank = len(edges) - len(self.vertices) + 1

    def head(self, d):
        return self.edges[abs(d)][d > 0]

    def tail(self, d):
        return self.edges[abs(d)][d < 0]

    def valence(self, v):
        return len(self._out[v])

    def directions(self, v):
        """Directed edges leaving v; a loop at v appears twice (+e and -e)."""
        return list(self._out[v])

    def is_connected(self):
        if not self.vertices:
            return False
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for d in self._out[v]:
                h = self.head(d)
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        return seen == self.vertices

    def is_natural(self):
        """No valence-2 vertices (the rank-1 circle convention is separate)."""
        return min(map(len, self._out.values())) >= 3

    def check_path(self, path, start=None):
        cur = start
        for d in path:
            if abs(d) not in self.edges:
                raise GraphError("path uses unknown edge %r" % d)
            if cur is not None and self.tail(d) != cur:
                raise GraphError("path does not concatenate")
            cur = self.head(d)
        return cur

    def path_is_reduced(self, path):
        return all(x != -y for x, y in zip(path, path[1:]))


def rose(rank):
    """The rank-n rose: loops 1..n at the single vertex 0."""
    return CoreGraph._derived([0], {i: (0, 0) for i in range(1, rank + 1)})


def theta_graph():
    """Two vertices joined by three parallel edges (rank 2)."""
    return CoreGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})


def union_find(ends):
    """One union-find pass over `ends`, an iterable of (edge, origin, terminus).

    Returns (root, joined): root maps every endpoint to the representative
    of its class, and joined lists, in order, the edges that merged two
    classes. The terminus's class always hangs under the origin's, so the
    representatives depend only on the order of `ends`.
    """
    parent = {}
    joined = []
    for e, o, t in ends:
        # the roots of o and t, halving each path on the way
        while (p := parent.setdefault(o, o)) != o:
            parent[o] = o = parent[p]
        while (p := parent.setdefault(t, t)) != t:
            parent[t] = t = parent[p]
        if o != t:
            parent[t] = o
            joined.append(e)
    root = {}
    for v, r in parent.items():
        while (p := parent[r]) != r:
            r = p
        root[v] = r
    return root, joined


def is_forest(graph, edge_set):
    """True iff the edge subset contains no cycle (loops are cycles)."""
    _, joined = union_find((eid, *graph.edges[eid]) for eid in edge_set)
    return len(joined) == len(edge_set)


def natural_structure(graph, protected=()):
    """Merge valence-2 chains away; returns (graph, refinement).

    refinement maps each new edge id to the directed old-edge chain it
    replaces. Vertices in `protected` are kept even at valence 2 (used for
    basepoints). Rejects the circle (no natural structure).
    """
    out, ends = graph._out, graph.edges
    keep = {v for v, ds in out.items() if len(ds) != 2 or v in protected}
    if not keep:
        raise GraphError("circle has no natural structure")
    refinement, edges, last = {}, {}, set()
    for v in sorted(keep):
        for d in out[v]:
            # each chain starts at both its ends; from the second it starts
            # with the inverse of the edge it ended with from the first
            if abs(d) in last:
                continue
            # walk the chain starting with direction d until the next kept vertex
            chain = [d]
            cur = ends[abs(d)][d > 0]
            while cur not in keep:  # valence 2: one way on
                x, y = out[cur]
                d = y if x == -d else x
                chain.append(d)
                cur = ends[abs(d)][d > 0]
            last.add(abs(d))
            ne = len(edges) + 1
            edges[ne], refinement[ne] = (v, cur), tuple(chain)
    return CoreGraph._derived(sorted(keep), edges), refinement


def chain_hull(refinement, edge_set):
    """The new edges of a refinement (`natural_structure`) whose chains of
    old edges lie wholly in edge_set, a set of edge ids."""
    return frozenset([ne for ne, chain in refinement.items()
                      if edge_set.issuperset(map(abs, chain))])


def collapse_map(graph, forest):
    """The collapse of a subforest (a set of edge ids) as (vertex_map,
    edges): each vertex's image, and each surviving edge's ends there.
    GraphError for an unknown edge or a cycle."""
    for eid in forest:
        if eid not in graph.edges:
            raise GraphError("unknown edge %r" % eid)
    root, joined = union_find((eid, *graph.edges[eid]) for eid in forest)
    if len(joined) != len(forest):
        raise GraphError("edge set contains a cycle")
    vertex_map = {v: root.get(v, v) for v in graph.vertices}
    return vertex_map, {eid: (vertex_map[o], vertex_map[t])
                        for eid, (o, t) in graph.edges.items()
                        if eid not in forest}


def collapse(graph, forest_edges):
    """Collapse each component of a subforest to a point; returns
    (graph, vertex_map). Surviving edges keep their ids (`collapse_map`)."""
    vertex_map, edges = collapse_map(graph, frozenset(forest_edges))
    return (CoreGraph._derived(sorted(set(vertex_map.values())), edges),
            vertex_map)


def enumerate_natural_subforests(graph, include_empty=True):
    """All acyclic subsets of the (natural) edge set."""
    eids = sorted(graph.edges)
    out = []
    # a forest has fewer edges than the graph has vertices
    for r in range(0 if include_empty else 1, len(graph.vertices)):
        for combo in itertools.combinations(eids, r):
            if is_forest(graph, combo):
                out.append(frozenset(combo))
    return out


def vertex_direction_bipartitions(graph, v):
    """Bipartitions of the directions at v into parts of size >= 2."""
    dirs = sorted(graph.directions(v), key=abs)
    n = len(dirs)
    if n < 4:
        return
    first = dirs[0]
    rest = dirs[1:]
    for r in range(1, n - 2):  # parts of sizes r + 1 and n - 1 - r
        for combo in itertools.combinations(rest, r):
            yield (first,) + combo, tuple(d for d in rest if d not in combo)


def blow_up(graph, v, part1, part2):
    """Split v along a direction bipartition, inserting one new edge.

    Returns (new graph, new edge id, new vertex ids (v1, v2)). Directions
    in part1 reattach to v1, part2 to v2; the new edge runs v1 -> v2, and
    collapsing it gives back `graph` with v2 merged into v1.
    """
    new_eid = max(graph.edges) + 1
    v2 = max(graph.vertices) + 1
    v1 = v
    part2 = set(part2)
    edges = {}
    for eid, (o, t) in graph.edges.items():
        no, nt = o, t
        if o == v:
            no = v2 if +eid in part2 else v1
        if t == v:
            nt = v2 if -eid in part2 else v1
        edges[eid] = (no, nt)
    edges[new_eid] = (v1, v2)
    verts = set(graph.vertices) | {v2}
    return CoreGraph._derived(sorted(verts), edges), new_eid, (v1, v2)


def enumerate_blowups(graph):
    """Yield every single-edge blow-up as (graph, new edge id)."""
    for v in sorted(graph.vertices):
        for part1, part2 in vertex_direction_bipartitions(graph, v):
            yield blow_up(graph, v, part1, part2)[:2]


def map_path(emap, path):
    out = []
    for d in path:
        m = emap[abs(d)]
        out.append(m if d > 0 else -m)
    return tuple(out)
