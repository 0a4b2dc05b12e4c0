"""Test oracle: the isomorphism search that spine-vertex and pointed
equality used before `marked.match_paths` read the two markings in
lockstep. `graph_isomorphisms` enumerates every isomorphism of two small
multigraphs; the old `equivalent` rewrites every marking path into a word
for each one and sweeps `simultaneous_conjugator` over the powers of a
primitive root, and the old `pointed_equivalent` compares the marking paths
on the nose. Only the tests import this module.
"""

from outerspine.graphs import GraphError, map_path
from outerspine.words import (ReducedWord, WordError, basis_word, cyclic_core,
                              cyclic_reduce)
from canonical_oracle import multiplicities


def degree_profile(g):
    return tuple(sorted(g.valence(v) for v in g.vertices))


def graph_isomorphisms(g1, g2):
    """Yield all isomorphisms as (vertex_map, edge_map).

    edge_map sends each g1 edge id to a signed g2 edge id (orientation
    respected: +means origin->origin). Handles loops and parallel edges.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return
    if degree_profile(g1) != degree_profile(g2):
        return
    verts1 = sorted(g1.vertices, key=lambda v: (-g1.valence(v), v))
    verts2 = sorted(g2.vertices)
    t1, t2 = multiplicities(g1), multiplicities(g2)

    def extend(vmap, used):
        if len(vmap) == len(verts1):
            yield dict(vmap)
            return
        v = verts1[len(vmap)]
        for w in verts2:
            if w in used:
                continue
            if g1.valence(v) != g2.valence(w):
                continue
            r1, r2 = t1[v], t2[w]
            for u, x in vmap.items():
                if r1.get(u, 0) != r2.get(x, 0):
                    break
            else:
                vmap[v] = w
                used.add(w)
                yield from extend(vmap, used)
                del vmap[v]
                used.discard(w)

    for vmap in extend({}, set()):
        yield from _edge_matchings(g1, g2, vmap)


def _edge_matchings(g1, g2, vmap):
    eids1 = sorted(g1.edges)

    def extend(emap, used):
        if len(emap) == len(eids1):
            yield dict(vmap), dict(emap)
            return
        eid = eids1[len(emap)]
        o, t = g1.edges[eid]
        for eid2, (o2, t2) in sorted(g2.edges.items()):
            if eid2 in used:
                continue
            if (o2, t2) == (vmap[o], vmap[t]):
                emap[eid] = eid2
                used.add(eid2)
                yield from extend(emap, used)
                del emap[eid]
                used.discard(eid2)
            # loops admit both orientations; non-loops at most one
            if (t2, o2) == (vmap[o], vmap[t]):
                emap[eid] = -eid2
                used.add(eid2)
                yield from extend(emap, used)
                del emap[eid]
                used.discard(eid2)

    yield from extend({}, set())


def graphs_isomorphic(g1, g2):
    return next(graph_isomorphisms(g1, g2), None) is not None


def primitive_root(w):
    """Least z with w = z^k (k >= 1); the centralizer of w is <z>."""
    if w.is_trivial():
        raise WordError("trivial word has no primitive root")
    cyc, conj = cyclic_reduce(w)
    c = cyc.letters
    n = len(c)
    for p in range(1, n + 1):
        if n % p == 0 and c == c[:p] * (n // p):
            seed = ReducedWord(c[:p], w.rank)
            # transport the root back through the conjugation: w = conj c conj^-1
            return conj * seed * conj.inverse()
    raise WordError("no period of %r divides its length" % (c,))


def simultaneous_conjugator(us, vs):
    """Find g with g^-1 u_i g = v_i for all i, or None.

    Exact: solutions for the pivot pair form the coset <z> g0 (z the
    primitive root of the pivot). Any solution satisfies
    |g| <= (|u_i| + |v_i|) / 2 for every nontrivial pair, which bounds the
    exponent sweep; powers are built incrementally.
    """
    if len(us) != len(vs):
        raise WordError("tuple length mismatch")
    if not us:
        raise WordError("empty tuples")
    pairs = list(zip(us, vs))
    pivot = None
    for u, v in pairs:
        if u.is_trivial() != v.is_trivial():
            return None
        if u.is_trivial():
            continue
        cu, _ = cyclic_reduce(u)
        cv, _ = cyclic_reduce(v)
        if cu != cv:
            return None
        if pivot is None:
            pivot = (u, v)
    if pivot is None:
        raise WordError("all-trivial left tuple")
    u0, v0 = pivot
    _, alpha = cyclic_reduce(u0)
    _, beta = cyclic_reduce(v0)
    g0 = alpha * beta.inverse()
    z = primitive_root(u0)
    rest = [(u, v) for u, v in pairs if (u, v) is not pivot]

    def works(g):
        return all(u.conjugate_by(g) == v for u, v in rest) and \
            u0.conjugate_by(g) == v0

    # pairs not commuting with z pin |t| well inside this; if all pairs
    # commute, t = 0 already works when anything does
    bound = 2 * sum(len(u) + len(v) for u, v in pairs) + 4
    if works(g0):
        return g0
    pos = g0
    neg = g0
    zinv = z.inverse()
    for _ in range(bound):
        pos = z * pos
        if works(pos):
            return pos
        neg = zinv * neg
        if works(neg):
            return neg
    return None


def equivalent(G1, G2):
    """Exact spine-vertex equality: a homeomorphism plus one free-homotopy
    conjugator aligning all marking images. Returns a witness or None."""
    if G1.rank != G2.rank:
        return None
    basis = tuple(basis_word(i, G1.rank) for i in range(1, G1.rank + 1))
    for vmap, emap in graph_isomorphisms(G1.graph, G2.graph):
        at = vmap[G1.basepoint]
        try:
            us = tuple(G2.path_to_word(map_path(emap, p), at_vertex=at)
                       for p in G1.marking)
        except (KeyError, GraphError):
            continue
        # a common conjugator onto the basis needs every class to match
        if any(cyclic_core(u.letters)[1] != (i + 1,)
               for i, u in enumerate(us)):
            continue
        g = simultaneous_conjugator(us, basis)
        if g is not None:
            return vmap, emap, g
    return None


def pointed_equivalent(x1, x2):
    """Exact pointed equality: base-preserving isomorphism matching every
    marking path on the nose."""
    if x1.rank != x2.rank:
        return None
    for vmap, emap in graph_isomorphisms(x1.graph, x2.graph):
        if vmap[x1.basepoint] != x2.basepoint:
            continue
        if all(map_path(emap, p) == q
               for p, q in zip(x1.marking, x2.marking)):
            return vmap, emap
    return None
