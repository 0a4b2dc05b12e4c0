"""Test oracle: graph canonical labelling and the spine-vertex key built on
it before `marked.canonical_key` labelled vertices by their first visit
along the centred marking paths.

`canonical_form` is colour refinement followed by individualize-and-refine;
`old_canonical_key` labels the vertices at each centre point by every
ordering it returns. They are the reference the production key is checked
against, and a dedupe key for graphs without a marking. Only the tests
import this module.
"""

from outerspine.marked import _centre, _edge_names


def multiplicities(g):
    """Vertex-pair multiplicity table: table[a][b] is the number of edges
    joining a and b, and table[a][a] the number of loops at a."""
    table = {v: {} for v in g.vertices}
    for o, t in g.edges.values():
        table[o][t] = table[o].get(t, 0) + 1
        if o != t:
            table[t][o] = table[t].get(o, 0) + 1
    return table


def _refine(table, colour):
    """Colour refinement to the coarsest stable colouring finer than
    `colour` (vertex -> sortable value). A vertex's signature is its colour
    and the multiset of (colour, multiplicity) over its other neighbours;
    new colours 0, 1, ... number the sorted distinct signatures, so the
    cells keep their order and the result depends on no vertex id."""
    while True:
        sig = {v: (c, tuple(sorted((colour[u], m) for u, m in table[v].items()
                                   if u != v)))
               for v, c in colour.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        stable = len(rank) == len(set(colour.values()))
        colour = {v: rank[s] for v, s in sig.items()}
        if stable:
            return colour


def canonical_form(g):
    """Canonical encoding of a graph up to isomorphism (orientations ignored).

    Returns (encoding, orderings). Colour refinement on (valence, loops,
    neighbour multiplicities), then individualize-and-refine: the first
    cell of two or more vertices splits off each of its vertices in turn,
    down to discrete colourings (McKay, "Practical graph isomorphism",
    1981). Each leaf is an ordering vertex -> 0..|V|-1 and encodes g as the
    sorted (label, label, multiplicity) triples; `encoding` is the least
    leaf encoding and `orderings` lists every leaf that reaches it. Two
    graphs are isomorphic iff their encodings are equal, and an isomorphism
    carries the orderings of one onto those of the other.
    """
    table = multiplicities(g)
    colour = _refine(table, {v: (g.valence(v), table[v].get(v, 0))
                             for v in g.vertices})
    best, orderings = None, []
    stack = [colour]
    while stack:
        colour = stack.pop()
        cells = {}
        for v, c in colour.items():
            cells.setdefault(c, []).append(v)
        split = min((c for c, vs in cells.items() if len(vs) > 1), default=None)
        if split is not None:
            for v in cells[split]:
                stack.append(_refine(table, {u: (c, u != v)
                                             for u, c in colour.items()}))
            continue
        enc = tuple(sorted((colour[a], colour[b], m) for a in table
                           for b, m in table[a].items()
                           if colour[a] <= colour[b]))
        if best is None or enc < best:
            best, orderings = enc, [colour]
        elif enc == best:
            orderings.append(colour)
    return best, orderings


def old_canonical_key(G):
    """The spine-vertex key with vertices labelled by `canonical_form`: the
    least (marking in edge names, basepoint label, edge ends as label pairs)
    over the centre points and every canonical ordering."""
    g = G.graph
    named = [(v, *_edge_names(paths)) for v, paths in _centre(G)]
    least = min(words for _, words, _ in named)
    orderings = canonical_form(g)[1]
    return min((words, o[v], tuple((o[g.tail(d)], o[g.head(d)]) for d in first))
               for v, words, first in named if words == least
               for o in orderings)
