"""Reference marking lifts: the junction walk that `MarkedGraph.blowup_marked`
and the chain lookup that `MarkedGraph.naturalize` used before both moves
lifted markings through `words.substitute`; and the built collapse that
`SpinePath.verify` and `collapse_certificate` compared before
`marked.collapse_matches` read it off the uncollapsed marking. Kept only
as the oracles for the differential tests."""

from outerspine import graphs
from outerspine.marked import equivalent, pointed_equivalent
from outerspine.words import reduce_letters


def oracle_collapse_matches(X, forest, H, keep_base=False):
    """Build X/forest, put it in normal form and compare it with H."""
    collapsed = X.collapse_marked(forest)[0]
    if keep_base:
        return pointed_equivalent(collapsed.naturalize(True)[0], H) is not None
    return equivalent(collapsed.natural_marked(), H) is not None


def oracle_blowup_marking(G, v, part1, part2):
    """(basepoint, marking) of G blown up at v along (part1, part2): each
    junction at v inserts the new edge when the path crosses sides."""
    _, new_eid, (v1, _) = graphs.blow_up(G.graph, v, part1, part2)
    side = {d: 2 for d in part2}
    for d in part1:
        side[d] = 1

    def rewrite(path, closed_at):
        out = []
        if closed_at == v and path and side[path[0]] == 2:
            out.append(new_eid)
        for i, d in enumerate(path):
            out.append(d)
            nxt = path[i + 1] if i + 1 < len(path) else None
            if G.graph.head(d) == v and nxt is not None:
                s_in = side[-d]
                s_out = side[nxt]
                if s_in == 1 and s_out == 2:
                    out.append(new_eid)
                elif s_in == 2 and s_out == 1:
                    out.append(-new_eid)
        if closed_at == v and path and side[-path[-1]] == 2:
            out.append(-new_eid)
        red, _ = reduce_letters(out)
        return red

    base = G.basepoint if G.basepoint != v else v1
    return base, tuple(rewrite(p, G.basepoint) for p in G.marking)


def oracle_chain_rewrite(path, chains):
    """A reduced path between kept vertices in the new edges of `chains`
    (`graphs.natural_structure`): look up each chain by its first old
    direction, read either way, and skip the chain's length."""
    lookup = {}
    for new_eid, chain in chains.items():
        lookup[chain[0]] = (new_eid, len(chain))
        lookup[-chain[-1]] = (-new_eid, len(chain))
    out = []
    i = 0
    while i < len(path):
        new_d, ln = lookup[path[i]]
        out.append(new_d)
        i += ln
    return tuple(out)
