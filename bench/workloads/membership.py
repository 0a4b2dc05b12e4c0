"""membership: one operation is one `realizes` or `in_CVKT` verdict on a
seeded marked graph of rank 3-6; half the verdicts are positive and half
negative, both by construction.

Graphs start as the identity rose, are acted on by automorphisms that
visibly preserve the system, and are then blown up: first so that the
components move apart, then so that at most one component is split by each
new edge (which joins that component). Every component thus stays a core
subgraph, on vertices of its own. Systems are given by generators conjugated by long random words
(conjugating a component changes nothing), so the Stallings folding of long
loops and the 2^|E| core-subgraph search do the work. A negative system has
one component that is not a free factor (a proper power or a commutator);
a negative `in_CVKT` graph has its stable loop blown off, so the complement
of the vertex group is two edges.

Each round has the same shape for every seed: for each rank, the same
number of graphs with the same number of edges.
"""

import random

from outerspine import covers, retract_split, textio
from outerspine.marked import MarkedGraph
from outerspine.words import Endomorphism, ReducedWord, word

from .common import (Op, blueprint_text, marked_text, parse_words,
                     words_text)

# rank -> (blow-ups, system shapes); a shape lists component letter sets
RANKS = {
    3: (3, (((1,),), ((1, 2),), ((1,), (2,)))),
    4: (4, (((1, 2),), ((1,), (2, 3)), ((1, 2, 3),))),
    5: (5, (((1, 2), (3,)), ((1, 2, 3, 4),), ((1,), (2,), (3,)))),
    6: (5, (((1, 2, 3), (4,)), ((1, 2), (3, 4)), ((1,), (2, 3, 4, 5)))),
}
EDGE_LETTERS = {3: 60, 4: 90, 5: 120, 6: 150}   # per component, see conjugated()
MOVES = 4               # visible stabilizer moves acting on the rose
# rank -> (realizes, in_CVKT) verdicts per round, half of each negative.
# Costs grow with the rank; rank-5 `realizes` verdicts are the middle
# cluster, and these counts keep the median operation inside it for every
# seed.
PER_RANK = {3: (10, 4), 4: (10, 4), 5: (48, 8), 6: (24, 8)}
# verdicts carry no certificate of the program's own
CERTIFICATE_ERRORS = ()


def _move(n, i, j, side, inv=False):
    """a_i -> a_i a_j^(+-1) or a_j^(+-1) a_i, identity elsewhere."""
    imgs = [[x] for x in range(1, n + 1)]
    b = -j if inv else j
    imgs[i - 1] = [i, b] if side == "R" else [b, i]
    return Endomorphism.from_lists(imgs, n)


def _conjugate_component(n, comp, j, inv=False):
    """a_i -> a_j^-1 a_i a_j for every i in the component."""
    b = -j if inv else j
    imgs = [[x] for x in range(1, n + 1)]
    for i in comp:
        imgs[i - 1] = [-b, i, b]
    return Endomorphism.from_lists(imgs, n)


def visible_stabilizer(rng, n, comps, moves):
    """A product of moves that each map every component onto a conjugate of
    itself: transvections inside a component, transvections of letters
    outside the system, inversions, and conjugation of a whole component."""
    inside = [i for c in comps for i in c]
    free = [i for i in range(1, n + 1) if i not in inside]
    phi = Endomorphism.identity(n)
    for _ in range(moves):
        kinds = ["inv", "conj"]
        if any(len(c) >= 2 for c in comps):
            kinds.append("inside")
        if free:
            kinds.append("free")
        kind = rng.choice(kinds)
        if kind == "inside":
            c = rng.choice([c for c in comps if len(c) >= 2])
            i, j = rng.sample(c, 2)
            step = _move(n, i, j, rng.choice("LR"), rng.random() < 0.5)
        elif kind == "free":
            i = rng.choice(free)
            j = rng.choice([x for x in range(1, n + 1) if x != i])
            step = _move(n, i, j, rng.choice("LR"), rng.random() < 0.5)
        elif kind == "conj":
            c = rng.choice(comps)
            outside = [x for x in range(1, n + 1) if x not in c]
            step = _conjugate_component(n, c, rng.choice(outside),
                                        rng.random() < 0.5)
        else:
            imgs = [[x] for x in range(1, n + 1)]
            i = rng.randint(1, n)
            imgs[i - 1] = [-i]
            step = Endomorphism.from_lists(imgs, n)
        phi = step.compose(phi)
    return phi


def blow_up_keeping(rng, G, comps_edges, rule):
    """One blow-up of G along a bipartition drawn under `rule` (one of
    SEPARATE, SPLIT_AT_MOST_ONE, GROW). The new edge joins the component
    split across the two parts, if any. Returns the new graph."""
    group = {}
    for ci, es in enumerate(comps_edges):
        for e in es:
            group[e] = ci
    vertices = sorted(G.graph.vertices)
    rng.shuffle(vertices)
    for v in vertices:
        dirs = sorted(G.graph.directions(v), key=abs)
        by_comp = {}
        for d in dirs:
            by_comp.setdefault(group.get(abs(d)), []).append(d)
        free = by_comp.pop(None, [])
        comps = sorted(by_comp)
        for _ in range(50):
            side = {}
            split = None
            if rule == SEPARATE:
                if len(comps) < 2:
                    break
                left = set(rng.sample(comps, rng.randint(1, len(comps) - 1)))
                for c in comps:
                    for d in by_comp[c]:
                        side[d] = c in left
            else:
                if rule == GROW or (comps and rng.random() < 0.5):
                    if not comps:
                        break
                    split = rng.choice(comps)
                for c in comps:
                    whole = rng.random() < 0.5
                    for d in by_comp[c]:
                        side[d] = rng.random() < 0.5 if c == split else whole
                if split is not None and len({side[d] for d in by_comp[split]}) < 2:
                    continue
            for d in free:
                side[d] = rng.random() < 0.5
            p1 = tuple(d for d in dirs if side[d])
            p2 = tuple(d for d in dirs if not side[d])
            if len(p1) >= 2 and len(p2) >= 2:
                H, new_eid, _ = G.blowup_marked(v, p1, p2)
                if split is not None:
                    comps_edges[split].add(new_eid)
                return H
    raise RuntimeError("no blow-up under rule %r" % rule)


# bipartition rules: no component split and each side holding one; at most
# one component split (the new edge joins it); exactly one component present
# and split
SEPARATE, SPLIT_AT_MOST_ONE, GROW = "separate", "split at most one", "grow"


def conjugated(rng, G, gens):
    """Conjugate the generators by a random word, grown until the loops
    they spell in G have about EDGE_LETTERS edges in all, so that the
    folding work does not depend on the seed."""
    n = G.rank
    gen_edges = sum(len(G.expand(g.letters)) for g in gens)
    letters = []
    path = []            # G.expand(letters), kept reduced as letters grow
    while True:
        choices = [x for x in range(-n, n + 1)
                   if x and not (letters and x == -letters[-1])]
        a = rng.choice(choices)
        letters.append(a)
        step = G.marking[abs(a) - 1]
        for d in (step if a > 0 else [-x for x in reversed(step)]):
            if path and path[-1] == -d:
                path.pop()
            else:
                path.append(d)
        if gen_edges + 2 * len(gens) * len(path) >= EDGE_LETTERS[n]:
            w = ReducedWord(tuple(letters), n)
            return [w.inverse() * g * w for g in gens]


def non_free_factor(rng, n, comp):
    """Generators of a subgroup that is not a free factor: one generator of
    the component becomes a proper power or a commutator."""
    gens = [word([i], n) for i in comp]
    k = rng.randrange(len(comp))
    i = comp[k]
    if rng.random() < 0.5:
        gens[k] = word([i] * rng.choice((2, 3)), n)
    else:
        j = rng.choice([x for x in range(1, n + 1) if x != i])
        gens[k] = word([i, j, -i, -j], n)
    return gens


def realize_op(rng, n, blowups, shape, positive):
    comps = [list(c) for c in shape]
    G = MarkedGraph.rose_identity(n).act(
        visible_stabilizer(rng, n, comps, MOVES))
    comps_edges = [set(c) for c in comps]
    for k in range(blowups):
        rule = SEPARATE if k < len(comps) - 1 else SPLIT_AT_MOST_ONE
        G = blow_up_keeping(rng, G, comps_edges, rule)
    systems = []
    bad = rng.randrange(len(comps)) if not positive else None
    for ci, c in enumerate(comps):
        gens = non_free_factor(rng, n, c) if ci == bad else \
            [word([i], n) for i in c]
        systems.append(words_text(conjugated(rng, G, gens)))
    return Op("realizes", {"graph": marked_text(G), "system": systems},
              expect=positive, info={"rank": n})


def split_op(rng, n, blowups, positive):
    """A loop blueprint A = <a_1..a_(n-1)>, stable letter a_n."""
    A = list(range(1, n))
    gens = [word([i], n) for i in A]
    for _ in range(2):   # another basis of A
        i, j = rng.sample(range(len(A)), 2)
        gens[i] = gens[i] * (gens[j] if rng.random() < 0.5 else gens[j].inverse())
    data = retract_split.default_retraction_data(
        retract_split.SplittingBlueprint("loop", (tuple(gens),), n, n))
    phi = visible_stabilizer(rng, n, [A], MOVES - 1)
    t_side = rng.choice("LR")
    phi = _move(n, n, rng.choice(A), t_side, rng.random() < 0.5).compose(phi)
    G = MarkedGraph.rose_identity(n).act(phi)
    comps_edges = [set(A)]
    if not positive:
        # blow the stable loop off on its own: the co-edge becomes two edges
        dirs = G.graph.directions(0)
        t_dirs = tuple(d for d in dirs if abs(d) == n)
        rest = tuple(d for d in dirs if abs(d) != n)
        G, _, _ = G.blowup_marked(0, rest, t_dirs)
    for _ in range(blowups if positive else blowups - 1):
        G = blow_up_keeping(rng, G, comps_edges, GROW)
    return Op("in_CVKT", {"graph": marked_text(G),
                          "blueprint": blueprint_text(data)},
              expect=positive, info={"rank": n})


def setup(seed):
    rng = random.Random(seed)
    ops = []
    for n, (blowups, shapes) in sorted(RANKS.items()):
        realize_count, split_count = PER_RANK[n]
        for k in range(realize_count):
            ops.append(realize_op(rng, n, blowups, rng.choice(shapes),
                                  positive=k % 2 == 0))
        for k in range(split_count):
            ops.append(split_op(rng, n, blowups, positive=k % 2 == 0))
    rng.shuffle(ops)
    return ops


def prepare(op):
    G = textio.parse_marked(op.text["graph"])
    if op.kind == "realizes":
        return G, covers.FreeFactorSystem.of(
            [parse_words(c, G.rank) for c in op.text["system"]], G.rank)
    return G, textio.parse_blueprint(op.text["blueprint"], G.rank).blueprint


def run(op, args):
    G, target = args
    if op.kind == "realizes":
        return covers.realizes(G, target) is not None
    return retract_split.in_CVKT(G, target) is not None


def check(op, verdict, memo):
    return verdict is op.expect
