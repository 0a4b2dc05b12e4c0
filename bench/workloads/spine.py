"""spine: the operations are `neighbors`, `fold_path` followed by `verify`,
and `bfs_distance`, at ranks 2-4.

Pairwise `equivalent` calls (graph isomorphism plus simultaneous conjugator)
and `invariant_key` dominate; folding runs only on short markings. Every
graph is the identity rose acted on by seeded transvections of a fixed total
length, then blown up along bipartitions of fixed part sizes, so each slot
has the same graph shape and marking length for every seed, and the seed
picks the marking and the directions. The rank-3 fold paths are the
exception: every round has all of them (see FOLD_ALL_RANK), and the seed
only places them in the round.

Checks: the number of neighbours equals the number of nonempty subforests
plus the sum over vertices of 2^(d-1) - 1 - d (d the valence), counted here
from the graph alone; `bfs_distance` between the two ends of a pair is
found and is at most the length of the verified fold path between them,
which the pair's `fold_path` operation earlier in the round measured.
"""

import itertools
import random

from outerspine import graphs, sampling, spine, textio
from outerspine.marked import MarkedGraph
from outerspine.words import Endomorphism

from .common import Op, marked_text

# (rank, blow-up part sizes in order, count per round)
NEIGHBOR_SLOTS = (
    (2, (), 24),
    (2, ((2, 2),), 24),
    (3, (), 8),
    (3, ((3, 3),), 8),
    (3, ((3, 3), (2, 2), (2, 2)), 8),
    (4, ((4, 4), (2, 3)), 6),
)
# (rank, pairs per round) of seeded fold paths from the rose
FOLD_SLOTS = ((2, 12), (4, 12))
# Rank-3 fold paths are the middle cluster of operation costs, and with the
# many cheap rank-2 neighbour counts above they hold the median operation.
# Their cost depends on which letters the transvections touch, by 2-3 times
# between relabellings of one product, so a seeded sample of them moved the
# median from seed to seed. Every round has one path to each of the 72
# distinct lengthening products of FOLD_MOVES transvections instead.
FOLD_ALL_RANK = 3
FOLD_MOVES = 2                               # transvections between the ends
BFS_RANK2_PAIRS = 16                         # rank 2: target 2 moves away
BFS_RANK3_PAIRS = 8                          # rank 3: target is a neighbour
BFS_RANK2_CAP = 4
# raised by FoldPath.verify when a step's certificate fails
CERTIFICATE_ERRORS = (spine.SpineError,)


def lengthening_auto(rng, n, moves):
    """A product of `moves` transvections a_i -> a_i a_j or a_j a_i, each
    making the images one letter longer in all. Operation costs follow the
    marking's length, so fixing it keeps them from depending on the seed."""
    while True:
        phi = Endomorphism.identity(n)
        for _ in range(moves):
            i, j = rng.sample(range(1, n + 1), 2)
            phi = sampling.transvection(n, i, j, rng.choice("LR")).endo \
                .compose(phi)
        if sum(len(im) for im in phi.images) == n + moves:
            return phi


def lengthening_autos(n, moves):
    """Every distinct product of `moves` transvections that makes the images
    `moves` letters longer in all, in a fixed order."""
    found = {}
    steps = [sampling.transvection(n, i, j, side).endo
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j
             for side in "LR"]
    for product in itertools.product(steps, repeat=moves):
        phi = Endomorphism.identity(n)
        for t in product:
            phi = t.compose(phi)
        if sum(len(im) for im in phi.images) == n + moves:
            found.setdefault(tuple(im.letters for im in phi.images), phi)
    return list(found.values())


def shaped_graph(rng, n, parts, moves):
    """The rose acted on by `moves` lengthening transvections, then blown up
    once per entry of `parts`: at a vertex where a bipartition with those
    part sizes exists, picked by the seed."""
    G = MarkedGraph.rose_identity(n).act(lengthening_auto(rng, n, moves))
    for sizes in parts:
        cands = []
        for v in sorted(G.graph.vertices):
            for p1, p2 in graphs.vertex_direction_bipartitions(G.graph, v):
                if sorted((len(p1), len(p2))) == sorted(sizes):
                    cands.append((v, p1, p2))
        v, p1, p2 = rng.choice(cands)
        G, _, _ = G.blowup_marked(v, p1, p2)
    return G


def expected_neighbors(g):
    """Nonempty subforests plus sum_v (2^(d_v - 1) - 1 - d_v), counted
    directly: subsets of edges without a cycle, and bipartitions of the
    directions at each vertex into parts of size >= 2."""
    eids = sorted(g.edges)
    forests = 0
    for r in range(1, len(eids) + 1):
        for combo in itertools.combinations(eids, r):
            parent = {}

            def root(x):
                while parent.get(x, x) != x:
                    x = parent[x]
                return x
            acyclic = True
            for e in combo:
                a, b = root(g.edges[e][0]), root(g.edges[e][1])
                if a == b:
                    acyclic = False
                    break
                parent[b] = a
            forests += acyclic
    valence = {}
    for o, t in g.edges.values():
        valence[o] = valence.get(o, 0) + 1
        valence[t] = valence.get(t, 0) + 1
    return forests + sum(2 ** (d - 1) - 1 - d for d in valence.values())


def setup(seed):
    rng = random.Random(seed)
    blocks = []
    for n, parts, count in NEIGHBOR_SLOTS:
        for _ in range(count):
            G = shaped_graph(rng, n, parts, 1)
            blocks.append([Op("neighbors", {"graph": marked_text(G)},
                              expect=expected_neighbors(G.graph),
                              info={"rank": n})])
    pair_id = 0

    def pair_ops(G1, G2, cap):
        nonlocal pair_id
        pair_id += 1
        text = {"left": marked_text(G1), "right": marked_text(G2)}
        info = {"pair": pair_id, "rank": G1.rank}
        return [Op("fold_path", text, info=info),
                Op("bfs_distance", text, info=dict(info, cap=cap))]

    for n, count in FOLD_SLOTS:
        for _ in range(count):
            G1 = MarkedGraph.rose_identity(n)
            G2 = G1.act(lengthening_auto(rng, n, FOLD_MOVES))
            blocks.append(pair_ops(G1, G2, None)[:1])
    G1 = MarkedGraph.rose_identity(FOLD_ALL_RANK)
    for phi in lengthening_autos(FOLD_ALL_RANK, FOLD_MOVES):
        blocks.append(pair_ops(G1, G1.act(phi), None)[:1])
    for _ in range(BFS_RANK2_PAIRS):
        # G1 = rose.phi and G2 = rose.psi.phi lie as far apart as the rose
        # and rose.psi: at most two steps per transvection in psi
        phi = lengthening_auto(rng, 2, 1)
        psi = lengthening_auto(rng, 2, FOLD_MOVES)
        G0 = MarkedGraph.rose_identity(2)
        blocks.append(pair_ops(G0.act(phi), G0.act(psi).act(phi),
                               BFS_RANK2_CAP))
    for _ in range(BFS_RANK3_PAIRS):
        G1 = shaped_graph(rng, 3, ((3, 3),), 1)
        G2 = rng.choice(spine.collapse_neighbors(G1))
        blocks.append(pair_ops(G1, G2, 1))
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


def prepare(op):
    if op.kind == "neighbors":
        return (textio.parse_marked(op.text["graph"]),)
    return (textio.parse_marked(op.text["left"]),
            textio.parse_marked(op.text["right"]))


def run(op, args):
    if op.kind == "neighbors":
        return len(spine.neighbors(*args))
    if op.kind == "fold_path":
        path = spine.fold_path(*args)
        path.verify()
        return len(path)
    return spine.bfs_distance(*args, op.info["cap"])


def check(op, answer, memo):
    if op.kind == "neighbors":
        return answer == op.expect
    if op.kind == "fold_path":
        memo[op.info["pair"]] = answer
        return isinstance(answer, int) and answer >= 0
    fold_len = memo.get(op.info["pair"])
    return answer is not None and fold_len is not None and answer <= fold_len
