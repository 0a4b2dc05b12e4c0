"""audit: one operation is one audit instance, as the `*-audit` commands run
it, plus the r.j identity of the pointed retraction.

- bracket: counting.lipschitz_audit, the crossing count before and after a
  forest collapse that stays in CVK^[A]; i <= i' <= i + 2.
- pointed: retract_aut.lipschitz_audit for one relatively natural forest;
  the distance is 0 or 1.
- rj: retract_r(embed_j(w)) is pointed-equivalent to w.
- split: retract_split.retraction_audit for the loop blueprint
  <a1, a2> * <a3>; the distance is 0 or 1.

Instances are sampled as the acceptance suite samples them, within size
classes that are the same for every seed: many tiny folds,
`is_automorphism` decisions, cores and short counts. Each bracket
class contains a letter outside B, so no count is undefined.
"""

import random

from outerspine import (counting, covers, graphs, retract_aut, retract_split,
                        sampling, textio)
from outerspine.marked import MarkedGraph
from outerspine.words import CyclicWord, basis_word

from .common import (Op, blueprint_text, edges_text, marked_text,
                     parse_edges, parse_words, words_text)

# Brackets are the middle cluster of costs (rj < pointed < bracket < split);
# these counts keep the median operation inside it for every seed.
PER_ROUND = {"bracket": 240, "pointed": 80, "rj": 40, "split": 80}
CLASS_LETTERS = 8
# Sizes cycle through fixed classes, the same in every round and for every
# seed; the seed picks the instances within each class.
BRACKET_RANKS = ((3, 1), (3, 1), (4, 1), (4, 2))    # (n, rank of A)
SPLIT_EDGES = (4,)                                   # natural edges of G
# raised when the program's own certificate fails: a theorem's bound broke
CERTIFICATE_ERRORS = (retract_aut.PointedError, retract_split.SplitError)


def _bracket_instance(rng, n, r, blowups):
    """(A, B, G, forest, class) with G and its collapse in CVK^[A] and
    both counting contexts buildable, or None."""
    A = [basis_word(i, n) for i in range(1, r + 1)]
    B = [basis_word(i, n) for i in range(1, r + 2)]
    FA = covers.FreeFactorSystem.of([A], n)
    G = MarkedGraph.rose_identity(n).act(
        sampling.random_stab_auto(rng, n, r, rng.randint(0, 2)))
    for _ in range(blowups):
        out = sampling.random_blowup(rng, G)
        if out is not None:
            G = out
    if covers.realizes(G, FA) is None:
        return None
    try:
        counting.build_context([A], B, G)
    except counting.CountError:
        return None
    forests = [f for f in graphs.enumerate_natural_subforests(G.graph) if f]
    rng.shuffle(forests)
    for f in forests[:6]:
        H, _ = G.collapse_marked(f)
        H = H.natural_marked()
        if covers.realizes(H, FA) is None:
            continue
        try:
            counting.build_context([A], B, H)
        except counting.CountError:
            continue
        while True:
            w = sampling.random_reduced_word(rng, n, CLASS_LETTERS,
                                             nontrivial=True)
            c = CyclicWord.of(w)
            if any(abs(a) > r + 1 for a in c.letters):
                return A, B, G, f, w
    return None


def bracket_op(rng, k):
    n, r = BRACKET_RANKS[k % len(BRACKET_RANKS)]
    while True:
        # at least one blow-up: a rose has no forest to collapse
        inst = _bracket_instance(rng, n, r, 1 + k % 2)
        if inst is not None:
            break
    A, B, G, f, w = inst
    return Op("bracket", {"graph": marked_text(G), "a": words_text(A),
                          "b": words_text(B), "class": words_text([w]),
                          "collapse": edges_text(f)})


def pointed_op(rng, k):
    while True:
        # at least one step: the pointed rose has no forest to collapse
        x = sampling.random_pointed_graph(rng, (3, 3, 4)[k % 3], 1 + k % 3)
        forest = sampling.random_relatively_natural_forest(rng, x)
        if forest is not None:
            return Op("pointed", {"graph": marked_text(x, pointed=True),
                                  "collapse": edges_text(forest)})


def rj_op(rng, k):
    w = sampling.random_pointed_graph(rng, (2, 2, 3)[k % 3], k % 4)
    return Op("rj", {"graph": marked_text(w, pointed=True)})


def split_op(rng, k, blueprint):
    edges = SPLIT_EDGES[k % len(SPLIT_EDGES)]
    while True:
        G = sampling.random_marked_graph(rng, 3, rng.randint(0, 3))
        forests = [f for f in graphs.enumerate_natural_subforests(G.graph) if f]
        if forests and len(G.graph.edges) == edges:
            return Op("split", {"graph": marked_text(G),
                                "blueprint": blueprint,
                                "collapse": edges_text(rng.choice(forests))})


def setup(seed):
    rng = random.Random(seed)
    bp = retract_split.SplittingBlueprint(
        "loop", ((basis_word(1, 3), basis_word(2, 3)),), 3, 3)
    blueprint = blueprint_text(retract_split.default_retraction_data(bp))
    ops = [bracket_op(rng, k) for k in range(PER_ROUND["bracket"])]
    ops += [pointed_op(rng, k) for k in range(PER_ROUND["pointed"])]
    ops += [rj_op(rng, k) for k in range(PER_ROUND["rj"])]
    ops += [split_op(rng, k, blueprint) for k in range(PER_ROUND["split"])]
    rng.shuffle(ops)
    return ops


def prepare(op):
    t = op.text
    if op.kind == "bracket":
        G = textio.parse_marked(t["graph"])
        return (G, parse_words(t["a"], G.rank), parse_words(t["b"], G.rank),
                CyclicWord.of(textio.parse_word(t["class"], G.rank)),
                parse_edges(t["collapse"]))
    if op.kind == "pointed":
        return (textio.parse_marked(t["graph"], pointed=True),
                parse_edges(t["collapse"]))
    if op.kind == "rj":
        return (textio.parse_marked(t["graph"], pointed=True),)
    G = textio.parse_marked(t["graph"])
    return (G, textio.parse_blueprint(t["blueprint"], G.rank),
            parse_edges(t["collapse"]))


def run(op, args):
    if op.kind == "bracket":
        G, A, B, c, forest = args
        return counting.lipschitz_audit([A], B, G, forest, c)
    if op.kind == "pointed":
        d, _ = retract_aut.lipschitz_audit(*args)
        return d
    if op.kind == "rj":
        (w,) = args
        r = retract_aut.retract_r(retract_aut.embed_j(w))
        return retract_aut.pointed_equivalent(r, w) is not None
    G, data, forest = args
    return retract_split.retraction_audit(G, forest, data)


def check(op, answer, memo):
    if op.kind == "bracket":
        i1, i2 = answer
        return i1 <= i2 <= i1 + 2
    if op.kind == "rj":
        return answer is True
    return answer in (0, 1)
