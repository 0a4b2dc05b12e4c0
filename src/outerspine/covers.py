"""Subgroup graphs over a marked graph, free factor systems, CVK^F membership.

A subgroup graph is the Stallings core of the cover associated to a finitely
generated subgroup: a finite graph immersed over the ambient marked graph by
edge labels. It equals the quotient of the minimal subtree of the universal
cover; tree-level statements about minimal subtrees are computed on it.

Unbased cores are folded on the first generator's axis (`_axis_fold`).
Membership reads each core's edges straight off the folding engine;
`stallings_core` numbers them as the `LabeledGraph` the other callers read.
`based_core` keeps the basepoint: the core with the arc to it from the
basepoint's lift and each generator's loop in it (`BasedCore`).
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import folding, graphs
from .folding import LabeledGraph, FoldError
from .marked import CertificateError, MarkedGraph
from .words import conjugate_letters, cyclic_core


class CoverError(ValueError):
    pass


class CoreLoopError(CoverError, CertificateError):
    """A generator's path did not close into a loop in the based core its
    generators were folded into: the fold, not the input, is at fault."""


class BasedCore(NamedTuple):
    """A subgroup's core with basepoint data. `core` is a LabeledGraph
    whose labels are ambient edge ids; `based` is the fold pruned down to
    the core and the hanging arc from its base (the ambient basepoint
    lift) to the core, the nearest-point arc; `tail_labels` spells that
    arc, `attach` is its core end, and `loops[i]` is generator i's loop in
    the core at `attach`."""

    core: LabeledGraph
    attach: int
    tail_labels: tuple
    based: LabeledGraph
    loops: list


def _axis_fold(gens, G):
    """The folded engine of the generators' paths over G, conjugated onto
    the axis of the first nontrivial generator.

    The unbased core depends only on the subgroup's conjugacy class
    (Stallings, "Topology of finite graphs", Invent. Math. 71, 1983), so
    the whole generating set is first conjugated by the conjugator of the
    first generator's cyclic core in F_n and again by that of its expanded
    path (a cyclically reduced word can expand to a path with a tail).
    That conjugator is then never folded: the base of the fold lies on the
    core, and pruning drops only the other generators' tails.

    One pass would do: with E the expansion through the marking, u the F_n
    conjugator and k the path conjugator, k^-1 E(u^-1 w u) k reduces to
    c^-1 E(w) c for c = E(u) k reduced, so conjugating the expanded
    generators by c gives the same fold input word for word. But that pass
    expands each generator whole, its conjugator u included, which the F_n
    pass strips before any expansion; membership conjugates every system
    by a long word.
    """
    words = [w.letters for w in gens if w.letters]
    if not words:
        raise CoverError("trivial subgroup has no core")
    u = cyclic_core(words[0])[0]
    paths = [G.expand(conjugate_letters(w, u)) for w in words]
    k = cyclic_core(paths[0])[0]
    return folding.fold_words([conjugate_letters(p, k) for p in paths])


def stallings_core(gens, G):
    """The unbased Stallings core of the generators' marking images over G's
    edge alphabet, a LabeledGraph labelled by G's edge ids. It is folded on
    the first generator's axis (`_axis_fold`); the engine prunes it and
    numbers it in one walk from the base of the fold, which lies on the
    core (`Folder.core`)."""
    return _axis_fold(gens, G).core()


def based_core(gens, G):
    """The based form (`BasedCore`) of the generators' core over G, folded
    from G's basepoint.

    Each generator's path is traced from the base of the fold and
    conjugated through the tail: the reduced path tail^-1 p tail is its
    loop in the core at the attach vertex (a trivial generator gets the
    empty loop).
    """
    paths = [G.expand(w.letters) for w in gens]
    if not any(paths):
        raise CoverError("trivial subgroup has no core")
    core, tail, q, based = folding.fold_words(
        [p for p in paths if p]).based_core()
    loops = []
    for p in paths:
        loop, end, consumed = based.trace(based.base, p)
        if consumed != len(p) or end != based.base:
            raise CoreLoopError("generator loop strayed off the based core")
        red = conjugate_letters(tuple(loop), tail)
        if any(abs(d) not in core.edges for d in red):
            raise CoreLoopError("generator loop left the core")
        loops.append(red)
    return BasedCore(core, q, based.path_labels(tail), based, loops)


def _labeled_extension(K1, K2, v1, v2):
    """Forced label-preserving morphism K1 -> K2 seeded v1 -> v2, or None."""
    vmap = {v1: v2}
    emap = {}
    stack = [v1]
    while stack:
        a = stack.pop()
        for d in K1.directions(a):
            lab = K1.label_of(d)
            d2 = K2.step(vmap[a], lab)
            if d2 is None:
                return None
            h1, h2 = K1.head(d), K2.head(d2)
            if h1 in vmap:
                if vmap[h1] != h2:
                    return None
            else:
                vmap[h1] = h2
                stack.append(h1)
            e1, e2 = abs(d), abs(d2)
            if e1 in emap and emap[e1] != e2:
                return None
            emap[e1] = e2
    return vmap, emap


def labeled_morphisms(K1, K2):
    """Every label-preserving morphism K1 -> K2 of core graphs, as (vmap,
    emap), in the order of the image of K1's least vertex in K2. The image
    of one vertex forces the rest (immersion rigidity), so this seeds K1's
    least vertex at each vertex of K2 in turn."""
    v1 = min(K1.vertices)
    for v2 in sorted(K2.vertices):
        ext = _labeled_extension(K1, K2, v1, v2)
        if ext is not None:
            yield ext


def embeddings(K1, K2):
    """The label-preserving morphisms K1 -> K2 injective on vertices, hence
    on edges (two edges with one image would share a tail and a label,
    which the folded K1 forbids)."""
    for vmap, emap in labeled_morphisms(K1, K2):
        if len(set(vmap.values())) == len(K1.vertices):
            yield vmap, emap


def labeled_isomorphism(K1, K2):
    """Label-preserving isomorphism of core graphs: an embedding between
    graphs of equal size. Returns (vmap, emap) or None."""
    if len(K1.edges) != len(K2.edges) or len(K1.vertices) != len(K2.vertices):
        return None
    if sorted(l for _, _, l in K1.edges.values()) != \
       sorted(l for _, _, l in K2.edges.values()):
        return None
    return next(embeddings(K1, K2), None)


@dataclass(frozen=True)
class FreeFactorSystem:
    """Conjugacy classes of free factors, stored by generating words."""

    components: tuple  # tuple of tuples of ReducedWord
    rank: int

    def __post_init__(self):
        if not self.components:
            raise CoverError("empty free factor system")

    @staticmethod
    def of(list_of_gen_lists, rank):
        return FreeFactorSystem(tuple(tuple(g) for g in list_of_gen_lists), rank)

    def cores_over(self, G):
        return [stallings_core(gens, G) for gens in self.components]

    def component_ranks(self):
        G = MarkedGraph.rose_identity(self.rank)
        return [k.rank for k in self.cores_over(G)]

    def coindex(self):
        ranks = self.component_ranks()
        if sum(r - 1 for r in ranks) > self.rank - 1:
            raise CoverError("component ranks exceed ambient rank")
        return (self.rank - 1) - sum(r - 1 for r in ranks)


@dataclass
class CoreSubgraphWitness:
    edges: frozenset          # ambient edge ids forming the core subgraph
    components: tuple         # edge-id frozensets, in the system's order

    @staticmethod
    def of(images):
        comps = tuple(edges for edges, _ in images)
        return CoreSubgraphWitness(frozenset().union(*comps), comps)


def core_images(G, F):
    """Embed each component's Stallings core in G, in F's order.

    Returns one (edge set, vertex set) pair per component, or None when a
    core's vertex map is not injective or two images share a vertex. An
    immersion injective on vertices is injective on edges: two edges with one
    label would start at one vertex, which a folded graph forbids. The
    components are folded one at a time, and none after the first that
    fails; a trivial component is an input error, found before any fold.
    Only the labels and ends of the core's edges matter here, so each is
    read off the folded engine (`Folder.core_edges`), unnumbered.
    """
    if not all(any(w.letters for w in gens) for gens in F.components):
        raise CoverError("trivial subgroup has no core")
    images = []
    used = set()
    for gens in F.components:
        edges = _axis_fold(gens, G).core_edges()
        image = {}
        for o, t, lab in edges:
            image[o], image[t] = G.graph.edges[lab]
        verts = set(image.values())
        if len(verts) != len(image) or verts & used:
            return None
        used |= verts
        images.append((frozenset(lab for _, _, lab in edges),
                       frozenset(verts)))
    return images


def realizes(G, F):
    """CVK^F membership: a core subgraph of G whose components carry the
    classes of F, or None.

    A core subgraph component carrying [A] is the image of the Stallings core
    of A over G, immersed by its labels. So G realizes F iff each core embeds
    (its immersion is injective on vertices, hence on edges) and the images
    are pairwise vertex-disjoint. The labels fix each image, so the
    realization is unique when it exists.
    """
    images = core_images(G, F)
    return None if images is None else CoreSubgraphWitness.of(images)


def collapse_labeled(K, forest_labels):
    """Collapse the label-preimage of a collapsed ambient forest; surviving
    edges keep their labels, as ambient edges keep their ids."""
    forest = {eid for eid, (o, t, lab) in K.edges.items() if lab in forest_labels}
    root, joined = graphs.union_find((eid, *K.edges[eid][:2])
                                     for eid in forest)
    if len(joined) != len(forest):
        raise CoverError("label preimage of forest contains a cycle")
    edges = {}
    for eid, (o, t, lab) in K.edges.items():
        if eid in forest:
            continue
        edges[eid] = (root.get(o, o), root.get(t, t), lab)
    return LabeledGraph(edges, None)


def minimal_subtree_collapse_check(G, forest, gens):
    """Core-of-collapse equals collapse-of-core (minimal subtrees commute
    with forest collapses, at quotient level)."""
    direct = stallings_core(gens, G.collapse_marked(forest)[0])
    try:
        pushed = collapse_labeled(stallings_core(gens, G), set(forest))
    except (CoverError, FoldError):
        return False
    return labeled_isomorphism(pushed, direct) is not None
