"""One-edge free splittings: blueprint data, membership via tight
semiconjugacy shape, and the ray-based retraction onto the subcomplex.

All computation happens at quotient level: the vertex-group cores play the
role of the minimal subtrees, and the eventually periodic rays pick the
attachment points exactly.
"""

from dataclasses import dataclass, field

from .words import (ReducedWord, Endomorphism, basis_word, identity_word,
                    cyclic_core, cyclic_reduce, eventually_periodic_form,
                    invert_letters, is_automorphism, reduce_letters,
                    substitute)
from .graphs import CoreGraph, chain_hull
from .marked import CertificateError, MarkedGraph, collapse_certificate
from .covers import (CoreSubgraphWitness, FreeFactorSystem, based_core,
                     core_images)


class SplitError(ValueError):
    pass


class InvalidRay(SplitError):
    """The ray's ideal endpoint lies in the boundary of the vertex group."""


class RetractionError(SplitError, CertificateError):
    """A certificate on the retraction's path failed."""


@dataclass(frozen=True)
class SplittingBlueprint:
    kind: str            # "loop" | "segment"
    vertex_gens: tuple   # one tuple of ReducedWord per labeled vertex
    stable: int          # basis letter index of the stable letter (loop only)
    rank: int
    # a_j as words in the x-alphabet, set by the free-decomposition check
    basis_exprs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.rank
        if self.kind == "loop":
            if len(self.vertex_gens) != 1 or len(self.vertex_gens[0]) != n - 1:
                raise SplitError("loop blueprint needs one rank n-1 vertex group")
        elif self.kind == "segment":
            if len(self.vertex_gens) != 2:
                raise SplitError("segment blueprint needs two vertex groups")
            if len(self.vertex_gens[0]) + len(self.vertex_gens[1]) != n:
                raise SplitError("segment vertex ranks must sum to n")
            if min(len(g) for g in self.vertex_gens) < 1:
                raise SplitError("trivial vertex group")
        else:
            raise SplitError("unknown splitting kind %r" % self.kind)
        auto = is_automorphism(Endomorphism(n, tuple(self.x_tuple())))
        if auto is None:
            raise SplitError("vertex groups do not freely decompose F_n")
        object.__setattr__(self, "basis_exprs", auto.inverse_endo.images)

    def x_tuple(self):
        if self.kind == "loop":
            return list(self.vertex_gens[0]) + [basis_word(self.stable, self.rank)]
        return list(self.vertex_gens[0]) + list(self.vertex_gens[1])

    def vertex_system(self):
        return FreeFactorSystem.of([[w for w in gens] for gens in self.vertex_gens],
                                   self.rank)


@dataclass(frozen=True)
class RayDatum:
    prefix: ReducedWord
    period: ReducedWord

    def __post_init__(self):
        if self.period.is_trivial():
            raise SplitError("ray period must be nontrivial")

    def reduced_form(self):
        """(W, Z): the ideal point as the reduced infinite word W Z Z Z..."""
        cyc, conj = cyclic_reduce(self.period)
        return eventually_periodic_form((self.prefix * conj).letters,
                                        cyc.letters)


def default_retraction_data(bp):
    n = bp.rank
    if bp.kind == "loop":
        t = basis_word(bp.stable, n)
        rays = (RayDatum(identity_word(n), t),
                RayDatum(identity_word(n), t.inverse()))
    else:
        rays = (RayDatum(identity_word(n), bp.vertex_gens[1][0]),
                RayDatum(identity_word(n), bp.vertex_gens[0][0]))
    return RetractionData(bp, rays)


@dataclass(frozen=True)
class RetractionData:
    blueprint: object
    rays: tuple   # loop: (toward stable, toward inverse); segment: per vertex

    def __post_init__(self):
        if len(self.rays) != 2:
            raise SplitError("one-edge splittings carry two directed co-edge ends")


def coindex1_to_splitting(F):
    """Blueprint of the one-edge splitting determined by a coindex-1 system."""
    if F.coindex() != 1:
        raise SplitError("free factor system must have coindex 1")
    ranks = F.component_ranks()
    n = F.rank
    if len(F.components) == 1 and ranks[0] == n - 1:
        for t in range(n, 0, -1):
            try:
                return SplittingBlueprint("loop", (tuple(F.components[0]),), t, n)
            except SplitError:
                continue
        raise SplitError("no basis letter complements the vertex group")
    if len(F.components) == 2 and sum(ranks) == n:
        return SplittingBlueprint("segment",
                                  (tuple(F.components[0]), tuple(F.components[1])),
                                  0, n)
    raise SplitError("coindex-1 system is neither loop nor segment shaped")


def in_CVKT(G, bp):
    """Membership in the splitting subcomplex: the vertex system is realized
    and its complement is a single natural edge with matching incidence.

    Returns (witness, complement edge) or None.
    """
    images = core_images(G, bp.vertex_system())
    if images is None:
        return None
    w = CoreSubgraphWitness.of(images)
    comp = set(G.graph.edges) - w.edges
    if len(comp) != 1:
        return None
    eid = next(iter(comp))
    o, t = G.graph.edges[eid]
    comp_verts = [verts for _, verts in images]
    if bp.kind == "loop":
        if not any(o in cv and t in cv for cv in comp_verts):
            return None
    else:
        hit_o = next((i for i, cv in enumerate(comp_verts) if o in cv), None)
        hit_t = next((i for i, cv in enumerate(comp_verts) if t in cv), None)
        if hit_o is None or hit_t is None or hit_o == hit_t:
            return None
    return w, eid


def _ray_label_stream(ray, G):
    """Reduced infinite edge-label stream of the ray through G's marking.

    Expansions of consecutive letters can cancel across boundaries, so the
    head and the cyclic period are normalized at the edge level.
    """
    W, Z = ray.reduced_form()
    z_path = G.expand(Z)
    if not z_path:
        raise RetractionError("ray period dies in the marking")
    pre, z_path = cyclic_core(z_path)
    head, _ = reduce_letters(G.expand(W) + pre)
    return eventually_periodic_form(head, z_path)


def attach_point(G, sub, ray):
    """Trace the ray's reduced infinite word, read in G's marking, through
    a vertex group's based core over G (`covers.based_core`).

    Returns (Q, alpha): the nearest core point to the ideal endpoint and the
    in-core path from the attach vertex q to Q. Errors out when the trace
    cycles (ideal point in the vertex group's boundary).
    """
    head, period = _ray_label_stream(ray, G)
    based, core = sub.based, sub.core

    pos = based.base
    alpha = []
    entered = False

    def stream():
        for a in head:
            yield a
        while True:
            for a in period:
                yield a

    # The loop ends without a step budget: the head is finite, and past it
    # a state (vertex, phase) of a ray that never leaves repeats within
    # |V| |period| + 1 steps, which raises.
    states = set()
    consumed = 0
    for lab in stream():
        d = based.step(pos, lab)
        in_core = d is not None and abs(d) in core.edges
        if d is None or (entered and not in_core):
            break
        if in_core:
            if not entered:
                if based.tail(d) != sub.attach:
                    raise RetractionError("ray entered the core away from q")
                entered = True
            alpha.append(d)
        pos = based.head(d)
        consumed += 1
        if consumed >= len(head):
            state = (pos, (consumed - len(head)) % len(period))
            if state in states:
                raise InvalidRay("ray stays in the vertex cover forever")
            states.add(state)
    if not entered:
        return sub.attach, ()
    return pos, tuple(alpha)


def _retract(G, data):
    """The retraction before naturalization (vertex cores pulled apart, a
    fresh edge eps at the ray points, marking from exact generator and
    stable paths), and each edge's ambient G-edge label; eps has none.

    The output is derived, not checked. Each vertex core is the Stallings
    core of its vertex group, a connected core graph whose loops at the
    attach vertex read the group's generators, a basis of its pi_1. The
    cores sit side by side, each one's ids shifted past the previous
    one's (vshift, eshift: 0 for the first), and eps joins ray 0's point
    on the first core to ray 1's point on the last, so the path
    bridge = alpha0 eps alpha1^-1 crosses eps once.
    - loop (one core): the graph is a connected core graph of rank n, and
      the core loops plus the loop bridge form a basis of its pi_1;
    - segment (two cores): the graph is a connected core graph, and the
      first core's loops plus the second's conjugated by the bridge form
      a basis of the free product.
    These x-paths stand for the blueprint's x-alphabet (`x_tuple`), a basis
    of F_n by the blueprint's check, and `basis_exprs` writes each a_j in
    it, so the marking paths (reduced by `substitute`, closed at the base)
    are the images of a basis under an isomorphism F_n -> pi_1: they
    generate, which is what `MarkedGraph`'s check would refold to learn."""
    bp = data.blueprint
    subs = [based_core(gens, G) for gens in bp.vertex_gens]
    (Q0, alpha0), (Q1, alpha1) = [attach_point(G, sub, ray) for sub, ray
                                  in zip((subs[0], subs[-1]), data.rays)]
    # the cores side by side; vshift and eshift end as the last core's
    edges, labels, verts = {}, {}, []
    for sub in subs:
        vshift, eshift = max(verts, default=-1) + 1, max(edges, default=-1) + 1
        for eid, (o, t, lab) in sub.core.edges.items():
            edges[eid + eshift] = (o + vshift, t + vshift)
            labels[eid + eshift] = lab
        verts += [v + vshift for v in sorted(sub.core.vertices)]
    eps = max(edges) + 1
    edges[eps] = (Q0, Q1 + vshift)
    graph = CoreGraph._derived(verts, edges)

    def shifted(p):
        return tuple(d + eshift if d > 0 else d - eshift for d in p)

    bridge, _ = reduce_letters(tuple(alpha0) + (eps,) +
                               invert_letters(shifted(alpha1)))
    x_paths = list(subs[0].loops)
    if len(subs) == 1:
        x_paths.append(bridge)
    else:
        x_paths += [reduce_letters(bridge + shifted(loop) +
                                   invert_letters(bridge))[0]
                    for loop in subs[1].loops]
    x_image = dict(enumerate(x_paths, 1))
    marking = [substitute(expr.letters, x_image)[0] for expr in bp.basis_exprs]
    return MarkedGraph._derived(graph, subs[0].attach, marking), labels


def retract_R(G, data):
    """The retraction R: `_retract`, naturalized.

    R(G/F) is R(G) with the label preimage of F collapsed. The vertex cores
    over G/F are the cores over G with that preimage collapsed (Stallings,
    Invent. Math. 71, 1983; acceptance criterion 4 checks it), and a
    collapse carries a ray's nearest point on a core to its nearest point
    on the collapsed core: a collapsed subtree that joins the ray to the
    core contains the segment from the old nearest point."""
    return _retract(G, data)[0].natural_marked()


def retraction_audit(G, forest, data):
    """Retract both ends of a collapse edge; certify both outputs lie in the
    subcomplex and differ by at most one forest collapse
    (`marked.collapse_certificate`; eps has no label, so no hull holds it).
    Returns the distance; a failure raises RetractionError."""
    G2 = G.collapse_marked(forest)[0].natural_marked()
    r1, labels = _retract(G, data)
    r1, chains = r1.naturalize(keep_base=False)
    r2 = retract_R(G2, data)
    for r in (r1, r2):
        if in_CVKT(r, data.blueprint) is None:
            raise RetractionError("retraction output left the subcomplex")
    hull = chain_hull(chains, {e for e in labels if labels[e] in forest})
    return collapse_certificate(r1, hull, r2, False, RetractionError)
