import random

import pytest

from outerspine import folding, graphs, marked, sampling, spine
from outerspine.marked import (MarkedGraph, MarkingError, canonical_key,
                               equivalent)
from outerspine.words import Endomorphism, basis_word, is_automorphism
from outerspine.covers import FreeFactorSystem
from outerspine.spine import SpineError, neighbors, bfs_distance, fold_path
import spine_oracle
from spine_oracle import farey_distance, oracle_bfs_distance


def transv(n, i, j, side="R"):
    imgs = [[x] for x in range(1, n + 1)]
    imgs[i - 1] = [j, i] if side == "L" else [i, j]
    return is_automorphism(Endomorphism.from_lists(imgs, n))


def theta_marked():
    g = graphs.theta_graph()
    return MarkedGraph(g, 0, [(1, -3), (2, -3)])


def test_neighbors_rose2():
    G = MarkedGraph.rose_identity(2)
    ns = neighbors(G)
    # no collapse neighbors (rose has no natural forest), one blow-up per
    # bipartition of the four directions into pairs: a1 a1^-1 | a2 a2^-1
    # gives the barbell, the other two give thetas
    assert len(ns) == 3
    loops = sorted(sum(o == t for o, t in h.graph.edges.values()) for h in ns)
    assert loops == [0, 0, 2]
    assert len({canonical_key(h) for h in ns}) == 3
    for h in ns:
        assert h.rank == 2
        assert any(equivalent(x, G) is not None for x in neighbors(h))


def test_neighbors_theta():
    T = theta_marked()
    ns = neighbors(T)
    collapses = [h for h in ns if len(h.graph.edges) == 2]
    assert len(collapses) == 3  # one per theta edge


def test_neighbors_symmetric():
    G = MarkedGraph.rose_identity(2)
    for h in neighbors(G):
        assert any(equivalent(x, G) is not None for x in neighbors(h))


def test_bfs_distance_basics():
    G = MarkedGraph.rose_identity(2)
    T = theta_marked()
    assert bfs_distance(G, G, 3) == 0
    d = bfs_distance(G, T, 3)
    assert d == 1
    phi = transv(2, 1, 2)
    d2 = bfs_distance(G, G.act(phi), 6)
    assert d2 == 2


def test_bfs_distance_negative_cap_is_none():
    # distance 0 is above a negative cap, so nothing is within it
    G = MarkedGraph.rose_identity(2)
    assert bfs_distance(G, G, -1) is None
    assert bfs_distance(G, theta_marked(), -1) is None


def test_bfs_metric_properties():
    G = MarkedGraph.rose_identity(2)
    phi = transv(2, 1, 2)
    H = G.act(phi)
    T = theta_marked()
    dGH = bfs_distance(G, H, 4)
    dHG = bfs_distance(H, G, 4)
    assert dGH == dHG
    dGT = bfs_distance(G, T, 4)
    dTH = bfs_distance(T, H, 4)
    assert dGH <= dGT + dTH


def test_bfs_isometry_of_action():
    G = MarkedGraph.rose_identity(2)
    phi = transv(2, 1, 2)
    psi = transv(2, 2, 1)
    # the right action: acting by phi and then psi is acting by phi psi
    assert G.act(phi).act(psi).marking == ((1, 2), (2, 1, 2))
    assert equivalent(G.act(phi).act(psi),
                      G.act(phi.endo.compose(psi.endo))) is not None
    # d(u psi, v psi) = d(u, v)
    d1 = bfs_distance(G, G.act(phi), 4)
    d2 = bfs_distance(G.act(psi), G.act(phi).act(psi), 4)
    assert d1 == d2


def spine_ball(n, radius):
    """The ball around the rank-n rose: its BFS layers and the keys of all
    its vertices."""
    G = MarkedGraph.rose_identity(n)
    keys = {canonical_key(G)}
    layers = [[G]]
    for _ in range(radius):
        nxt = []
        for g in layers[-1]:
            for h in neighbors(g):
                key = canonical_key(h)
                if key not in keys:
                    keys.add(key)
                    nxt.append(h)
        layers.append(nxt)
    return layers, keys


def test_rank2_ball_is_a_tree():
    # the rank-2 spine is a tree (Culler-Vogtmann 1986), so a ball has one
    # adjacency fewer than vertices
    layers, keys = spine_ball(2, 6)
    assert [len(layer) for layer in layers] == [1, 3, 4, 8, 8, 16, 16]
    ends = sum(len({canonical_key(h) for h in neighbors(g)} & keys)
               for layer in layers for g in layer)
    assert ends == 2 * (len(keys) - 1)


def test_rank3_ball_layer_sizes():
    layers, _ = spine_ball(3, 3)
    assert [len(layer) for layer in layers] == [1, 25, 147, 1149]


def assert_links_distinct(G):
    keys = [canonical_key(h) for h in neighbors(G)]
    assert len(set(keys)) == len(keys)


def test_neighbors_are_distinct_spine_vertices():
    # neighbors keys nothing: distinct forests and distinct ideal edges
    # already give distinct spine vertices
    for n, radius in ((2, 6), (3, 1)):
        layers, _ = spine_ball(n, radius)
        for layer in layers:
            for g in layer:
                assert_links_distinct(g)
    rng = random.Random(61)
    for i in range(100):
        n = 3 + i % 3
        assert_links_distinct(
            sampling.random_marked_graph(rng, n, rng.randint(0, 3)))


def walk_away(rng, G, steps):
    """A random walk along `neighbors` that never steps back to the vertex
    it came from, restarted at a dead end (a barbell in rank 2); in the
    rank-2 spine, a tree, it ends `steps` away."""
    while True:
        H, back = G, None
        for _ in range(steps):
            here = canonical_key(H)
            ahead = [h for h in neighbors(H) if canonical_key(h) != back]
            if not ahead:
                break
            H, back = rng.choice(ahead), here
        else:
            return H


def differential_pairs():
    """Seeded pairs: rank 2 up to distance 6, rank 3 up to distance 4."""
    rng = random.Random(73)
    pairs = []
    for steps in range(7):
        for _ in range(3):
            G1 = sampling.random_marked_graph(rng, 2, rng.randint(0, 3))
            pairs.append((G1, walk_away(rng, G1, steps), steps))
    for steps in (1, 2, 2, 3, 3, 3) * 2:
        G1 = sampling.random_marked_graph(rng, 3, rng.randint(0, 3))
        pairs.append((G1, walk_away(rng, G1, steps), steps))
    # one rank-3 pair at distance 4, seeded apart: these balls run to
    # about a thousand vertices, and this one is among the smaller
    rng = random.Random(3)
    G1 = sampling.random_marked_graph(rng, 3, 6)
    pairs.append((G1, walk_away(rng, G1, 4), 4))
    return pairs


def test_bfs_distance_matches_one_sided_oracle():
    distances = []
    for G1, G2, steps in differential_pairs():
        d = oracle_bfs_distance(G1, G2, steps)
        assert d is not None
        if G1.rank == 2:
            assert d == steps
            assert oracle_bfs_distance(G2, G1, steps) == d
        distances.append((G1.rank, d))
        # caps below the distance give None, at or above it the distance
        for cap in range(-1, d + 2):
            want = d if cap >= d else None
            assert bfs_distance(G1, G2, cap) == want
    assert {(2, d) for d in range(7)} <= set(distances)
    assert (3, 4) in distances and (3, 0) not in distances
    G = sampling.random_marked_graph(random.Random(5), 3, 2)
    for H in (G, MarkedGraph._derived(G.graph, G.basepoint, G.marking)):
        assert bfs_distance(G, H, 0) == oracle_bfs_distance(G, H, 0) == 0
        assert bfs_distance(G, H, -1) is oracle_bfs_distance(G, H, -1) is None


def test_rank2_rose_distances_match_farey():
    """Between seeded marked roses of rank 2, `bfs_distance` capped at 6
    is the Farey distance when that is at most 6 and None beyond; every
    distance up to the cap occurs."""
    rng = random.Random(29)
    rose = MarkedGraph.rose_identity(2)
    seen = set()
    for _ in range(80):
        G, H = (rose.act(sampling.random_token_auto(rng, 2, rng.randint(0, 4)))
                for _ in range(2))
        d = farey_distance(G, H)
        want = d if d <= 6 else None
        assert bfs_distance(G, H, 6) == want
        seen.add(want)
    assert seen == {0, 2, 4, 6, None}


def test_neighbors_not_symmetric_from_rank_3():
    # X collapses onto the rose along the forest {e4, e5}, but the rose's
    # neighbors hold only one-edge blow-ups, so the path back has two steps
    # and bfs_distance grows one ball, from its first argument
    X = MarkedGraph(graphs.CoreGraph([0, 2, 3], {
        2: (0, 3), 3: (2, 3), 4: (3, 2), 5: (0, 2), 6: (0, 3)}), 0,
        [(5, -4, -6), (6, 4, -5, 2, -6), (6, 4, 3, -6)])
    R = MarkedGraph.rose_identity(3)
    assert equivalent(X.collapse_marked({4, 5})[0], R) is not None
    assert oracle_bfs_distance(X, R, 4) == bfs_distance(X, R, 4) == 1
    assert oracle_bfs_distance(R, X, 4) == bfs_distance(R, X, 4) == 2


def count_keys(monkeypatch):
    """Count the canonical_key and equivalent calls made through marked,
    where `VertexSet` makes them, and the oracle's canonical_key calls."""
    calls = {"canonical_key": 0, "equivalent": 0}

    def counted(f):
        def wrapped(*args):
            calls[f.__name__] += 1
            return f(*args)
        return wrapped
    monkeypatch.setattr(marked, "canonical_key", counted(canonical_key))
    monkeypatch.setattr(marked, "equivalent", counted(equivalent))
    monkeypatch.setattr(spine_oracle, "canonical_key", counted(canonical_key))
    return calls


def test_neighbors_key_nothing(monkeypatch):
    calls = count_keys(monkeypatch)
    for n in (2, 3, 4):
        assert neighbors(MarkedGraph.rose_identity(n))
    assert calls == {"canonical_key": 0, "equivalent": 0}


def test_bfs_distance_keys_fewer_than_oracle(monkeypatch):
    rng = random.Random(97)
    G1 = sampling.random_marked_graph(rng, 2, 2)
    G2 = walk_away(rng, G1, 4)
    calls = count_keys(monkeypatch)
    assert bfs_distance(G1, G2, 4) == 4
    two_ended = dict(calls)
    calls.update(canonical_key=0, equivalent=0)
    assert oracle_bfs_distance(G1, G2, 4) == 4
    # two balls of radius 2 against one of radius 3 and part of its fourth
    # layer; the ends' own keys count too. No two distinct vertices of the
    # two balls share their circuit lengths, so they key nothing and call
    # equivalent only on the two arrivals already in a ball.
    assert two_ended == {"canonical_key": 0, "equivalent": 2}
    assert calls == {"canonical_key": 30, "equivalent": 0}


def test_bfs_distance_measures_each_neighbour_once(monkeypatch):
    """bfs_distance asks whether a neighbour is in the other ball and then
    adds it to its own; both read its circuit lengths, which are kept on
    the marked graph, so each end and each neighbour costs one cyclic_core
    call per marking path. Below the distance no neighbour is skipped."""
    rng = random.Random(97)
    pairs = [(G1, walk_away(rng, G1, 4), 3) for G1 in
             (sampling.random_marked_graph(rng, 2, 2),
              sampling.random_marked_graph(rng, 2, 3))]
    rng = random.Random(3)
    G1 = sampling.random_marked_graph(rng, 3, 6)
    pairs.append((G1, walk_away(rng, G1, 4), 2))
    cores, met = [], []
    real_core, real_neighbors = marked.cyclic_core, spine.neighbors

    def counted_core(p):
        cores.append(p)
        return real_core(p)

    def recorded_neighbors(G):
        out = real_neighbors(G)
        met.extend(out)
        return out

    monkeypatch.setattr(marked, "cyclic_core", counted_core)
    monkeypatch.setattr(spine, "neighbors", recorded_neighbors)
    for G1, G2, cap in pairs:
        cores.clear()
        met.clear()
        assert bfs_distance(G1, G2, cap) is None
        assert met and len(cores) == G1.rank * (2 + len(met))


def test_fold_path_identity():
    G = MarkedGraph.rose_identity(2)
    p = fold_path(G, G)
    assert len(p) == 0
    p.verify()


def test_fold_path_single_transvection():
    G = MarkedGraph.rose_identity(2)
    H = G.act(transv(2, 1, 2))
    p = fold_path(G, H)
    p.verify()
    assert len(p) <= 4
    assert equivalent(p.vertices[0], G) is not None
    assert equivalent(p.vertices[-1], H) is not None
    d = bfs_distance(G, H, 6)
    assert d is not None and d <= len(p)


# Path lengths of the seeded paths below; they pin the fold choice (least
# vertex, then its first label collision in |eid| order), which sets the
# cost of verify().
RANDOM_F3_LENGTHS = [10, 4, 2, 2, 6, 2, 2, 2, 2, 2, 4, 9]


def test_fold_path_random_f3():
    rng = random.Random(41)
    G = MarkedGraph.rose_identity(3)
    lengths = []
    for _ in range(12):
        endo = Endomorphism.identity(3)
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, 3)
            j = rng.choice([x for x in range(1, 4) if x != i])
            endo = transv(3, i, j, rng.choice(["L", "R"])).endo.compose(endo)
        phi = is_automorphism(endo)
        H = G.act(phi)
        p = fold_path(G, H)
        p.verify()
        assert equivalent(p.vertices[-1], H) is not None
        lengths.append(len(p))
    assert lengths == RANDOM_F3_LENGTHS


def test_fold_path_guarded():
    G = MarkedGraph.rose_identity(3)
    F = FreeFactorSystem.of([[basis_word(1, 3)]], 3)
    phi = transv(3, 2, 3)      # fixes a1: stays in CVK^F
    H = G.act(phi)
    p = fold_path(G, H, F=F)
    p.verify()
    assert p.guarded
    assert p.realize_flags and all(p.realize_flags)


def test_fold_path_guard_dropped_for_nonrose():
    T = theta_marked()
    G = MarkedGraph.rose_identity(2)
    F = FreeFactorSystem.of([[basis_word(1, 2)]], 2)
    p = fold_path(T, G, F=F)
    p.verify()
    assert not p.guarded
    assert "dropped" in p.guard_report


def fault_pairs():
    """Seeded rank-3 pairs: the rose and an image of it, and two blown-up
    graphs, so that both tree steps are on the path."""
    rng = random.Random(2)
    rose = MarkedGraph.rose_identity(3)
    return [(rose, rose.act(sampling.random_token_auto(rng, 3, 3))),
            (sampling.random_marked_graph(rng, 3, 3),
             sampling.random_marked_graph(rng, 3, 3))]


CERTIFICATE_FAILED = r"^certificate \d+: (collapse|representative) mismatch$"


def test_fold_path_rejects_swapped_step_forests(monkeypatch):
    hulls = spine._hulls

    def swapped(star, *forests):
        nat, (hull_eta, hull_rs0) = hulls(star, *forests)
        return nat, [hull_rs0, hull_eta]
    monkeypatch.setattr(spine, "_hulls", swapped)
    for G1, G2 in fault_pairs():
        with pytest.raises(SpineError, match=CERTIFICATE_FAILED):
            fold_path(G1, G2)


def test_fold_path_rejects_a_step_forest_short_of_an_edge(monkeypatch):
    hulls = spine._hulls
    dropped = []

    def short(star, *forests):
        nat, out = hulls(star, *forests)
        for i, hull in enumerate(out):
            if len(hull) > 1:
                out[i] = hull - {min(hull)}
                dropped.append(hull)
        return nat, out
    monkeypatch.setattr(spine, "_hulls", short)
    for G1, G2 in fault_pairs():
        dropped.clear()
        with pytest.raises(SpineError, match=CERTIFICATE_FAILED):
            fold_path(G1, G2)
        assert dropped


class TransvectedSubdivision(folding.Folder):
    """The first petal's chain read after the second's: the subdivided
    rose's marking sends a2 to a2 a1, another spine vertex."""
    chains = ()

    def add_loop(self, labels, val=()):
        chain = super().add_loop(labels, val)
        self.chains += (chain,)
        return chain + self.chains[0] if len(self.chains) == 2 else chain


class StopsAfterOneFold(folding.Folder):
    folds = 0

    def next_fold(self):
        self.folds += 1
        return super().next_fold() if self.folds == 1 else None


@pytest.mark.parametrize("folder", [TransvectedSubdivision, StopsAfterOneFold])
def test_fold_path_rejects_a_wrong_terminus(monkeypatch, folder):
    # a subdivision with another marking folds to another rose, and a
    # folder that stops early ends short of G2's rose; the terminus check
    # finds both, so the subdivided rose needs no check of its own
    monkeypatch.setattr(spine, "Folder", folder)
    for G1, G2 in fault_pairs():
        with pytest.raises(SpineError, match="^fold terminus does not match"
                                             " the target rose$"):
            fold_path(G1, G2)


def test_fold_path_computes_each_certificate_once(monkeypatch):
    rng = random.Random(7)
    G1 = sampling.random_marked_graph(rng, 3, 3)
    G2 = sampling.random_marked_graph(rng, 3, 3)
    calls = {"equivalent": 0, "collapse_matches": 0, "collapse_marked": 0,
             "naturalize": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)
    counted(spine, "equivalent")
    counted(spine, "collapse_matches")
    counted(MarkedGraph, "collapse_marked")
    counted(MarkedGraph, "naturalize")

    def refuse(*args):
        raise AssertionError("centre walk or witness tree computed")
    # every certificate here is met by the based walk, with g = 1
    monkeypatch.setattr("outerspine.marked._centre", refuse)
    monkeypatch.setattr("outerspine.marked._descend", refuse)
    monkeypatch.setattr(MarkedGraph, "spanning_paths", refuse)
    path = fold_path(G1, G2)
    kinds = "".join(st.kind[0] for st in path.steps)
    assert kinds == "duududdudu"
    # collapse_matches: one routine call per step, and collapse_marked only
    # for the two spanning trees: no certificate builds its collapse.
    # equivalent: the two representatives that are not their upper vertex,
    # one new-vertex test per fold-down and the terminus. naturalize: one
    # star per fold (six) and the three graphs after a fold-down that are
    # not natural.
    assert calls == {"equivalent": 2 + 4 + 1, "collapse_matches": 10,
                     "collapse_marked": 2, "naturalize": 6 + 3}


def recipe_pair(s):
    """The seeded rank-3 pair of the fold-path tail defect."""
    rng = random.Random(s)
    sampling.random_token_auto(rng, 3, 3)
    return (sampling.random_marked_graph(rng, 3, 3),
            sampling.random_marked_graph(rng, 3, 3))


def shared_conjugator(G1, G2):
    """Whether every petal image of G1's rose in G2's rose runs x ... x^-1
    for one edge letter x."""
    rose1, _ = spine._tree_collapse_to_rose(G1.natural_marked())
    rose2, _ = spine._tree_collapse_to_rose(G2.natural_marked())
    vals = rose1.inverse_marking_values()
    images = [rose2.expand(vals[e]) for e in sorted(rose1.graph.edges)]
    return len({(p[0], p[-1]) for p in images}) == 1 and \
        images[0][0] == -images[0][-1]


@pytest.mark.parametrize("s", [4, 12, 39])
def test_fold_path_strips_a_shared_conjugator(s):
    # every petal image shares x ... x^-1: the folds at the base would
    # leave the basepoint on a tail if the conjugator were kept
    G1, G2 = recipe_pair(s)
    assert shared_conjugator(G1, G2)
    path = fold_path(G1, G2)
    assert equivalent(path.vertices[-1], G2) is not None


def test_fold_path_vertices_are_natural_random():
    shared = 0
    for s in range(200):
        G1, G2 = recipe_pair(s)
        shared += shared_conjugator(G1, G2)
        path = fold_path(G1, G2)
        path.verify()
        assert all(v.graph.is_natural() for v in path.vertices)
        assert all(st.X.graph.is_natural() for st in path.steps)
    assert shared == 14


def on_a_tail(G):
    """G with its basepoint moved to the end of a new edge hanging off it:
    the same spine vertex, but not a core graph."""
    g = G.graph
    tail, b = max(g.edges) + 1, max(g.vertices) + 1
    edges = dict(g.edges)
    edges[tail] = (b, G.basepoint)
    graph = graphs.CoreGraph._derived(sorted(g.vertices) + [b], edges)
    return MarkedGraph._derived(graph, b, [(tail,) + p + (-tail,)
                                           for p in G.marking])


def test_naturalize_rejects_a_basepoint_on_a_tail():
    """A basepoint of valence 1 is not natural, and no merging of
    valence-2 vertices makes it so: both forms raise."""
    T = on_a_tail(MarkedGraph.rose_identity(3))
    assert T.graph.valence(T.basepoint) == 1
    for keep_base in (True, False):
        with pytest.raises(MarkingError, match="valence 1"):
            T.naturalize(keep_base)
    with pytest.raises(MarkingError, match="valence 1"):
        T.natural_marked()


def test_verify_rejects_a_vertex_on_a_tail():
    T = on_a_tail(MarkedGraph.rose_identity(3))
    # no step certifies anything here, so only the vertex check can fail
    with pytest.raises(SpineError, match="^vertex 0 is not natural$"):
        spine.SpinePath([T], []).verify()
    for G1, G2 in fault_pairs():
        path = fold_path(G1, G2)
        for i in range(len(path.vertices)):
            vertices = list(path.vertices)
            vertices[i] = on_a_tail(vertices[i])
            with pytest.raises(SpineError,
                               match="^vertex %d is not natural$" % i):
                spine.SpinePath(vertices, path.steps).verify()
