"""The acceptance suite: every criterion exact, one printed line each.

Counts and tolerances are pinned here; the CLI selftest and the pytest
acceptance module both call run_all().
"""

import random
from itertools import islice

from . import graphs
from .words import CyclicWord, basis_word, is_automorphism, nielsen_product
from .marked import MarkedGraph, VertexSet, equivalent
from .covers import FreeFactorSystem, realizes, minimal_subtree_collapse_check
from .counting import build_context, count_i, lipschitz_audit, CountError
from .witness import (WitnessParams, distortion_report, case2_build,
                      occurrence_count, ratio_within_of_golden, u_k,
                      witness_rows)
from .retract_aut import (embed_j, retract_r, pointed_equivalent,
                          lipschitz_audit as pointed_audit)
from .retract_split import (SplittingBlueprint, default_retraction_data,
                            in_CVKT, retract_R, retraction_audit)
from .spine import fold_path, bfs_distance, neighbors
from . import sampling


FIB_COLUMN = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def criterion_1():
    """Counting identity: trace counts equal matrix-power counts, k = 0..10."""
    params = WitnessParams(3, "connected", r=1)
    rows = distortion_report(params, 10)  # raises if trace != matrix oracle
    got = [r.i_k for r in rows]
    ok = got == FIB_COLUMN
    return ok, "i_k column %s (expected %s)" % (got, FIB_COLUMN)


def criterion_2():
    """Baselines: i(c_0, G_0) = 0 (case 1) and i(con_0, G') = 2 (case 2)."""
    n = 3
    G0 = MarkedGraph.rose_identity(n)
    ctx = build_context([[basis_word(1, n)]],
                        [basis_word(1, n), basis_word(2, n)], G0)
    v1 = count_i(ctx, CyclicWord.of(basis_word(3, n))).value
    cx = case2_build(WitnessParams(3, "two_component", ranks=(1, 1)))
    v2 = count_i(cx.counting_context(), cx.c0).value
    ok = v1 == 0 and v2 == 2
    return ok, "case-1 baseline %d (want 0), case-2 baseline %d (want 2)" % (v1, v2)


def _sample_cvkA_instance(rng):
    n = rng.choice([3, 3, 4])
    r = 1 if n == 3 else rng.choice([1, 2])
    A = [basis_word(i, n) for i in range(1, r + 1)]
    B = [basis_word(i, n) for i in range(1, r + 2)]
    FA = FreeFactorSystem.of([A], n)
    for _ in range(30):
        G = MarkedGraph.rose_identity(n).act(
            sampling.random_stab_auto(rng, n, r, rng.randint(0, 2)))
        for _ in range(rng.randint(0, 2)):
            out = sampling.random_blowup(rng, G)
            if out is not None:
                G = out
        if realizes(G, FA) is None:
            continue
        try:
            build_context([A], B, G)
        except CountError:
            continue
        forests = [f for f in graphs.enumerate_natural_subforests(G.graph) if f]
        rng.shuffle(forests)
        for f in forests[:6]:
            H, _ = G.collapse_marked(f)
            H = H.natural_marked()
            if realizes(H, FA) is None:
                continue
            try:
                build_context([A], B, H)
            except CountError:
                continue
            return A, B, G, f, CyclicWord.of(
                sampling.random_reduced_word(rng, n, 6, nontrivial=True))
        # fall through: try a new G
    return None


def criterion_3(instances=500, seed=101):
    """Count bracket under collapse: i <= i' <= i + 2, zero violations."""
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < instances and attempts < instances * 40:
        attempts += 1
        sample = _sample_cvkA_instance(rng)
        if sample is None:
            continue
        A, B, G, forest, c = sample
        try:
            i1, i2 = lipschitz_audit([A], B, G, forest, c)
        except CountError:
            continue
        if not (i1 <= i2 <= i1 + 2):
            return False, "bracket violated: %d -> %d" % (i1, i2)
        done += 1
    ok = done >= instances
    return ok, "%d randomized collapse instances, zero violations" % done


def criterion_4(instances=200, seed=202):
    """Cores commute with collapses (minimal subtrees at quotient level)."""
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < instances and attempts < instances * 20:
        attempts += 1
        n = rng.choice([2, 3, 4])
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        forests = graphs.enumerate_natural_subforests(G.graph)
        forest = rng.choice(forests)
        gens = [sampling.random_reduced_word(rng, n, 4, nontrivial=True)
                for _ in range(rng.randint(1, 2))]
        if not minimal_subtree_collapse_check(G, forest, gens):
            return False, "core/collapse mismatch found"
        done += 1
    ok = done >= instances
    return ok, "%d randomized (G, E, B) instances, zero violations" % done


def criterion_5(rj_instances=200, audit_instances=300, seed=303):
    """Pointed retraction: r.j identity and Lipschitz audit in {0,1}."""
    rng = random.Random(seed)
    for k in range(rj_instances):
        n = rng.choice([2, 2, 3])
        w = sampling.random_pointed_graph(rng, n, rng.randint(0, 3))
        r = retract_r(embed_j(w))
        if pointed_equivalent(r, w) is None:
            return False, "r(j(w)) != w at instance %d" % k
    done = 0
    attempts = 0
    while done < audit_instances and attempts < audit_instances * 20:
        attempts += 1
        n = rng.choice([3, 3, 4])
        x = sampling.random_pointed_graph(rng, n, rng.randint(0, 3))
        forest = sampling.random_relatively_natural_forest(rng, x)
        if forest is None:
            continue
        d, _ = pointed_audit(x, forest)  # raises on inconsistency
        if d not in (0, 1):
            return False, "pointed audit distance %r" % d
        done += 1
    ok = done >= audit_instances
    return ok, "%d identity checks, %d collapse audits, zero violations" \
        % (rj_instances, done)


def criterion_6(audit_instances=300, radius=4, per_level=10, seed=404):
    """Splitting retraction (loop blueprint, n=3): fixes the CVK^T ball,
    outputs are members, audits within {0,1}."""
    n = 3
    bp = SplittingBlueprint("loop",
                           (tuple(basis_word(i, n) for i in range(1, n)),), n, n)
    data = default_retraction_data(bp)
    rng = random.Random(seed)

    base = MarkedGraph.rose_identity(n)
    ball = [base]
    seen = VertexSet([base])
    frontier = [base]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            cands = neighbors(g)
            rng.shuffle(cands)
            for h in cands:
                if in_CVKT(h, bp) is None:
                    continue
                if not seen.add(h):
                    continue
                nxt.append(h)
                if len(nxt) >= per_level:
                    break
            if len(nxt) >= per_level:
                break
        ball.extend(nxt)
        frontier = nxt
    fixed = 0
    for v in ball:
        out = retract_R(v, data)
        if in_CVKT(out, bp) is None:
            return False, "retraction output left CVK^T"
        if equivalent(out, v) is None:
            return False, "retraction moved a CVK^T vertex"
        fixed += 1

    done = 0
    attempts = 0
    while done < audit_instances and attempts < audit_instances * 20:
        attempts += 1
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        forest = sampling.random_relatively_natural_forest(rng, G)
        if forest is None:
            continue
        d = retraction_audit(G, forest, data)  # raises if > 1
        if d not in (0, 1):
            return False, "audit distance %r" % d
        done += 1
    ok = done >= audit_instances
    return ok, "%d ball vertices fixed, %d collapse audits in {0,1}" \
        % (fixed, done)


def criterion_7(k_max=20):
    """Distortion gap: i_k/2 >= upper bound from some k* <= 12 on, and the
    growth ratio is golden to 1e-3 by k = 20 (exact rational arithmetic)."""
    params = WitnessParams(3, "connected", r=1)
    rows = distortion_report(params, k_max)
    k_star = None
    for k in range(k_max + 1):
        if all(r.i_k >= 2 * r.upper_nielsen for r in rows[k:]):
            k_star = k
            break
    golden = ratio_within_of_golden(occurrence_count(2, 2, k_max + 1),
                                    occurrence_count(2, 2, k_max))
    ok = k_star is not None and k_star <= 12 and golden
    return ok, "k* = %s (needs <= 12), golden-ratio check at k=%d: %s" \
        % (k_star, k_max, golden)


def criterion_8(k_max=10):
    """phi_k stabilizes every tested realizable system below [B], all cases;
    each phi_k is also checked invertible on its own, by a fold."""
    checks = 0
    # case 1
    n = 3
    params = WitnessParams(n, "connected", r=1)
    G0 = MarkedGraph.rose_identity(n)
    systems = [FreeFactorSystem.of([[basis_word(1, n)]], n),
               FreeFactorSystem.of([[basis_word(2, n)]], n),
               FreeFactorSystem.of([[basis_word(1, n), basis_word(2, n)]], n)]
    # case 2
    params2 = WitnessParams(3, "two_component", ranks=(1, 1))
    cx2 = case2_build(params2)
    systems2 = [FreeFactorSystem.of([[basis_word(1, 3)]], 3),
                FreeFactorSystem.of([[basis_word(2, 3)]], 3),
                FreeFactorSystem.of([[basis_word(1, 3)], [basis_word(2, 3)]], 3),
                FreeFactorSystem.of([[basis_word(1, 3), basis_word(2, 3)]], 3)]
    # case 3 (multi-component, the full system is realizable in G')
    params3 = WitnessParams(4, "multi_component", ranks=(1, 1, 1))
    cx3 = case2_build(params3)
    n3 = 4
    systems3 = [FreeFactorSystem.of([[basis_word(1, n3)]], n3),
                FreeFactorSystem.of([[basis_word(2, n3)]], n3),
                FreeFactorSystem.of([[basis_word(3, n3)]], n3),
                FreeFactorSystem.of([[basis_word(1, n3)], [basis_word(2, n3)]],
                                    n3),
                FreeFactorSystem.of([[basis_word(1, n3)], [basis_word(2, n3)],
                                     [basis_word(3, n3)]], n3)]
    for case, par, G, syst in ((1, params, G0, systems),
                               (2, params2, cx2.Gp, systems2),
                               (3, params3, cx3.Gp, systems3)):
        for k, phi, _ in islice(witness_rows(par), k_max + 1):
            if is_automorphism(phi) is None:
                return False, "case %d: phi_%d not invertible" % (case, k)
            acted = G.act(phi)
            for F in syst:
                if realizes(acted, F) is None:
                    return False, "case %d: system lost at k=%d" % (case, k)
                checks += 1
    return True, "%d realize checks, zero failures" % checks


def criterion_9(n_paths=100, seed=505):
    """Fold paths: certificate-valid; F-guarded vertices realize F; BFS never
    beats the path."""
    rng = random.Random(seed)
    n = 3
    G0 = MarkedGraph.rose_identity(n)
    F = FreeFactorSystem.of([[basis_word(1, n)]], n)
    guarded_done = 0
    for i in range(n_paths):
        moves = rng.randint(1, 4)
        if i % 3 == 0:
            # transvections away from a1: endpoints stay in CVK^F
            tokens = []
            for _ in range(moves):
                j = rng.choice([2, 3])
                t = rng.choice([x for x in range(1, n + 1) if x != j])
                tokens.append((rng.choice(["L", "R"]), j, t, 1))
            phi = nielsen_product(tokens, n)
            path = fold_path(G0, G0.act(phi), F=F)
            if path.guarded:
                if not all(path.realize_flags):
                    return False, "guarded path left CVK^F at instance %d" % i
                guarded_done += 1
        else:
            phi = sampling.random_token_auto(rng, n, moves)
            path = fold_path(G0, G0.act(phi))
    # BFS cross-check in rank 2
    G2 = MarkedGraph.rose_identity(2)
    bfs_checked = 0
    for i in range(6):
        phi = sampling.random_token_auto(rng, 2, rng.randint(1, 2))
        H = G2.act(phi)
        path = fold_path(G2, H)
        d = bfs_distance(G2, H, 6)
        if d is not None and d > len(path):
            return False, "BFS found a longer-than-path distance?!"
        if d is None and len(path) <= 6:
            return False, "BFS missed a path-certified distance"
        bfs_checked += 1
    return True, "%d paths verified (%d guarded), %d BFS cross-checks" \
        % (n_paths, guarded_done, bfs_checked)


def criterion_10(k_max=12):
    """Train-track positivity: no cancellation in Theta^k, 2 <= m <= n-1 <= 4."""
    combos = 0
    for n in range(3, 6):
        for m in range(2, n):
            w = u_k(n, m, k_max)   # raises on any cancellation event
            if not all(a > 0 for a in w.letters):
                return False, "negative letter in Theta^%d(e_1)" % k_max
            combos += 1
    return True, "%d (n, m) pairs positive through k=%d" % (combos, k_max)


CRITERIA = [
    ("1 counting identity", criterion_1),
    ("2 baseline values", criterion_2),
    ("3 count bracket under collapse", criterion_3),
    ("4 cores commute with collapses", criterion_4),
    ("5 pointed retraction", criterion_5),
    ("6 splitting retraction", criterion_6),
    ("7 distortion gap report", criterion_7),
    ("8 witness stabilization", criterion_8),
    ("9 fold paths", criterion_9),
    ("10 train-track positivity", criterion_10),
]


def run_all(out=print):
    all_ok = True
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not a skip
            ok, detail = False, "raised %r" % (exc,)
        all_ok = all_ok and ok
        out("%s  criterion %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return all_ok
