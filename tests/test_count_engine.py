"""Seeded differential tests of the one-pass crossing count against the
two-pass trace it replaced (tests/count_oracle.py), of the walked path
summaries against ones composed edge by edge (the oracle), of the composed
segment summaries against the one-pass count, of the summaries a context keeps
against ones composed on a fresh context, and of the bracket audit
against one that builds both contexts from scratch.

The oracle traces the least rotation of each circuit (`circuit_of`) and
count_i the cyclic core as it is read, so equal values also check that
the count does not depend on the rotation."""

import dataclasses
import itertools
import random

import pytest

import count_oracle
import witness_oracle
from outerspine import (acceptance, cli, counting, covers, graphs, sampling,
                        textio, witness)
from outerspine.counting import (CountError, build_context, close, compose,
                                 path_summary)
from outerspine.covers import stallings_core
from outerspine.marked import MarkedGraph
from outerspine.words import CyclicWord, ReducedWord, basis_word, word


def outcome(count, ctx, c):
    try:
        got = count(ctx, c)
    except CountError as exc:
        return type(exc)
    return got.value


def fixed_inputs():
    """(A list, B, G) for each complement shape: a lollipop ("loop"), two
    components on it ("edge"), a theta ("edge") and a subdivided loop at
    the core ("loop_at_core")."""
    n = 3
    lollipop = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (0, 1),
                                         4: (0, 0)})
    G = MarkedGraph(lollipop, 0, [(1,), (3, 2, -3), (4,)])
    A0, A1 = [basis_word(1, n)], [basis_word(2, n)]
    B = [basis_word(1, n), basis_word(2, n)]
    out = [([A0], B, G), ([A0, A1], B, G)]
    theta = graphs.CoreGraph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1),
                                      4: (0, 0)})
    out.append(([A0], B, MarkedGraph(theta, 0, [(1, -3), (2, -3), (4,)])))
    out.append(([A0], [basis_word(1, n), word([2, 3], n)],
                MarkedGraph.rose_identity(n)))
    return out


def fixed_contexts():
    """Each complement shape, and the two-component witness complex."""
    out = [(build_context(A_list, B, G), B) for A_list, B, G in fixed_inputs()]
    cx = witness.case2_build(witness.WitnessParams(4, "two_component",
                                                   ranks=(1, 1)))
    out.append((cx.counting_context(), cx.B_gens()))
    return out


def random_contexts(rng, count):
    """Contexts over random spine vertices of ranks 3 and 4; vertices
    outside CVK^[A] (build_context raises) are skipped."""
    out = []
    while len(out) < count:
        n = rng.choice([3, 4])
        r = rng.randint(1, n - 2)
        A = [basis_word(i, n) for i in range(1, r + 1)]
        B = [basis_word(i, n) for i in range(1, r + 2)]
        G = MarkedGraph.rose_identity(n).act(
            sampling.random_stab_auto(rng, n, r, rng.randint(0, 3)))
        for _ in range(rng.randint(0, 3)):
            G = sampling.random_blowup(rng, G) or G
        try:
            out.append((build_context([A], B, G), B))
        except CountError:
            continue
    return out


def word_in_B_conjugate(rng, n, B):
    """A random product of B's generators, conjugated by a random word."""
    letters = []
    for _ in range(rng.randint(1, 5)):
        b = rng.choice(B)
        letters.extend(b.letters if rng.random() < 0.5
                       else b.inverse().letters)
    g = sampling.random_reduced_word(rng, n, 6)
    return ReducedWord.make(letters, n).conjugate_by(g)


def random_classes(rng, n, B):
    """Random classes, classes conjugate into B, and long products of both."""
    out = []
    for _ in range(12):
        out.append(sampling.random_reduced_word(rng, n, 12, nontrivial=True))
    for _ in range(6):
        out.append(word_in_B_conjugate(rng, n, B))
    for _ in range(2):
        w = sampling.random_reduced_word(rng, n, 40, nontrivial=True)
        out.append(word(w.letters * rng.randint(2, 25), n))
    return [CyclicWord.of(w) for w in out if not w.is_trivial()]


def test_count_i_matches_two_pass_trace():
    rng = random.Random(71)
    seen = set()
    for ctx, B in fixed_contexts() + random_contexts(rng, 24):
        for c in random_classes(rng, ctx.G.rank, B):
            want = outcome(count_oracle.count_i, ctx, c)
            assert outcome(counting.count_i, ctx, c) == want, c.letters
            seen.add(want if isinstance(want, type) else want > 0)
    # both verdicts and nonzero counts were exercised
    assert {counting.ConjugateIntoB, True, False} <= seen


def test_count_i_matches_two_pass_on_witness_classes():
    params = witness.WitnessParams(4, "connected", r=1)
    ctx = build_context([[basis_word(1, 4)]],
                        [basis_word(1, 4), basis_word(2, 4)],
                        MarkedGraph.rose_identity(4))
    c0 = CyclicWord.of(basis_word(4, 4))
    for k in (0, 5, 10):
        _, phi, _ = witness_oracle.phi_k(params, k)
        ck = phi.apply_cyclic(c0)
        assert outcome(counting.count_i, ctx, ck) == \
            outcome(count_oracle.count_i, ctx, ck)


def bracketed_summary(ctx, circuit, rng):
    """The circuit's summary, composed from its edge summaries in a random
    bracketing."""
    parts = [count_oracle.edge_summary(ctx, a) for a in circuit]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [compose(parts[i], parts[i + 1])]
    return parts[0]


def test_close_of_composed_edge_summaries_matches_count_i():
    rng = random.Random(73)
    seen = set()
    block_lengths = set()
    for ctx, B in fixed_contexts() + random_contexts(rng, 24):
        block_lengths.add(len(ctx.block))
        for c in random_classes(rng, ctx.G.rank, B):
            want = outcome(counting.count_i, ctx, c)
            W = bracketed_summary(ctx, ctx.G.circuit_of(c), rng)
            try:
                got = close(W)
            except CountError as exc:
                got = type(exc)
            assert got == want, c.letters
            seen.add(want if isinstance(want, type) else want > 0)
    assert {counting.ConjugateIntoB, True, False} <= seen
    # windows that straddle junctions: blocks longer than one edge
    assert max(block_lengths) > 1


def fields(S):
    """A summary without its context's tables."""
    return S.last, S.through, S.arrivals, S.best


def circuit_pieces(rng, ctx, B):
    """Circuits of random classes, a random piece of each, its prefix and
    suffix to that piece, and one one-letter piece."""
    pieces = []
    for c in random_classes(rng, ctx.G.rank, B):
        circuit = tuple(ctx.G.circuit_of(c))
        i = rng.randrange(len(circuit))
        j = rng.randrange(i, len(circuit)) + 1
        pieces += [circuit, circuit[:j], circuit[i:j], circuit[i:],
                   circuit[i:i + 1]]
    return pieces


def test_walked_path_summary_matches_composed_edges():
    """The summary `path_summary` reads off one walk equals the one the
    oracle composes edge by edge, in every field, on one-letter paths,
    circuits and pieces of circuits, with blocks longer than one edge."""
    rng = random.Random(29)
    seen = {"paths": 0, "arrivals": 0, "best": 0, "dead runs": 0,
            "long block": 0}
    for ctx, B in fixed_contexts() + random_contexts(rng, 12):
        seen["long block"] += len(ctx.block) > 1
        for p in circuit_pieces(rng, ctx, B):
            want = count_oracle.composed_summary(dataclasses.replace(ctx), p)
            got = path_summary(dataclasses.replace(ctx), p)
            assert fields(got) == fields(want), p
            seen["paths"] += 1
            seen["arrivals"] += bool(got.arrivals)
            seen["best"] += got.best > 0
            seen["dead runs"] += any(u is None and c
                                     for u, c, _, _ in got.through.values())
    assert seen["paths"] >= 1500 and all(seen.values()), seen


def test_kept_summaries_equal_fresh_ones():
    """The path summaries a context keeps, one-letter ones included, equal
    the ones the oracle composes edge by edge on a fresh context, after
    every circuit and its overlapping pieces went through the kept ones;
    each is built once and shared."""
    rng = random.Random(79)
    shared = 0
    for ctx, B in fixed_contexts() + random_contexts(rng, 12):
        pieces = circuit_pieces(rng, ctx, B)
        pieces += [(a,) for a in {a for p in pieces for a in p}]
        kept = [path_summary(ctx, p) for p in pieces]
        for p, S in zip(pieces, kept):
            assert path_summary(ctx, p) is S
            want = count_oracle.composed_summary(dataclasses.replace(ctx), p)
            assert fields(S) == fields(want), p
            shared += len(p) == 1
    assert shared > 100


def bracket_contexts(rng, count):
    """Contexts of the audit's bracket instances, whose blocks run over two
    and three edges where G is blown up."""
    out = []
    while len(out) < count:
        n = rng.choice([3, 4])
        inst = bench_bracket_instance(rng, n, rng.randint(1, n - 2))
        if inst is not None:
            A, B, G, _, _ = inst
            try:
                out.append((build_context([A], B, G), B))
            except CountError:
                continue
    return out


def outcome_of_close(close_fn, W):
    try:
        return close_fn(W)
    except CountError as exc:
        return type(exc) if type(exc) is not counting.CountError \
            else CountError


def test_one_loop_kernel_matches_per_run_kernel():
    """The summaries `path_summary` walks in one loop, and the ones
    `compose` and `close` build from them, equal those of the per-run
    kernel they replaced (`count_oracle.per_run_summary`, `per_run_compose`,
    `per_run_close`) in every field and in the closed value, on the
    contexts of `test_kept_summaries_equal_fresh_ones` and the audit's
    bracket contexts (blocks of two and three edges). Each circuit is cut
    into random pieces and composed in a random bracketing, so windows are
    carried across junctions, mid-window and past the block's length."""
    rng = random.Random(83)
    seen = {"block 2": 0, "block 3": 0, "carried window": 0,
            "carried past q": 0, "closed": 0, "conjugate into B": 0}
    contexts = (fixed_contexts() + random_contexts(rng, 12)
                + bracket_contexts(rng, 16))
    for ctx, B in contexts:
        seen["block 2"] += len(ctx.block) == 2
        seen["block 3"] += len(ctx.block) == 3
        fresh, old = dataclasses.replace(ctx), dataclasses.replace(ctx)
        for p in circuit_pieces(rng, ctx, B):
            assert fields(path_summary(fresh, p)) == \
                fields(count_oracle.per_run_summary(old, p)), p
        for c in random_classes(rng, ctx.G.rank, B):
            circuit = tuple(ctx.G.circuit_of(c))
            cuts = sorted(rng.sample(range(1, len(circuit)),
                                     min(len(circuit) - 1,
                                         rng.randint(0, 6))))
            spans = list(zip([0] + cuts, cuts + [len(circuit)]))
            new = [path_summary(fresh, circuit[i:j]) for i, j in spans]
            ref = [count_oracle.per_run_summary(old, circuit[i:j])
                   for i, j in spans]
            while len(new) > 1:
                k = rng.randrange(len(new) - 1)
                S = new[k]
                runs = [t for u, _, t, _ in S.through.values()
                        if u is not None] + [t for _, t in
                                             S.arrivals.values()]
                if any(runs):
                    seen["carried window"] += 1
                    T = new[k + 1]
                    seen["carried past q"] += any(
                        len(head) >= len(ctx.block)
                        for _, _, _, head in T.through.values())
                new[k:k + 2] = [compose(new[k], new[k + 1])]
                ref[k:k + 2] = [count_oracle.per_run_compose(ref[k],
                                                             ref[k + 1])]
                assert fields(new[k]) == fields(ref[k]), c.letters
            got = outcome_of_close(close, new[0])
            assert got == outcome_of_close(count_oracle.per_run_close,
                                           ref[0]), c.letters
            seen["closed"] += 1
            seen["conjugate into B"] += got is counting.ConjugateIntoB
    assert all(seen.values()), seen


def subdivided(rng, G):
    """G with a valence-2 vertex inserted next to a random vertex: the
    blow-up that moves one direction alone to the new vertex's side."""
    v = rng.choice(sorted(G.graph.vertices))
    dirs = sorted(G.graph.directions(v), key=abs)
    d = rng.choice(dirs)
    return G.blowup_marked(v, (d,), tuple(x for x in dirs if x != d))[0]


def case1_instance(rng):
    """Case 1 at ranks 3-4: A = <a1..ar>, B = A plus a_{r+1} or a word in
    the letters outside A, over a natural or a subdivided graph."""
    n = rng.choice([3, 4])
    r = rng.randint(1, n - 2)
    A = [basis_word(i, n) for i in range(1, r + 1)]
    extra = basis_word(r + 1, n)
    if rng.random() < 0.3:
        extra = ReducedWord.make([rng.choice([1, -1]) * rng.randint(r + 1, n)
                                  for _ in range(rng.randint(2, 3))], n)
    G = MarkedGraph.rose_identity(n).act(
        sampling.random_stab_auto(rng, n, r, rng.randint(0, 3)))
    for _ in range(rng.randint(1, 3)):
        G = sampling.random_blowup(rng, G) or G
    return [A], A + [extra], G


def case2_instance(rng):
    """Case 2: A0 = <a1> and A1 = <a2> in B = <a1, a2>, over blow-ups of
    the lollipop that carries them on two loops joined by an edge, acted
    on by transvections of the letters outside B (which fix a1 and a2)."""
    n = rng.choice([3, 4])
    loops = {k: (0, 0) for k in range(4, n + 2)}
    g = graphs.CoreGraph([0, 1], {1: (0, 0), 2: (1, 1), 3: (0, 1), **loops})
    G = MarkedGraph(g, 0, [(1,), (3, 2, -3)] + [(k,) for k in loops])
    for _ in range(rng.randint(0, 2)):
        j = rng.randint(3, n)
        i = rng.choice([x for x in range(1, n + 1) if x != j])
        G = G.act(sampling.transvection(n, j, i, rng.choice("LR")))
    for _ in range(rng.randint(1, 3)):
        G = sampling.random_blowup(rng, G) or G
    A0, A1 = [basis_word(1, n)], [basis_word(2, n)]
    return [A0, A1], A0 + A1, G


def audit_outcome(audit, *args):
    try:
        return audit(*args)
    except CountError as exc:
        return type(exc)


def images(KA, K):
    """The distinct (edge set, vertex set) images of KA's embeddings in K."""
    return {(frozenset(emap.values()), frozenset(vmap.values()))
            for vmap, emap in covers.embeddings(KA, K)}


def test_lipschitz_audit_matches_from_scratch_contexts(monkeypatch):
    """The derived context on G/F gives the same counts, or the same error,
    as the one built from scratch over the natural representative of G/F,
    and its cores are the folded ones up to label isomorphism. Each A-core
    has one image in K at both ends, so the two contexts count against the
    same embedded A whichever embedding their searches meet first."""
    located = []
    locate = counting._locate

    def recording_locate(G, K, A_cores):
        try:
            ctx = locate(G, K, A_cores)
        except CountError:
            located.append((G, K, A_cores, False))
            raise
        located.append((G, K, A_cores, True))
        return ctx

    monkeypatch.setattr(counting, "_locate", recording_locate)
    rng = random.Random(79)
    seen = {"case 2 pair": 0, "natural G/F": 0, "subdivided G/F": 0,
            "G/F out of CVK^[A]": 0, "conjugate into B": 0, "instances": 0}
    for k in range(1100):
        A_list, B, G = (case2_instance if k % 4 == 3 else case1_instance)(rng)
        if rng.random() < 0.3:
            G = subdivided(rng, G)
        forests = graphs.enumerate_natural_subforests(G.graph,
                                                      include_empty=False)
        forest = rng.choice(forests)
        w = (word_in_B_conjugate(rng, G.rank, B) if rng.random() < 0.2 else
             sampling.random_reduced_word(rng, G.rank, 8, nontrivial=True))
        if w.is_trivial():
            continue
        c = CyclicWord.of(w)
        want = audit_outcome(count_oracle.lipschitz_audit, A_list, B, G,
                             forest, c)
        located.clear()
        assert audit_outcome(counting.lipschitz_audit, A_list, B, G, forest,
                             c) == want, (k, forest, c.letters)
        for _, K, A_cores, _ in located:
            for KA in A_cores:
                assert len(images(KA, K)) <= 1, (k, forest)
        if len(located) == 2:
            G2, K2, A_cores2, ok = located[1]
            assert covers.labeled_isomorphism(
                K2, stallings_core(B, G2)) is not None
            for KA, gens in zip(A_cores2, A_list):
                assert covers.labeled_isomorphism(
                    KA, stallings_core(gens, G2)) is not None
            natural = all(len(G2.graph.directions(v)) > 2
                          for v in G2.graph.vertices)
            seen["natural G/F" if natural else "subdivided G/F"] += 1
            if not ok:
                seen["G/F out of CVK^[A]"] += 1
        if want is counting.ConjugateIntoB:
            seen["conjugate into B"] += 1
        elif len(A_list) == 2 and not isinstance(want, type):
            seen["case 2 pair"] += 1
        seen["instances"] += 1
    assert seen["instances"] >= 1000
    assert all(seen.values()), seen


def test_count_depends_on_the_embedding_where_B_is_not_a_free_factor():
    """A = <a1> in B = <a1, a2 a1 a2^-1> over the rose: B is not a free
    factor (a2 conjugates a1 into it), the A-core embeds in K twice, and
    the two embeddings count a class differently. The unbased cores do not
    say which image is A itself, so `lipschitz_audit` is only tied across
    a collapse where the image is unique, as it is for a free factor B."""
    n = 3
    G = MarkedGraph.rose_identity(n)
    A = [basis_word(1, n)]
    B = A + [word([2, 1, -2], n)]
    K, KA = stallings_core(B, G), stallings_core(A, G)
    c = CyclicWord.of(word([-3, -1, 2, 1, -2, -1], n))
    counts = []
    for eset, vset in sorted(images(KA, K), key=lambda im: sorted(im[1])):
        block, shape = counting._block(K, eset, vset)
        ctx = counting.CountingContext(G, K, (eset,), (vset,), block, shape)
        counts.append(counting.count_i(ctx, c).value)
    assert counts == [1, 2]


def subgroup_instance(rng):
    """Arbitrary subgroups at ranks 2-4 over a random spine vertex: A of
    rank 1 or 2 from random words, and B = A plus a random word or a
    conjugate of A's first generator (so that A may embed more than once);
    or, for case 2, A0 = <w0>, A1 = <w1> and B = <w0, w1>."""
    n = rng.choice([2, 3, 4])
    G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
    words = [sampling.random_reduced_word(rng, n, 4, nontrivial=True)
             for _ in range(3)]
    if rng.random() < 0.25:
        return [words[:1], words[1:2]], words[:2], G
    A = words[:rng.randint(1, 2)]
    extra = (A[0].conjugate_by(sampling.random_reduced_word(rng, n, 3))
             if rng.random() < 0.4 else words[2])
    return [A], A + [extra], G


def test_block_matches_classifier_search():
    """The one-walk block equals the old classifier's search (the oracle)
    at every image of the A-cores, or every vertex-disjoint pair of images
    in case 2, over free-factor and arbitrary-subgroup contexts that pass
    the rank checks; the oracle never refuses one, and in case 2 the chain
    joins the two images."""
    rng = random.Random(28)
    seen = {"edge": 0, "loop": 0, "loop_at_core": 0, "case 2": 0,
            "two images": 0}
    for k in range(900):
        maker = (case2_instance, case1_instance, subgroup_instance)[k % 3]
        A_list, B, G = maker(rng)
        K = stallings_core(B, G)
        A_cores = [stallings_core(gens, G) for gens in A_list]
        if sum(KA.rank for KA in A_cores) + (len(A_cores) == 1) != K.rank:
            continue
        image_sets = [sorted(images(KA, K), key=lambda im: sorted(im[1]))
                      for KA in A_cores]
        seen["two images"] += any(len(ims) > 1 for ims in image_sets)
        for pair in itertools.product(*image_sets):
            vsets = [v for _, v in pair]
            if len(pair) == 2 and vsets[0] & vsets[1]:
                continue
            eset = frozenset().union(*(e for e, _ in pair))
            vset = frozenset().union(*vsets)
            got = counting._block(K, eset, vset)
            assert got == count_oracle.classify_complement(
                K, eset, vset, len(pair) == 2), (k, pair)
            block, shape = got
            seen[shape] += 1
            if len(pair) == 2:
                ends = {K.tail(block[0]), K.head(block[-1])}
                assert ends & vsets[0] and ends & vsets[1], (k, pair)
                seen["case 2"] += 1
    assert all(v >= 20 for v in seen.values()), seen


def test_image_missing_an_edge_raises_count_error(monkeypatch, tmp_path,
                                                  capsys):
    """An image of the first A-core that misses one of its edges leaves a
    complement that breaks the rank count: every shape, and every dropped
    edge, raises CountError, and count-i exits 2 with one error line."""
    image = counting._image

    def missing_edge(j):
        def image_j(KA, K, i):
            eset, vset = image(KA, K, i)
            return eset - {sorted(eset)[j]} if i == 0 else eset, vset
        return image_j

    inputs = fixed_inputs()
    contexts = [build_context(*inp) for inp in inputs]
    assert {ctx.shape for ctx in contexts} == {"edge", "loop", "loop_at_core"}
    for inp, ctx in zip(inputs, contexts):
        for j in range(len(ctx.A_edge_sets[0])):
            monkeypatch.setattr(counting, "_image", missing_edge(j))
            with pytest.raises(CountError):
                build_context(*inp)
    monkeypatch.setattr(counting, "_image", missing_edge(0))
    rose = tmp_path / "rose.txt"
    rose.write_text(textio.print_marked(MarkedGraph.rose_identity(3)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["count-i", "--graph", str(rose), "--a", "a1",
                  "--b", "a1, a2", "--cls", "a3 a1 a2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_count_certificate_faults_exit_3(monkeypatch, tmp_path, capsys):
    """The count's certificates fail only where the program is at fault,
    so each fault is put in by hand: `_walk` handed a complement with an
    edge it cannot reach (the chain walk of a theta graph's block, the
    cycle walk of the rose's), and a step table that keeps only the
    positive labels, so the step is not injective and a run from an entry
    state never dies. Each raises CountCertificateError, also a
    CountError, and count-i exits 3 with one `AUDIT VIOLATION:` line."""
    assert issubclass(counting.CountCertificateError, CountError)
    rose = tmp_path / "rose.txt"
    rose.write_text(textio.print_marked(MarkedGraph.rose_identity(3)))
    theta = tmp_path / "theta.txt"
    theta.write_text(textio.print_marked(fixed_inputs()[2][2]))
    walk, step_tables = counting._walk, covers.LabeledGraph.step_tables

    def unreachable_edge(K, edges, start, closed):
        return walk(K, edges | {0}, start, closed)

    def positive_steps(K):
        out, heads = step_tables(K)
        return {v: {a: d for a, d in o.items() if a > 0}
                for v, o in out.items()}, heads

    faults = [
        (theta, "_walk", unreachable_edge, "a3 a1 a2",
         "chain walk missed edges of its component"),
        (rose, "_walk", unreachable_edge, "a3 a1 a2",
         "cycle walk did not close up over its cycle"),
        (rose, "step_tables", positive_steps, "a1 a2",
         "entry-state run exceeded budget")]
    for graph, name, fault, cls, message in faults:
        with monkeypatch.context() as m:
            if name == "_walk":
                m.setattr(counting, name, fault)
            else:
                m.setattr(covers.LabeledGraph, name, fault)
            with pytest.raises(SystemExit) as exc:
                cli.main(["count-i", "--graph", str(graph), "--a", "a1",
                          "--b", "a1, a2", "--cls", cls])
        assert exc.value.code == 3
        assert capsys.readouterr().err == "AUDIT VIOLATION: %s\n" % message


def bench_bracket_instance(rng, n, r):
    """(A, B, G, forest, class) as the benchmark's audit brackets sample
    them: A = <a1..ar>, B = <a1..a(r+1)>, G a stabilizer image of the rose
    blown up once or twice, with G and G/F in CVK^[A], and an 8-letter
    class that reads a letter outside B; or None."""
    A = [basis_word(i, n) for i in range(1, r + 1)]
    B = [basis_word(i, n) for i in range(1, r + 2)]
    FA = covers.FreeFactorSystem.of([A], n)
    G = MarkedGraph.rose_identity(n).act(
        sampling.random_stab_auto(rng, n, r, rng.randint(0, 2)))
    for _ in range(rng.randint(1, 2)):
        G = sampling.random_blowup(rng, G) or G
    forests = graphs.enumerate_natural_subforests(G.graph,
                                                  include_empty=False)
    if covers.realizes(G, FA) is None or not forests:
        return None
    f = rng.choice(forests)
    if covers.realizes(G.collapse_marked(f)[0].natural_marked(), FA) is None:
        return None
    while True:
        c = CyclicWord.of(sampling.random_reduced_word(rng, n, 8,
                                                       nontrivial=True))
        if any(abs(a) > r + 1 for a in c.letters):
            return A, B, G, f, c


def test_locate_refuses_nothing_new_where_B_is_a_free_factor(monkeypatch):
    """Where B is a free factor of F_n each A-core has one image in K, so
    refusing a second image changes no count and no refusal: the bracket
    audit gives the same counts, or the same error, as with the locate step
    that counts against the first embedding it meets. Instances: criterion
    3's samples, the benchmark's audit brackets, and random spine vertices
    and two-component instances with classes conjugate into B, where most
    refusals come from."""
    locate = counting._locate

    def audit_with(locate_step, A_list, B, G, f, c):
        monkeypatch.setattr(counting, "_locate", locate_step)
        try:
            return counting.lipschitz_audit(A_list, B, G, f, c)
        except CountError as exc:
            return type(exc), str(exc)

    rng = random.Random(26)
    instances = []
    while len(instances) < 150:
        sample = acceptance._sample_cvkA_instance(rng)
        if sample is not None:
            A, B, G, f, c = sample
            instances.append(([A], B, G, f, c))
    while len(instances) < 300:
        sample = bench_bracket_instance(rng, *rng.choice(
            [(3, 1), (3, 1), (4, 1), (4, 2)]))
        if sample is not None:
            A, B, G, f, c = sample
            instances.append(([A], B, G, f, c))
    while len(instances) < 600:
        if len(instances) % 3:
            n = rng.choice([3, 4])
            r = rng.randint(1, n - 2)
            B = [basis_word(i, n) for i in range(1, r + 2)]
            A_list = [B[:r]]
            G = sampling.random_marked_graph(rng, n, rng.randint(0, 3))
        else:
            A_list, B, G = case2_instance(rng)
        forests = graphs.enumerate_natural_subforests(G.graph,
                                                      include_empty=False)
        w = (word_in_B_conjugate(rng, G.rank, B) if rng.random() < 0.3 else
             sampling.random_reduced_word(rng, G.rank, 8, nontrivial=True))
        if forests and not w.is_trivial():
            instances.append((A_list, B, G, rng.choice(forests),
                              CyclicWord.of(w)))
    kinds = set()
    for k, inst in enumerate(instances):
        want = audit_with(count_oracle.locate_first_embedding, *inst)
        assert audit_with(locate, *inst) == want, k
        kinds.add(want[1].split(" (")[0] if isinstance(want[0], type)
                  else "count")
    assert len(kinds) == 4, kinds
