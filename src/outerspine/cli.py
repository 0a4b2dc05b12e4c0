"""Command-line front door: exact kernel operations, file I/O, audits.

Exit codes: 0 success, 2 precondition violation (bad input or undefined
quantity), 3 an audit detected a violated invariant. `main` alone decides
2 and 3 by the error's type: every `marked.CertificateError` exits 3 with
one `AUDIT VIOLATION:` line, and the input errors exit 2.
"""

import argparse
import contextlib
import sys

from . import acceptance, counting, folding, graphs, spine, textio, witness
from .words import CyclicWord, Endomorphism, WordError, is_automorphism
from .marked import CertificateError, MarkingError, equivalent
from .covers import (CoverError, FreeFactorSystem, based_core, realizes,
                     stallings_core)
from .retract_aut import lipschitz_audit as pointed_audit, retract_r
from .retract_split import SplitError, in_CVKT, retract_R, retraction_audit


class PreconditionError(ValueError):
    pass


def _words(text, rank):
    return [textio.parse_word(t, rank) for t in text.split(",") if t.strip()]


def _endo(images_text, rank):
    imgs = _words(images_text, rank)
    if len(imgs) != rank:
        raise PreconditionError("need %d images, got %d" % (rank, len(imgs)))
    return Endomorphism(rank, tuple(imgs))


def _read_marked(path, pointed=False):
    with open(path) as fh:
        return textio.parse_marked(fh.read(), pointed=pointed)


def _edges(text):
    return [textio._eid(t.strip()) for t in text.split(",") if t.strip()]


def cmd_reduce(args):
    w = textio.parse_word(args.word, args.rank)
    print(textio.print_word(w))


def cmd_apply(args):
    f = _endo(args.images, args.rank)
    w = textio.parse_word(args.word, args.rank)
    print(textio.print_word(f.apply(w)))


def cmd_compose(args):
    f = _endo(args.f, args.rank)
    g = _endo(args.g, args.rank)
    h = f.compose(g)
    print(", ".join(textio.print_word(im) for im in h.images))


def cmd_is_auto(args):
    f = _endo(args.images, args.rank)
    auto = is_automorphism(f)
    if auto is None:
        print("false")
    else:
        print("true")
        print("inverse: " +
              ", ".join(textio.print_word(im) for im in auto.inverse_endo.images))


def cmd_collapse(args):
    G = _read_marked(args.graph)
    H, _ = G.collapse_marked(_edges(args.edges))
    sys.stdout.write(textio.print_marked(H.natural_marked()))


def cmd_blowups(args):
    G = _read_marked(args.graph)
    outs = spine.blowup_neighbors(G)
    print("%d blow-ups" % len(outs))
    for H in outs:
        sys.stdout.write(textio.print_marked(H))


def cmd_equiv(args):
    G1 = _read_marked(args.left)
    G2 = _read_marked(args.right)
    got = equivalent(G1, G2)
    print("equivalent" if got is not None else "not equivalent")


def cmd_act(args):
    G = _read_marked(args.graph)
    f = _endo(args.images, G.rank)
    auto = is_automorphism(f)
    if auto is None:
        raise PreconditionError("images do not define an automorphism")
    sys.stdout.write(textio.print_marked(G.act(auto)))


def cmd_circuit(args):
    G = _read_marked(args.graph)
    c = CyclicWord.of(textio.parse_word(args.cls, G.rank))
    print(textio.print_path(G.circuit_of(c)))


def cmd_core(args):
    G = _read_marked(args.graph)
    gens = _words(args.gens, G.rank)
    B = based_core(gens, G) if args.based else None
    K = stallings_core(gens, G) if B is None else B.core
    print("rank: %d" % K.rank)
    for eid, (o, t, lab) in sorted(K.edges.items()):
        print("k%d: v%d -> v%d over e%d" % (eid, o, t, lab))
    if B is not None:
        print("attach: v%d" % B.attach)
        print("tail: %s" % textio.print_path(B.tail_labels))


def cmd_realizes(args):
    G = _read_marked(args.graph)
    F = FreeFactorSystem.of([[w for w in _words(c, G.rank)]
                             for c in args.component], G.rank)
    w = realizes(G, F)
    if w is None:
        print("none")
    else:
        print("witness: " + "; ".join(
            " ".join("e%d" % e for e in sorted(comp)) for comp in w.components))


def cmd_coindex(args):
    F = FreeFactorSystem.of([[w for w in _words(c, args.rank)]
                             for c in args.component], args.rank)
    print(F.coindex())


def cmd_count_i(args):
    G = _read_marked(args.graph)
    A_lists = [_words(a, G.rank) for a in args.a]
    B = _words(args.b, G.rank)
    ctx = counting.build_context(A_lists, B, G)
    c = CyclicWord.of(textio.parse_word(args.cls, G.rank))
    print(counting.count_i(ctx, c))


def cmd_lipschitz_audit(args):
    G = _read_marked(args.graph)
    A_lists = [_words(a, G.rank) for a in args.a]
    B = _words(args.b, G.rank)
    c = CyclicWord.of(textio.parse_word(args.cls, G.rank))
    i1, i2 = counting.lipschitz_audit(A_lists, B, G, _edges(args.collapse), c)
    print("%d %d" % (i1, i2))


def cmd_witness(args):
    if args.kmax < 0:
        raise PreconditionError("--kmax must be >= 0, got %d" % args.kmax)
    if args.case == 1:
        params = witness.WitnessParams(args.n, "connected", r=args.r)
    elif args.case == 2:
        params = witness.WitnessParams(args.n, "two_component",
                                       ranks=tuple(args.ranks))
    else:
        params = witness.WitnessParams(args.n, "multi_component",
                                       ranks=tuple(args.ranks))
    # open --out first, so an unwritable path fails before the report runs
    out = args.out
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(witness.report_csv(
            witness.distortion_report(params, args.kmax)))


def cmd_retract_aut(args):
    x = _read_marked(args.graph, pointed=True)
    r = retract_r(x)
    sys.stdout.write(textio.print_marked(r, pointed=True))


def cmd_retract_aut_audit(args):
    x = _read_marked(args.graph, pointed=True)
    print(pointed_audit(x, _edges(args.collapse))[0])


def _read_blueprint(path, rank):
    with open(path) as fh:
        return textio.parse_blueprint(fh.read(), rank)


def cmd_retract_split(args):
    G = _read_marked(args.graph)
    data = _read_blueprint(args.blueprint, G.rank)
    sys.stdout.write(textio.print_marked(retract_R(G, data)))


def cmd_split_membership(args):
    G = _read_marked(args.graph)
    data = _read_blueprint(args.blueprint, G.rank)
    got = in_CVKT(G, data.blueprint)
    if got is None:
        print("false")
    else:
        print("true")
        w, eid = got
        print("co-edge: e%d" % eid)


def cmd_retract_split_audit(args):
    G = _read_marked(args.graph)
    data = _read_blueprint(args.blueprint, G.rank)
    print(retraction_audit(G, _edges(args.collapse), data))


def cmd_spine_bfs(args):
    if args.cap < 0:
        raise PreconditionError("--cap must be >= 0, got %d" % args.cap)
    G1 = _read_marked(args.left)
    G2 = _read_marked(args.right)
    d = spine.bfs_distance(G1, G2, args.cap)
    print("unreachable within %d" % args.cap if d is None else d)


def cmd_fold_path(args):
    G1 = _read_marked(args.left)
    G2 = _read_marked(args.right)
    F = None
    if args.component:
        F = FreeFactorSystem.of([[w for w in _words(c, G1.rank)]
                                 for c in args.component], G1.rank)
    path = spine.fold_path(G1, G2, F=F)
    print("length: %d" % len(path))
    if F is not None:
        print("guarded: %s%s" % (path.guarded,
                                 " (%s)" % path.guard_report
                                 if path.guard_report else ""))
        if path.guarded:
            print("realize-flags: %s" % path.realize_flags)
    for i, v in enumerate(path.vertices):
        print("vertex %d:" % i)
        sys.stdout.write(textio.print_marked(v))
        if i < len(path.steps):
            st = path.steps[i]
            print("certificate %d: %s collapse of {%s}" % (
                i, st.kind, ", ".join("e%d" % e for e in sorted(st.forest))))


def cmd_selftest(args):
    ok = acceptance.run_all()
    if not ok:
        sys.exit(3)


def build_parser():
    p = argparse.ArgumentParser(
        prog="outerspine",
        description="exact marked-graph computations: distortion witnesses "
                    "and Lipschitz retractions")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", help="freely reduce a word")
    sp.add_argument("word")
    sp.add_argument("--rank", type=int, required=True)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("apply", help="apply an endomorphism to a word")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--images", required=True,
                    help="comma-separated basis images")
    sp.add_argument("--word", required=True)
    sp.set_defaults(fn=cmd_apply)

    sp = sub.add_parser("compose", help="compose two endomorphisms (g first)")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.set_defaults(fn=cmd_compose)

    sp = sub.add_parser("is-auto", help="decide invertibility, print inverse")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--images", required=True)
    sp.set_defaults(fn=cmd_is_auto)

    sp = sub.add_parser("collapse", help="collapse a forest in a marked graph")
    sp.add_argument("graph")
    sp.add_argument("--edges", required=True)
    sp.set_defaults(fn=cmd_collapse)

    sp = sub.add_parser("blowups", help="enumerate single-edge blow-ups")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_blowups)

    sp = sub.add_parser("equiv", help="decide marked-graph equivalence")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(fn=cmd_equiv)

    sp = sub.add_parser("act", help="act on a marked graph by an automorphism")
    sp.add_argument("graph")
    sp.add_argument("--images", required=True)
    sp.set_defaults(fn=cmd_act)

    sp = sub.add_parser("circuit", help="circuit of a conjugacy class")
    sp.add_argument("graph")
    sp.add_argument("--cls", required=True)
    sp.set_defaults(fn=cmd_circuit)

    sp = sub.add_parser(
        "core", help="Stallings core of a subgroup",
        description="Stallings core of a subgroup. Vertices v<i> and core"
        " edges k<i> are numbered by first visit from the base of the fold,"
        " each vertex's directions taken in (|label|, sign) order. With"
        " --based that base is the basepoint; without, the generators are"
        " first conjugated onto the first nontrivial one's axis, and the"
        " base is a point of that axis.")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--based", action="store_true")
    sp.set_defaults(fn=cmd_core)

    sp = sub.add_parser("realizes", help="CVK^F membership witness")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--component", action="append", required=True)
    sp.set_defaults(fn=cmd_realizes)

    sp = sub.add_parser("coindex", help="coindex of a free factor system")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--component", action="append", required=True)
    sp.set_defaults(fn=cmd_coindex)

    sp = sub.add_parser("count-i", help="crossing count i_{A,B}(c, G)")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--a", action="append", required=True,
                    help="generators of A (repeat for the two-component case)")
    sp.add_argument("--b", required=True)
    sp.add_argument("--cls", required=True)
    sp.set_defaults(fn=cmd_count_i)

    sp = sub.add_parser("lipschitz-audit", help="count bracket under collapse")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--a", action="append", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--cls", required=True)
    sp.add_argument("--collapse", required=True)
    sp.set_defaults(fn=cmd_lipschitz_audit)

    sp = sub.add_parser("witness", help="distortion report CSV")
    sp.add_argument("--case", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--ranks", type=int, nargs="*", default=[])
    sp.add_argument("--kmax", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("retract-aut", help="pointed retraction r")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_retract_aut)

    sp = sub.add_parser("retract-aut-audit",
                        help="pointed Lipschitz audit for one collapse")
    sp.add_argument("graph")
    sp.add_argument("--collapse", required=True)
    sp.set_defaults(fn=cmd_retract_aut_audit)

    sp = sub.add_parser("retract-split", help="splitting retraction R")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--blueprint", required=True)
    sp.set_defaults(fn=cmd_retract_split)

    sp = sub.add_parser("split-membership", help="CVK^T membership")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--blueprint", required=True)
    sp.set_defaults(fn=cmd_split_membership)

    sp = sub.add_parser("retract-split-audit",
                        help="splitting retraction audit for one collapse")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--blueprint", required=True)
    sp.add_argument("--collapse", required=True)
    sp.set_defaults(fn=cmd_retract_split_audit)

    sp = sub.add_parser("spine-bfs", help=(
        "shortest path length along spine neighbours (collapses, one-edge"
        " blow-ups) up to a cap: the spine distance in rank 2, an upper"
        " bound from rank 3 on"))
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--cap", type=int, default=4)
    sp.set_defaults(fn=cmd_spine_bfs)

    sp = sub.add_parser("fold-path", help="certified spine path via folds")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--component", action="append", default=[])
    sp.set_defaults(fn=cmd_fold_path)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.set_defaults(fn=cmd_selftest)
    return p


PRECONDITION_ERRORS = (PreconditionError, WordError, MarkingError, CoverError,
                       counting.CountError, SplitError, witness.WitnessError,
                       textio.FormatError, graphs.GraphError, spine.SpineError,
                       folding.FoldError, OSError, UnicodeDecodeError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except CertificateError as exc:
        print("AUDIT VIOLATION: %s" % exc, file=sys.stderr)
        sys.exit(3)
    except PRECONDITION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
