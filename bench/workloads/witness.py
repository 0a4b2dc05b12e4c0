"""witness: one operation is one distortion_report, the table that
`outerspine witness` prints.

A round holds the reports of the slots below, covering cases 1, 2 and 3. Each
report runs k = 0..k_max, with k_max chosen so that the last traced class is
about 2000 letters long; cyclic normal forms and count_i do nearly all the
work. The seed picks the ambient rank n of each slot (it changes the
witness automorphisms and the case-2 graph, not the class lengths) and the
order of the slots. Case-3 systems whose extra components have rank >= 2
are left out: the program cannot build their graph (see CHANGES.md).

Inputs are stored as `outerspine witness` argument lines.
"""

import random

from outerspine import counting, witness
from outerspine.marked import MarkedGraph
from outerspine.words import basis_word

from .common import InputError, Op

CASE_NAMES = {1: "connected", 2: "two_component", 3: "multi_component"}

# (case, r or component ranks, choices of n, reports per round). The
# choices of n leave the cost of a report nearly unchanged (in case 2 with
# ranks (1, 2) it grows with n, so n stays small). Reports fall into three
# cost clusters: case 1 with r = 1, case 1 with r >= 2, and cases 2 and 3.
# The counts put the median report in the middle of the middle cluster, so
# that op_p50_ms does not jump between clusters from one seed to the next.
SLOTS = (
    (1, 1, (3, 4, 5, 6), 4),
    (1, 2, (4, 5, 6, 7), 6),
    (1, 3, (5, 6, 7), 6),
    (2, (1, 2), (4, 5), 2),
    (2, (1, 1), (3, 4, 5, 6), 2),
    (3, (1, 1, 1), (4, 5, 6), 2),
    (3, (1, 1, 1, 1), (5, 6, 7), 2),
)

TARGET_LETTERS = 2000
# raised on valid parameters only when the program's own certificate fails
# (train-track positivity, the case-1 count against the transition matrix)
CERTIFICATE_ERRORS = (witness.WitnessError,)


def letter_counts(m, k):
    """Occurrences of e_1..e_m in Theta^k(e_1), where Theta sends
    e_1 -> e_1 e_m and e_i -> e_(i-1) for 2 <= i <= m."""
    c = [0] * (m + 1)
    c[1] = 1
    for _ in range(k):
        new = [0] * (m + 1)
        new[1] = c[1] + c[2]
        for i in range(2, m):
            new[i] = c[i + 1]
        new[m] += c[1]
        c = new
    return c


def class_letters(case, m, k):
    """Length of the traced class phi_k(c_0): |u_k| + 1 in case 1; in cases
    2 and 3 the class runs through u_k and its inverse."""
    u = sum(letter_counts(m, k))
    return u + 1 if case == 1 else 2 * u


def k_for_target(case, m):
    best = None
    for k in range(60):
        gap = abs(class_letters(case, m, k) - TARGET_LETTERS)
        if best is None or gap < best[0]:
            best = (gap, k)
    return best[1]


def params_line(case, n, shape, k_max):
    if case == 1:
        return "--case 1 --n %d --r %d --kmax %d" % (n, shape, k_max)
    return "--case %d --n %d --ranks %s --kmax %d" % (
        case, n, " ".join(str(r) for r in shape), k_max)


def parse_line(line):
    """Parse an argument line back into (WitnessParams, k_max)."""
    toks = line.split()
    opts = {}
    key = None
    for t in toks:
        if t.startswith("--"):
            key = t[2:]
            opts[key] = []
        else:
            opts[key].append(int(t))
    case = opts["case"][0]
    n = opts["n"][0]
    if case == 1:
        params = witness.WitnessParams(n, CASE_NAMES[case], r=opts["r"][0])
    else:
        params = witness.WitnessParams(n, CASE_NAMES[case],
                                       ranks=tuple(opts["ranks"]))
    return params, opts["kmax"][0]


def setup(seed):
    rng = random.Random(seed)
    slots = [slot[:3] for slot in SLOTS for _ in range(slot[3])]
    rng.shuffle(slots)
    ops = []
    for case, shape, ns in slots:
        n = rng.choice(ns)
        m = shape + 1 if case == 1 else shape[0] + shape[1]
        k_max = k_for_target(case, m)
        line = params_line(case, n, shape, k_max)
        params, k_back = parse_line(line)
        if params_line(case, params.n, shape, k_back) != line:
            raise InputError("witness line does not round-trip: " + line)
        # the counting context the report starts from
        if case == 1:
            counting.build_context(
                [[basis_word(i, n) for i in range(1, shape + 1)]],
                [basis_word(i, n) for i in range(1, m + 1)],
                MarkedGraph.rose_identity(n))
        else:
            witness.case2_build(params).counting_context()
        ops.append(Op("report_case%d" % case, {"params": line},
                      info={"case": case, "n": n, "m": m, "k_max": k_max}))
    return ops


def prepare(op):
    return parse_line(op.text["params"])


def run(op, args):
    params, k_max = args
    return witness.distortion_report(params, k_max)


def check(op, rows, memo):
    case, n, m, k_max = (op.info[k] for k in ("case", "n", "m", "k_max"))
    if [r.k for r in rows] != list(range(k_max + 1)):
        return False
    phi0 = 1 if case == 1 else 2 * (n - m)
    for r in rows:
        if r.upper_nielsen != 2 * r.k * 2 + phi0:
            return False
        if r.spine_lb != r.i_k // 2:
            return False
    if case == 1:
        return all(r.i_k == letter_counts(m, r.k)[m] for r in rows)
    return all(a.i_k <= b.i_k for a, b in zip(rows, rows[1:]))
