"""Seeded benchmark of outerspine: one workload per process, one thread.

    python3 bench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
workloads are witness, membership, spine and audit (see bench/README.md).
Set-up generates the inputs from the seed and round-trips them through
textio. Each operation then parses its own copy of its inputs, untimed, and
the timed part is one call into the program's public functions. Every
answer is checked; a raise or a wrong answer counts as a failed operation,
and a wrong answer also makes `correct` false. A raise of one of the
workload's CERTIFICATE_ERRORS, by which the program reports that its own
certificate of an answer failed, counts as a wrong answer. Runs attempt
whole rounds of the workload's operations until --seconds have passed.

Times are adjusted for the host's speed: a reference kernel (kernel.py) runs
between set-ups and between operations, and every time metric is the raw
time divided by the run's speed factor. Raw figures go to the line before
the result and to bench/results/.

--trace 0 prints the end-to-end metrics setup_s, ops_per_s, op_p50_ms and
peak_rss_mb. --trace 1 alternates untraced rounds with rounds in which the
layers are wrapped (layertrace.py), and prints the per-layer metrics: one traced
set-up plus one traced round. Counts are exact and must repeat in every
traced round.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import os
import time


def process_age_s():
    """Wall seconds since this process started; Linux's /proc/self/stat
    gives the start in clock ticks since boot."""
    with open("/proc/self/stat") as fh:
        ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - ticks / os.sysconf("SC_CLK_TCK"))


# The interpreter's own start, read before the benchmark imports anything
# else: it is part of setup_s, the benchmark's imports are not.
INTERPRETER_START_S = process_age_s()

import argparse
import importlib
import json
import resource
import statistics
import sys

import layertrace
from kernel import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("witness", "membership", "spine", "audit")
SETUP_PASSES = 5        # set-up passes; setup_s counts the median one
KERNEL_PER_GAP = 8      # kernel samples between two set-up passes
KERNEL_EVERY_S = 0.025  # least op time between two kernel samples

# work counts reported by the traced mode (layertrace counts more)
TRACE_COUNTS = (
    "words.canonical_rotation.calls", "words.is_automorphism.calls",
    "counting.count_i.calls", "counting.class_letters",
    "folding.fold_words.calls", "folding.letters",
    "covers.realizes.calls", "covers.subgraphs_scanned",
    "graphs.isomorphisms_tried", "marked.equivalent.calls",
    "marked.equivalent.hits", "spine.candidates")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Check that the program is there and put it on the import path."""
    if not os.path.isfile(os.path.join(SRC, "outerspine", "__init__.py")):
        raise SystemExit("error: no program at %s (run from the root of a "
                         "checkout)" % SRC)
    sys.path.insert(0, SRC)


def measure_setup(name, seed, probe):
    """setup_s: the span from process start to the first timed operation,
    less the benchmark's own imports and kernel samples. It is the
    interpreter's start and the first import of every layer, which happen
    once and are divided by the speed factor of the kernel samples right
    after them, plus the median of SETUP_PASSES passes of the workload's
    set-up, each divided by the factor of the samples on either side of it.
    Returns (setup figures, workload module, operations)."""
    def gap():
        start = len(probe.samples)
        probe.sample(KERNEL_PER_GAP)
        return probe.factor(probe.samples[start:])

    t0 = time.perf_counter()
    for layer in layertrace.LAYERS:
        importlib.import_module("outerspine." + layer)
    import_s = time.perf_counter() - t0
    wl = importlib.import_module("workloads." + name)
    start_s = INTERPRETER_START_S + import_s
    before = gap()
    start_adjusted = start_s / before
    raw, adjusted = [], []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        ops = wl.setup(seed)
        dt = time.perf_counter() - t0
        after = gap()
        raw.append(dt)
        adjusted.append(dt / ((before + after) / 2))
        before = after
    setup = {"raw": start_s + statistics.median(raw),
             "adjusted": start_adjusted + statistics.median(adjusted),
             "interpreter_start_s": INTERPRETER_START_S,
             "import_s": import_s, "setup_passes_s": raw}
    return setup, wl, ops


class Runner:
    """Times, checks and tallies operations for one run."""

    def __init__(self, wl, probe):
        self.wl = wl
        self.probe = probe
        self.latencies = []
        self.by_op = {}          # op index -> latencies over the rounds
        self.by_kind = {}
        self.attempted = 0
        self.failed = 0
        self.wrong_answers = 0
        self.wrong = []          # what failed, for the result file
        self._since_kernel = 0.0

    def run_op(self, index, op, memo, tracer=None):
        """One operation: fresh inputs, one timed (and, with a tracer,
        traced) call, one check."""
        args = self.wl.prepare(op)
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        answer = raised = None
        try:
            answer = self.wl.run(op, args)
        except Exception as exc:   # the program failed: count it, go on
            raised = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        self.attempted += 1
        if raised is not None and not isinstance(
                raised, self.wl.CERTIFICATE_ERRORS):
            self.failed += 1
            self.wrong.append("%s raised %r" % (op.kind, raised))
        elif raised is not None or not self.wl.check(op, answer, memo):
            self.failed += 1
            self.wrong_answers += 1
            self.wrong.append("%s gave a wrong answer: %r"
                              % (op.kind, raised or answer))
        else:
            self.latencies.append(dt)
            self.by_op.setdefault(index, []).append(dt)
            self.by_kind.setdefault(op.kind, []).append(dt)
        self._since_kernel += dt
        if self._since_kernel >= KERNEL_EVERY_S:
            self.probe.sample()
            self._since_kernel = 0.0
        return dt

    def run_round(self, ops, tracer=None):
        memo = {}
        return sum(self.run_op(i, op, memo, tracer) for i, op in enumerate(ops))

    def op_p50(self):
        """Median over the distinct operations of each one's mean latency
        over the rounds. The host's speed switches within a run; a mean per
        operation follows the share of time at each speed, as the speed
        factor does."""
        return statistics.median(statistics.fmean(v) for v in self.by_op.values())


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    pct = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    return pct, ordered[min(n - 1, int(n * pct / 100))]


def timed_run(ops, runner, seconds, setup):
    """Whole rounds, while less than `seconds` minus half a round has
    passed."""
    t0 = time.perf_counter()
    rounds = 0
    op_time = 0.0
    while True:
        r0 = time.perf_counter()
        op_time += runner.run_round(ops)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * (time.perf_counter() - r0) >= seconds:
            break
    f = runner.probe.factor()
    lat = runner.latencies
    done = len(lat)
    raw = {
        "setup_s": setup["raw"],
        "ops_per_s": done / op_time if op_time else 0.0,
        "op_p50_ms": 1e3 * runner.op_p50() if lat else 0.0,
    }
    adjusted = {
        "setup_s": setup["adjusted"],
        "ops_per_s": raw["ops_per_s"] * f,
        "op_p50_ms": raw["op_p50_ms"] / f,
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": adjusted["setup_s"], "unit": "s"},
        "ops_per_s": {"value": adjusted["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": adjusted["op_p50_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    detail = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "speed_factor": f,
        "kernel_samples": len(runner.probe.samples),
        "raw": raw,
        "adjusted": adjusted,
        "op_time_s": op_time,
        "per_kind_p50_ms": {k: 1e3 * statistics.median(v) / f
                            for k, v in sorted(runner.by_kind.items())},
    }
    tail = tail_percentile(lat)
    if tail:
        detail["tail"] = {"percentile": tail[0], "raw_ms": 1e3 * tail[1],
                          "adjusted_ms": 1e3 * tail[1] / f}
    return metrics, detail


def traced_run(ops, runner, seconds, tracer, setup_trace):
    """Alternate untraced and traced rounds; per-layer figures come from
    the traced set-up plus the median traced round."""
    t0 = time.perf_counter()
    rounds = []
    while True:
        untraced = runner.run_round(ops)
        tracer.reset()
        tracer.install()
        try:
            traced = runner.run_round(ops, tracer)
        finally:
            tracer.uninstall()
        self_s, counts = tracer.snapshot()
        rounds.append((untraced, traced, self_s, counts))
        if time.perf_counter() - t0 >= seconds:
            break
    first_counts = rounds[0][3]
    if any(r[3] != first_counts for r in rounds[1:]):
        raise SystemExit("error: traced rounds disagree on work counts")
    f = runner.probe.factor()
    setup_self, setup_counts = setup_trace
    metrics = {}
    for layer in layertrace.LAYERS:
        per_round = statistics.median(r[2][layer] for r in rounds)
        metrics[layer + ".self_s"] = {
            "value": (setup_self[layer] + per_round) / f, "unit": "s"}
    counts = dict(setup_counts)
    for k, v in first_counts.items():
        counts[k] = counts.get(k, 0) + v
    for name in TRACE_COUNTS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    eq_calls = counts.get("marked.equivalent.calls", 0)
    metrics["marked.equivalent.hit_share"] = {
        "value": counts.get("marked.equivalent.hits", 0) / eq_calls
        if eq_calls else 0.0, "unit": "ratio"}
    rz_calls = counts.get("covers.realizes.calls", 0)
    metrics["covers.subgraphs_per_realizes"] = {
        "value": counts.get("covers.subgraphs_scanned", 0) / rz_calls
        if rz_calls else 0.0, "unit": "count"}
    overhead = statistics.median(r[1] - r[0] for r in rounds)
    untraced = statistics.median(r[0] for r in rounds)
    metrics["trace.overhead_s"] = {"value": overhead / f, "unit": "s"}
    detail = {
        "rounds": len(rounds),
        "speed_factor": f,
        "untraced_round_s": untraced / f,
        "traced_round_s": statistics.median(r[1] for r in rounds) / f,
        "overhead_share": overhead / untraced if untraced else 0.0,
        "all_counts": dict(sorted(counts.items())),
    }
    return metrics, detail


def write_result(name, payload):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    args = parse_args(argv)
    import_program()
    setup, wl, ops = measure_setup(args.workload, args.seed, SpeedProbe())

    tracer = None
    setup_trace = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            ops = wl.setup(args.seed)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        setup_trace = tracer.snapshot()

    probe = SpeedProbe()
    runner = Runner(wl, probe)
    if tracer:
        metrics, detail = traced_run(ops, runner, args.seconds, tracer,
                                     setup_trace)
    else:
        metrics, detail = timed_run(ops, runner, args.seconds, setup)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "setup": {k: setup[k] for k in (
                       "interpreter_start_s", "import_s", "setup_passes_s")},
                   "wrong": runner.wrong[:20]})
    result = {
        "correct": runner.wrong_answers == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    path = write_result("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                     args.trace),
                        dict(result, detail=detail))
    print("detail (%s): %s" % (os.path.relpath(path),
                                json.dumps(detail, sort_keys=True)))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
