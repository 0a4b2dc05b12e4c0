"""Run the benchmark on several seeds and report how steady it is.

    python3 bench/steadiness.py [--workloads witness spine] \
        [--seeds 101-110 [201-210]]

Runs bench/run.py once per (workload, seed), one process at a time, for
BENCHMARK.json's run_seconds, on all four workloads unless --workloads
names some. Each seed range is one set of runs. For each set it prints, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) of the adjusted and of the raw values, with the
operation counts and the tail percentile. Given two sets, it also prints how
far the second set's median moved from the first's in the worse direction,
as a share of the first, against the metric's bound, and whether the share
of failed operations is the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("witness", "membership", "spine", "audit")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def run_set(wl, seeds):
    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if out.returncode != 0:
            sys.exit("%s seed %d failed:\n%s" % (wl, seed, out.stderr))
        with open(os.path.join(HERE, "results",
                               "%s-seed%d-trace0.json" % (wl, seed))) as fh:
            runs.append(json.load(fh))
        print("%s seed %d: %s" % (wl, seed, out.stdout.splitlines()[-1]),
              flush=True)
    return runs


def report(wl, seeds, runs):
    attempted = [r["attempted"] for r in runs]
    failed = [r["failed"] for r in runs]
    factor = summary([r["detail"]["speed_factor"] for r in runs])
    print("== %s seeds %d-%d: ops attempted %s, failed %s, speed factor %.3f "
          "(spread %.3f)" % (wl, seeds[0], seeds[-1], attempted, failed,
                             factor["median"], factor["spread"]))
    medians = {}
    for m in METRICS:
        adj = summary([r["metrics"][m]["value"] for r in runs])
        medians[m] = adj["median"]
        line = "   %-12s adjusted %.6g [%.6g, %.6g] spread %.3f" % (
            m, adj["median"], adj["q1"], adj["q3"], adj["spread"])
        if m in runs[0]["detail"]["raw"]:
            raw = summary([r["detail"]["raw"][m] for r in runs])
            line += " | raw %.6g [%.6g, %.6g] spread %.3f" % (
                raw["median"], raw["q1"], raw["q3"], raw["spread"])
        print(line, flush=True)
    tails = [r["detail"].get("tail") for r in runs]
    if all(tails):
        adj = summary([t["adjusted_ms"] for t in tails])
        raw = summary([t["raw_ms"] for t in tails])
        print("   tail p%d     adjusted %.6g [%.6g, %.6g] ms spread %.3f | "
              "raw %.6g ms" % (min(t["percentile"] for t in tails),
                               adj["median"], adj["q1"], adj["q3"],
                               adj["spread"], raw["median"]))
    return medians, sum(failed) / sum(attempted)


def compare(wl, first, second):
    (med_a, fail_a), (med_b, fail_b) = first, second
    for m, spec in METRICS.items():
        moved = (med_b[m] - med_a[m]) / med_a[m]
        worse = moved if spec["better"] == "lower" else -moved
        print("   %-10s %-12s %.6g -> %.6g  worse by %+.3f (bound %.2f) %s"
              % (wl, m, med_a[m], med_b[m], worse, spec["bound"],
                 "ok" if worse <= spec["bound"] else "OUT"))
    print("   %-10s failed share %.6g -> %.6g %s" % (
        wl, fail_a, fail_b, "ok" if fail_a == fail_b else "DIFFERS"))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=seeds_arg,
                   default=[seeds_arg("101-110")])
    args = p.parse_args()
    sets = [{wl: report(wl, seeds, run_set(wl, seeds))
             for wl in args.workloads} for seeds in args.seeds]
    for later in sets[1:]:
        print("== second set against the first")
        for wl in args.workloads:
            compare(wl, sets[0][wl], later[wl])


if __name__ == "__main__":
    main()
