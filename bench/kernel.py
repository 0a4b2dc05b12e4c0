"""Reference kernel for host-speed adjustment.

The host this benchmark runs on changes speed from one run to the next by
far more than the changes the benchmark is meant to detect, and slow spells
last longer than a run. The kernel below is fixed pure-Python work that
never calls the program; it is shaped like the program's inner loops
(small-int tuples, list push/pop as in free reduction, dict updates, and
least rotations of short and long tuples). Timing it during a run gives the
run's speed factor, and every time metric is divided by that factor.
"""

import statistics
import time

# Median time of one kernel() call on the host the benchmark was calibrated
# on (2-core x86-64 container, CPython 3.11). Adjusted figures are raw
# figures expressed in that host's time.
NOMINAL_S = 0.0034

KERNEL_STEPS = 1000
LONG_TUPLE = tuple((i * 5) % 7 - 3 or 4 for i in range(300))


def kernel(steps=KERNEL_STEPS):
    # the least rotation of a long tuple, as in cyclic normal forms: C-level
    # slicing and comparison, which the host's slow spells slow down less
    # than interpreted code
    w = LONG_TUPLE
    acc = len(min(w[r:] + w[:r] for r in range(len(w))))
    stack = []
    counts = {}
    for i in range(steps):
        t = ((i * 7) % 11 - 5 or 1, (i * 3) % 7 - 3 or 2, (i % 5) - 2 or -1)
        for a in t:
            if stack and stack[-1] == -a:
                stack.pop()
            else:
                stack.append(a)
        counts[t[:2]] = counts.get(t[:2], 0) + 1
        if len(stack) >= 24:
            w = tuple(stack)
            acc += len(min(w[r:] + w[:r] for r in range(len(w))))
            del stack[:]
    return acc + len(counts)


class SpeedProbe:
    """Collects kernel timings over one run."""

    def __init__(self):
        self.samples = []

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def factor(self, samples=None):
        """Mean kernel time in this run over its nominal time (>1: slow
        host). The host switches between a fast and a slow speed, so the
        kernel's times are bimodal; their mean follows the share of time
        spent at each speed, as the operations' total time does, where a
        median would jump from one mode to the other. Samples above twice
        the median (the process was preempted) are left out. `samples`
        defaults to all samples of the run."""
        samples = self.samples if samples is None else samples
        cut = 2 * statistics.median(samples)
        kept = [s for s in samples if s <= cut]
        return statistics.fmean(kept) / NOMINAL_S
