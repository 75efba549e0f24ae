"""Host-speed reference for the end-to-end timings.

The benchmark runs on shared virtual machines whose CPU speed drifts.
On a 2-vCPU VM, ten runs of the same code minutes apart had raw wall
times spread by 0.17 to 0.34 of their median (quartile distance), more
than any useful regression bound, and CPU time tracked wall time, so the
drift is in the host's speed, not in scheduling.

So a fixed reference kernel runs just before each timed request and
before and after each set-up, and the run's timings are rescaled by the
median kernel time to the speed at which the kernel takes `NOMINAL_S`
(the median, because a single kernel run jitters by up to a factor of
two).  The kernel is BLAS matrix products and interpreted Python, the
two kinds of work whose time tracked the program's best.  Over 100 s of
drift on that VM, in one-second windows, a render's time moved 1.02
times as much as the matrix products and 0.96 times as much as the
Python loop (log-log slope; correlations 0.89 and 0.91), and a batch
codec encode 0.92 and 0.84 times as much.  An elementwise numpy pass
over a frame-sized array moved much less than render (slope 1.6), so a
kernel dominated by it left about a third of the drift in the rescaled
times.  The kernel is not program code, so a change to the program
moves the rescaled time as much as the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.003   # kernel time that defines the reference speed


class Reference:
    def __init__(self):
        self._mat = np.random.default_rng(0).random((160, 160))

    def __call__(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        for _ in range(6):
            self._mat @ self._mat
        s = 0
        for i in range(10000):
            s += i * i % 7
        return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel_runs) -> float:
    """`seconds` measured alongside `kernel_runs`, rescaled to the
    reference speed."""
    return seconds * NOMINAL_S / statistics.median(kernel_runs)
