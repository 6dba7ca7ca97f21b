"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x within tens of seconds, for the same work, in CPU time as much as in
wall time. No statistic of raw times over one run is steady under that, so
every timed stretch is also expressed in reference seconds: while it runs, a
fixed reference kernel (small numpy solves and float math, like the
program's own inner loops, and independent of the package) is timed every
INTERVAL_S of wall time, and each slice of the stretch between two kernel
runs is scaled by REF_SECONDS / the kernel's local time. A stretch that does
twice the work reads twice as long whatever the host does meanwhile; on a
quiet host a reference second is close to a wall second.

The kernel runs from a SIGALRM handler in the timed thread itself, so it
sees the same core as the program, and its own time is left out of the
stretch.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# the kernel's time on a quiet host (Intel Xeon 2.1 GHz, Python 3.11, numpy 2.4);
# a fixed constant, so reference seconds compare across runs and commits
REF_SECONDS = 0.0015
# each slice is scaled by the median kernel time of this many runs on each
# side of it, so one kernel run that was preempted does not scale it alone
NEIGHBOURS = 2

_A = np.eye(6) * 2.0 + 0.1


def kernel():
    x = np.ones(6)
    s = 0.0
    for i in range(200):
        y = _A @ x
        x = np.linalg.solve(_A, y * 0.5 + 1.0)
        s += math.sin(i * 0.01) * float(x[0]) + math.exp(-1e-3 * float(x[1]))
    return s


def kernel_times(runs=10):
    """Seconds of `runs` kernel runs back to back."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


class SpeedProbe:
    """Context manager: times the kernel on entry, every INTERVAL_S inside
    and on exit. `reference_seconds(t0, t1)` converts a stretch t0..t1
    (perf_counter times inside the block) to reference seconds, and
    `own_seconds(t0, t1)` gives the same stretch minus the kernel runs."""

    def __init__(self):
        self.ticks = []
        self._busy = False
        self._old = None

    def _tick(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.ticks.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def __enter__(self):
        self.ticks = []
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        return False

    def _slices(self, t0, t1):
        """(length, kernel index before, kernel index after) of each slice of
        t0..t1 between kernel runs."""
        out, start, before = [], t0, 0
        for k, (a, b) in enumerate(self.ticks):
            if b <= t0:
                before = k
                continue
            if a >= t1:
                out.append((t1 - start, before, k))
                return out
            out.append((a - start, before, k))
            start, before = b, k
        out.append((t1 - start, before, len(self.ticks) - 1))
        return out

    def own_seconds(self, t0, t1):
        return sum(length for length, _, _ in self._slices(t0, t1))

    def reference_seconds(self, t0, t1):
        times = [b - a for a, b in self.ticks]
        total = 0.0
        for length, before, after in self._slices(t0, t1):
            local = times[max(0, before - NEIGHBOURS + 1):after + NEIGHBOURS]
            total += length * REF_SECONDS / statistics.median(local)
        return total
