"""Machine-speed reference: times measured here are scaled to a fixed speed.

The reference machine (two shared cores) changes speed by up to 1.9x over
seconds: a fixed pure-Python loop takes 0.10 s in one stretch and 0.19 s a
few seconds later, in CPU time as in wall time.  Ten runs of one workload
land in different stretches, so raw times spread by a quarter or more across
seeds, with no change in the work.

A reference kernel, a fixed piece of work that does not touch ``eusearch``,
is timed every ``INTERVAL_S`` during the measured run (from a ``SIGALRM``
handler, so it also runs inside the desk protocol's own loops).  A measured
interval is scaled by ``REF_S[kernel] / kernel time`` of the calibrations on
either side of it, after the time spent calibrating is taken out:

    scaled = raw seconds * nominal kernel time / measured kernel time

so a scaled time reads as seconds at the speed where one kernel pass takes
its nominal time (about the fastest stretch seen on the reference machine).
A change to the program moves scaled times as it moves raw ones; the kernel
is fixed.  Two kernels, because numpy-bound and interpreter-bound code slow
down by different amounts in the same stretch: ``py`` (a breadth-first
search of the 2x3 sliding puzzle, for Minimin, IDA* and generation) and
``np`` (a vectorised biased walk, for Markov prediction).  Over a minute in
which raw times moved by 45-70%, the ratio of each kind of work to its own
kernel moved by 4-7%.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Iterator

REPS = 5
INTERVAL_S = 0.1
# Nominal time of one kernel pass: the scaled clock's unit of speed.
REF_S = {"py": 0.30e-3, "np": 0.60e-3}

_NEIGHBOURS = ((1, 3), (0, 2, 4), (1, 5), (0, 4), (1, 3, 5), (2, 4))


def _py_pass() -> int:
    """Breadth-first search over the 360 states of the 2x3 sliding puzzle."""
    start = (0, 1, 2, 3, 4, 5)
    seen = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            b = s.index(0)
            for j in _NEIGHBOURS[b]:
                t = list(s)
                t[b], t[j] = t[j], t[b]
                t = tuple(t)
                if t not in seen:
                    seen[t] = seen[s] + 1
                    nxt.append(t)
        frontier = nxt
    return len(seen)


def _np_pass() -> int:
    """Four steps of 8000 coupled biased walks, as Markov prediction runs them."""
    import numpy as np

    rng = np.random.default_rng(0)
    dist = np.full(8000, 3, dtype=np.int64)
    active = np.ones(8000, dtype=bool)
    for _ in range(4):
        moves = np.where(rng.random(8000) < 0.6, -1, 1)
        dist[active] += moves[active]
        active &= dist != 0
    return int(active.sum())


KERNELS = {"py": _py_pass, "np": _np_pass}


def kernel_time(kernel: str) -> float:
    """Median time of ``REPS`` passes of the kernel, in seconds."""
    fn = KERNELS[kernel]
    fn()  # untimed: warms the interpreter's caches after the work it interrupted
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale_factor(kernel: str, *measured: float) -> float:
    """Nominal over measured kernel time, the measurements averaged."""
    return REF_S[kernel] / (sum(measured) / len(measured))


class SpeedClock:
    """Calibrates every ``interval`` s while running; scales intervals afterwards.

    A calibration is (start, end, kernel time).  The time between two
    calibrations is a segment; it is scaled by the average of their kernel
    times.  Measured intervals must lie between the first and the last
    calibration, which ``running`` takes at its start and end.
    """

    def __init__(self, kernel: str, interval: float = INTERVAL_S) -> None:
        self.kernel = kernel
        self.interval = interval
        self.calibrations: list[tuple[float, float, float]] = []
        self._active = False

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        k = kernel_time(self.kernel)
        self.calibrations.append((t0, time.perf_counter(), k))

    def _tick(self, signum, frame) -> None:
        if self._active:
            self.calibrate()
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    @contextlib.contextmanager
    def running(self) -> Iterator["SpeedClock"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        self.calibrate()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            yield self
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            # signal.signal runs a pending handler first; _tick now does nothing.
            signal.signal(signal.SIGALRM, previous)
            self.calibrate()
        self._index()

    def _index(self) -> None:
        cal = self.calibrations
        self._starts = [end for _, end, _ in cal[:-1]]
        self._ends = [start for start, _, _ in cal[1:]]
        self._factors = [scale_factor(self.kernel, a[2], b[2]) for a, b in zip(cal, cal[1:])]

    def _sum(self, lo: float, hi: float, weighted: bool) -> float:
        if not self._starts or not self._starts[0] <= lo <= hi <= self._ends[-1]:
            raise ValueError(f"interval [{lo}, {hi}] is outside the calibrated run")
        total = 0.0
        i = max(0, bisect.bisect_right(self._starts, lo) - 1)
        while i < len(self._starts) and self._starts[i] < hi:
            overlap = min(hi, self._ends[i]) - max(lo, self._starts[i])
            if overlap > 0:
                total += overlap * (self._factors[i] if weighted else 1.0)
            i += 1
        return total

    def raw(self, lo: float, hi: float) -> float:
        """Seconds in [lo, hi] outside calibrations."""
        return self._sum(lo, hi, False)

    def scaled(self, lo: float, hi: float) -> float:
        """Seconds in [lo, hi] outside calibrations, at the reference speed."""
        return self._sum(lo, hi, True)
