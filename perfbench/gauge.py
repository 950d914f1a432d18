"""Speed gauge: the machine's speed measured next to and during every op.

On a shared host, such as a 2-vCPU KVM guest on a 2 GHz Xeon, the cores'
speed changes by up to 1.5x within seconds and stays changed for minutes
at a time, so the wall time of the same op spreads by a quarter between
runs.  The gauge is a fixed computation that uses no acoufilt code.  ``SpeedGauge`` times it
just before and just after each op, and every ``INTERVAL_S`` while the op
runs (from a timer signal), and takes those ticks out of the op's time.
An op's time divided by the mean gauge time within ``WINDOW_S`` of it, its
time in gauge units, no longer depends much on the speed the host had
then.  The mean, not the median, because the short stalls a long op
suffers land in the samples taken during it in the same share.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# (grid points, repeats) of the array part.
GRIDS = ((1601, 2), (16001, 1))
# Iterations of the small-call and of the interpreter part.
CALLS = 150
STEPS = 450
INTERVAL_S = 0.1
WINDOW_S = 0.25

_GRIDS = [(np.linspace(1.0, 2.0, n) * (1.0 + 0.1j), repeats) for n, repeats in GRIDS]
_ABCD = np.array([[1.0 + 0.5j, 0.2], [0.1j, 1.0]])


def reference_work() -> None:
    """Work of the kinds the program does, in about equal shares of time:
    numpy complex arithmetic on a scoring-grid-sized array and on one as
    large as the files workload's largest grid; numpy calls on 2x2 arrays,
    whose cost is per-call overhead, as in the ladder cascade; and plain
    interpreter work on small objects and strings, as in file formatting."""
    for x, repeats in _GRIDS:
        for _ in range(repeats):
            y = 1.0 / (x * x + 0.5j * x + 1.0)
            float(np.max(20.0 * np.log10(np.abs(y))))
    acc = _ABCD
    for _ in range(CALLS):
        acc = acc @ _ABCD * 0.5
    total = 0
    for k in range(STEPS):
        row = {"f": k, "v": k * 0.5}
        total += len(f"{row['f']} {row['v']:.6e}")


class SpeedGauge:
    """The (start, end) times of every gauge sample of a run, in order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that came while a sample was being taken
            return
        self._busy = True
        start = perf_counter()
        reference_work()
        self.samples.append((start, perf_counter()))
        self._busy = False

    @contextlib.contextmanager
    def during(self):
        """Sample once before the block, every INTERVAL_S in it and once after."""
        self.sample()
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.sample()

    def spent(self, t0: float, t1: float) -> float:
        """Time the samples took inside [t0, t1]."""
        lo = bisect.bisect_left(self.samples, (t0 - WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (t1,))
        return sum(max(0.0, min(end, t1) - max(start, t0))
                   for start, end in self.samples[lo:hi])

    def around(self, t0: float, t1: float) -> float:
        """Mean gauge time of the samples that start within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.samples, (t0 - WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (t1 + WINDOW_S,))
        return statistics.fmean(end - start for start, end in self.samples[lo:hi])
