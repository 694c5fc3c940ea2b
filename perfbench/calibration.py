"""Machine speed, sampled by a timer signal all through a run.

The shared host this benchmark was written on changes speed by up to 1.6x,
in phases from about a second to several minutes long, while the load of
this process stays the same. The codec's pure-Python loops slow down with a
small fixed loop run at the same time: timed back to back, the ratio of the
two varies by about 2% over 25-second windows, where the codec's own time
varies by 8% to 15%. An operation of the codec takes seconds, so sampling
the loop only between operations misses the phases inside them; a timer
signal runs it every PERIOD_S instead, between the codec's bytecodes.

A time measured between two readings of `clock()` is multiplied by
`speed(start, end)`: the reference loop time over the mean loop time sampled
in that interval. It then reads as it would on the reference machine. The
handler's own time is taken out of `clock()`, which the benchmark uses for
every operation and span.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

ITERATIONS = 10_000
PERIOD_S = 0.1
# The loop's mean time on the reference machine (a 2-CPU Xeon VM running
# CPython 3.11, in one of its fast phases).
REFERENCE_S = 0.0020


def calibration_loop(iterations: int) -> float:
    """Time a fixed pure-Python loop of integer, list and dict work."""
    table = list(range(256))
    seen = {}
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        acc = (acc * 31 + table[i & 255]) & 0xFFFFFFFF
        if acc & 1:
            seen[i & 1023] = acc
    return time.perf_counter() - start


class Calibration:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock() at start, loop time)
        self.stolen = 0.0

    def clock(self) -> float:
        """perf_counter without the time spent in the sampling handler."""
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start - self.stolen, calibration_loop(ITERATIONS)))
        self.stolen += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Sample the loop every PERIOD_S inside the block (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """Reference over measured loop time: below 1 on a slow machine.

        Uses the samples taken between two clock() readings, or all of the
        run's samples when there are none in the interval or none is given.
        """
        inside = [t for at, t in self.samples
                  if start is not None and start <= at <= end]
        return REFERENCE_S / statistics.fmean(inside or [t for _, t in self.samples])
