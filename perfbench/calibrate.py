"""Measure how fast the machine runs while the timed code runs.

On a shared host the same pass can run up to twice as slow, in episodes
from a tenth of a second to minutes, and a loop timed before and after a
pass misses the episodes inside it.  ``SpeedSampler`` therefore times a
fixed sub-millisecond loop from a timer signal every few milliseconds
*during* the timed code: the process stays single-threaded, and the
samples see every slowdown in proportion to its length.  Times are then
scaled to the speed at which the loop takes ``NOMINAL_S``.  The loop does
the kind of work the package does: tuple and dict operations and integer
arithmetic in the interpreter.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Seconds the loop takes at the machine speed the numbers are quoted at:
# its usual time outside slowdowns on the baseline host (see NOTES.md).
NOMINAL_S = 0.00025


def loop_s() -> float:
    start = perf_counter()
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) & 7
    return perf_counter() - start


class SpeedSampler:
    """Times ``loop_s`` from SIGALRM every ``interval`` seconds while active."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(loop_s())

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Factor from wall seconds since ``mark()`` to nominal-speed seconds.

        Work done in a stretch of time is proportional to the mean speed
        over it, so this is the mean of NOMINAL_S / sample.
        """
        samples = self.samples[since:] or [loop_s()]
        return statistics.fmean(NOMINAL_S / s for s in samples)
