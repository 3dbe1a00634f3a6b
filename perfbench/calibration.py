"""Speed of the machine at the moment, sampled while the program runs.

On a shared 2-core VM the same pure-Python loop takes anywhere between 15
and 30 ms from one second to the next, and the wall time of a 10 s run
moves by about 13% from run to run, so raw times cannot resolve a 10%
change.  A fixed pure-Python kernel, timed in short bursts interleaved
with the program, slows down with it (burst time and operation time
correlate at about 0.95 over 20 s simulations, and at 0.9 over fresh
interpreter starts), so scaling each measured time by the burst time of
the same moment cancels most of that drift.

A SIGALRM every ``INTERVAL`` seconds runs one burst in the main thread,
between two bytecodes of whatever the program is doing; the caller takes
burst time out of the time it measures.  Seconds at reference speed are
the seconds the work would have taken where one burst takes
``REFERENCE_S``.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

ITERATIONS = 60_000
INTERVAL = 0.1
REFERENCE_S = 0.0125


def _kernel(n: int) -> float:
    total = 0.0
    for i in range(n):
        x = i * 1e-3
        total += math.sin(x) * math.cos(x) + x * x
    return total


class Calibrator:
    def __init__(self) -> None:
        self.bursts: list[float] = []
        self._busy = False

    def burst(self, *_signal_args) -> None:
        if self._busy:  # a late alarm arriving inside a burst
            return
        self._busy = True
        start = time.perf_counter()
        _kernel(ITERATIONS)
        self.bursts.append(time.perf_counter() - start)
        self._busy = False

    @contextmanager
    def sampling(self):
        """Interleave bursts with the body; yields the list they are appended to."""
        previous = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self.bursts
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
