"""Scaling of measured times to a reference core speed.

On a shared host the speed of a core drifts whatever this process does: one
K=8 alignment timed back to back on an idle 2-core container took anywhere
from 0.11 s to 0.34 s, and the median round time of one workload rose by
40 % over 20 minutes. A fixed pure-Python loop, timed at regular intervals
while the work runs, measures that drift: over 20-second windows the raw
time of a fixed piece of solver and alignment work ranged over 17 % of its
median, its ratio to the loop's time over 4 %. A run's times are reported as
``t * REF_LOOP_S / loop``, where ``loop`` is the median of the loop timings
taken while that work ran (one timed round, or one set-up): the seconds it
would have taken at the speed where the loop takes REF_LOOP_S. Raw times
are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

LOOP_ITERATIONS = 50_000
# a round figure for the loop's time on the machine the reference figures
# come from, which measured 4 to 7 ms as its speed drifted
REF_LOOP_S = 0.004
SAMPLE_EVERY_S = 0.5


def loop_time():
    """Seconds one pass of the fixed loop takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


class SpeedProbe:
    """Loop timings taken while timed work runs.

    Inside ``sampling()`` a SIGALRM handler times the loop every
    SAMPLE_EVERY_S seconds, so long operations are sampled as evenly as
    short ones. The handler's own time accumulates in ``stolen``; a caller
    subtracts it from what it timed.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def sample(self):
        t0 = perf_counter()
        self.samples.append(loop_time())
        self.stolen += perf_counter() - t0

    def _tick(self, signum, frame):
        self.sample()

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self):
        """Multiplier from raw seconds to seconds at the reference speed."""
        return factor(self.samples)


def factor(samples):
    """Multiplier from raw seconds to seconds at the reference speed, for
    work timed while the loop timings `samples` were taken."""
    return REF_LOOP_S / statistics.median(samples)
