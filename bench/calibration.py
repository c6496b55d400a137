"""Host-speed calibration for the timing metrics.

The benchmark runs on shared virtual machines whose CPU speed drifts by up
to 50% within a minute; every Python workload slows down and speeds up
together.  A fixed pure-Python loop of exact arithmetic (``Fraction`` and
dict updates, the same kind of work lieq does, but no lieq code) is timed
between requests.  Each request's time is multiplied by
``REFERENCE_S / latest loop time``, which reports it as it would read on
a machine where the loop takes REFERENCE_S.  Over 95 s of drift on a
2-vCPU VM the raw times of lieq requests varied with a coefficient of
variation of 16%, and the calibrated times with 4%.

The loop runs with the garbage collector off, so that a large heap in the
measured process cannot slow the loop and hide a slowdown of the program.
It never overlaps a request.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.015   # the loop's time on the reference machine
INTERVAL_S = 0.5      # re-time the loop after this much other work


def loop_s() -> float:
    """Seconds one run of the calibration loop takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[int, Fraction] = {}
        x = Fraction(1, 3)
        for i in range(3000):
            k = i % 97
            acc[k] = acc.get(k, Fraction(0)) + x * Fraction(i + 1, k + 2)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """The latest calibration factor; multiply a measured time by it."""

    def __init__(self):
        self.factor = REFERENCE_S / loop_s()
        self.timed_at = time.monotonic()

    def refresh(self, force: bool = False) -> float:
        if force or time.monotonic() - self.timed_at > INTERVAL_S:
            self.factor = REFERENCE_S / loop_s()
            self.timed_at = time.monotonic()
        return self.factor
