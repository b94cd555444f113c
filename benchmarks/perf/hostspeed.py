"""How slow is the host right now?  A calibration loop to divide by.

On the shared two-core VM this benchmark was built on, identical
pure-Python work takes anywhere from 1.0x to 1.5x its best time, in
phases that last seconds to minutes -- longer than a whole run, so no
median over a run's iterations removes them.  The slowdown hits a fixed
interpreter-bound loop and the simulator alike, so the harness runs that
loop next to everything it times and reports times divided by the loop's
momentary slowdown against a fixed reference: *reference-host seconds*.

A change to the program cannot move the loop, so it shows in full; a
busy neighbour moves both, and mostly cancels.  The reference is a
constant, not the best run a process happens to see: a process that
lives entirely inside a slow phase would otherwise calibrate against
the slow phase.
"""

from __future__ import annotations

from time import perf_counter

#: loop length of one calibration run and runs per sample
LOOP, RUNS = 100_000, 24
#: seconds one run takes on the reference host (the build VM when
#: nothing else runs on it); slowdowns are measured against this
REFERENCE_S = 0.004


def _run() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return perf_counter() - t0


class HostSpeed:
    """Calibration samples of one process."""

    def __init__(self):
        #: the newest sample (mean seconds per run), shared by the
        #: measurement that ends at it and the one that starts there
        self.last = self.sample()

    def sample(self) -> float:
        self.last = sum(_run() for _ in range(RUNS)) / RUNS
        return self.last


def slowdown(*samples: float) -> float:
    """Mean of calibration ``samples`` against the reference host."""
    return sum(samples) / len(samples) / REFERENCE_S
