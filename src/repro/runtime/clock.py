"""Simulated wall clock for the runtime.

The distributed executor performs *real* NumPy computation but accounts
*modelled* time (device latency model + network simulator), advancing a
:class:`SimulatedClock`.  This is the standard discrete-event trick that
lets a laptop reproduce a five-Raspberry-Pi testbed's timing behaviour.
"""

from __future__ import annotations

import math

from ..netsim.traces import check_time

__all__ = ["SimulatedClock"]


class SimulatedClock:
    """Monotonically advancing simulated time in seconds.

    The time is always a finite instant (``check_time``): a NaN passes
    every ``<`` guard and would be inherited by each request after it.
    """

    def __init__(self, start: float = 0.0):
        self._now = check_time(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if not 0 <= dt < math.inf:
            raise ValueError(f"cannot advance time by {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        if not self._now <= t < math.inf:
            if t < self._now:
                raise ValueError(
                    f"cannot rewind clock from {self._now} to {t}")
            check_time(t)
        self._now = t
        return self._now

    def reset(self, t: float) -> float:
        """Explicitly move the clock to ``t`` — the *only* entry point
        that may rewind.

        The facade's serving path (``Murmuration._serve``) is the one
        caller, on behalf of two fronts.  ``infer_batch(now=)`` rewinds
        for real: the overlap path starts batch ``k+1``'s decision
        while batch ``k`` still executes, so its clock restarts at the
        decision instant, before the previous batch's finish — pipeline
        time, not a causality violation (decision starts are monotone
        across batches).  ``infer(now=)`` guards monotonicity itself and
        lets through only a float-noise rewind.  Everything else must go
        through :meth:`advance` / :meth:`advance_to`, which guard
        monotonicity.
        """
        self._now = check_time(t)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(now={self._now:.6f})"
