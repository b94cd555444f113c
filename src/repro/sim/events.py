"""The discrete-event core: one clock, a heap of scheduled callbacks.

:class:`EventLoop` centralizes simulated time: a world change that must
land mid-flight (a shared-uplink capacity step,
:func:`schedule_ingress_trace`) is a callback on a heap, and the serving
loops *advance through* the loop — every event at or before the advance
target fires, in deterministic order, before serving proceeds.  Every
other world change (condition cells, faults, control ticks) is applied
at request boundaries by the servers themselves.

Determinism rules
-----------------
* Events fire in ``(time, seq)`` order: earlier time first; at equal
  times, insertion (schedule-call) order.  No dict/set iteration
  anywhere.  An event due at an admission instant fires before that
  admission.
* A callback receives the event's *scheduled* time, never the advance
  target: a capacity step scheduled at t=3.0 that fires while the loop
  advances to t=3.4 still re-converges the fluid ledger at 3.0.
* Scheduling into the past is an error (events must be known no later
  than their fire time), and so is a non-finite time: a NaN event
  sits at the heap top and blocks everything behind it.  Advancing to
  the past is a clamp (serving
  loops revisit earlier admission instants after a long service time —
  nothing fires twice, because fired events leave the heap).
* The wrapped :class:`~repro.runtime.clock.SimulatedClock` never runs
  backwards through this class.  (The batched facade's overlap rewind
  uses :meth:`SimulatedClock.reset` directly and is documented there;
  the loop tolerates it — an event older than the clock simply fires
  without moving the clock back.)

With no events scheduled, ``advance_to`` degenerates to
``clock.advance_to``, which is why a server given no loop simply owns
an empty one (DESIGN.md, "Optional subsystems").
"""

from __future__ import annotations

import heapq
import math
from typing import Annotated, Callable, List, Optional, Sequence, Tuple

from .. import Period, Positive, check_fields
from ..runtime.clock import SimulatedClock

__all__ = ["EventLoop", "schedule_ingress_trace"]


class EventLoop:
    """A heap of timestamped callbacks over one shared simulated clock.

    Serving loops call :meth:`advance_to` at each admission instant and
    each service start; every event due at or before the target fires
    first (moving the clock to its own time), then the clock lands on
    the target.  Callbacks may schedule further events, including at
    times within the current advance window — they fire in the same
    pass, in order.
    """

    def __init__(self, clock: Optional[SimulatedClock] = None):
        self.clock = clock if clock is not None else SimulatedClock()
        self._heap: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        #: events fired over the loop's lifetime
        self.fired_total = 0

    def schedule(self, t: float, fn: Callable[[float], None]) -> float:
        """Schedule ``fn`` to fire at simulated time ``t``; returns ``t``.

        ``t`` must be finite and must not lie in the loop's past: an
        event the world could not have known about at its own fire time
        is a modelling error, not a race to paper over.
        """
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"cannot schedule an event at {t}")
        if t < self.clock.now:
            raise ValueError(
                f"cannot schedule an event at {t} in the past "
                f"(loop is at {self.clock.now})")
        heapq.heappush(self._heap, (t, self._seq, fn))
        self._seq += 1
        return t

    def advance_to(self, t: float) -> int:
        """Fire every event due at or before ``t``; land the clock on
        ``t``.  Returns the number of events fired.

        Advancing to the past is a clamp (no-op for the clock, nothing
        fires): serving loops legitimately revisit earlier admission
        instants after a long service time.  A non-finite target is
        an error.
        """
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"cannot advance the loop to {t}")
        fired = 0
        while self._heap and self._heap[0][0] <= t:
            when, _, fn = heapq.heappop(self._heap)
            # An event can be older than the clock when the facade's
            # overlap path reset time forward past it between advances;
            # it still fires (with its own scheduled time), the clock
            # just does not move backwards.
            if when > self.clock.now:
                self.clock.advance_to(when)
            fn(when)
            fired += 1
        if t > self.clock.now:
            self.clock.advance_to(t)
        self.fired_total += fired
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EventLoop(now={self.clock.now:.6f}, "
                f"pending={len(self._heap)}, fired={self.fired_total})")


def schedule_ingress_trace(loop: EventLoop, ingress,
                           trace_mbps: Annotated[Sequence[float], Positive],
                           period_s: Annotated[float, Period]) -> List[float]:
    """Schedule a shared-ingress uplink capacity trace mid-flight.

    At each cell change the uplink's true bandwidth steps
    (:meth:`SharedIngress.set_capacity`) and the ingress's ledger
    re-converges every in-flight upload at the step instant — the
    mid-flight semantics the boundary-only model can only apply at the
    next admission.  Returns the step instants.  A cell that is not a
    positive bandwidth raises ``ValueError`` here, before anything is
    scheduled.
    """
    check_fields(schedule_ingress_trace, locals())

    # The cell is captured per event, not recomputed from the fire
    # time: int(idx * period_s / period_s) rounds down to idx - 1 for
    # many (idx, period) pairs (0.7 at idx 3, 0.1 at idx 43, ...),
    # which would silently re-apply the previous cell and lose the
    # transition.
    def fire(t: float, idx: int) -> None:
        ingress.set_capacity(t, float(trace_mbps[idx]))

    return [loop.schedule(idx * period_s, lambda t, i=idx: fire(t, i))
            for idx in range(len(trace_mbps))
            if idx == 0 or trace_mbps[idx] != trace_mbps[idx - 1]]
