"""The discrete-event core: one clock, a heap of scheduled events.

:class:`EventLoop` centralizes simulated time: world changes (condition
trace steps, fault transitions, control ticks, capacity updates) are
:class:`Event` objects on a heap, and the serving loops *advance
through* the loop — every event at or before the advance target fires,
in deterministic order, before serving proceeds.

Determinism rules
-----------------
* Events fire in ``(time, priority, seq)`` order: earlier time first;
  at equal times, lower ``priority`` first; at equal priorities,
  insertion (schedule-call) order.  No dict/set iteration anywhere.
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
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..runtime.clock import SimulatedClock

__all__ = ["Event", "EventLoop"]


@dataclass(frozen=True)
class Event:
    """One scheduled world change.

    ``fire`` is called with the event's scheduled ``time`` (not the
    advance target).  ``priority`` breaks ties at equal times (lower
    fires first); ``seq`` is the insertion counter that makes the
    ordering total.
    """

    time: float
    priority: int
    seq: int
    kind: str
    fire: Callable[[float], None] = field(compare=False)

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)


class EventLoop:
    """A heap of timestamped events over one shared simulated clock.

    Serving loops call :meth:`advance_to` at each admission instant and
    each service start; every event due at or before the target fires
    first (moving the clock to its own time), then the clock lands on
    the target.  Callbacks may schedule further events, including at
    times within the current advance window — they fire in the same
    pass, in order.
    """

    def __init__(self, clock: Optional[SimulatedClock] = None):
        self.clock = clock if clock is not None else SimulatedClock()
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: events fired over the loop's lifetime
        self.fired_total = 0

    # -- queries -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Events still scheduled."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """The next event's scheduled time, or None when idle."""
        return self._heap[0][0] if self._heap else None

    # -- scheduling --------------------------------------------------------
    def schedule(self, t: float, fn: Callable[[float], None],
                 kind: str = "event", priority: int = 0) -> Event:
        """Schedule ``fn`` to fire at simulated time ``t``.

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
        ev = Event(time=t, priority=int(priority), seq=self._seq,
                   kind=kind, fire=fn)
        self._seq += 1
        heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))
        return ev

    # -- time --------------------------------------------------------------
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
            _, _, _, ev = heapq.heappop(self._heap)
            # An event can be older than the clock when the facade's
            # overlap path reset time forward past it between advances;
            # it still fires (with its own scheduled time), the clock
            # just does not move backwards.
            if ev.time > self.clock.now:
                self.clock.advance_to(ev.time)
            ev.fire(ev.time)
            fired += 1
        if t > self.clock.now:
            self.clock.advance_to(t)
        self.fired_total += fired
        return fired

    def advance(self, dt: float) -> int:
        """Relative :meth:`advance_to` (``dt`` must be non-negative)."""
        if dt < 0:
            raise ValueError(f"cannot advance time by {dt}")
        return self.advance_to(self.clock.now + dt)

    def run(self) -> int:
        """Fire everything scheduled, in order (drain the heap)."""
        fired = 0
        while self._heap:
            fired += self.advance_to(self._heap[0][0])
        return fired

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EventLoop(now={self.clock.now:.6f}, "
                f"pending={len(self._heap)}, fired={self.fired_total})")
