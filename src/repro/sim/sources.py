"""Event sources: turn the world's schedules into scheduled events.

Each helper walks one of the runtime's existing "world change" inputs —
a condition trace, a fault schedule, a control-loop cadence, an ingress
capacity trace, the network monitor's estimates — and schedules its
transitions on an :class:`~repro.sim.events.EventLoop` so they fire at
their *true* instants instead of at the next request boundary.

Priorities at a shared instant (lower fires first):

* ``PRIORITY_WORLD`` (0) — physical changes: condition steps, fault
  transitions, capacity updates.  The world changes first.
* ``PRIORITY_OBSERVER`` (10) — control ticks and monitor-fed capacity
  estimates: observers see the instant's final world state.

Every source is opt-in: a loop with nothing scheduled is a plain clock
advance.
"""

from __future__ import annotations

from typing import Annotated, List, Sequence

from .. import Finite, NonNegative, Period, Positive, check_fields
from ..control.loop import ControlLoop
from ..netsim.fluid import FluidTracker
from ..telemetry.recorder import RunRecorder
from .events import Event, EventLoop

__all__ = ["PRIORITY_WORLD", "PRIORITY_OBSERVER",
           "schedule_condition_trace", "schedule_fault_transitions",
           "schedule_control_ticks", "schedule_ingress_trace",
           "schedule_monitor_caps"]

#: physical world changes fire before observers at a shared instant
PRIORITY_WORLD = 0
PRIORITY_OBSERVER = 10


def _tick_count(period_s: float, horizon_s: float) -> int:
    """Largest ``n`` with ``n * period_s <= horizon_s``, float-safe.

    Division alone can land one off in either direction (e.g.
    ``1.0 / 0.1 == 10.000000000000002``), so nudge the candidate until
    the defining inequality holds exactly in float.
    """
    n = int(horizon_s / period_s)
    while (n + 1) * period_s <= horizon_s:
        n += 1
    while n > 0 and n * period_s > horizon_s:
        n -= 1
    return n


def _step_times(trace: Sequence, period_s: float) -> List[int]:
    """Indices where the piecewise-constant trace actually changes."""
    if not trace:
        return []
    out = [0]
    for idx in range(1, len(trace)):
        if trace[idx] != trace[idx - 1]:
            out.append(idx)
    return out


def schedule_condition_trace(loop: EventLoop, system, trace,
                             period_s: Annotated[float, Period],
                             recorder=None) -> List[Event]:
    """Schedule the condition trace's steps at their true instants.

    One event per *cell change* (a :func:`step_trace` that repeats a
    condition for twenty cells schedules one event, not twenty): at
    ``idx * period_s`` the true world becomes ``trace[idx]`` via
    :meth:`Murmuration.update_condition`, in-flight fluid flows on the
    cluster's links re-converge
    (:meth:`~repro.netsim.topology.Cluster.update_fluid_caps`), and the
    recorder (if any) logs the condition at the *step* instant — the
    boundary-only path logs it at the next request's start instead.
    """
    check_fields(schedule_condition_trace, locals())
    recorder = RunRecorder.of(recorder)
    events = []

    # The cell is captured per event, not recomputed from the fire
    # time: int(idx * period_s / period_s) rounds down to idx - 1 for
    # many (idx, period) pairs (0.7 at idx 3, 0.1 at idx 43, ...),
    # which would silently re-apply the previous cell and lose the
    # transition.
    def fire(t: float, idx: int) -> None:
        condition = trace[idx]
        system.update_condition(condition)
        system.cluster.update_fluid_caps(t)
        recorder.on_condition(t, idx, condition)

    for idx in _step_times(trace, period_s):
        events.append(loop.schedule(idx * period_s,
                                    lambda t, i=idx: fire(t, i),
                                    kind="condition-step",
                                    priority=PRIORITY_WORLD))
    return events


def schedule_fault_transitions(loop: EventLoop, system) -> List[Event]:
    """Schedule every fault onset and recovery at its scheduled instant.

    The boundary-only path runs :meth:`FaultInjector.advance` at each
    request admission, so a crash at t=5.0 takes effect at the *next*
    request's start; here each event's ``start`` and (finite) ``end``
    becomes a scheduled transition that re-applies the fault overlay
    the moment the schedule says so.  A :class:`LinkFlap`'s internal
    up/down bursts still resolve at whatever granularity the injector
    is consulted — the flap's memoized burst pattern is a property of
    query time, not a schedulable transition list.
    """
    injector = system.faults

    def fire(t: float) -> None:
        injector.advance(t)
        injector.apply_to(system.cluster, system._base_condition)
        system.cluster.update_fluid_caps(t)

    return [loop.schedule(t, fire, kind="fault-transition",
                          priority=PRIORITY_WORLD)
            for t in injector.transition_times()]


def schedule_control_ticks(loop: EventLoop, control,
                           horizon_s: Annotated[float, Finite, NonNegative]
                           ) -> List[Event]:
    """Schedule the control loop's cadence as events up to ``horizon_s``.

    The boundary-only path can only tick when a request happens to
    arrive, so an idle gap swallows ticks (see
    :meth:`ControlLoop.maybe_tick`); scheduled ticks keep true cadence
    through gaps.  ``maybe_tick`` stays cadence-gated, so a server
    driving the loop at admissions *and* scheduled ticks never
    double-fires.
    """
    check_fields(schedule_control_ticks, locals())
    control = ControlLoop.of(control)
    # k * period_s, not an accumulating t += period_s: accumulation
    # compounds float error so late ticks drift off true multiples and
    # the final tick near the horizon can be skipped or duplicated.
    period_s = control.period_s
    return [loop.schedule(k * period_s,
                          lambda tt: control.maybe_tick(tt),
                          kind="control-tick", priority=PRIORITY_OBSERVER)
            for k in range(1, _tick_count(period_s, horizon_s) + 1)]


def schedule_ingress_trace(loop: EventLoop, ingress,
                           trace_mbps: Annotated[Sequence[float], Positive],
                           period_s: Annotated[float, Period]) -> List[Event]:
    """Schedule a shared-ingress uplink capacity trace mid-flight.

    At each cell change the uplink's true bandwidth steps
    (:meth:`SharedIngress.set_capacity`) and the ingress's ledger
    re-converges every in-flight upload at the step instant — the
    mid-flight semantics the boundary-only model can only apply at the
    next admission.  A cell that is not a positive bandwidth raises
    ``ValueError`` here, before anything is scheduled.
    """
    check_fields(schedule_ingress_trace, locals())

    # Same index capture as schedule_condition_trace: recomputing the
    # cell from the fire time loses transitions to float rounding.
    def fire(t: float, idx: int) -> None:
        ingress.set_capacity(t, float(trace_mbps[idx]))

    return [loop.schedule(idx * period_s, lambda t, i=idx: fire(t, i),
                          kind="ingress-capacity",
                          priority=PRIORITY_WORLD)
            for idx in _step_times(trace_mbps, period_s)]


def schedule_monitor_caps(loop: EventLoop, system, tracker,
                          period_s: Annotated[float, Period],
                          horizon_s: Annotated[float, Finite, NonNegative],
                          probe: bool = True) -> List[Event]:
    """Feed the network monitor's *observed* capacities into fluid caps.

    Every ``period_s`` the monitor probes (optional) and its smoothed
    bandwidth estimate for each star spoke ``(0, i)`` is pushed into the
    fluid ``tracker`` via :meth:`FluidTracker.update_caps` — the
    measured-capacities half of the ROADMAP item: in-flight flows
    re-converge onto what the monitor *believes* the links can carry,
    not the injected ground truth.
    """
    check_fields(schedule_monitor_caps, locals())
    if not isinstance(tracker, FluidTracker):
        raise ValueError(
            f"monitor-fed caps need a fluid tracker (in-flight flows "
            f"re-converge onto them), got {type(tracker).__name__}")

    def fire(t: float) -> None:
        if probe:
            system.monitor.probe_all(t)
        estimate = system.monitor.estimate()
        caps = {(0, i + 1): bw * 1e6
                for i, bw in enumerate(estimate.bandwidths_mbps)
                if bw > 0.0}
        if caps:
            tracker.update_caps(t, caps)

    return [loop.schedule(k * period_s, fire, kind="monitor-caps",
                          priority=PRIORITY_OBSERVER)
            for k in range(1, _tick_count(period_s, horizon_s) + 1)]
