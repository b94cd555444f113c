"""Event-core scenario: boundary-only vs mid-flight world application.

One seeded Poisson request stream uploads fixed payloads over a shared
last-mile uplink whose capacity follows a step trace (e.g. 40 Mbps
dropping to 5 Mbps for one cell and back).  The uplink is priced by the
fluid max-min solver (:class:`~repro.netsim.fluid.FluidTracker`), so
in-flight uploads *can* re-converge when capacity changes — the
question is *when* the serving stack lets them see the change:

* ``boundary`` — the historical model: the trace cell is looked up
  lazily whenever a request touches the ingress
  (:class:`SteppedIngress`), so a capacity step landing *between*
  admissions takes effect only at the next admission's boundary time.
  Flows in flight across the step keep transferring at the stale rate
  until then.
* ``event`` — the event core: :func:`~repro.sim.schedule_ingress_trace`
  schedules one event per trace-cell change on an
  :class:`~repro.sim.EventLoop` sharing the system's
  :class:`~repro.runtime.clock.SimulatedClock`; the server drains the
  loop at every admission instant, so the step fires at its *true*
  instant and every in-flight upload re-converges right there
  (:meth:`SharedIngress.set_capacity` ->
  :meth:`FluidTracker.update_caps`).

Both variants serve the identical arrival stream with pinned decision
cost, so the compliance/latency gap between them is purely the
boundary-vs-event semantics — a seed-reproducible number the claims
below pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Tuple

from .. import Bound, Period, Positive, check_fields
from ..devices.profiles import desktop_gtx1080, rpi4
from ..netsim.ingress import SharedIngress
from ..netsim.fluid import FluidTracker
from ..netsim.link import Delay, Link
from ..netsim.topology import NetworkCondition
from ..netsim.traces import condition_at
from ..sim import EventLoop, schedule_ingress_trace
from .spec import (Claim, DecisionTime, NumRequests, PayloadKb, RandomArchs,
                   Rate, Scenario, Seed, SloMs, World)

__all__ = ["EventCoreConfig", "SCENARIO", "SteppedIngress"]


@dataclass(frozen=True)
class EventCoreConfig:
    """One boundary-vs-event comparison (simulated seconds unless noted)."""

    num_requests: NumRequests = 120
    slo_ms: SloMs = 800.0
    seed: Seed = 0
    decision_time_s: DecisionTime = 0.04
    arrival_rate_hz: Rate = 6.0
    #: request payload crossing the shared ingress
    payload_kb: PayloadKb = 512.0
    #: the uplink's piecewise-constant capacity, one cell per period
    ingress_trace_mbps: Annotated[Tuple[float, ...], Positive] = (
        40.0, 40.0, 5.0, 40.0, 40.0, 5.0, 40.0, 40.0)
    #: cell ``i`` steps at ``i * trace_period_s``, which must stay finite
    trace_period_s: Annotated[float, Period, Bound(hi=1e9)] = 2.0
    ingress_delay_ms: Delay = 5.0
    n_random_archs: RandomArchs = 8

    def __post_init__(self):
        check_fields(self)
        if not self.ingress_trace_mbps:
            raise ValueError("need at least one ingress trace cell")


class SteppedIngress(SharedIngress):
    """A shared uplink that applies its capacity trace *lazily*.

    The boundary-only ablation: the trace cell for ``now`` is looked up
    whenever a request prices or admits an upload, so a capacity step
    between admissions is invisible until the next request touches the
    wire — and then takes effect at the boundary time, not the step
    instant.  The fluid ledger still re-converges in-flight flows when
    the late-observed capacity finally lands (admissions carry caps),
    which is exactly the lag the event core removes.
    """

    trace_mbps: Annotated[Tuple[float, ...], Positive]
    period_s: Annotated[float, Period]

    def __init__(self, link: Link, tracker, trace_mbps, period_s: float,
                 **kwargs):
        self.trace_mbps = tuple(float(b) for b in trace_mbps)
        self.period_s = period_s
        super().__init__(link, tracker, **kwargs)   # checks these too
        self._cell = 0

    def _step_to(self, now: float) -> None:
        idx, bw = condition_at(self.trace_mbps, now, self.period_s)
        if idx != self._cell:
            self._cell = idx
            # only the link steps: the ledger learns the new capacity
            # at the next admission (boundary-only), never mid-flight
            self.link = self.link.with_conditions(bandwidth_mbps=bw)

    def upload_time(self, arrival: float, tenant=None) -> float:
        self._step_to(arrival)
        return super().upload_time(arrival, tenant)

    def admit(self, arrival: float, tenant=None) -> float:
        self._step_to(arrival)
        return super().admit(arrival, tenant)


def _world(cfg: EventCoreConfig, telemetry,
           event_driven: bool = False) -> World:
    tracker = FluidTracker()
    link = Link(bandwidth_mbps=cfg.ingress_trace_mbps[0],
                delay_ms=cfg.ingress_delay_ms)
    payload_bytes = cfg.payload_kb * 1024.0
    loop = None
    if event_driven:
        ingress = SharedIngress(link, tracker, payload_bytes=payload_bytes)
        loop = EventLoop()
        schedule_ingress_trace(loop, ingress, cfg.ingress_trace_mbps,
                               cfg.trace_period_s)
    else:
        ingress = SteppedIngress(link, tracker, cfg.ingress_trace_mbps,
                                 cfg.trace_period_s,
                                 payload_bytes=payload_bytes)
    return World(
        devices=[rpi4(), desktop_gtx1080()],
        condition=NetworkCondition((150.0,), (10.0,)),
        arrival_rate_hz=cfg.arrival_rate_hz,
        ingress=ingress, tracker=tracker, events=loop)


SCENARIO = Scenario(
    name="event_core", config=EventCoreConfig, world=_world,
    variants={"boundary": {}, "event": {"event_driven": True}},
    instrumented=None,
    columns=("e2e", "p95ms", "mean-ms", "caps-upd", "events"),
    claims=(
        Claim("event-driven steps beat boundary-only by >= 25 pt end to end",
              ("event", "e2e"), ">=", ("boundary", "e2e"), 0.25),
        Claim("and by >= 1000 ms at p95",
              ("event", "p95ms"), "<=", ("boundary", "p95ms"), -1000.0),
        Claim("boundary-only never re-converges mid-flight",
              ("boundary", "caps-upd"), "==", 0),
        Claim("the event core does at each of the trace's 5 steps",
              ("event", "caps-upd"), "==", 5)),
    smoke=("num_requests=60",))
