"""The control-loop cadence: periodic sim-clock telemetry snapshots.

:class:`ControlLoop` is the spine of the control plane.  It is handed to
the :class:`~repro.core.murmuration.Murmuration` facade and/or a server
via their optional ``control=`` parameters, observes the running system
on a fixed *simulated*-clock cadence, and lets a stack of composable
:class:`~repro.control.controllers.Controller` objects act on each
snapshot.

Design contract:

* ``control=None`` (the default everywhere) is normalised by
  :meth:`ControlLoop.of` to :data:`NULL_CONTROL`, which never ticks and
  admits everything, so the facade and the servers call their loop
  unconditionally (DESIGN.md, "Optional subsystems");
* the loop observes only what a deployed controller could observe: the
  monitor's *smoothed estimate* and the scatter of its recent samples
  around it (never the injected ground truth the monitor's telemetry
  histograms compare against), the cache's own counters, and the
  server's finished requests since the previous tick as a
  :class:`~repro.runtime.server.ServingStats` — the report's own
  statistics, not a private copy of them;
* ticks fire between requests on the simulated clock (``maybe_tick`` is
  idempotent for a given time: the facade and the server may both call
  it), so controller work never lands on a request's critical path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated, List, Optional, Sequence

from .. import Period, check_fields
from ..netsim.topology import NetworkCondition
from ..telemetry import Telemetry

if TYPE_CHECKING:  # the server imports this module
    from ..runtime.server import ServingStats

__all__ = ["ControlAction", "ControlSnapshot", "ControlLoop", "NullControl",
           "NULL_CONTROL"]


@dataclass(frozen=True)
class ControlAction:
    """One adjustment a controller made, for the audit log."""

    t: float
    controller: str
    description: str


@dataclass(frozen=True)
class ControlSnapshot:
    """What the control plane can see at one tick (simulated seconds).

    Window quantities cover the interval since the previous tick.
    """

    t: float
    #: cache hits/misses since the previous tick (serving lookups only)
    window_hits: int
    window_misses: int
    #: the requests finished since the previous tick, as a report: a
    #: controller reads the statistic it needs (``percentile_ms``,
    #: ``mean_service_s``, ...) exactly as the report prints it
    window: "ServingStats"
    #: requests queued (arrived, not yet dispatched) at snapshot time
    queue_depth: int
    #: the latency SLO in seconds, or None (accuracy SLO / no SLO)
    slo_s: Optional[float]
    #: the monitor's current smoothed estimate — the observed world
    condition: Optional[NetworkCondition]
    #: scatter of the monitor's recent samples around its estimate
    #: (``NetworkMonitor.recent_rel_error``)
    monitor_bw_rel_err: float
    monitor_delay_rel_err: float

    @property
    def window_hit_rate(self) -> Optional[float]:
        """Cache hit rate over the window, or None with no lookups."""
        total = self.window_hits + self.window_misses
        return self.window_hits / total if total else None


class ControlLoop:
    """Runs a stack of controllers on a fixed simulated-clock cadence.

    Parameters
    ----------
    controllers : the controllers to consult, in order, at every tick.
    period_s : tick cadence in simulated seconds.
    telemetry : optional hub; the loop scopes itself under ``control_*``
        and counts ticks, per-controller actions, and admission verdicts.
    """

    period_s: Annotated[float, Period]

    def __init__(self, controllers: Optional[Sequence] = None,
                 period_s: float = 0.5,
                 telemetry: Optional[Telemetry] = None):
        self.period_s = period_s
        check_fields(self)
        self.controllers = list(controllers) if controllers is not None else []
        self.telemetry = Telemetry.of(telemetry)
        self.system = None
        self.server = None
        self.ticks = 0
        self.actions: List[ControlAction] = []
        self._next_due = period_s
        self._stats = None
        self._seen_requests = 0
        self._last_hits = 0
        self._last_misses = 0
        # the admission controller, if one is stacked (duck-typed on
        # the per-request ``admit`` hook)
        self._admission = next(
            (c for c in self.controllers if hasattr(c, "admit")), None)
        reg = self.telemetry.registry.child("control")
        self._m_ticks = reg.counter("ticks_total",
                                    help="control-loop ticks fired")
        self._count_action = reg.counters(
            "actions_total", "controller adjustments applied", "controller")
        self._count_verdict = reg.counters(
            "admission_total", "requests shed or degraded at admission",
            "verdict", "tenant")

    @staticmethod
    def of(control: Optional["ControlLoop"]):
        """``control`` itself, or :data:`NULL_CONTROL` for ``None``."""
        return control if control is not None else NULL_CONTROL

    # -- wiring -------------------------------------------------------------
    def attach(self, system=None, server=None) -> "ControlLoop":
        """Bind the facade and/or server this loop steers (idempotent)."""
        if system is not None:
            self.system = system
        if server is not None:
            self.server = server
        return self

    # -- cadence ------------------------------------------------------------
    def maybe_tick(self, now: float, stats=None, queue_depth: int = 0) -> bool:
        """Fire one tick if the cadence is due; returns whether it fired.

        ``stats`` (the server's ``ServingStats``) and ``queue_depth``
        give the server-side context when a server drives the loop; a
        facade-only deployment passes neither and controllers see an
        empty request window.

        When ``now`` jumped several periods past the next due tick, one
        tick fires (observing the world at ``now``: the past is gone)
        and the cadence realigns past ``now``.  Under the event core
        :func:`~repro.sim.sources.schedule_control_ticks` fires every
        period at its true instant instead.
        """
        if stats is not None:
            self._stats = stats
        if now < self._next_due:
            return False
        snap = self._snapshot(now, queue_depth)
        for controller in self.controllers:
            description = controller.update(snap, self)
            if description:
                self.actions.append(
                    ControlAction(now, controller.name, description))
                self._count_action(controller.name)
        self.ticks += 1
        self._m_ticks.inc()
        while self._next_due <= now:
            self._next_due += self.period_s
        return True

    def server_tick(self, now: float, stats, arrivals: List[float], i: int,
                    busy_until: float) -> bool:
        """:meth:`maybe_tick` as a server drives it before admitting
        request ``i``.  The queue depth — requests from ``i`` on that
        arrive before the pipeline frees at ``busy_until`` — is only
        worked out when a tick is due to read it."""
        depth = 0
        if now >= self._next_due:
            depth = bisect_right(arrivals, busy_until, i) - i
        return self.maybe_tick(now, stats=stats, queue_depth=depth)

    # -- admission ----------------------------------------------------------
    def admit(self, arrival: float, start: float, slo,
              tenant: Optional[str] = None) -> str:
        """Per-request admission verdict: "serve" | "degrade" | "shed".

        Delegates to the stacked admission controller (if any).  Only
        latency SLOs are actionable — predicted queue wait cannot blow
        an accuracy SLO — so anything else is served unconditionally.
        ``tenant`` reaches tenant-aware controllers (per-tenant budget
        accounting) and labels the verdict counters.
        """
        if (self._admission is None or slo is None
                or slo.kind != "latency"):
            return "serve"
        verdict = self._admission.admit(arrival, start, slo.value, self,
                                        tenant=tenant)
        if verdict != "serve":
            self._count_verdict(verdict, tenant)
        return verdict

    # -- observation --------------------------------------------------------
    def _snapshot(self, now: float, queue_depth: int) -> ControlSnapshot:
        from ..runtime.server import ServingStats  # the server imports us
        records = self._stats.records if self._stats is not None else []
        window = ServingStats(records[self._seen_requests:])
        self._seen_requests = len(records)
        system = self.system
        if system is None:
            return ControlSnapshot(
                t=now, window_hits=0, window_misses=0, window=window,
                queue_depth=queue_depth, slo_s=None, condition=None,
                monitor_bw_rel_err=0.0, monitor_delay_rel_err=0.0)
        cache = system.cache
        hits, misses = cache.hits, cache.misses
        window_hits = hits - self._last_hits
        window_misses = misses - self._last_misses
        self._last_hits, self._last_misses = hits, misses
        slo = system.slo
        bw_err, delay_err = system.monitor.recent_rel_error()
        return ControlSnapshot(
            t=now, window_hits=window_hits, window_misses=window_misses,
            window=window, queue_depth=queue_depth,
            slo_s=(slo.value if slo is not None and slo.kind == "latency"
                   else None),
            condition=system.monitor.estimate(),
            monitor_bw_rel_err=bw_err, monitor_delay_rel_err=delay_err)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> str:
        per = {}
        for a in self.actions:
            per[a.controller] = per.get(a.controller, 0) + 1
        detail = " ".join(f"{k}={v}" for k, v in sorted(per.items()))
        return (f"{self.ticks} ticks, {len(self.actions)} actions"
                + (f" ({detail})" if detail else ""))


class NullControl:
    """The control loop of a runtime nobody steers: the facade- and
    server-facing surface of :class:`ControlLoop`, never due, never
    attached, every request served."""

    #: never comes due — ``schedule_control_ticks`` schedules nothing
    period_s = math.inf
    #: never server-attached, so the facade offers it the cadence
    server = None

    def attach(self, system=None, server=None) -> "NullControl":
        return self

    def maybe_tick(self, *args, **kwargs) -> bool:
        return False

    server_tick = maybe_tick

    def admit(self, *args, **kwargs) -> str:
        return "serve"


NULL_CONTROL = NullControl()
