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
  monitor's *smoothed estimate* (never the injected ground truth), the
  cache's own counters, and the server's finished-request window.  The
  monitor's relative-error signal comes from the telemetry histograms
  when a hub is attached, else from the scatter of recent measurements
  around the smoothed estimate — both are measurement-side quantities;
* ticks fire between requests on the simulated clock (``maybe_tick`` is
  idempotent for a given time: the facade and the server may both call
  it), so controller work never lands on a request's critical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netsim.topology import NetworkCondition
from ..netsim.traces import check_period
from ..telemetry import Telemetry

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

    Window quantities cover the interval since the previous tick; the
    cumulative cache counters ride along so controllers can also form
    their own longer horizons.
    """

    t: float
    #: cumulative ``StrategyCache.stats()`` at snapshot time
    cache: Dict[str, float]
    #: cache hits/misses since the previous tick (serving lookups only)
    window_hits: int
    window_misses: int
    #: requests finished since the previous tick and how many met the SLO
    window_requests: int
    window_satisfied: int
    #: mean decision+switch+inference seconds over the window's
    #: completed requests (0.0 when the window is empty)
    window_mean_service_s: float
    #: p95 end-to-end seconds over the window (0.0 when empty)
    window_p95_e2e_s: float
    #: requests queued (arrived, not yet dispatched) at snapshot time
    queue_depth: int
    #: the latency SLO in seconds, or None (accuracy SLO / no SLO)
    slo_s: Optional[float]
    #: the monitor's current smoothed estimate — the observed world
    condition: Optional[NetworkCondition]
    #: measurement-side relative error of the bandwidth/delay estimates
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
    period_s : tick cadence in simulated seconds (must be positive).
    telemetry : optional hub; the loop scopes itself under ``control_*``
        and counts ticks, per-controller actions, and admission verdicts.
    max_catchup : ticks one ``maybe_tick`` call may fire when the clock
        jumped several periods past the next due tick (an idle gap, a
        long batch).  The default 1 pins the historical single-fire
        semantics — missed periods are *skipped*, not replayed — which
        recorded runs depend on; raise it to catch up (one tick per
        elapsed period, capped here so a pathological gap cannot stall
        serving in a tick storm).  Under the event core this knob is
        moot: :func:`~repro.sim.sources.schedule_control_ticks` fires
        every period at its true instant.
    """

    def __init__(self, controllers: Optional[Sequence] = None,
                 period_s: float = 0.5,
                 telemetry: Optional[Telemetry] = None,
                 max_catchup: int = 1):
        check_period(period_s)
        if max_catchup < 1:
            raise ValueError(
                f"max_catchup must be at least 1, got {max_catchup}")
        self.controllers = list(controllers) if controllers is not None else []
        self.period_s = period_s
        self.max_catchup = int(max_catchup)
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

        ``stats`` (a ``ServingStats``-shaped object) and ``queue_depth``
        give the server-side context when a server drives the loop; a
        facade-only deployment passes neither and controllers see an
        empty request window.

        When ``now`` jumped several periods past the next due tick, up
        to :attr:`max_catchup` ticks fire back to back (each observing
        the world at ``now`` — the past is gone, only the cadence is
        honoured); any periods beyond the cap are skipped and the
        cadence realigns.  The default cap of 1 is exactly the
        historical single-fire-per-call behaviour.
        """
        if stats is not None:
            self._stats = stats
        if now < self._next_due:
            return False
        fired = 0
        while now >= self._next_due and fired < self.max_catchup:
            snap = self._snapshot(now, queue_depth)
            for controller in self.controllers:
                description = controller.update(snap, self)
                if description:
                    self.actions.append(
                        ControlAction(now, controller.name, description))
                    self._count_action(controller.name)
            self.ticks += 1
            fired += 1
            self._m_ticks.inc()
            self._next_due += self.period_s
        while self._next_due <= now:
            self._next_due += self.period_s
        return True

    def server_tick(self, now: float, stats, arrivals: np.ndarray, i: int,
                    busy_until: float) -> bool:
        """:meth:`maybe_tick` as a server drives it before admitting
        request ``i``.  The queue depth — requests from ``i`` on that
        arrive before the pipeline frees at ``busy_until`` — is only
        worked out when a tick is due to read it."""
        depth = 0
        if now >= self._next_due:
            depth = max(int(np.searchsorted(arrivals, busy_until,
                                            side="right")) - i, 0)
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
        if tenant is None:
            # untagged serving keeps the original duck-typed hook
            # signature: admit(arrival, start, slo_s, loop)
            verdict = self._admission.admit(arrival, start, slo.value, self)
        else:
            verdict = self._admission.admit(arrival, start, slo.value, self,
                                            tenant=tenant)
        if verdict != "serve":
            self._count_verdict(verdict, tenant)
        return verdict

    # -- observation --------------------------------------------------------
    def _snapshot(self, now: float, queue_depth: int) -> ControlSnapshot:
        system = self.system
        cache_stats: Dict[str, float] = (
            system.cache.stats() if system is not None else {})
        hits = int(cache_stats.get("hits", 0))
        misses = int(cache_stats.get("misses", 0))
        window_hits = hits - self._last_hits
        window_misses = misses - self._last_misses
        self._last_hits, self._last_misses = hits, misses

        window = []
        if self._stats is not None:
            records = self._stats.records
            window = records[self._seen_requests:]
            self._seen_requests = len(records)
        completed = [r for r in window
                     if r.outcome not in ("failed", "shed")]
        mean_service = (float(np.mean(
            [r.decision_s + r.switch_s + r.inference_s for r in completed]))
            if completed else 0.0)
        p95 = (float(np.percentile([r.end_to_end_s for r in window], 95))
               if window else 0.0)

        slo = system.slo if system is not None else None
        slo_s = slo.value if slo is not None and slo.kind == "latency" else None
        condition = (system.monitor.estimate()
                     if system is not None else None)
        bw_err, delay_err = self._monitor_rel_err()
        return ControlSnapshot(
            t=now, cache=cache_stats,
            window_hits=window_hits, window_misses=window_misses,
            window_requests=len(window),
            window_satisfied=sum(r.satisfied for r in window),
            window_mean_service_s=mean_service,
            window_p95_e2e_s=p95,
            queue_depth=queue_depth, slo_s=slo_s, condition=condition,
            monitor_bw_rel_err=bw_err, monitor_delay_rel_err=delay_err)

    def _monitor_rel_err(self) -> Tuple[float, float]:
        """Measurement-side estimate-error signal, best source first.

        With a telemetry hub the monitor's own
        ``monitor_*_estimate_rel_error`` histograms are authoritative;
        without one, fall back to the scatter of recent raw measurements
        around the smoothed estimate — noisier, but observable without
        any instrumentation.
        """
        registry = self.telemetry.registry
        bw_h = registry.get("monitor_bw_estimate_rel_error")
        d_h = registry.get("monitor_delay_estimate_rel_error")
        if bw_h is not None and getattr(bw_h, "count", 0):
            return (bw_h.mean,
                    d_h.mean if d_h is not None and d_h.count else 0.0)
        system = self.system
        if system is None:
            return 0.0, 0.0
        monitor = system.monitor
        recent = monitor.history[-16:]
        bw_errs: List[float] = []
        delay_errs: List[float] = []
        for m in recent:
            sm_bw = monitor._smoothed_bw.get(m.device)
            sm_delay = monitor._smoothed_delay.get(m.device)
            if sm_bw:
                bw_errs.append(abs(m.bandwidth_mbps - sm_bw) / sm_bw)
            if sm_delay:
                delay_errs.append(abs(m.delay_ms - sm_delay) / sm_delay)
        return (float(np.mean(bw_errs)) if bw_errs else 0.0,
                float(np.mean(delay_errs)) if delay_errs else 0.0)

    # -- reporting ----------------------------------------------------------
    def action_log(self) -> List[ControlAction]:
        return list(self.actions)

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
