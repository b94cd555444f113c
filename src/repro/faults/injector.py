"""The fault injector: applies a schedule to the simulated world.

One :class:`FaultInjector` owns the ground-truth fault state derived
from its :class:`~repro.faults.schedule.FaultSchedule` at the current
simulated time.  It perturbs the *true* world — the cluster's link
conditions and per-device compute scale — and answers the data plane's
physical questions (is this peer reachable? did this message survive?).

The decision layer never calls these queries.  It sees faults only
through their observable consequences: degraded links show up in the
network monitor's (noisy) probes, crashes show up as transport timeouts
feeding the :class:`~repro.faults.health.DeviceHealth` breaker.

Message-loss draws come from the injector's own seeded RNG, so a fixed
``(schedule, seed)`` pair replays the identical fault trace.

A run given no injector holds :data:`NULL_FAULTS` (:meth:`FaultInjector.of`),
a healthy world with the same surface: every peer reachable, no message
lost, nothing scheduled (DESIGN.md, "Optional subsystems").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netsim.topology import Cluster, NetworkCondition
from ..telemetry import Telemetry
from .schedule import (CorrelatedFailure, DeviceCrash, FaultEvent,
                       FaultSchedule, Partition)

__all__ = ["FaultInjector", "NULL_FAULTS"]


class FaultInjector:
    """Deterministic fault application + ground-truth queries."""

    def __init__(self, schedule: FaultSchedule, seed: int = 0,
                 telemetry: Optional[Telemetry] = None):
        if not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(schedule)
        self.schedule = schedule
        self._rng = np.random.default_rng(seed)
        self.now = 0.0
        self._active: frozenset = frozenset()
        self._applied_key: Optional[tuple] = None
        # bound by apply_to() when the cluster has a link surface; lets
        # reachable() answer path-level questions and advance() meter
        # per-link downtime
        self._mesh = None
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("faults")
        self._count_link_down = reg.counters(
            "link_down_seconds", "simulated seconds each link spent down",
            "link")
        self._count_fault_event = reg.counters(
            "events_total", "fault onsets by kind", "kind")
        self._m_device_up: Dict[int, object] = {}
        for dev in sorted(self._fault_devices()):
            self._m_device_up[dev] = reg.gauge(
                "device_up", help="1 while the device is reachable",
                device=str(dev))
            self._m_device_up[dev].set(1.0)

    @staticmethod
    def of(faults: Optional["FaultInjector"]):
        """``faults`` itself, or :data:`NULL_FAULTS` for ``None``."""
        return faults if faults is not None else NULL_FAULTS

    @property
    def can_fail(self) -> bool:
        """Can a delivery fail at all?  Only if the schedule holds an
        event; with none, the world is the null injector's."""
        return bool(self.schedule)

    def _fault_devices(self) -> set:
        out = set()
        for e in self.schedule:
            if isinstance(e, DeviceCrash):
                out.add(e.device)
            elif isinstance(e, (Partition, CorrelatedFailure)):
                out.update(e.devices)
        return out

    # -- time -------------------------------------------------------------
    def transition_times(self) -> Tuple[float, ...]:
        """The schedule's onset/recovery instants (for the event core:
        one scheduled world re-application per instant)."""
        return self.schedule.transition_times()

    def advance(self, now: float) -> List[FaultEvent]:
        """Move the injector's clock; returns events that just became
        active (fault onsets) for logging/telemetry."""
        if self._mesh is not None and now > self.now:
            self._meter_link_downtime(float(now) - self.now)
        self.now = float(now)
        active = frozenset(self.schedule.active(self.now))
        started = active - self._active
        ended = self._active - active
        self._active = active
        if started or ended:
            for e in started:
                self._count_fault_event(e.kind)
            iso = self.schedule.unreachable_devices(self.now)
            for dev, gauge in self._m_device_up.items():
                gauge.set(0.0 if dev in iso else 1.0)
        return sorted(started, key=lambda e: (e.start, e.kind))

    def _meter_link_downtime(self, dt_s: float) -> None:
        """Credit ``dt_s`` of downtime to every link down at the current
        clock (piecewise-constant sampling between ``advance`` calls —
        a flap shorter than one serving step can be under-counted, which
        is the same resolution the serving loop itself experiences)."""
        for edge in self.schedule.down_links(self.now,
                                             self._mesh.base_edges):
            self._count_link_down(f"{edge[0]}-{edge[1]}", amount=dt_s)

    # -- world application ------------------------------------------------
    def apply_to(self, cluster: Cluster,
                 base_condition: Optional[NetworkCondition] = None) -> None:
        """Overwrite the cluster's true state with the faulted view.

        A star :class:`Cluster` gets the degraded condition vector; a
        :class:`~repro.netsim.mesh.MeshCluster` (anything exposing
        ``apply_link_faults``) gets the link-level overlay — down edges
        leave its routing graph, degraded edges are repriced — and the
        mesh invalidates its own route cache when the overlay changes.

        Idempotent per (active events, base condition): repeated calls
        between transitions skip the rebuild.
        """
        if hasattr(cluster, "apply_link_faults"):
            self._mesh = cluster
            edges = cluster.base_edges
            down = self.schedule.down_links(self.now, edges)
            degraded = self.schedule.link_degradations(self.now, edges)
            # key on the computed overlay, not the active event set: a
            # LinkFlap transitions up/down *within* one active window
            key = (down, tuple(sorted(degraded.items())))
            if key == self._applied_key:
                return
            cluster.apply_link_faults(down=down, degraded=degraded)
            cluster.compute_scale = self.schedule.compute_scale(self.now)
            self._applied_key = key
            return
        if base_condition is None:
            raise TypeError("a star cluster needs its base condition")
        key = (self._active, base_condition)
        if key == self._applied_key:
            return
        cluster.set_condition(self.schedule.degrade(base_condition, self.now))
        cluster.compute_scale = self.schedule.compute_scale(self.now)
        self._applied_key = key

    # -- ground-truth queries (data plane only) ---------------------------
    def is_down(self, device: int) -> bool:
        return device in self.schedule.unreachable_devices(self.now)

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message physically travel ``src -> dst`` right now?

        Device-level first (crashed/partitioned endpoints); on a mesh,
        additionally requires a surviving path under the current fault
        overlay — no route means no delivery even with both endpoints
        alive.
        """
        if not self.schedule.reachable(src, dst, self.now):
            return False
        if self._mesh is not None and src != dst:
            return self._mesh.has_route(src, dst)
        return True

    def loss_prob(self, src: int, dst: int) -> float:
        return self.schedule.loss_prob(src, dst, self.now)

    def message_lost(self, src: int, dst: int) -> bool:
        """Draw one message's fate on the current link conditions."""
        p = self.schedule.loss_prob(src, dst, self.now)
        if p <= 0.0:
            return False
        return bool(self._rng.random() < p)

    def compute_scale(self) -> Dict[int, float]:
        return self.schedule.compute_scale(self.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FaultInjector(now={self.now:.3f}, "
                f"active={len(self._active)}/{len(self.schedule)})")


class NullFaults:
    """The injector of a run without one: nothing fails, ever.

    A class of its own, not a :class:`FaultInjector` (the perf harness
    wraps the real methods by identity).  ``is_down`` and
    ``compute_scale`` are read only from a real injector (tests).
    """

    schedule = FaultSchedule()
    can_fail = False

    def transition_times(self) -> Tuple[float, ...]:
        return ()

    def advance(self, now) -> tuple:
        return ()

    def apply_to(self, cluster, base_condition=None) -> None:
        """Hand a star its base condition, unless it already holds it
        (its memoised prices stay); a mesh has no condition to set."""
        if (base_condition is not cluster.condition
                and not hasattr(cluster, "apply_link_faults")):
            cluster.set_condition(base_condition)

    def reachable(self, src, dst) -> bool:
        return True

    def loss_prob(self, src, dst) -> float:
        return 0.0

    def message_lost(self, src, dst) -> bool:
        return False


#: what a component given no ``faults`` holds
NULL_FAULTS = NullFaults()
