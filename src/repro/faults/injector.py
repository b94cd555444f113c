"""The fault injector: applies a schedule to the simulated world.

One :class:`FaultInjector` owns the ground-truth fault state derived
from its :class:`~repro.faults.schedule.FaultSchedule` at the current
simulated time.  It perturbs the *true* world — the cluster's link
conditions — and answers the data plane's one physical question: is
this peer reachable?

The decision layer never calls these queries.  It sees faults only
through their observable consequences: degraded links show up in the
network monitor's (noisy) probes, crashes show up as transport timeouts
feeding the :class:`~repro.faults.health.DeviceHealth` breaker.

The fault state moves only when :meth:`FaultInjector.advance` is called,
at a dispatch boundary, so every send of one attempt sees the same
answer, and a fixed schedule replays the identical fault trace.

A run given no injector holds :data:`NULL_FAULTS` (:meth:`FaultInjector.of`),
a healthy world with the same surface: every peer reachable, nothing
scheduled (DESIGN.md, "Optional subsystems").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..telemetry import Telemetry
from .schedule import (CorrelatedFailure, DeviceCrash, FaultEvent,
                       FaultSchedule)

if TYPE_CHECKING:
    from ..netsim.mesh import MeshCluster

__all__ = ["FaultInjector", "NULL_FAULTS"]


class FaultInjector:
    """Deterministic fault application + ground-truth queries.

    ``seed`` is accepted and unread: nothing the injector answers is
    drawn at random (a :class:`~repro.faults.schedule.LinkFlap` carries
    its own seed).
    """

    def __init__(self, schedule: FaultSchedule, seed: int = 0,
                 telemetry: Optional[Telemetry] = None):
        if not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(schedule)
        self.schedule = schedule
        self.now = 0.0
        self._active: frozenset = frozenset()
        self._applied_key: Optional[tuple] = None
        # bound by apply_to(); lets reachable() answer path-level
        # questions and advance() meter per-link downtime
        self._cluster = None
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
            elif isinstance(e, CorrelatedFailure):
                out.update(e.devices)
        return out

    # -- time -------------------------------------------------------------
    def advance(self, now: float) -> List[FaultEvent]:
        """Move the injector's clock; returns events that just became
        active (fault onsets) for logging/telemetry."""
        if self._cluster is not None and now > self.now:
            self._meter_link_downtime(float(now) - self.now)
        self.now = float(now)
        active = frozenset(self.schedule.active(self.now))
        started = active - self._active
        ended = self._active - active
        self._active = active
        if started or ended:
            for e in started:
                self._count_fault_event(e.kind)
            iso = self.schedule.down_devices(self.now)
            for dev, gauge in self._m_device_up.items():
                gauge.set(0.0 if dev in iso else 1.0)
        return sorted(started, key=lambda e: (e.start, e.kind))

    def _meter_link_downtime(self, dt_s: float) -> None:
        """Credit ``dt_s`` of downtime to every link down at the current
        clock (piecewise-constant sampling between ``advance`` calls —
        a flap shorter than one serving step can be under-counted, which
        is the same resolution the serving loop itself experiences)."""
        for edge in self.schedule.down_links(self.now,
                                             self._cluster.base_edges):
            self._count_link_down(f"{edge[0]}-{edge[1]}", amount=dt_s)

    # -- world application ------------------------------------------------
    def apply_to(self, cluster: "MeshCluster") -> None:
        """Overwrite the cluster's true state with the faulted view: the
        link-level overlay — down edges leave its routing graph (a
        crashed device takes all of its edges with it), degraded edges
        are repriced — over whatever base links the cluster holds; the
        cluster invalidates its own route cache when the overlay
        changes.

        Idempotent per overlay: repeated calls between transitions skip
        the rebuild.
        """
        self._cluster = cluster
        edges = cluster.base_edges
        down = self.schedule.down_links(self.now, edges)
        degraded = self.schedule.link_degradations(self.now, edges)
        # key on the computed overlay, not the active event set: a
        # LinkFlap transitions up/down *within* one active window
        key = (down, tuple(sorted(degraded.items())))
        if key == self._applied_key:
            return
        cluster.apply_link_faults(down=down, degraded=degraded)
        self._applied_key = key

    # -- ground-truth queries (data plane only) ---------------------------
    def is_down(self, device: int) -> bool:
        return device in self.schedule.down_devices(self.now)

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message physically travel ``src -> dst`` right now?

        Device-level first (crashed endpoints); then, on the cluster
        :meth:`apply_to` overlaid, a surviving path — no route means no
        delivery even with both endpoints alive.
        """
        if not self.schedule.reachable(src, dst, self.now):
            return False
        if self._cluster is not None and src != dst:
            return self._cluster.has_route(src, dst)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FaultInjector(now={self.now:.3f}, "
                f"active={len(self._active)}/{len(self.schedule)})")


class NullFaults:
    """The injector of a run without one: nothing fails, ever.

    A class of its own, not a :class:`FaultInjector` (the perf harness
    wraps the real methods by identity).  ``is_down`` is read only from
    a real injector (tests).
    """

    schedule = FaultSchedule()
    can_fail = False

    def advance(self, now) -> tuple:
        return ()

    def apply_to(self, cluster) -> None:
        """A healthy world overlays nothing."""

    def reachable(self, src, dst) -> bool:
        return True


#: what a component given no ``faults`` holds
NULL_FAULTS = NullFaults()
