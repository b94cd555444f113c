"""Timed fault schedules: *what* goes wrong in the world, and *when*.

A :class:`FaultSchedule` is a plain, immutable list of timed events —
device crashes, stragglers, link degradation, message loss, network
partitions — each active over a ``[start, end)`` window of simulated
time.  The schedule is pure ground truth: only the data plane (the
transport and the executor, i.e. code that would physically notice a
dead peer) may consult it, through the
:class:`~repro.faults.injector.FaultInjector`.  The decision layer
learns about faults the honest way — timeouts, retries and the
circuit-breaker state they feed.

Schedules are deterministic values: the same events (or the same
generator seed) replay the same world, which is what makes the chaos
benchmarks reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Annotated, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import (Bound, Finite, IntAtLeast, NonNegative, Period, Positive,
                check_fields)
from ..netsim.link import Delay, Edge, canonical_edge
from ..netsim.topology import NetworkCondition

__all__ = ["FaultEvent", "DeviceCrash", "Straggler", "LinkDegradation",
           "MessageLoss", "Partition", "LinkFailure", "LinkFlap",
           "CorrelatedFailure", "FaultSchedule",
           "crash_and_recover_schedule", "chaos_schedule"]


@dataclass(frozen=True)
class FaultEvent:
    """Base: something is wrong during ``[start, end)`` simulated seconds."""

    start: Annotated[float, Finite, NonNegative]
    #: an infinite end never recovers
    end: Annotated[float, Positive]

    kind = "event"

    def __post_init__(self):
        check_fields(self)
        if not self.end > self.start:
            raise ValueError(f"{type(self).__name__} needs start < end, "
                             f"got [{self.start}, {self.end})")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class DeviceCrash(FaultEvent):
    """A remote device is down (process crash, battery death, walk-away).

    The gateway (device 0) is the coordinator holding the input and
    serving the result; it cannot crash — if it did there would be no
    request to fail.
    """

    #: only a remote device can crash
    device: Annotated[int, IntAtLeast(1)] = 1
    kind = "crash"


@dataclass(frozen=True)
class Straggler(FaultEvent):
    """A device computes ``slowdown``x slower (thermal throttling,
    co-tenant contention)."""

    device: Annotated[int, IntAtLeast(0)] = 1
    #: a compute-time multiplier
    slowdown: Annotated[float, Finite, Bound(1.0)] = 2.0
    kind = "straggler"


@dataclass(frozen=True)
class LinkDegradation(FaultEvent):
    """A link collapses: bandwidth scaled by ``bw_factor``,
    ``extra_delay_ms`` added (interference, congestion, rate limiting).

    Star-addressed (the default): ``device=k`` degrades remote ``k``'s
    link to the switch — on a mesh this reads as "device k's radio
    degrades", hitting every edge incident to ``k``.  Mesh-addressed:
    ``link=(a, b)`` pins the event to that one edge; on a star cluster a
    gateway-incident ``link=(0, k)`` degrades remote ``k`` and
    remote-remote links are ignored (the star has no such edge).
    """

    device: Annotated[int, IntAtLeast(0)] = 1
    bw_factor: Annotated[float, Bound(0.0, 1.0, lo_open=True)] = 1.0
    extra_delay_ms: Delay = 0.0
    link: Optional[Edge] = None
    kind = "degradation"

    def __post_init__(self):
        super().__post_init__()
        if self.link is not None:
            a, b = self.link
            if a == b or a < 0 or b < 0:
                raise ValueError("link must join two distinct devices")
            object.__setattr__(self, "link", canonical_edge(int(a), int(b)))
        elif self.device < 1:
            raise ValueError("degradation applies to a remote link (id >= 1)")


@dataclass(frozen=True)
class MessageLoss(FaultEvent):
    """Messages crossing a link are dropped with probability ``prob``.

    ``device=None`` applies to every remote link.
    """

    prob: Annotated[float, Bound(0.0, 1.0, hi_open=True)] = 0.0
    #: a remote device's link
    device: Optional[Annotated[int, IntAtLeast(1)]] = None
    kind = "loss"


@dataclass(frozen=True)
class Partition(FaultEvent):
    """A set of remote devices is cut off from the star's switch.

    Devices inside the partition are unreachable from everything else
    (including each other: remote-remote traffic relays through the
    switch they lost).
    """

    #: remote devices: the gateway cannot be cut off from itself
    devices: Annotated[Tuple[int, ...], IntAtLeast(1)] = ()
    kind = "partition"

    def __post_init__(self):
        super().__post_init__()
        if not self.devices:
            raise ValueError("partition needs at least one device")


@dataclass(frozen=True)
class LinkFailure(FaultEvent):
    """One mesh link is hard-down for the whole window (cable pull,
    radio shadowing, switch-port death).

    Link-addressed, so only meaningful on a mesh cluster; a star
    schedule models the same thing as :class:`DeviceCrash` because the
    star has exactly one path per device.
    """

    a: Annotated[int, IntAtLeast(0)] = 0
    b: Annotated[int, IntAtLeast(0)] = 1
    kind = "link_failure"

    def __post_init__(self):
        super().__post_init__()
        if self.a == self.b:
            raise ValueError("a link joins two distinct devices")

    @property
    def edge(self) -> Edge:
        return canonical_edge(self.a, self.b)


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """A link flaps through correlated up/down bursts (Gilbert–Elliott).

    Inside ``[start, end)`` the link walks a two-state Markov chain
    sampled every ``step_s`` simulated seconds: from UP it fails with
    ``p_fail``, from DOWN it recovers with ``p_recover``.  Small
    ``p_recover`` yields long correlated outage bursts — the signature
    of marginal radio links — rather than i.i.d. loss.

    The chain starts DOWN at ``start`` (the event's onset *is* the
    first outage) and the state sequence is memoized from a seeded
    generator, so the same event replays the same burst pattern no
    matter in which order times are queried.
    """

    a: Annotated[int, IntAtLeast(0)] = 0
    b: Annotated[int, IntAtLeast(0)] = 1
    p_fail: Annotated[float, Bound(0.0, 1.0, lo_open=True)] = 0.3
    p_recover: Annotated[float, Bound(0.0, 1.0, lo_open=True)] = 0.3
    step_s: Annotated[float, Period] = 0.5
    seed: Annotated[int, IntAtLeast(0)] = 0
    kind = "link_flap"

    def __post_init__(self):
        super().__post_init__()
        if self.a == self.b:
            raise ValueError("a link joins two distinct devices")
        # memoized chain state; non-field attrs stay out of eq/hash
        object.__setattr__(self, "_states", [False])  # False = DOWN
        object.__setattr__(self, "_rng",
                           np.random.default_rng(self.seed))

    @property
    def edge(self) -> Edge:
        return canonical_edge(self.a, self.b)

    def down_at(self, now: float) -> bool:
        """Is the link down at ``now``?  (False outside the window.)"""
        if not self.active(now):
            return False
        k = int((now - self.start) / self.step_s)
        states: List[bool] = self._states  # type: ignore[attr-defined]
        while len(states) <= k:  # extend sequentially: order-independent
            up = states[-1]
            p = self._rng.random()  # type: ignore[attr-defined]
            states.append(not (p < self.p_fail) if up
                          else (p < self.p_recover))
        return not states[k]


@dataclass(frozen=True)
class CorrelatedFailure(FaultEvent):
    """A failure *domain*: one shared dependency (rack PDU, switch,
    relay node) dies and takes its devices and links down atomically.

    Unlike independent :class:`DeviceCrash` + :class:`LinkFailure`
    events, everything in the blast radius fails and recovers on the
    same clock edge — the correlation is what defeats redundancy sized
    for independent faults.
    """

    #: remote devices: the gateway is the coordinator
    devices: Annotated[Tuple[int, ...], IntAtLeast(1)] = ()
    links: Tuple[Edge, ...] = ()
    domain: str = "rack"
    kind = "correlated"

    def __post_init__(self):
        super().__post_init__()
        if not self.devices and not self.links:
            raise ValueError("a failure domain must contain at least one "
                             "device or link")
        object.__setattr__(
            self, "devices", tuple(int(d) for d in self.devices))
        norm = []
        for a, b in self.links:
            if a == b or a < 0 or b < 0:
                raise ValueError("a link joins two distinct devices")
            norm.append(canonical_edge(int(a), int(b)))
        object.__setattr__(self, "links", tuple(norm))


class FaultSchedule:
    """An immutable, queryable set of timed fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        for e in events:
            if not isinstance(e, FaultEvent):
                raise TypeError(f"not a FaultEvent: {e!r}")
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.end, e.kind)))
        self._times = self.transition_times()
        # segment index -> its live events, filled as queries reach it
        self._segments: Dict[int, Tuple[FaultEvent, ...]] = {}

    # -- container protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def horizon(self) -> float:
        """Latest finite event end (0.0 for an empty schedule)."""
        ends = [e.end for e in self.events if math.isfinite(e.end)]
        starts = [e.start for e in self.events]
        return max(ends) if ends else (max(starts) if starts else 0.0)

    def transition_times(self) -> Tuple[float, ...]:
        """Sorted, deduplicated onset/recovery instants.

        Every ``start`` and every finite ``end`` — the instants at
        which the schedule's active set (and hence the world overlay)
        can change.  A :class:`LinkFlap`'s internal up/down bursts are
        *not* listed: the flap's memoized burst pattern is a property
        of query time, not a schedulable transition.  The event core
        schedules one world re-application per listed instant.
        """
        times = {float(e.start) for e in self.events}
        times.update(float(e.end) for e in self.events
                     if math.isfinite(e.end))
        return tuple(sorted(times))

    # -- point-in-time queries -------------------------------------------
    def _live(self, now: float) -> Tuple[FaultEvent, ...]:
        """The events that can be active at ``now``, in schedule order:
        those active at the first instant of ``now``'s transition
        segment (activity only changes at a transition).  Queries still
        test ``active(now)``, which a NaN ``now`` fails everywhere."""
        i = bisect_right(self._times, now)
        live = self._segments.get(i)
        if live is None:
            first = self._times[i - 1] if i else -math.inf
            live = self._segments[i] = tuple(
                e for e in self.events if e.active(first))
        return live

    def active(self, now: float) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self._live(now) if e.active(now))

    def down_devices(self, now: float) -> frozenset:
        """Devices that are crashed at ``now`` (individually or as part
        of an active failure domain)."""
        live = self._live(now)
        out = {e.device for e in live
               if isinstance(e, DeviceCrash) and e.active(now)}
        for e in live:
            if isinstance(e, CorrelatedFailure) and e.active(now):
                out.update(e.devices)
        return frozenset(out)

    def unreachable_devices(self, now: float) -> frozenset:
        """Crashed or partitioned-away devices at ``now``."""
        out = set(self.down_devices(now))
        for e in self._live(now):
            if isinstance(e, Partition) and e.active(now):
                out.update(e.devices)
        return frozenset(out)

    # -- mesh (link-level) queries ----------------------------------------
    def down_links(self, now: float,
                   edges: Optional[Sequence[Edge]] = None) -> frozenset:
        """Links that are hard-down at ``now``.

        Collects explicitly failed edges (:class:`LinkFailure`, a
        :class:`LinkFlap` currently in its DOWN state, a
        :class:`CorrelatedFailure`'s links).  When the mesh's ``edges``
        are supplied, every edge incident to an unreachable device is
        down too: a crashed or partitioned relay cannot forward, so a
        link-level partition must sever *all* of a device's edges —
        never silently collapse to the star's "remote k is gone"
        semantics.
        """
        out = set()
        for e in self._live(now):
            if not e.active(now):
                continue
            if isinstance(e, LinkFailure):
                out.add(e.edge)
            elif isinstance(e, LinkFlap) and e.down_at(now):
                out.add(e.edge)
            elif isinstance(e, CorrelatedFailure):
                out.update(e.links)
        if edges is not None:
            iso = self.unreachable_devices(now)
            if iso:
                out.update(canonical_edge(a, b) for a, b in edges
                           if a in iso or b in iso)
        return frozenset(out)

    def link_degradations(self, now: float,
                          edges: Sequence[Edge],
                          ) -> Dict[Edge, Tuple[float, float]]:
        """Active per-edge ``(bw_factor, extra_delay_ms)`` over ``edges``.

        Mesh-addressed events (``link=(a, b)``) hit exactly that edge;
        star-addressed events (``device=k``) hit every edge incident to
        ``k`` — the device's radio degrades, so every path through it
        pays.  Overlapping events compound (factors multiply, delays
        add), matching the star's :meth:`degrade` semantics.
        """
        edge_set = {canonical_edge(a, b) for a, b in edges}
        out: Dict[Edge, Tuple[float, float]] = {}

        def _hit(edge: Edge, e: LinkDegradation) -> None:
            f, x = out.get(edge, (1.0, 0.0))
            out[edge] = (f * e.bw_factor, x + e.extra_delay_ms)

        for e in self._live(now):
            if not (isinstance(e, LinkDegradation) and e.active(now)):
                continue
            if e.link is not None:
                if e.link in edge_set:
                    _hit(e.link, e)
            else:
                for edge in edge_set:
                    if e.device in edge:
                        _hit(edge, e)
        return out

    def reachable(self, src: int, dst: int, now: float) -> bool:
        """Can a message physically travel ``src -> dst`` at ``now``?"""
        if src == dst:
            return True
        iso = self.unreachable_devices(now)
        return src not in iso and dst not in iso

    def compute_scale(self, now: float) -> Dict[int, float]:
        """Per-device compute-time multipliers from active stragglers."""
        out: Dict[int, float] = {}
        for e in self._live(now):
            if isinstance(e, Straggler) and e.active(now):
                out[e.device] = out.get(e.device, 1.0) * e.slowdown
        return out

    def loss_prob(self, src: int, dst: int, now: float) -> float:
        """Combined drop probability for one ``src -> dst`` message.

        Every remote endpoint's link is crossed once (remote-remote
        relays through the switch); independent loss events compound.
        """
        if src == dst:
            return 0.0
        links = {d for d in (src, dst) if d != 0}
        p_keep = 1.0
        for e in self._live(now):
            if not (isinstance(e, MessageLoss) and e.active(now)):
                continue
            hits = len(links) if e.device is None else (e.device in links)
            for _ in range(int(hits)):
                p_keep *= 1.0 - e.prob
        return 1.0 - p_keep

    def degrade(self, condition: NetworkCondition,
                now: float) -> NetworkCondition:
        """Apply active link degradations on top of a base condition."""
        bws = list(condition.bandwidths_mbps)
        delays = list(condition.delays_ms)
        changed = False
        for e in self._live(now):
            if not (isinstance(e, LinkDegradation) and e.active(now)):
                continue
            if e.link is not None:
                # mesh-addressed: a star only has gateway-incident links
                if 0 not in e.link:
                    continue
                i = max(e.link) - 1
            else:
                i = e.device - 1
            if i >= len(bws):
                continue  # schedule written for a larger cluster
            bws[i] *= e.bw_factor
            delays[i] += e.extra_delay_ms
            changed = True
        if not changed:
            return condition
        return NetworkCondition(tuple(bws), tuple(delays))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds: Dict[str, int] = {}
        for e in self.events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        return f"FaultSchedule({len(self.events)} events, {kinds})"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def crash_and_recover_schedule(device: int, crash_at: float,
                               recover_at: float) -> FaultSchedule:
    """The canonical trace: one remote device dies, then comes back."""
    return FaultSchedule([DeviceCrash(crash_at, recover_at, device=device)])


def chaos_schedule(
        num_remote: Annotated[int, IntAtLeast(1)],
        duration_s: Annotated[float, Finite, Positive],
        seed: Annotated[int, IntAtLeast(0)] = 0,
        crash_rate_hz: Annotated[float, Finite, NonNegative] = 0.05,
        mean_outage_s: Annotated[float, Finite, Positive] = 4.0,
        straggler_rate_hz: Annotated[float, Finite, NonNegative] = 0.05,
        max_slowdown: Annotated[float, Finite, Bound(1.0)] = 4.0,
        loss_prob: Annotated[float, Bound(0.0, 1.0, hi_open=True)] = 0.0,
) -> FaultSchedule:
    """A seeded random fault mix over ``[0, duration_s)``.

    Crash and straggler windows arrive per device as Poisson processes;
    an optional all-link :class:`MessageLoss` covers the whole horizon.
    Same seed, same chaos — the benchmarks depend on that.
    """
    check_fields(chaos_schedule, locals())
    rng = np.random.default_rng(seed)
    events: List[FaultEvent] = []
    for dev in range(1, num_remote + 1):
        t = float(rng.exponential(1.0 / crash_rate_hz)) if crash_rate_hz > 0 \
            else duration_s
        while t < duration_s:
            outage = float(rng.exponential(mean_outage_s))
            events.append(DeviceCrash(t, min(t + outage, duration_s + outage),
                                      device=dev))
            t += outage + float(rng.exponential(1.0 / crash_rate_hz))
        t = float(rng.exponential(1.0 / straggler_rate_hz)) \
            if straggler_rate_hz > 0 else duration_s
        while t < duration_s:
            span = float(rng.exponential(mean_outage_s))
            slow = 1.0 + float(rng.uniform(0.5, max_slowdown - 1.0))
            events.append(Straggler(t, t + span, device=dev, slowdown=slow))
            t += span + float(rng.exponential(1.0 / straggler_rate_hz))
    if loss_prob > 0.0:
        events.append(MessageLoss(0.0, duration_s, prob=loss_prob))
    return FaultSchedule(events)
