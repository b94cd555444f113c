"""Shared-link contention: fair-share bandwidth between in-flight flows.

The base link model prices every transfer as if it had the wire to
itself; on a multi-tenant edge cluster many requests cross the *same*
uplink concurrently and TCP-ish fair sharing splits its bandwidth.

The tracker protocol
--------------------
Whoever owns a wire — a star or mesh cluster, the :class:`SharedIngress`
— only *describes* the wire a transfer occupies (its edges, their
capacities in bit/s, the fixed latency) and hands it to a tracker:

* ``admit_transfer(edges, caps, latency_s, nbytes, now, tenant=,
  base_s=)`` prices the transfer and puts its flow on the wire;
* ``peek_transfer(...)`` prices it without committing;
* ``update_caps(now, caps)`` tells the tracker the capacities moved.

``base_s`` is the caller's contention-free float; every implementation
returns it verbatim for a flow that shares no edge, so a lone flow is
priced **bit-identically** to the base link model.  Three
implementations: :class:`LoneWire` (nobody ever shares; what a
``tracker=None`` ingress holds), :class:`ContentionTracker` (below) and
:class:`~repro.netsim.fluid.FluidTracker` (event-driven max-min).

The snapshot model
------------------
A :class:`ContentionTracker` keeps a ledger of in-flight flows per link
(star links and mesh *edges* — two routed paths sharing one bottleneck
edge contend there, not just identical endpoint pairs) and prices a
transfer admitted at simulated time ``t`` against the flows already on
the wire at ``t``:

    effective_bandwidth(edge, t) = base_bandwidth / (1 + in_flight(edge, t))

Sharing is resolved *at admission* (arrival-order snapshot): the first
of two overlapping transfers keeps the full link, the second sees half.
That under-charges the first and over-charges the second relative to a
fluid-flow solver, but it is deterministic, order-independent within a
simulated instant only up to arrival order (which the serving loop
fixes), and two simultaneous flows each get at least half the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..telemetry import Telemetry
from .link import Edge, Link, canonical_edge
from .traces import check_time

__all__ = ["Flow", "ContentionTracker", "LoneWire", "SharedIngress",
           "INGRESS_EDGE", "NULL_INGRESS"]

#: sentinel edge for the client-side ingress uplink (requests enter the
#: gateway over it; device ids are never negative, so it cannot collide)
INGRESS_EDGE: Edge = (-1, 0)


@dataclass(frozen=True)
class Flow:
    """One in-flight transfer occupying a set of edges."""

    edges: Tuple[Edge, ...]
    start: float
    end: float
    nbytes: float
    tenant: Optional[str] = None


class LoneWire:
    """The tracker of a wire nobody shares: every transfer costs the
    contention-free ``base_s`` (priced here only when the caller left
    it out) and nothing is remembered."""

    def admit_transfer(self, edges, caps, latency_s, nbytes, now,
                       tenant=None, base_s=None) -> float:
        check_time(now)
        if base_s is None:
            base_s = latency_s + nbytes * 8.0 / min(caps[e] for e in edges)
        return base_s

    peek_transfer = admit_transfer

    def update_caps(self, now, caps) -> None:
        check_time(now)


class ContentionTracker:
    """Ledger of in-flight flows per link edge, priced at admission.

    Completed flows are pruned lazily on registration, so memory stays
    bounded by the number of genuinely concurrent flows.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None):
        self._flows: Dict[Edge, List[Flow]] = {}
        #: flows ever registered
        self.flows_total = 0
        #: flows that shared at least one edge when priced
        self.contended_total = 0
        #: widest sharing ever seen per edge (1 = never contended)
        self.peak_share: Dict[Edge, int] = {}
        self._tenant_bytes: Dict[str, float] = {}
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("contention")
        self._m_flows = reg.counter(
            "flows_total", help="transfers priced through the tracker")
        self._m_contended = reg.counter(
            "contended_flows_total",
            help="transfers that shared at least one link")
        self._m_share = reg.histogram(
            "flow_share", help="per-flow fair-share divisor at pricing",
            lo=1.0, hi=256.0)
        self._count_link_contended = reg.counters(
            "link_contended_total", "contended transfers per link", "link")
        self._count_tenant_bytes = reg.counters(
            "tenant_bytes_total", "payload bytes on the wire per tenant",
            "tenant")

    # -- queries -----------------------------------------------------------
    def concurrency(self, edge: Edge, now: float) -> int:
        """Flows in flight on ``edge`` at simulated time ``now``."""
        check_time(now)
        flows = self._flows.get(canonical_edge(*edge))
        if not flows:
            return 0
        return sum(1 for f in flows if f.start <= now < f.end)

    def share(self, edge: Edge, now: float) -> int:
        """Fair-share divisor a new flow admitted at ``now`` sees."""
        return 1 + self.concurrency(edge, now)

    def tenant_bytes(self) -> Dict[str, float]:
        """Cumulative bytes registered per tenant (tagged flows only)."""
        return dict(self._tenant_bytes)

    def stats(self) -> Dict[str, float]:
        return {
            "flows": self.flows_total,
            "contended": self.contended_total,
            "peak_share": max(self.peak_share.values(), default=1),
        }

    # -- the tracker protocol ----------------------------------------------
    def _snapshot(self, edges, caps, latency_s, nbytes, now,
                  base_s) -> Tuple[float, int]:
        """The snapshot rule, written once: ``(seconds, worst share)``.

        Each edge's capacity is divided by its share at ``now`` and the
        transfer runs at the slowest effective edge — an edge carrying
        more flows may beat the raw bottleneck to it.  A flow sharing
        nothing returns ``base_s`` itself, not an equal-valued float.
        """
        check_time(now)
        shares = [self.share(e, now) for e in edges]
        worst = max(shares)
        if worst == 1 and base_s is not None:
            return base_s, worst
        rate = min(caps[e] / share for e, share in zip(edges, shares))
        return latency_s + nbytes * 8.0 / rate, worst

    def peek_transfer(self, edges: Sequence[Edge],
                      caps: Mapping[Edge, float], latency_s: float,
                      nbytes: float, now: float,
                      tenant: Optional[str] = None,
                      base_s: Optional[float] = None) -> float:
        """Price a transfer at ``now`` without putting it on the wire.

        ``caps`` maps each of ``edges``, as spelled there, to bit/s.
        A ``now`` that is not finite raises ``ValueError``, here and in
        every other entry point, before anything is pruned or priced.
        """
        return self._snapshot(edges, caps, latency_s, nbytes, now,
                              base_s)[0]

    def admit_transfer(self, edges: Sequence[Edge],
                       caps: Mapping[Edge, float], latency_s: float,
                       nbytes: float, now: float,
                       tenant: Optional[str] = None,
                       base_s: Optional[float] = None) -> float:
        """Price a transfer at ``now`` and :meth:`register` its flow."""
        seconds, worst = self._snapshot(edges, caps, latency_s, nbytes,
                                        now, base_s)
        self.register(edges, now, now + seconds, nbytes=nbytes,
                      tenant=tenant, share=worst)
        return seconds

    def update_caps(self, now: float, caps: Mapping[Edge, float]) -> None:
        """A no-op: a snapshot flow in flight keeps its admitted rate
        (the boundary-only model); later admissions carry their own
        capacities."""
        check_time(now)

    # -- mutation ----------------------------------------------------------
    def register(self, edges, start: float, end: float,
                 nbytes: float = 0.0, tenant: Optional[str] = None,
                 share: int = 1) -> Flow:
        """Record one admitted transfer occupying ``edges`` until ``end``.

        ``share`` is the fair-share divisor the transfer was priced at
        (from :meth:`share` at admission); it only feeds accounting.
        A flow that does not run from a finite ``start`` to a finite
        ``end`` at or after it raises ``ValueError``: a NaN start is
        never counted in flight and an endless flow is never pruned.
        """
        start = check_time(start)
        if not start <= end < math.inf:
            raise ValueError(
                f"a flow must end at a finite time at or after its start "
                f"({start}), got {end}")
        flow = Flow(edges=tuple(canonical_edge(*e) for e in edges),
                    start=start, end=float(end),
                    nbytes=float(nbytes), tenant=tenant)
        for edge in flow.edges:
            bucket = self._flows.setdefault(edge, [])
            # lazy prune: drop flows that ended before this one starts
            if bucket:
                bucket[:] = [f for f in bucket if f.end > flow.start]
            bucket.append(flow)
            peak = self.peak_share.get(edge, 1)
            if share > peak:
                self.peak_share[edge] = share
        self.flows_total += 1
        contended = share > 1
        if contended:
            self.contended_total += 1
        if tenant is not None and nbytes:
            self._tenant_bytes[tenant] = (
                self._tenant_bytes.get(tenant, 0.0) + flow.nbytes)
        self._m_flows.inc()
        self._m_share.observe(float(share))
        if contended:
            self._m_contended.inc()
            for edge in flow.edges:
                self._count_link_contended(f"{edge[0]}-{edge[1]}")
        if tenant is not None and nbytes:
            self._count_tenant_bytes(tenant, amount=flow.nbytes)
        return flow


class SharedIngress:
    """A shared last-mile uplink every tenant's request payload crosses.

    Models the one wire the paper's star abstracts away: requests from
    *all* tenants upload their input over the same client-side link
    before the gateway can start serving them.  Concurrent uploads
    fair-share it through ``tracker`` (any implementation of the
    tracker protocol; None = :class:`LoneWire`), which is where an
    asymmetric tenant burst physically slows the other tenants down.

    :meth:`upload_time` prices an upload without committing it (the
    admission controller peeks at it); :meth:`admit` prices *and*
    registers the flow — only admitted requests occupy the wire.
    """

    def __init__(self, link: Link, tracker, payload_bytes: float = 0.0,
                 per_tenant_bytes: Optional[Dict[str, float]] = None):
        self.link = link
        self.tracker = tracker if tracker is not None else LoneWire()
        self.payload_bytes = float(payload_bytes)
        self.per_tenant_bytes = {tenant: float(nbytes) for tenant, nbytes
                                 in (per_tenant_bytes or {}).items()}
        for nbytes in (self.payload_bytes, *self.per_tenant_bytes.values()):
            if not nbytes >= 0:  # NaN fails this too
                raise ValueError(
                    f"payload_bytes must be non-negative, got {nbytes}")

    def _price(self, transfer, arrival: float,
               tenant: Optional[str]) -> float:
        """Describe one tenant's upload to the tracker's ``transfer``
        (its peek or its admit)."""
        link = self.link
        nbytes = self.per_tenant_bytes.get(tenant, self.payload_bytes)
        return transfer(
            (INGRESS_EDGE,), {INGRESS_EDGE: link.bandwidth_bps},
            (link.delay_ms + link.rpc_overhead_ms) / 1e3, nbytes, arrival,
            tenant=tenant, base_s=link.transfer_time(nbytes))

    def set_capacity(self, now: float, bandwidth_mbps: float) -> None:
        """Step the uplink's true bandwidth at simulated time ``now``.

        Replaces the link (delay and RPC overhead preserved) so every
        later admission prices against the new capacity, and tells the
        tracker: a fluid ledger re-converges every *in-flight* upload
        at ``now`` (:meth:`FluidTracker.update_caps`) — the mid-flight
        semantics the event core schedules — while a snapshot tracker's
        in-flight flows keep their admitted rates.
        """
        link = self.link.with_conditions(bandwidth_mbps=bandwidth_mbps)
        self.tracker.update_caps(now, {INGRESS_EDGE: link.bandwidth_bps})
        self.link = link

    def upload_time(self, arrival: float,
                    tenant: Optional[str] = None) -> float:
        """Seconds to upload one request payload arriving at ``arrival``."""
        return self._price(self.tracker.peek_transfer, arrival, tenant)

    def admit(self, arrival: float, tenant: Optional[str] = None) -> float:
        """Price the upload and put the flow on the wire."""
        return self._price(self.tracker.admit_transfer, arrival, tenant)


class NullIngress:
    """The ingress of a server with no uplink model: requests are at
    the gateway the instant they arrive."""

    def upload_time(self, arrival, tenant=None) -> float:
        return 0.0

    admit = upload_time


NULL_INGRESS = NullIngress()
