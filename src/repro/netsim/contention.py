"""Shared-link contention: fair-share bandwidth between in-flight flows.

The base link model prices every transfer as if it had the wire to
itself; on a multi-tenant edge cluster many requests cross the *same*
uplink concurrently and TCP-ish fair sharing splits its bandwidth.  A
:class:`ContentionTracker` keeps a ledger of in-flight flows per link
(star links and mesh *edges* — two routed paths sharing one bottleneck
edge contend there, not just identical endpoint pairs), and clusters
with a tracker attached price a transfer admitted at simulated time
``t`` against the flows already on the wire at ``t``:

    effective_bandwidth(edge, t) = base_bandwidth / (1 + in_flight(edge, t))

Sharing is resolved *at admission* (arrival-order snapshot): the first
of two overlapping transfers keeps the full link, the second sees half.
That under-charges the first and over-charges the second relative to a
fluid-flow solver, but it is deterministic, order-independent within a
simulated instant only up to arrival order (which the serving loop
fixes), and it preserves the two invariants the tests pin:

* a lone flow is priced **bit-identically** to the contention-free
  model (zero-concurrency calls delegate to the existing
  ``transfer_time``: no float even changes representation);
* two simultaneous flows each get at least half the link.

``tracker=None`` (the default everywhere) keeps every serving float
bit-identical to a contention-free build; like ``faults=`` it selects a
different pricing path, so it stays a real ``None`` (DESIGN.md,
"Optional subsystems").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..telemetry import Telemetry
from .link import Link

__all__ = ["Flow", "ContentionTracker", "SharedIngress", "INGRESS_EDGE"]


Edge = Tuple[int, int]

#: sentinel edge for the client-side ingress uplink (requests enter the
#: gateway over it; device ids are never negative, so it cannot collide)
INGRESS_EDGE: Edge = (-1, 0)


def _edge(a: int, b: int) -> Edge:
    """Canonical (sorted) form of an undirected link."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Flow:
    """One in-flight transfer occupying a set of edges."""

    edges: Tuple[Edge, ...]
    start: float
    end: float
    nbytes: float
    tenant: Optional[str] = None


class ContentionTracker:
    """Ledger of in-flight flows per link edge.

    The tracker is *passive*: clusters ask :meth:`share` while pricing
    a transfer and :meth:`register` the resulting flow.  Completed
    flows are pruned lazily on registration, so memory stays bounded
    by the number of genuinely concurrent flows.
    """

    #: passive trackers leave pricing to the cluster's inline snapshot
    #: math; :class:`~repro.netsim.fluid.FluidTracker` flips this and
    #: clusters delegate the whole computation to ``admit_transfer``.
    prices_transfers = False

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
        flows = self._flows.get(_edge(*edge))
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

    # -- mutation ----------------------------------------------------------
    def register(self, edges, start: float, end: float,
                 nbytes: float = 0.0, tenant: Optional[str] = None,
                 share: int = 1) -> Flow:
        """Record one admitted transfer occupying ``edges`` until ``end``.

        ``share`` is the fair-share divisor the transfer was priced at
        (from :meth:`share` at admission); it only feeds accounting.
        """
        flow = Flow(edges=tuple(_edge(*e) for e in edges),
                    start=float(start), end=float(end),
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
    fair-share it through a :class:`ContentionTracker`, which is where
    an asymmetric tenant burst physically slows the other tenants down.

    :meth:`upload_time` prices an upload without committing it (the
    admission controller peeks at it); :meth:`admit` prices *and*
    registers the flow — only admitted requests occupy the wire.
    """

    def __init__(self, link: Link, tracker: Optional[ContentionTracker],
                 payload_bytes: float = 0.0,
                 per_tenant_bytes: Optional[Dict[str, float]] = None):
        self.link = link
        self.tracker = tracker
        self.payload_bytes = float(payload_bytes)
        self.per_tenant_bytes = dict(per_tenant_bytes or {})
        for nbytes in (self.payload_bytes, *self.per_tenant_bytes.values()):
            if not nbytes >= 0:  # NaN fails this too
                raise ValueError(
                    f"payload_bytes must be non-negative, got {nbytes}")

    def _nbytes(self, tenant: Optional[str]) -> float:
        if tenant is not None and tenant in self.per_tenant_bytes:
            return float(self.per_tenant_bytes[tenant])
        return self.payload_bytes

    def _fluid_args(self, tenant: Optional[str]):
        nbytes = self._nbytes(tenant)
        caps = {INGRESS_EDGE: self.link.bandwidth_bps}
        latency_s = (self.link.delay_ms + self.link.rpc_overhead_ms) / 1e3
        return nbytes, caps, latency_s, self.link.transfer_time(nbytes)

    def set_capacity(self, now: float, bandwidth_mbps: float) -> None:
        """Step the uplink's true bandwidth at simulated time ``now``.

        Replaces the link (delay and RPC overhead preserved) so every
        later admission prices against the new capacity; with a fluid
        tracker attached, every *in-flight* upload re-converges at
        ``now`` too (:meth:`FluidTracker.update_caps`) — the mid-flight
        semantics the event core schedules.  A snapshot tracker has no
        re-convergence surface: its in-flight flows keep their admitted
        rates, exactly like the boundary-only model.
        """
        self.link = self.link.with_conditions(bandwidth_mbps=bandwidth_mbps)
        if getattr(self.tracker, "prices_transfers", False):
            self.tracker.update_caps(
                now, {INGRESS_EDGE: self.link.bandwidth_bps})

    def upload_time(self, arrival: float,
                    tenant: Optional[str] = None) -> float:
        """Seconds to upload one request payload arriving at ``arrival``."""
        if getattr(self.tracker, "prices_transfers", False):
            nbytes, caps, latency_s, base_s = self._fluid_args(tenant)
            return self.tracker.peek_transfer(
                (INGRESS_EDGE,), caps, latency_s, nbytes, arrival,
                tenant=tenant, base_s=base_s)
        nbytes = self._nbytes(tenant)
        share = (self.tracker.share(INGRESS_EDGE, arrival)
                 if self.tracker is not None else 1)
        if share == 1:
            # zero-concurrency fast path: bit-identical to the base link
            return self.link.transfer_time(nbytes)
        return ((self.link.delay_ms + self.link.rpc_overhead_ms) / 1e3
                + nbytes * 8.0 / (self.link.bandwidth_bps / share))

    def admit(self, arrival: float, tenant: Optional[str] = None) -> float:
        """Price the upload and put the flow on the wire."""
        if getattr(self.tracker, "prices_transfers", False):
            nbytes, caps, latency_s, base_s = self._fluid_args(tenant)
            return self.tracker.admit_transfer(
                (INGRESS_EDGE,), caps, latency_s, nbytes, arrival,
                tenant=tenant, base_s=base_s)
        upload_s = self.upload_time(arrival, tenant)
        if self.tracker is not None:
            share = self.tracker.share(INGRESS_EDGE, arrival)
            self.tracker.register((INGRESS_EDGE,), arrival,
                                  arrival + upload_s,
                                  nbytes=self._nbytes(tenant),
                                  tenant=tenant, share=share)
        return upload_s
