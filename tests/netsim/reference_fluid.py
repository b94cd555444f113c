"""The clone-and-drain fluid ledger, kept verbatim as the test oracle.

This is ``src/repro/netsim/fluid.py`` as it stood before pricing stopped
copying the ledger (PR 18): ``finish_time`` deep-clones the tracker —
``_finish`` / ``_spec`` history included — and drains the whole clone,
``peek_transfer`` does that on a clone of a clone, and ``_reconverge``
re-tests every flow against the bottleneck set every round.  Slow, and
obviously the model: ``tests/netsim/test_fluid_kernel.py`` drives it and
the live :class:`repro.netsim.fluid.FluidTracker` with the same scripts
and requires ``==`` on every float.  Only the import of ``Telemetry``
was made absolute; do not optimise or tidy this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry import Telemetry

__all__ = ["FlowSpec", "FluidSegment", "FluidTracker", "solve_fluid"]


Edge = Tuple[int, int]


def _edge(a: int, b: int) -> Edge:
    """Canonical (sorted) form of an undirected link."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FlowSpec:
    """One transfer for the offline solver: a payload crossing edges."""

    edges: Tuple[Edge, ...]
    start: float
    nbytes: float
    tenant: Optional[str] = None


@dataclass(frozen=True)
class FluidSegment:
    """One piecewise-constant rate segment ``[t0, t1)``.

    ``rates`` maps flow id -> allocated rate (bits/s) during the
    segment.  Recorded only when the tracker was built with
    ``record_segments=True`` (the property suite's audit trail).
    """

    t0: float
    t1: float
    rates: Dict[int, float]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class _Flow:
    """Mutable per-flow solver state."""

    __slots__ = ("fid", "edges", "start", "nbytes", "remaining_bits",
                 "rate", "reconvergences", "tenant")

    def __init__(self, fid: int, edges: Tuple[Edge, ...], start: float,
                 nbytes: float, tenant: Optional[str]):
        self.fid = fid
        self.edges = edges
        self.start = start
        self.nbytes = nbytes
        self.remaining_bits = nbytes * 8.0
        #: current max-min rate (bits/s); None until first allocation
        self.rate: Optional[float] = None
        #: times this flow's rate changed after its first allocation
        self.reconvergences = 0
        self.tenant = tenant

    def copy(self) -> "_Flow":
        f = _Flow.__new__(_Flow)
        f.fid = self.fid
        f.edges = self.edges
        f.start = self.start
        f.nbytes = self.nbytes
        f.remaining_bits = self.remaining_bits
        f.rate = self.rate
        f.reconvergences = self.reconvergences
        f.tenant = self.tenant
        return f


class FluidTracker:
    """Max-min fair bandwidth ledger with event-driven re-convergence.

    Drop-in behind the :class:`ContentionTracker` interface: exposes the
    same accounting surface (``flows_total`` / ``contended_total`` /
    ``peak_share`` / ``tenant_bytes()`` / ``stats()`` /
    ``concurrency()`` / ``share()``) plus the fluid-pricing entry
    points clusters delegate to when ``prices_transfers`` is True:

    * :meth:`admit_transfer` — price *and* commit a transfer;
    * :meth:`peek_transfer` — price without committing (admission
      control peeks at upload times; only admitted requests occupy the
      wire) — guaranteed to return the same float a subsequent
      ``admit_transfer`` at the same instant would, because it runs the
      identical arithmetic on a throwaway clone of the engine.
    """

    #: clusters delegate the whole pricing computation to trackers that
    #: set this (the snapshot tracker keeps the inline math)
    prices_transfers = True

    def __init__(self, telemetry: Optional[Telemetry] = None,
                 record_segments: bool = False):
        #: simulated time of the last processed event
        self._t = 0.0
        self._started = False
        self._active: Dict[int, _Flow] = {}
        self._caps: Dict[Edge, float] = {}
        self._finish: Dict[int, float] = {}
        self._spec: Dict[int, FlowSpec] = {}
        self._next = 0
        self.record_segments = record_segments
        #: piecewise-constant rate segments (``record_segments=True``)
        self.segments: List[FluidSegment] = []
        # -- ContentionTracker-parity accounting --------------------------
        #: flows ever admitted
        self.flows_total = 0
        #: flows that shared at least one edge when admitted
        self.contended_total = 0
        #: widest concurrent sharing ever seen per edge (1 = lone)
        self.peak_share: Dict[Edge, int] = {}
        #: piecewise segments advanced (one per rate-constant interval)
        self.segments_total = 0
        #: mid-flight capacity updates applied (:meth:`update_caps`)
        self.caps_updates_total = 0
        self._tenant_bytes: Dict[str, float] = {}
        #: clones used for peeks/predictions never touch accounting
        self._ghost = False
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("fluid")
        self._m_flows = reg.counter(
            "flows_total", help="transfers priced through the solver")
        self._m_contended = reg.counter(
            "contended_flows_total",
            help="transfers sharing at least one edge at admission")
        self._m_segments = reg.counter(
            "segments_total",
            help="piecewise-constant rate segments advanced")
        self._m_reconv = reg.histogram(
            "flow_reconvergences",
            help="rate re-convergences a flow saw before completing",
            lo=1.0, hi=4096.0)
        self._count_tenant_bytes = reg.counters(
            "tenant_bytes_total", "payload bytes on the wire per tenant",
            "tenant")

    # -- engine ------------------------------------------------------------
    def _clone(self) -> "FluidTracker":
        """A throwaway copy of the solver state for peeks/predictions.

        Clones are *ghosts*: they never record segments, never bump
        accounting, and never touch telemetry — running the identical
        arithmetic is their only job.
        """
        c = FluidTracker.__new__(FluidTracker)
        c._t = self._t
        c._started = self._started
        c._active = {fid: f.copy() for fid, f in self._active.items()}
        c._caps = dict(self._caps)
        c._finish = dict(self._finish)
        c._spec = dict(self._spec)
        c._next = self._next
        c.record_segments = False
        c.segments = []
        c.flows_total = 0
        c.contended_total = 0
        c.peak_share = {}
        c.segments_total = 0
        c.caps_updates_total = 0
        c._tenant_bytes = {}
        c._ghost = True
        return c

    def _reconverge(self) -> None:
        """Max-min allocation over the active flows (water-filling).

        Progressive filling: every unfrozen flow's rate rises together;
        the edge with the smallest fair level ``cap_left / unfrozen``
        saturates first and freezes its flows at that level; repeat on
        the residual graph until every flow is bottlenecked.  Iteration
        orders are sorted, so the result is a pure function of the flow
        set — no dict-ordering leakage.
        """
        if not self._active:
            return
        flows = [self._active[fid] for fid in sorted(self._active)]
        edges = sorted({e for f in flows for e in f.edges})
        cap_left: Dict[Edge, float] = {}
        for e in edges:
            cap = self._caps.get(e)
            if cap is None or cap <= 0.0:
                raise ValueError(f"edge {e} has no positive capacity")
            cap_left[e] = cap
        count = {e: 0 for e in edges}
        for f in flows:
            for e in f.edges:
                count[e] += 1
        unfrozen = {f.fid for f in flows}
        while unfrozen:
            level = min(cap_left[e] / count[e]
                        for e in edges if count[e] > 0)
            bottleneck = {e for e in edges
                          if count[e] > 0 and cap_left[e] / count[e] == level}
            for f in flows:
                if f.fid not in unfrozen:
                    continue
                if not any(e in bottleneck for e in f.edges):
                    continue
                old = f.rate
                f.rate = level
                if old is not None and old != level:
                    f.reconvergences += 1
                unfrozen.discard(f.fid)
                for e in f.edges:
                    cap_left[e] -= level
                    count[e] -= 1
            for e in bottleneck:
                if cap_left[e] < 0.0:
                    cap_left[e] = 0.0  # float dust on saturated edges

    def _segment(self, t1: float) -> None:
        """Record one advanced rate-constant interval ``[_t, t1)``."""
        if t1 <= self._t or self._ghost:
            return
        self.segments_total += 1
        self._m_segments.inc()
        if self.record_segments:
            self.segments.append(FluidSegment(
                self._t, t1, {f.fid: f.rate
                              for f in self._active.values()}))

    def _complete(self, fid: int, t: float) -> None:
        flow = self._active.pop(fid)
        self._finish[fid] = t
        if self._ghost:
            return
        self._m_reconv.observe(float(flow.reconvergences) + 1.0)

    def _advance(self, until: float) -> None:
        """Advance the piecewise simulation to ``until``, processing
        every completion event on the way."""
        if not self._started:
            self._t = until
            self._started = True
            return
        if until < self._t:
            return  # clamp: the ledger's clock never runs backwards
        while self._active:
            dts = {fid: f.remaining_bits / f.rate
                   for fid, f in self._active.items()}
            dt_min = min(dts.values())
            t_next = self._t + dt_min
            if t_next > until:
                break
            self._segment(t_next)
            for f in self._active.values():
                f.remaining_bits -= f.rate * dt_min
            done = [fid for fid in sorted(self._active)
                    if dts[fid] == dt_min
                    or self._active[fid].remaining_bits <= 0.0]
            for fid in done:
                self._complete(fid, t_next)
            self._t = t_next
            self._reconverge()
        if self._active and self._t < until:
            self._segment(until)
            dt = until - self._t
            for f in self._active.values():
                f.remaining_bits -= f.rate * dt
        if until > self._t:
            self._t = until

    def _account(self, flow: _Flow, shares: Dict[Edge, int]) -> None:
        if self._ghost:
            return
        self.flows_total += 1
        worst = max(shares.values())
        contended = worst > 1
        if contended:
            self.contended_total += 1
        for e, s in shares.items():
            if s > self.peak_share.get(e, 1):
                self.peak_share[e] = s
        if flow.tenant is not None and flow.nbytes:
            self._tenant_bytes[flow.tenant] = (
                self._tenant_bytes.get(flow.tenant, 0.0) + flow.nbytes)
        self._m_flows.inc()
        if contended:
            self._m_contended.inc()
        if flow.tenant is not None and flow.nbytes:
            self._count_tenant_bytes(flow.tenant, amount=flow.nbytes)

    # -- admission ---------------------------------------------------------
    def admit(self, edges: Sequence[Edge], caps: Mapping[Edge, float],
              now: float, nbytes: float,
              tenant: Optional[str] = None) -> int:
        """Put one flow of ``nbytes`` on ``edges`` at time ``now``.

        ``caps`` maps each of the flow's (canonical) edges to its
        capacity in bits/s; capacities observed here update the
        ledger's piecewise-constant view (existing flows on a changed
        edge re-converge).  Returns the flow id.
        """
        canon = tuple(_edge(*e) for e in edges)
        if not canon:
            raise ValueError("a flow must cross at least one edge")
        self._advance(float(now))
        start = self._t
        for e in canon:
            cap = float(caps[_edge(*e)] if _edge(*e) in caps else caps[e])
            if cap <= 0.0:
                raise ValueError(f"edge {e} capacity must be positive")
            self._caps[e] = cap
        shares = {e: 1 + sum(1 for f in self._active.values()
                             if e in f.edges) for e in canon}
        flow = _Flow(self._next, canon, start, float(nbytes), tenant)
        self._next += 1
        self._active[flow.fid] = flow
        self._spec[flow.fid] = FlowSpec(canon, start, float(nbytes), tenant)
        if flow.remaining_bits <= 0.0:
            # zero-byte flow: completes the instant it starts
            self._complete(flow.fid, start)
            self._reconverge()
        else:
            self._reconverge()
        self._account(flow, shares)
        return flow.fid

    def update_caps(self, now: float, caps: Mapping[Edge, float]) -> None:
        """Re-converge every in-flight flow under new edge capacities.

        The mid-flight entry point (the boundary-only model only
        refreshes capacities when a flow is *admitted*): advance the
        piecewise ledger to ``now`` — a completion landing exactly at
        ``now`` is processed *first*, so event ordering at a shared
        instant is deterministic — then install the new capacities and
        re-run water-filling, so every active flow's rate re-converges
        from ``now`` on.  Bytes already transferred are untouched
        (conservation holds segment by segment); capacities for edges
        with no active flow are stored for future admissions.  An
        update in the ledger's past clamps to the ledger's current time,
        the same rule out-of-order admissions follow.
        """
        updates: Dict[Edge, float] = {}
        for e, cap in caps.items():
            cap = float(cap)
            if cap <= 0.0:
                raise ValueError(
                    f"edge {e} capacity must be positive, got {cap}")
            updates[_edge(*e)] = cap
        self._advance(float(now))
        self._caps.update(updates)
        self._reconverge()
        if not self._ghost:
            self.caps_updates_total += 1

    def _transfer(self, engine: "FluidTracker", edges: Sequence[Edge],
                  caps: Mapping[Edge, float], latency_s: float,
                  nbytes: float, now: float, tenant: Optional[str],
                  base_s: Optional[float]) -> float:
        canon = tuple(_edge(*e) for e in edges)
        engine._advance(float(now))
        lone = not any(e in f.edges
                       for f in engine._active.values() for e in canon)
        fid = engine.admit(canon, caps, engine._t, nbytes, tenant)
        if lone and base_s is not None:
            # bit-identity fast path: a flow sharing no edge with any
            # in-flight flow is priced exactly like the base link model
            return base_s
        start = engine._spec[fid].start
        return latency_s + (engine.finish_time(fid) - start)

    def admit_transfer(self, edges: Sequence[Edge],
                       caps: Mapping[Edge, float], latency_s: float,
                       nbytes: float, now: float,
                       tenant: Optional[str] = None,
                       base_s: Optional[float] = None) -> float:
        """Price one transfer and put its flow on the wire.

        Returns total seconds: ``latency_s`` plus the wire time under
        max-min sharing with the flows known at admission.  ``base_s``
        (the contention-free ``transfer_time`` float) is returned
        verbatim when the flow is lone — bit-identity.
        """
        return self._transfer(self, edges, caps, latency_s, nbytes, now,
                              tenant, base_s)

    def peek_transfer(self, edges: Sequence[Edge],
                      caps: Mapping[Edge, float], latency_s: float,
                      nbytes: float, now: float,
                      tenant: Optional[str] = None,
                      base_s: Optional[float] = None) -> float:
        """Price a transfer *without* committing it (admission peek).

        Runs :meth:`admit_transfer` on a ghost clone, so the returned
        float is exactly what a commit at the same instant would yield.
        """
        return self._transfer(self._clone(), edges, caps, latency_s,
                              nbytes, now, tenant, base_s)

    # -- completion queries ------------------------------------------------
    def drain(self) -> None:
        """Run every active flow to completion (no further arrivals)."""
        while self._active:
            dt_min = min(f.remaining_bits / f.rate
                         for f in self._active.values())
            self._advance(self._t + dt_min)

    def finish_time(self, fid: int) -> float:
        """This flow's completion time: actual if already drained,
        else predicted assuming no further arrivals."""
        done = self._finish.get(fid)
        if done is not None:
            return done
        if fid not in self._active:
            raise KeyError(f"unknown flow id {fid}")
        c = self._clone()
        c.drain()
        return c._finish[fid]

    def finish_times(self) -> Dict[int, float]:
        """Completion times for every flow ever admitted (active flows
        contribute their no-further-arrivals prediction)."""
        if not self._active:
            return dict(self._finish)
        c = self._clone()
        c.drain()
        return dict(c._finish)

    def flow_spec(self, fid: int) -> FlowSpec:
        """The admitted spec (edges/start/bytes/tenant) of one flow."""
        return self._spec[fid]

    # -- ContentionTracker-parity queries ----------------------------------
    def concurrency(self, edge: Edge, now: float) -> int:
        """Flows in flight on ``edge`` at simulated time ``now``
        (non-mutating: runs the piecewise advance on a ghost clone)."""
        c = self._clone()
        c._advance(float(now))
        e = _edge(*edge)
        return sum(1 for f in c._active.values() if e in f.edges)

    def share(self, edge: Edge, now: float) -> int:
        """Fair-share divisor a new flow admitted at ``now`` would see."""
        return 1 + self.concurrency(edge, now)

    def tenant_bytes(self) -> Dict[str, float]:
        """Cumulative bytes admitted per tenant (tagged flows only)."""
        return dict(self._tenant_bytes)

    def stats(self) -> Dict[str, float]:
        return {
            "flows": self.flows_total,
            "contended": self.contended_total,
            "peak_share": max(self.peak_share.values(), default=1),
            "segments": self.segments_total,
            "active": len(self._active),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FluidTracker({self.flows_total} flows, "
                f"{len(self._active)} active, "
                f"{self.segments_total} segments, t={self._t:g})")


def solve_fluid(flows: Sequence[FlowSpec], caps: Mapping[Edge, float],
                record_segments: bool = True,
                ) -> Tuple[List[float], FluidTracker]:
    """Offline max-min solve: finish times aligned with the input order.

    Flows are admitted in a canonical ``(start, edges, nbytes, tenant)``
    order, so the result is **submission-order invariant**: permuting
    ``flows`` permutes the returned list the same way but changes no
    float.  Returns ``(finish_times, tracker)``; the tracker carries the
    per-segment audit trail when ``record_segments`` is on.
    """
    specs = [f if isinstance(f, FlowSpec) else FlowSpec(*f) for f in flows]
    order = sorted(
        range(len(specs)),
        key=lambda i: (specs[i].start,
                       tuple(_edge(*e) for e in specs[i].edges),
                       specs[i].nbytes,
                       specs[i].tenant is not None,
                       specs[i].tenant or ""))
    tracker = FluidTracker(record_segments=record_segments)
    fids: Dict[int, int] = {}
    for i in order:
        s = specs[i]
        fids[i] = tracker.admit(s.edges, caps, s.start, s.nbytes, s.tenant)
    tracker.drain()
    return [tracker._finish[fids[i]] for i in range(len(specs))], tracker
