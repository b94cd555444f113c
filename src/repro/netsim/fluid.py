"""Fluid-flow (max-min) bandwidth sharing: rates re-converge at events.

The snapshot model in :mod:`repro.netsim.contention` freezes every
flow's fair share at admission: the first of two overlapping transfers
keeps the full link for its whole lifetime and the second pays the
shared rate for its whole lifetime, even after the first completes.
That under-charges the first and over-charges the second relative to
how TCP-ish fair sharing actually behaves.

This module prices flows with a **fluid-flow solver**: at every *event*
(a flow arriving or completing, or a link capacity update observed at
admission) the solver reruns progressive-filling water-filling over all
active flows' edge sets — saturating bottleneck links and freezing
their flows at the bottleneck's fair level, repeating until every flow
is bottlenecked — and advances the simulation piecewise between events,
integrating each flow's (piecewise-constant) rate to find completions.
The resulting allocation is the max-min fair one at every instant:

* **byte conservation** — each flow's rate integrates to exactly its
  payload (``∫ rate dt == nbytes * 8``);
* **max-min certificate** — every flow crosses a saturated edge on
  which its rate is maximal, so no flow's rate can be increased without
  decreasing an equal-or-slower flow's;
* **bottleneck saturation** — every flow crosses at least one
  fully-utilized edge in every segment it is active;
* **order invariance** — the same event set yields the same finish
  times regardless of submission order (:func:`solve_fluid` processes
  flows in a canonical order; the online tracker's admissions arrive in
  nondecreasing simulated time, which is the same sequence);
* **lone-flow bit-identity** — a flow that shares no edge with any
  in-flight flow is priced by returning the contention-free
  ``transfer_time`` float verbatim, exactly like the snapshot tracker's
  zero-concurrency fast path.

:class:`FluidTracker` implements the tracker protocol of
:mod:`repro.netsim.contention` (``admit_transfer`` / ``peek_transfer``
/ ``update_caps``), so it goes wherever a ``contention=`` / ``tracker=``
parameter is accepted (:class:`Cluster`, :class:`MeshCluster`,
:class:`~repro.netsim.contention.SharedIngress`): the owner of a wire
describes it and the ledger prices it.

On-line semantics
-----------------
The serving loop needs a transfer's duration *at admission*, but a flow
admitted later can slow an in-flight flow down.  The duration each
``admit_transfer`` call returns is therefore the flow's finish under
the event set known at admission (exact if no later flow arrives —
lone flows are bit-identical); the solver's internal ledger keeps
re-converging as later flows arrive, and :meth:`finish_times` exposes
the ledger's (authoritative) completion times — that is what the
property suite and the snapshot-vs-fluid bench audit.  Admissions must
arrive in nondecreasing simulated time (the serving loop's order); an
admission in the ledger's past is clamped to the current ledger time.

Inside
------
One solver, three pieces.  :func:`_waterfill` is the pure max-min
allocation over *path classes* (distinct edge tuples with their
multiplicity).  :class:`_Wire` holds the flows in flight as flat
parallel lists and owns the only completion-event loop
(:meth:`_Wire.events`).  :class:`FluidTracker` is the ledger around one
wire: history (``_finish`` / ``_spec``), accounting, segments,
telemetry.  Pricing never copies the ledger: a prediction or a peek
copies the wire — the in-flight flows only — runs the same events on
the copy and **stops at the flow it prices**; the history is never
touched, so the cost of a transfer depends on the flows in flight and
not on how many ever completed.  Every float is produced by the same
operations in the same order as the clone-and-drain solver this
replaced, which lives on as the test oracle
(``tests/netsim/reference_fluid.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..telemetry import Telemetry
from .link import Edge, canonical_edge

__all__ = ["FlowSpec", "FluidSegment", "FluidTracker", "solve_fluid"]

Path = Tuple[Edge, ...]


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


def _waterfill(classes: Mapping[Path, int],
               caps: Mapping[Edge, float]) -> Dict[Path, float]:
    """Max-min rate of every path class (progressive filling).

    ``classes`` maps each distinct edge tuple to the number of flows
    riding it.  Every unfrozen flow's rate rises together; the edges
    with the smallest fair level ``cap_left / unfrozen`` saturate first
    and freeze the classes crossing them at that level; repeat on the
    residual graph until every class is bottlenecked.  Flows on one
    path always freeze together, so a class is frozen once — but its
    level is still subtracted from ``cap_left`` once per flow, never as
    ``m * level``, which would round differently.  ``min`` and ``==``
    do not depend on iteration order and a round subtracts one value,
    so the result is a pure function of the flow multiset.  (A
    saturated edge may end a round a float-dust below zero; every flow
    on it froze in that round, so nothing reads it again.)
    """
    edges: Dict[Edge, list] = {}  # edge -> [cap_left, unfrozen, classes]
    for path, m in classes.items():
        cls = [path, m, True]     # ... still unfrozen
        for e in path:
            if e in edges:
                rec = edges[e]
                rec[1] += m
                rec[2].append(cls)
            else:
                cap = caps.get(e)
                if cap is None or not cap > 0.0:
                    raise ValueError(f"edge {e} has no positive capacity")
                edges[e] = [cap, m, [cls]]
    rate: Dict[Path, float] = {}
    live = list(edges.values())
    while live:
        levels = [rec[0] / rec[1] for rec in live]
        level = min(levels)
        for rec, q in zip(live, levels):
            if q != level:
                continue
            for cls in rec[2]:
                if not cls[2]:
                    continue
                cls[2] = False
                path, m = cls[0], cls[1]
                rate[path] = level
                flows = range(m)
                for e in path:
                    crossed = edges[e]
                    left = crossed[0]
                    for _ in flows:
                        left -= level
                    crossed[0] = left
                    crossed[1] -= m
        live = [rec for rec in live if rec[1] > 0]
    return rate


class _Wire:
    """The flows in flight, as flat parallel lists in flow-id order.

    This is all a prediction or a peek copies.  :meth:`events` is the
    one completion-event loop: the ledger consumes it to record
    segments and finish times, a prediction consumes a copy's until the
    flow it prices completes.
    """

    __slots__ = ("t", "started", "caps", "fids", "paths", "rem", "rate",
                 "reconv")

    def __init__(self) -> None:
        #: simulated time of the last processed event
        self.t = 0.0
        self.started = False
        self.caps: Dict[Edge, float] = {}
        self.fids: List[int] = []
        self.paths: List[Path] = []
        #: bits left per flow
        self.rem: List[float] = []
        #: current max-min rate per flow (bits/s)
        self.rate: List[float] = []
        #: times each flow's rate changed after its first allocation
        self.reconv: List[int] = []

    def copy(self) -> "_Wire":
        """A throwaway copy for a peek or a prediction.  ``caps`` is
        shared: a copy that needs other capacities rebinds the name."""
        w = _Wire.__new__(_Wire)
        w.t = self.t
        w.started = self.started
        w.caps = self.caps
        w.fids = self.fids[:]
        w.paths = self.paths[:]
        w.rem = self.rem[:]
        w.rate = self.rate[:]
        w.reconv = self.reconv[:]
        return w

    def reconverge(self) -> None:
        """Re-run water-filling; count the flows whose rate moved."""
        if not self.fids:
            return
        classes: Dict[Path, int] = {}
        for p in self.paths:
            classes[p] = classes[p] + 1 if p in classes else 1
        level = _waterfill(classes, self.caps)
        old = self.rate
        self.rate = new = [level[p] for p in self.paths]
        if new != old:
            self.reconv = [c + (o != n)
                           for c, o, n in zip(self.reconv, old, new)]

    def add(self, fid: int, path: Path, bits: float) -> None:
        """Put one flow on the wire and re-converge everyone."""
        self.fids.append(fid)
        self.paths.append(path)
        self.rem.append(bits)
        self.rate.append(math.nan)
        self.reconv.append(-1)  # its first allocation is not a change
        self.reconverge()

    def events(self, until: float) -> Iterator[Tuple[float, List[int]]]:
        """Run the completion events up to ``until``.

        Yields ``(t, done)`` per event, ``done`` the positions of the
        flows completing at ``t``.  At the yield the wire still shows
        the interval that just ended — ``self.t`` is its start, the
        completing flows are still listed at the rates they held — and
        is moved past the event when the consumer comes back.
        """
        if until < self.t:
            return  # clamp: the ledger's clock never runs backwards
        while self.fids:
            rate = self.rate
            dts = [r / x for r, x in zip(self.rem, rate)]
            dt_min = min(dts)
            t_next = self.t + dt_min
            if t_next > until:
                return
            self.rem = rem = [r - x * dt_min for r, x in zip(self.rem, rate)]
            done = [i for i, dt in enumerate(dts)
                    if dt == dt_min or rem[i] <= 0.0]
            yield t_next, done
            for i in reversed(done):
                del self.fids[i], self.paths[i], rem[i], rate[i], \
                    self.reconv[i]
            self.t = t_next
            self.reconverge()

    def settle(self, until: float) -> None:
        """After :meth:`events`: integrate the partial interval up to
        ``until`` and move the clock there."""
        if not self.started:
            self.t = until
            self.started = True
        elif until > self.t:
            if self.fids:
                dt = until - self.t
                self.rem = [r - x * dt for r, x in zip(self.rem, self.rate)]
            self.t = until

    def advance(self, until: float) -> None:
        """Move a *copy* to ``until`` (the ledger's own advance records
        what happens on the way: :meth:`FluidTracker._advance`)."""
        for _ in self.events(until):
            pass
        self.settle(until)

    def completion(self, fid: int) -> float:
        """Run a *copy* until ``fid`` completes; that instant."""
        for t, done in self.events(math.inf):
            for i in done:
                if self.fids[i] == fid:
                    return t
        raise KeyError(f"unknown flow id {fid}")

    def sharing(self, path: Path) -> Dict[Edge, int]:
        """Per edge of ``path``: the flows in flight crossing it."""
        return {e: len([p for p in self.paths if e in p]) for e in path}


class FluidTracker:
    """Max-min fair bandwidth ledger with event-driven re-convergence.

    Exposes :class:`ContentionTracker`'s accounting surface
    (``flows_total`` / ``contended_total`` / ``peak_share`` /
    ``tenant_bytes()`` / ``stats()`` / ``concurrency()`` / ``share()``)
    and the pricing half of the tracker protocol:

    * :meth:`admit_transfer` — price *and* commit a transfer;
    * :meth:`peek_transfer` — price without committing (admission
      control peeks at upload times; only admitted requests occupy the
      wire) — guaranteed to return the same float a subsequent
      ``admit_transfer`` at the same instant would, because it runs the
      identical arithmetic on a copy of the in-flight flows; that
      ``admit_transfer`` then commits the flow and hands the peeked
      float back instead of predicting again.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None,
                 record_segments: bool = False):
        self._wire = _Wire()
        #: the one capacity table, by the name the ledger always had
        self._caps = self._wire.caps
        self._finish: Dict[int, float] = {}
        self._spec: Dict[int, FlowSpec] = {}
        self._next = 0
        #: ``(arguments, price)`` of the last peek, until the ledger moves
        self._peeked: Optional[Tuple[tuple, float]] = None
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
    def _segment(self, t1: float) -> None:
        """Record one advanced rate-constant interval ``[t, t1)``."""
        wire = self._wire
        if t1 <= wire.t:
            return
        self.segments_total += 1
        self._m_segments.inc()
        if self.record_segments:
            self.segments.append(FluidSegment(
                wire.t, t1, dict(zip(wire.fids, wire.rate))))

    def _run(self, until: float) -> None:
        """Process every completion event up to ``until`` on the ledger
        itself.  Every mutation of the ledger passes through here, so
        this is also where a remembered peek stops being valid."""
        self._peeked = None
        wire = self._wire
        for t, done in wire.events(until):
            self._segment(t)
            for i in done:
                self._finish[wire.fids[i]] = t
                self._m_reconv.observe(float(wire.reconv[i]) + 1.0)

    def _advance(self, until: float) -> None:
        """Advance the piecewise simulation to ``until``, processing
        every completion event on the way."""
        self._run(until)
        wire = self._wire
        if wire.fids:
            self._segment(until)
        wire.settle(until)

    def _checked(self, edges: Sequence[Edge], caps: Mapping[Edge, float],
                 nbytes: float) -> Tuple[Path, Dict[Edge, float], float]:
        """Canonical path, its capacities and the payload — or
        ``ValueError``, before anything moved.  ``not (x > 0)`` rather
        than ``x <= 0``: a NaN passes the latter and no flow priced
        with it ever completes."""
        path = tuple(canonical_edge(*e) for e in edges)
        if not path:
            raise ValueError("a flow must cross at least one edge")
        try:
            path_caps = {e: float(caps[e]) for e in path}
        except KeyError:  # the other spelling, as update_caps accepts
            caps = {canonical_edge(*e): cap for e, cap in caps.items()}
            path_caps = {e: float(caps[e]) for e in path}
        for e, cap in path_caps.items():
            if not cap > 0.0:
                raise ValueError(
                    f"edge {e} capacity must be positive, got {cap}")
        nbytes = float(nbytes)
        if not nbytes >= 0.0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return path, path_caps, nbytes

    def _admit(self, path: Path, path_caps: Dict[Edge, float], now: float,
               nbytes: float, tenant: Optional[str]) -> int:
        self._advance(now)
        wire = self._wire
        self._caps.update(path_caps)
        shares = {e: 1 + n for e, n in wire.sharing(path).items()}
        fid = self._next
        self._next += 1
        self._spec[fid] = FlowSpec(path, wire.t, nbytes, tenant)
        bits = nbytes * 8.0
        if bits <= 0.0:
            # zero-byte flow: completes the instant it starts
            self._finish[fid] = wire.t
            self._m_reconv.observe(1.0)
            wire.reconverge()
        else:
            wire.add(fid, path, bits)
        self._account(nbytes, tenant, shares)
        return fid

    def _account(self, nbytes: float, tenant: Optional[str],
                 shares: Dict[Edge, int]) -> None:
        self.flows_total += 1
        contended = max(shares.values()) > 1
        if contended:
            self.contended_total += 1
        for e, s in shares.items():
            if s > self.peak_share.get(e, 1):
                self.peak_share[e] = s
        self._m_flows.inc()
        if contended:
            self._m_contended.inc()
        if tenant is not None and nbytes:
            self._tenant_bytes[tenant] = (
                self._tenant_bytes.get(tenant, 0.0) + nbytes)
            self._count_tenant_bytes(tenant, amount=nbytes)

    # -- admission ---------------------------------------------------------
    def admit(self, edges: Sequence[Edge], caps: Mapping[Edge, float],
              now: float, nbytes: float,
              tenant: Optional[str] = None) -> int:
        """Put one flow of ``nbytes`` on ``edges`` at time ``now``.

        ``caps`` maps each of the flow's edges (either spelling, like
        :meth:`update_caps`) to its capacity in bits/s; capacities
        observed here update the ledger's piecewise-constant view
        (existing flows on a changed edge re-converge).  A capacity
        that is not positive or a payload that is not non-negative
        (NaN included) raises ``ValueError`` before the ledger moves.
        Returns the flow id.
        """
        path, path_caps, nbytes = self._checked(edges, caps, nbytes)
        return self._admit(path, path_caps, float(now), nbytes, tenant)

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
            if not cap > 0.0:
                raise ValueError(
                    f"edge {e} capacity must be positive, got {cap}")
            updates[canonical_edge(*e)] = cap
        self._advance(float(now))
        self._caps.update(updates)
        self._wire.reconverge()
        self.caps_updates_total += 1

    def admit_transfer(self, edges: Sequence[Edge],
                       caps: Mapping[Edge, float], latency_s: float,
                       nbytes: float, now: float,
                       tenant: Optional[str] = None,
                       base_s: Optional[float] = None) -> float:
        """Price one transfer and put its flow on the wire.

        Returns total seconds: ``latency_s`` plus the wire time under
        max-min sharing with the flows known at admission.  ``base_s``
        (the contention-free ``transfer_time`` float) is returned
        verbatim when the flow is lone — bit-identity.  When the call
        repeats the :meth:`peek_transfer` just before it, the peeked
        float is the answer and nothing is predicted twice.
        """
        path, path_caps, nbytes = self._checked(edges, caps, nbytes)
        now = float(now)
        peeked = self._peeked
        self._advance(now)
        wire = self._wire
        lone = not any(wire.sharing(path).values())
        fid = self._admit(path, path_caps, wire.t, nbytes, tenant)
        if lone and base_s is not None:
            # bit-identity fast path: a flow sharing no edge with any
            # in-flight flow is priced exactly like the base link model
            return base_s
        if peeked is not None and peeked[0] == (
                path, path_caps, latency_s, nbytes, now, tenant, base_s):
            return peeked[1]
        return latency_s + (self.finish_time(fid) - self._spec[fid].start)

    def peek_transfer(self, edges: Sequence[Edge],
                      caps: Mapping[Edge, float], latency_s: float,
                      nbytes: float, now: float,
                      tenant: Optional[str] = None,
                      base_s: Optional[float] = None) -> float:
        """Price a transfer *without* committing it (admission peek).

        Replays :meth:`admit_transfer` on a copy of the in-flight flows
        — advance to ``now``, add the flow, run the events until it
        completes — so the returned float is exactly what a commit at
        the same instant would yield.  The ledger itself (history,
        accounting, segments, telemetry) is neither copied nor touched;
        it only remembers ``(arguments, price)`` so that an
        ``admit_transfer`` with the same arguments, arriving before
        anything else moves the ledger, returns the price without
        predicting again.
        """
        path, path_caps, nbytes = self._checked(edges, caps, nbytes)
        now = float(now)
        ghost = self._wire.copy()
        ghost.advance(now)
        lone = not any(ghost.sharing(path).values())
        ghost.advance(ghost.t)  # the admission's own advance
        start = ghost.t
        if lone and base_s is not None:
            price = base_s
        elif nbytes * 8.0 <= 0.0:
            # completes where it starts: the commit's ``finish - start``
            price = latency_s + (start - start)
        else:
            ghost.caps = {**ghost.caps, **path_caps}
            ghost.add(self._next, path, nbytes * 8.0)
            price = latency_s + (ghost.completion(self._next) - start)
        self._peeked = ((path, path_caps, latency_s, nbytes, now, tenant,
                         base_s), price)
        return price

    # -- completion queries ------------------------------------------------
    def drain(self) -> None:
        """Run every active flow to completion (no further arrivals)."""
        self._run(math.inf)

    def finish_time(self, fid: int) -> float:
        """This flow's completion time: actual if already drained,
        else predicted assuming no further arrivals."""
        done = self._finish.get(fid)
        if done is not None:
            return done
        return self._wire.copy().completion(fid)

    def finish_times(self) -> Dict[int, float]:
        """Completion times for every flow ever admitted (active flows
        contribute their no-further-arrivals prediction)."""
        times = dict(self._finish)
        ghost = self._wire.copy()
        for t, done in ghost.events(math.inf):
            for i in done:
                times[ghost.fids[i]] = t
        return times

    def flow_spec(self, fid: int) -> FlowSpec:
        """The admitted spec (edges/start/bytes/tenant) of one flow."""
        return self._spec[fid]

    # -- ContentionTracker-parity queries ----------------------------------
    def concurrency(self, edge: Edge, now: float) -> int:
        """Flows in flight on ``edge`` at simulated time ``now``
        (non-mutating: the completions up to ``now`` run on a copy of
        the in-flight flows)."""
        e = canonical_edge(*edge)
        ghost = self._wire.copy()
        ghost.advance(float(now))
        return ghost.sharing((e,))[e]

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
            "active": len(self._wire.fids),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FluidTracker({self.flows_total} flows, "
                f"{len(self._wire.fids)} active, "
                f"{self.segments_total} segments, t={self._wire.t:g})")


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
                       tuple(canonical_edge(*e) for e in specs[i].edges),
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
