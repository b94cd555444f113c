"""Fluid-flow (max-min) bandwidth sharing: rates re-converge at events.

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
  ``transfer_time`` float verbatim.

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
property suite audits.  Admissions must
arrive in nondecreasing simulated time (the serving loop's order); an
admission in the ledger's past is clamped to the current ledger time.

Inside
------
One solver, three pieces.  :func:`_waterfill` is the pure max-min
allocation over *path classes* (distinct edge tuples with their
multiplicity).  :class:`_State` is the wire at one instant — the flows
in flight as flat lists, never written again — and the one stepping
function: :meth:`_State.due` computes the next completion event and
:meth:`_State.after` the state past it, each at most once, remembered
on the state.  :class:`FluidTracker` is a pointer into that timeline
plus history (``_finish`` / ``_spec``), accounting, segments and
telemetry.  Everything else walks from where the ledger stands: a
prediction until its flow completes (never building the state past that
event); the ledger, later, over the same remembered events to record
them; a peek to ``now``, where it *branches* — settle, merge
capacities, add the flow — and walks the branch, which the
``admit_transfer`` behind it adopts instead of adding the flow again.
Nothing is copied, a stale branch is garbage, and the history is never
touched: a transfer costs what the flows in flight cost.  Every float
comes from the same operations in the same order as the clone-and-drain
solver that is the test oracle (``tests/netsim/reference_fluid.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..telemetry import Telemetry
from .link import Edge, canonical_edge
from .traces import check_time

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


class _State:
    """The wire at one instant: the flows in flight, flat and in
    flow-id order.  Nothing is written after construction but the two
    remembered answers — the next completion event (:meth:`due`) and
    the state past it (:meth:`after`), each computed at most once — so
    whoever walks this way again (another peek, the admit behind a
    peek, the ledger catching up with a prediction) finds them done.
    ``settled`` / ``recapped`` / ``added`` branch; what the old branch
    remembered is garbage once nobody points at it.
    """

    __slots__ = ("t", "caps", "fids", "paths", "rem", "rate", "reconv",
                 "classes", "solves", "_event", "_after", "__weakref__")

    def __init__(self, t, caps, fids, paths, rem, rate, reconv, classes,
                 solves) -> None:
        #: time of the last processed event; ``-inf`` on a fresh wire,
        #: whose first settle may land anywhere
        self.t: float = t
        #: edge -> bits/s, shared along the timeline: never written
        self.caps: Dict[Edge, float] = caps
        #: per flow: id, path, bits left, max-min rate (bits/s), times
        #: the rate changed after its first allocation
        self.fids, self.paths, self.rem = fids, paths, rem
        self.rate, self.reconv = rate, reconv
        #: the multiset of ``paths``, as :func:`_waterfill` takes it
        self.classes: Dict[Path, int] = classes
        #: the ledger's water-fill count, one cell for the whole timeline
        self.solves: List[int] = solves
        self._event: Optional[Tuple[float, List[int], List[float]]] = None
        self._after: Optional[_State] = None

    def _converged(self, t, caps, fids, paths, rem, rate, reconv,
                   classes) -> "_State":
        """The state these flows make once water-filling has re-run:
        ``rate`` and ``reconv`` come in as the flows held them, and a
        flow whose rate moved has seen one more change."""
        if fids:
            self.solves[0] += 1
            level = _waterfill(classes, caps)
            old, rate = rate, [level[p] for p in paths]
            if rate != old:
                reconv = [c + (o != n) for c, o, n in zip(reconv, old, rate)]
        return _State(t, caps, fids, paths, rem, rate, reconv, classes,
                      self.solves)

    def due(self, until: float) -> Optional[tuple]:
        """The next completion ``(t, positions completing, bits left
        there)`` if at or before ``until``, else None.  This state shows
        the interval it ends: the completing flows at the rates they held."""
        if until < self.t:
            return None  # clamp: the clock never runs backwards
        event = self._event
        if event is None:
            if not self.fids:
                return None  # an empty wire: nothing is ever due
            dts = [r / x for r, x in zip(self.rem, self.rate)]
            dt_min = min(dts)
            rem = [r - x * dt_min for r, x in zip(self.rem, self.rate)]
            done = [i for i, dt in enumerate(dts)
                    if dt == dt_min or rem[i] <= 0.0]
            event = self._event = (self.t + dt_min, done, rem)
        return None if event[0] > until else event

    def after(self) -> "_State":
        """The state past the event :meth:`due` found: its flows gone,
        the clock there, the rest re-converged.  Apart from the event: a
        prediction stops *at* its flow's and never needs this water-fill."""
        nxt = self._after
        if nxt is None:
            t, done, rem = self._event
            fids, paths, rem = list(self.fids), list(self.paths), list(rem)
            rate, reconv = list(self.rate), list(self.reconv)
            classes = dict(self.classes)
            for i in reversed(done):
                classes[paths[i]] -= 1
                if not classes[paths[i]]:
                    del classes[paths[i]]
                del fids[i], paths[i], rem[i], rate[i], reconv[i]
            nxt = self._after = self._converged(
                t, self.caps, fids, paths, rem, rate, reconv, classes)
        return nxt

    def walk(self, until: float):
        """The completions up to ``until`` as ``(state, event)``, each
        state still before its event; ``state.after()`` is built only
        if the consumer comes back for more (or asks for it)."""
        state, event = self, self.due(until)
        while event is not None:
            yield state, event
            state = state.after()
            event = state.due(until)

    def reached(self, until: float) -> "_State":
        """The state past every completion up to ``until``."""
        state = self
        for before, _ in self.walk(until):
            state = before.after()
        return state

    def settled(self, until: float) -> "_State":
        """After :meth:`reached`: the partial interval up to ``until``
        integrated and the clock there (rates hold: nothing to solve)."""
        if not until > self.t:
            return self
        rem = self.rem
        if self.fids:
            dt = until - self.t
            rem = [r - x * dt for r, x in zip(rem, self.rate)]
        return _State(until, self.caps, self.fids, self.paths, rem,
                      self.rate, self.reconv, self.classes, self.solves)

    def recapped(self, updates: Mapping[Edge, float]) -> "_State":
        """Everyone re-converged under ``updates``, merged into a new
        table — or this state itself when no capacity differs: rates
        are a pure function of the flows and the table."""
        caps = self.caps
        if all(caps.get(e) == cap for e, cap in updates.items()):
            return self
        return self._converged(self.t, {**caps, **updates}, self.fids,
                               self.paths, self.rem, self.rate, self.reconv,
                               self.classes)

    def added(self, fid: int, path: Path, bits: float,
              updates: Mapping[Edge, float]) -> "_State":
        """One more flow on the wire under the capacities it brings,
        everyone re-converged (its first allocation is not a change)."""
        classes = dict(self.classes)
        classes[path] = classes.get(path, 0) + 1
        return self._converged(
            self.t, {**self.caps, **updates}, self.fids + [fid],
            self.paths + [path], self.rem + [bits], self.rate + [math.nan],
            self.reconv + [-1], classes)

    def completion(self, fid: int) -> float:
        """The instant ``fid`` completes if nothing else arrives."""
        for state, (t, done, _) in self.walk(math.inf):
            for i in done:
                if state.fids[i] == fid:
                    return t
        raise KeyError(f"unknown flow id {fid}")

    def sharing(self, path: Path) -> Dict[Edge, int]:
        """Per edge of ``path``: the flows in flight crossing it."""
        classes = self.classes.items()
        return {e: sum([m for p, m in classes if e in p]) for e in path}


class FluidTracker:
    """Max-min fair bandwidth ledger with event-driven re-convergence.

    Keeps accounting (``flows_total`` / ``contended_total`` /
    ``peak_share`` / ``tenant_bytes()`` / ``stats()``), answers
    ``concurrency()`` / ``share()`` about the wire, and implements the
    tracker protocol:

    * :meth:`admit_transfer` — price *and* commit a transfer;
    * :meth:`peek_transfer` — price without committing (admission
      control peeks at upload times; only admitted requests occupy the
      wire): a subsequent ``admit_transfer`` at the same instant would
      return the same float, because the peek is that admit's own
      arithmetic on a branch of the timeline — which that admit then
      adopts, handing the float back instead of solving again.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None,
                 record_segments: bool = False):
        #: where the ledger stands on its timeline
        self._head = _State(-math.inf, {}, [], [], [], [], [], {}, [0])
        self._finish: Dict[int, float] = {}
        self._spec: Dict[int, FlowSpec] = {}
        self._next = 0
        #: ``(arguments, price, branch)`` of the last peek, until the
        #: ledger moves: the branch is the state with the flow added
        self._peeked: Optional[Tuple[tuple, float, Optional[_State]]] = None
        self.record_segments = record_segments
        #: piecewise-constant rate segments (``record_segments=True``)
        self.segments: List[FluidSegment] = []
        # -- accounting ----------------------------------------------------
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
    @property
    def _caps(self) -> Dict[Edge, float]:
        """The capacity table where the ledger stands (read, never write)."""
        return self._head.caps

    @property
    def solves_total(self) -> int:
        """Water-fills run for this ledger, peeks' and predictions' too:
        a cost, not an answer — so not in :meth:`stats` or the registry."""
        return self._head.solves[0]

    def _segment(self, state: _State, t1: float) -> None:
        """Record one advanced rate-constant interval ``[t, t1)``."""
        if t1 <= state.t:
            return
        self.segments_total += 1
        self._m_segments.inc()
        if self.record_segments:
            self.segments.append(FluidSegment(
                state.t, t1, dict(zip(state.fids, state.rate))))

    def _run(self, until: float) -> None:
        """Move the ledger past every completion up to ``until``,
        recording each.  Every mutation of the ledger passes through
        here, so this is also where a remembered peek stops being valid."""
        self._peeked = None
        for state, (t, done, _) in self._head.walk(until):
            self._segment(state, t)
            for i in done:
                self._finish[state.fids[i]] = t
                self._m_reconv.observe(float(state.reconv[i]) + 1.0)
            self._head = state.after()

    def _advance(self, until: float) -> None:
        """Advance the piecewise simulation to ``until``, processing
        every completion event on the way."""
        self._run(until)
        head = self._head
        if head.fids:
            self._segment(head, until)
        self._head = head.settled(until)

    @staticmethod
    def _check_prices(latency_s: float, base_s: Optional[float]) -> None:
        """Both times a transfer's price hands back are finite and
        non-negative — or ``ValueError``, before anything moved."""
        if not 0 <= latency_s < math.inf:
            raise ValueError(f"latency_s must be a finite non-negative "
                             f"time, got {latency_s}")
        if base_s is not None and not 0 <= base_s < math.inf:
            raise ValueError(f"base_s must be a finite non-negative "
                             f"time, got {base_s}")

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
               nbytes: float, tenant: Optional[str],
               branch: Optional[_State] = None) -> int:
        """Commit one flow; ``branch`` is the state a peek of this very
        flow already built, adopted instead of adding it again."""
        self._advance(now)
        head = self._head
        shares = {e: 1 + n for e, n in head.sharing(path).items()}
        fid = self._next
        self._next += 1
        self._spec[fid] = FlowSpec(path, head.t, nbytes, tenant)
        bits = nbytes * 8.0
        if bits <= 0.0:
            # zero-byte flow: completes the instant it starts
            self._finish[fid] = head.t
            self._m_reconv.observe(1.0)
            self._head = head.recapped(path_caps)
        elif branch is not None:
            self._head = branch
        else:
            self._head = head.added(fid, path, bits, path_caps)
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
        now = check_time(now)
        path, path_caps, nbytes = self._checked(edges, caps, nbytes)
        return self._admit(path, path_caps, now, nbytes, tenant)

    def update_caps(self, now: float, caps: Mapping[Edge, float]) -> None:
        """Re-converge every in-flight flow under new edge capacities.

        The mid-flight entry point (the boundary-only model only
        refreshes capacities when a flow is *admitted*): advance the
        ledger to ``now`` — a completion landing exactly at ``now`` is
        processed *first*, so event ordering at a shared instant is
        deterministic — then re-run water-filling under the new
        capacities, so every active flow's rate re-converges from
        ``now`` on.  Bytes already transferred are untouched; capacities
        of edges with no active flow are kept for future admissions.  An
        update in the ledger's past clamps to the ledger's current time,
        the same rule out-of-order admissions follow.
        """
        now = check_time(now)
        updates: Dict[Edge, float] = {}
        for e, cap in caps.items():
            cap = float(cap)
            if not cap > 0.0:
                raise ValueError(
                    f"edge {e} capacity must be positive, got {cap}")
            updates[canonical_edge(*e)] = cap
        self._advance(now)
        self._head = self._head.recapped(updates)
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
        float is the answer and the peek's branch the new ledger state:
        nothing is solved twice.
        """
        now = check_time(now)
        self._check_prices(latency_s, base_s)
        path, path_caps, nbytes = self._checked(edges, caps, nbytes)
        price = branch = None
        if self._peeked is not None and self._peeked[0] == (
                path, path_caps, latency_s, nbytes, now, tenant, base_s):
            _, price, branch = self._peeked
        self._advance(now)
        lone = not any(self._head.sharing(path).values())
        fid = self._admit(path, path_caps, self._head.t, nbytes, tenant,
                          branch)
        if lone and base_s is not None:
            # bit-identity fast path: a flow sharing no edge with any
            # in-flight flow is priced exactly like the base link model
            return base_s
        if price is not None:
            return price
        return latency_s + (self.finish_time(fid) - self._spec[fid].start)

    def peek_transfer(self, edges: Sequence[Edge],
                      caps: Mapping[Edge, float], latency_s: float,
                      nbytes: float, now: float,
                      tenant: Optional[str] = None,
                      base_s: Optional[float] = None) -> float:
        """Price a transfer *without* committing it (admission peek).

        Runs :meth:`admit_transfer` on a branch of the timeline — walk
        to ``now``, add the flow, walk until it completes — so the float
        is exactly what a commit at the same instant would yield.  The
        ledger (history, accounting, segments, telemetry) is not
        touched; it remembers ``(arguments, price, branch)`` so that an
        ``admit_transfer`` with the same arguments, arriving before
        anything else moves the ledger, adopts all three.
        """
        now = check_time(now)
        self._check_prices(latency_s, base_s)
        path, path_caps, nbytes = self._checked(edges, caps, nbytes)
        state = self._head.reached(now).settled(now)
        lone = not any(state.sharing(path).values())
        state = state.reached(state.t)  # the admission's own advance
        start = state.t
        branch = None
        if lone and base_s is not None:
            price = base_s
        elif nbytes * 8.0 <= 0.0:
            # completes where it starts: the commit's ``finish - start``
            price = latency_s + (start - start)
        else:
            branch = state.added(self._next, path, nbytes * 8.0, path_caps)
            price = latency_s + (branch.completion(self._next) - start)
        self._peeked = ((path, path_caps, latency_s, nbytes, now, tenant,
                         base_s), price, branch)
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
        return self._head.completion(fid)

    def finish_times(self) -> Dict[int, float]:
        """Completion times for every flow ever admitted (active flows
        contribute their no-further-arrivals prediction).  A live
        ledger then holds its whole future — one state per completion to
        come, each listing the flows still in flight — until it moves."""
        times = dict(self._finish)
        for state, (t, done, _) in self._head.walk(math.inf):
            for i in done:
                times[state.fids[i]] = t
        return times

    def flow_spec(self, fid: int) -> FlowSpec:
        """The admitted spec (edges/start/bytes/tenant) of one flow."""
        return self._spec[fid]

    # -- wire queries ------------------------------------------------------
    def concurrency(self, edge: Edge, now: float) -> int:
        """Flows in flight on ``edge`` at simulated time ``now`` (a
        walk: the ledger does not move, a peek is not spent)."""
        e = canonical_edge(*edge)
        return self._head.reached(check_time(now)).sharing((e,))[e]

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
            "active": len(self._head.fids),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FluidTracker({self.flows_total} flows, "
                f"{len(self._head.fids)} active, "
                f"{self.segments_total} segments, t={self._head.t:g})")


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
