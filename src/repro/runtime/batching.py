"""Batched, overlapped serving on top of the Murmuration facade.

:class:`~repro.runtime.server.InferenceServer` decides and executes one
request at a time; under heavy traffic the per-request decision (and
model switch) is pure overhead — every queued request pays it again even
though the SLO and the observed condition snap to the same strategy-
cache cell.  This module adds the two standard serving optimizations on
the simulated clock:

* **Batching** — requests that arrive while the pipeline is busy
  accumulate into a batch (bounded by :attr:`BatchPolicy.max_batch`,
  with a :attr:`BatchPolicy.max_wait_s` fill timeout anchored at the
  oldest queued request).  One decision and one model switch are
  amortized across the batch, which is sound because all items share
  the SLO and the condition observed at decision time.
* **Overlap** — a batch whose cap fills while batch *k* still executes
  closes early, so its decision runs on the gateway under that
  execution and leaves the critical path exactly when the cache misses.
  The model switch cannot overlap — the weights are in use until batch
  *k* drains — so it is charged after ``max(decision end, executor
  free)``.

Both servers run :meth:`InferenceServer._serve`; this one only chooses
who rides a dispatch and what it emits.  At ``max_batch=1`` a batch is
full at its first member and never closes early, so the
:class:`ServingStats` records are the FIFO server's, bit for bit, by
construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Annotated, List, NamedTuple, Optional, Sequence

import numpy as np

from .. import Checked, Finite, IntAtLeast, NonNegative
from ..netsim.topology import NetworkCondition
from ..telemetry import Telemetry
from .server import InferenceServer, RequestRecord, ServingStats

__all__ = ["BatchPolicy", "BatchRecord", "BatchedServingStats",
           "BatchingInferenceServer"]


@dataclass(frozen=True)
class BatchPolicy(Checked):
    """When a forming batch stops admitting and dispatches.

    A batch dispatches at the earliest of: the cap is reached, or the
    fill timeout (anchored at the batch's *oldest* request) expires.
    Requests already queued when the pipeline frees are admitted
    immediately up to the cap.
    """

    #: hard cap on batch size
    max_batch: Annotated[int, IntAtLeast(1)] = 8
    #: how long an under-full batch may wait for companions, measured
    #: from its oldest member's arrival (0 = never wait)
    max_wait_s: Annotated[float, Finite, NonNegative] = 0.0
    #: pipeline the next batch's decision under the current execution
    overlap: bool = True


class BatchRecord(NamedTuple):
    """Timeline of one dispatched batch (simulated seconds); a
    ``NamedTuple`` like :class:`~repro.runtime.server.RequestRecord`."""

    index: int
    size: int
    #: membership known (cap reached / timeout fired / queue drained)
    close_s: float
    decision_start_s: float
    decision_s: float
    switch_s: float
    exec_start_s: float
    finish_s: float
    cache_hit: bool
    #: decision seconds hidden under the previous batch's execution
    overlap_saved_s: float


@dataclass
class BatchedServingStats(ServingStats):
    """Per-request records plus the batch-level timeline."""

    batches: List[BatchRecord] = field(default_factory=list)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    @property
    def amortized_decisions(self) -> int:
        """Decisions *saved* vs the FIFO loop (one per extra item)."""
        return sum(b.size - 1 for b in self.batches)

    @property
    def overlap_saved_s(self) -> float:
        return sum(b.overlap_saved_s for b in self.batches)

    def summary(self) -> str:
        base = super().summary()
        if self.batches:
            base += (f", batches={len(self.batches)} "
                     f"(mean size {self.mean_batch_size:.1f}, "
                     f"{self.amortized_decisions} decisions amortized, "
                     f"{self.overlap_saved_s * 1e3:.1f}ms overlapped)")
        return base


class BatchingInferenceServer(InferenceServer):
    """Poisson arrivals -> batch accumulation -> amortized adaptation:
    the FIFO :class:`InferenceServer`'s arrivals, loop, statistics and
    telemetry with batch-shaped dispatches (module docstring)."""

    def __init__(self, system, arrival_rate_hz: float,
                 policy: Optional[BatchPolicy] = None, seed: int = 0,
                 telemetry: Optional[Telemetry] = None,
                 recorder=None, control=None, arrival_process=None,
                 events=None):
        super().__init__(system, arrival_rate_hz, seed=seed,
                         telemetry=telemetry, recorder=recorder,
                         control=control, arrival_process=arrival_process,
                         events=events)
        #: re-read at every batch boundary — a BatchPolicyController may
        #: replace it mid-run
        self.policy = policy if policy is not None else BatchPolicy()
        self._m_batch_size = self._reg.histogram(
            "batch_size", help="requests per dispatched batch",
            lo=1.0, hi=4096.0)
        self._m_amortized = self._reg.counter(
            "amortized_decisions_total",
            help="decisions saved by batching (batch size - 1 each)")
        self._m_overlap_saved = self._reg.gauge(
            "overlap_saved_s",
            help="cumulative decision seconds hidden under execution")

    # -- batch formation ---------------------------------------------------
    def _close_batch(self, arrivals: List[float], i: int, exec_free: float,
                     early: bool) -> "tuple":
        """Pick the members of the batch led by request ``i``.

        Returns ``(j, close)``: members are ``arrivals[i:j]``, known at
        simulated time ``close``.  Everything queued by the time the
        pipeline could take the batch rides, up to the cap; an under-
        full batch holds open until its fill timeout (anchored at the
        oldest member) or the cap — the timer runs to its deadline, a
        real server cannot know no further request is coming.

        ``early`` (overlap mode): a batch whose cap fills while the
        previous one still executes closes the moment its last seat is
        taken — same members, but the decision can start under the
        ongoing execution.
        """
        a_first = arrivals[i]
        natural = max(a_first, exec_free)
        horizon = max(natural, a_first + self.policy.max_wait_s)
        # horizon >= arrivals[i]: the search can start at i
        j = min(i + self.policy.max_batch, bisect_right(arrivals, horizon, i))
        if j - i < self.policy.max_batch:
            return j, horizon
        filled = arrivals[j - 1]
        return j, filled if early else max(natural, filled)

    # -- what this server chooses in the serving loop ----------------------
    def _members(self, arrivals: List[float], i: int, ready: float,
                 exec_free: float) -> tuple:
        """The batch under the policy as it stands *now* (a
        BatchPolicyController may have replaced it at this arrival's
        tick).  A size-1 cap has nothing to amortize and no second
        in-flight batch to hide a decision under: never early, which is
        the FIFO server's own answer."""
        early = self.policy.overlap and self.policy.max_batch > 1
        return self._close_batch(arrivals, i, exec_free, early)

    def _dispatch(self, stats: BatchedServingStats, k: int, i: int, j: int,
                  arrivals: List[float], tenants, degraded: bool,
                  close: float, d_start: float, exec_free: float) -> tuple:
        """One ``batch`` root span around the facade's batch path, a
        :class:`BatchRecord`, then its members' records, in one call per
        observer (a flat ``request`` root each)."""
        size = j - i
        tracer = self.telemetry.tracer
        with tracer.span("batch", sim_time=d_start, index=k, size=size) as bs:
            res = self.system.infer_batch(
                batch_size=size, now=d_start, request_ids=list(range(i, j)),
                exec_not_before=exec_free, degraded=degraded,
                tenants=tenants[i:j])
            bs.set_sim_end(res.finish_s)
            bs.annotate(cache_hit=res.cache_hit)
        # What a serial pipeline would have charged: decision at
        # max(close, exec_free), execution right after.
        saved = max(0.0, max(close, exec_free) + res.decision_time_s
                    + res.switch_time_s - res.exec_start_s)
        batch = BatchRecord(
            index=k, size=size, close_s=close, decision_start_s=d_start,
            decision_s=res.decision_time_s, switch_s=res.switch_time_s,
            exec_start_s=res.exec_start_s, finish_s=res.finish_s,
            cache_hit=res.cache_hit, overlap_saved_s=saved)
        stats.batches.append(batch)
        self.recorder.on_batch(batch)
        served = [RequestRecord(
            arrival, d_start, finish, r.latency_s, r.decision_time_s,
            r.switch_time_s, r.satisfied, r.outcome, r.retries, r.failovers,
            tenant) for r, arrival, finish, tenant in zip(
                res.items, arrivals[i:j], res.item_finish_s, tenants[i:j])]
        tracer.requests(i, served, cache_hit=res.cache_hit, batch=k)
        self._observe(stats, served, batch=k)
        self._m_batch_size.observe(float(size))
        self._m_amortized.inc(size - 1)
        self._m_overlap_saved.inc(saved)
        return res.finish_s, d_start + res.decision_time_s

    def run(self, num_requests: int,
            condition_trace: Optional[Sequence[NetworkCondition]] = None,
            trace_period_s: float = 1.0,
            tenants: Optional[Sequence[Optional[str]]] = None,
            ) -> BatchedServingStats:
        """Serve ``num_requests`` through the batched pipeline.

        ``tenants`` tags request ``i`` with ``tenants[i]`` exactly as in
        :meth:`InferenceServer.run`; a batch may mix tenants (they share
        the SLO and the condition cell, which is all batching needs).
        """
        return self._serve(BatchedServingStats(), num_requests,
                           condition_trace, trace_period_s, tenants)
