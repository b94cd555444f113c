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
  amortized across the whole batch, which is sound because all items
  share the SLO and the condition observed at decision time — the batch
  occupies a single :class:`~repro.core.strategy_cache.StrategyCache`
  cell.
* **Overlap** — the decision for batch *k+1* runs on the gateway while
  batch *k* still executes on the cluster, so decision latency leaves
  the critical path exactly when the cache misses (a cache hit costs no
  decision time to begin with).  The model switch cannot overlap — the
  weights are in use until batch *k* drains — so it is charged after
  ``max(decision end, executor free)``.

With ``max_batch=1`` the policy degenerates to the FIFO server: a batch
is full at its first member (the fill timeout never engages) and there
is no second in-flight batch to pipeline against, so overlap is
disabled and the produced :class:`ServingStats` records are bit-
identical to :meth:`InferenceServer.run` (enforced by test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..netsim.topology import NetworkCondition
from ..telemetry import Telemetry
from .server import InferenceServer, ServingStats

__all__ = ["BatchPolicy", "BatchRecord", "BatchedServingStats",
           "BatchingInferenceServer"]


@dataclass(frozen=True)
class BatchPolicy:
    """When a forming batch stops admitting and dispatches.

    A batch dispatches at the earliest of: the cap is reached, or the
    fill timeout (anchored at the batch's *oldest* request) expires.
    Requests already queued when the pipeline frees are admitted
    immediately up to the cap.
    """

    #: hard cap on batch size
    max_batch: int = 8
    #: how long an under-full batch may wait for companions, measured
    #: from its oldest member's arrival (0 = never wait)
    max_wait_s: float = 0.0
    #: pipeline the next batch's decision under the current execution
    overlap: bool = True

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be positive, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ValueError(
                f"max_wait_s must be non-negative, got {self.max_wait_s}")


@dataclass(frozen=True)
class BatchRecord:
    """Timeline of one dispatched batch (simulated seconds)."""

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
    """Poisson arrivals -> batch accumulation -> amortized adaptation.

    Same arrival process, statistics, and telemetry as the FIFO
    :class:`InferenceServer` (same seed => same arrival times), plus the
    batch pipeline described in the module docstring.
    """

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
    def _close_batch(self, arrivals: np.ndarray, i: int, exec_free: float,
                     early: bool) -> "tuple":
        """Pick the members of the batch led by request ``i``.

        Returns ``(j, close)``: members are ``arrivals[i:j]`` and the
        batch's membership is known at simulated time ``close``.

        ``early`` (overlap mode): a batch whose cap fills while the
        previous batch still executes closes the moment its last seat is
        taken — membership is identical to waiting for the executor, but
        the decision can start immediately and overlap the ongoing
        execution.
        """
        n = len(arrivals)
        a_first = float(arrivals[i])
        # Everything queued by the time the pipeline could take the
        # batch is admitted immediately, up to the cap.
        natural = max(a_first, exec_free)
        cap_idx = i + self.policy.max_batch - 1
        if early and cap_idx < n and float(arrivals[cap_idx]) <= natural:
            return i + self.policy.max_batch, float(arrivals[cap_idx])
        j = i + 1
        while j < n and j - i < self.policy.max_batch \
                and float(arrivals[j]) <= natural:
            j += 1
        close = natural
        if j - i < self.policy.max_batch and self.policy.max_wait_s > 0:
            # Under-full: hold the batch open until the fill timeout
            # (anchored at the oldest member) or the cap, whichever
            # fires first.  The timer runs to its deadline — a real
            # server cannot know no further request is coming.
            deadline = a_first + self.policy.max_wait_s
            if deadline > natural:
                while j < n and j - i < self.policy.max_batch \
                        and float(arrivals[j]) <= deadline:
                    j += 1
                if j - i == self.policy.max_batch:
                    close = max(natural, float(arrivals[j - 1]))
                else:
                    close = deadline
        return j, close

    # -- serving loop ------------------------------------------------------
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
        self._check_run_args(num_requests, tenants)
        stats = BatchedServingStats()
        self._last_trace_idx = None
        arrivals = self._arrivals(num_requests)
        exec_free = 0.0    # when the executor (cluster + model) frees
        dec_free = 0.0     # when the gateway's decision engine frees
        tracer = self.telemetry.tracer
        i = 0
        k = 0
        while i < len(arrivals):
            degraded = False
            # world events due by the batch leader's arrival fire first
            # (at their own scheduled times)
            self.events.advance_to(float(arrivals[i]))
            self.control.server_tick(float(arrivals[i]), stats, arrivals, i,
                                     exec_free)
            # Shed hopeless leading requests before they anchor a
            # batch; the surviving leader's verdict decides whether
            # the whole batch degrades (all members share its
            # strategy anyway).
            while i < len(arrivals):
                a = float(arrivals[i])
                verdict = self.control.admit(
                    a, max(a, exec_free), self.system.slo,
                    tenant=self._tenant_of(tenants, i))
                if verdict != "shed":
                    degraded = verdict == "degrade"
                    break
                self._shed(stats, a, tenant=self._tenant_of(tenants, i))
                i += 1
            if i >= len(arrivals):
                break
            # Policy is re-read each batch: a BatchPolicyController may
            # have replaced it at the tick above.  A size-1 batch has
            # nothing to amortize and no second in-flight batch to hide
            # a decision under: serial, FIFO-identical.
            pol = self.policy
            overlap = pol.overlap and pol.max_batch > 1
            j, close = self._close_batch(arrivals, i, exec_free,
                                         early=overlap)
            size = j - i
            # Overlapped: decide as soon as membership is known and the
            # engine is free.  Serial: the whole pipeline is the unit —
            # close already includes exec_free.
            d_start = max(close, dec_free) if overlap else close
            self._apply_trace(condition_trace, trace_period_s, d_start)
            # events up to the decision instant fire before the batch's
            # decision observes the world; d_start can lag the loop
            # after a long batch — the advance clamps
            self.events.advance_to(d_start)
            with tracer.span("batch", sim_time=d_start, index=k,
                             size=size) as bs:
                res = self.system.infer_batch(
                    batch_size=size, now=d_start,
                    request_ids=list(range(i, j)),
                    exec_not_before=(exec_free if overlap else None),
                    degraded=degraded,
                    tenants=None if tenants is None else tenants[i:j])
                bs.set_sim_end(res.finish_s)
                bs.annotate(cache_hit=res.cache_hit)
            # What a serial pipeline would have charged: decision at
            # max(close, exec_free), execution right after.
            serial_exec_start = (max(close, exec_free)
                                 + res.decision_time_s + res.switch_time_s)
            saved = max(0.0, serial_exec_start - res.exec_start_s)
            dec_free = d_start + res.decision_time_s
            exec_free = res.finish_s
            batch = BatchRecord(
                index=k, size=size, close_s=close, decision_start_s=d_start,
                decision_s=res.decision_time_s, switch_s=res.switch_time_s,
                exec_start_s=res.exec_start_s, finish_s=res.finish_s,
                cache_hit=res.cache_hit, overlap_saved_s=saved)
            stats.batches.append(batch)
            self.recorder.on_batch(batch)
            for m, record in enumerate(res.items):
                arrival = float(arrivals[i + m])
                tenant = self._tenant_of(tenants, i + m)
                with tracer.span("request", sim_time=arrival,
                                 request=i + m) as root:
                    with tracer.span("queue", sim_time=arrival) as qs:
                        qs.set_sim_end(d_start)
                    root.set_sim_end(res.item_finish_s[m])
                    root.annotate(satisfied=record.satisfied,
                                  cache_hit=record.cache_hit, batch=k)
                    if tenant is not None:
                        root.annotate(tenant=tenant)
                    if record.outcome != "ok":
                        root.annotate(outcome=record.outcome)
                self._emit_served(stats, record, arrival, d_start,
                                  res.item_finish_s[m], tenant, batch=k)
            self._m_batch_size.observe(float(size))
            if size > 1:
                self._m_amortized.inc(size - 1)
            if saved > 0:
                self._m_overlap_saved.inc(saved)
            i = j
            k += 1
        return stats
