"""A serving loop on top of the Murmuration facade (extension).

The paper's runtime decides per request; this module adds the missing
piece a deployment needs around that: a request arrival process, a FIFO
queue on the local device, and end-to-end statistics (queueing + decision
+ switch + inference), all on simulated time.  An adaptation policy that
picks slightly faster submodels can dominate a higher-accuracy one once
queueing delay is counted.

There is one admission-and-dispatch loop, :meth:`InferenceServer._serve`;
:class:`InferenceServer` and :class:`~repro.runtime.batching
.BatchingInferenceServer` differ only in who rides a dispatch
(``_members``) and what a dispatch emits (``_dispatch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Annotated, List, NamedTuple, Optional,
                    Sequence)

import numpy as np

from .. import IntAtLeast, Positive, check_fields
from ..control.loop import ControlLoop
from ..faults.resilience import NoStrategyError
from ..netsim.ingress import NULL_INGRESS
from ..netsim.topology import NetworkCondition
from ..netsim.traces import condition_at
from ..sim.events import EventLoop
from ..telemetry import Telemetry
from ..telemetry.recorder import RunRecorder

if TYPE_CHECKING:  # avoid core <-> runtime circular import at runtime
    from ..core.murmuration import InferenceRecord, Murmuration

__all__ = ["RequestRecord", "ServingStats", "InferenceServer"]


class RequestRecord(NamedTuple):
    """Timeline of one served request (simulated seconds).

    A request shed at admission gets ``start == finish == arrival`` and
    all-zero service components: it never occupied the pipeline.  A
    ``NamedTuple``, not a frozen dataclass: one is built per request,
    and a frozen dataclass pays an ``object.__setattr__`` per field.
    """

    arrival: float
    start: float
    finish: float
    inference_s: float
    decision_s: float
    switch_s: float
    satisfied: bool
    #: "ok" | "retried" | "degraded" | "failed" | "shed"
    outcome: str = "ok"
    retries: int = 0
    failovers: int = 0
    #: tenant the request belongs to (None = single-tenant serving)
    tenant: Optional[str] = None

    @property
    def queue_wait_s(self) -> float:
        return self.start - self.arrival

    @property
    def end_to_end_s(self) -> float:
        return self.finish - self.arrival


@dataclass
class ServingStats:
    records: List[RequestRecord] = field(default_factory=list)

    def _served(self) -> List[RequestRecord]:
        """Records that actually occupied the pipeline.

        Shed requests have all-zero timelines; folding them into
        latency/queue aggregates would make p50/p95 *improve* the more
        admission drops — a dashboard reading that rewards shedding.
        They still count against :meth:`e2e_compliance`.
        """
        return [r for r in self.records if r.outcome != "shed"]

    @property
    def throughput_rps(self) -> float:
        if not self.records:
            return 0.0
        # max over all finishes, not the last record's: a shed request
        # has finish == arrival, so a trailing shed would shrink the
        # span and inflate throughput.
        span = (max(r.finish for r in self.records)
                - self.records[0].arrival)
        return len(self.records) / span if span > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        served = self._served()
        if not served:
            return 0.0
        return float(np.percentile([r.end_to_end_s for r in served],
                                   q) * 1e3)

    @property
    def mean_service_s(self) -> float:
        """Mean decision + switch + inference seconds over the requests
        that produced a result (neither failed nor shed); 0.0 if none."""
        done = [r.decision_s + r.switch_s + r.inference_s
                for r in self.records if r.outcome not in ("failed", "shed")]
        return float(np.mean(done)) if done else 0.0

    @property
    def mean_queue_wait_ms(self) -> float:
        served = self._served()
        if not served:
            return 0.0
        return float(np.mean([r.queue_wait_s for r in served]) * 1e3)

    @property
    def slo_compliance(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.satisfied for r in self.records) / len(self.records)

    def outcome_counts(self) -> dict:
        """Requests by outcome ("ok"/"retried"/"degraded"/"failed").

        "shed" appears as a fifth key only when admission control
        actually shed requests — keeping it out of the base dict keeps
        control-free recordings (and their golden fixtures) unchanged.
        """
        counts = {"ok": 0, "retried": 0, "degraded": 0, "failed": 0}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    @property
    def shed_count(self) -> int:
        """Requests rejected at admission (never served)."""
        return sum(r.outcome == "shed" for r in self.records)

    @property
    def completion_rate(self) -> float:
        """Fraction of requests that produced a result (any outcome but
        "failed" or "shed")."""
        if not self.records:
            return 0.0
        return (sum(r.outcome not in ("failed", "shed")
                    for r in self.records) / len(self.records))

    def e2e_compliance(self, slo_s: float) -> float:
        """Fraction of *submitted* requests answered within ``slo_s``
        end to end (queueing included).

        This is the deployment-facing compliance number: a shed or
        failed request counts against it, and so does a completed
        request whose queue wait pushed it past the deadline — unlike
        :attr:`slo_compliance`, which scores the runtime's per-request
        promise on execution latency alone.
        """
        if not self.records:
            return 0.0
        ok = sum(r.outcome not in ("failed", "shed")
                 and r.end_to_end_s <= slo_s for r in self.records)
        return ok / len(self.records)

    def tenants(self) -> List[str]:
        """Tenant names present in the record stream, first-seen order."""
        seen: List[str] = []
        for r in self.records:
            if r.tenant is not None and r.tenant not in seen:
                seen.append(r.tenant)
        return seen

    def per_tenant(self) -> "dict":
        """Per-tenant filtered views (plain :class:`ServingStats`).

        Untagged records are excluded; a single-tenant run returns an
        empty dict.
        """
        return {t: ServingStats(records=[r for r in self.records
                                         if r.tenant == t])
                for t in self.tenants()}

    def worst_tenant_e2e_compliance(self, slo_s: float) -> float:
        """The *worst* tenant's e2e compliance — the fairness headline.

        A throughput-greedy admission policy can keep the aggregate
        number high while starving one tenant; the min over tenants is
        what a per-tenant SLO contract actually binds.  Falls back to
        the aggregate when no record is tenant-tagged.
        """
        views = self.per_tenant()
        if not views:
            return self.e2e_compliance(slo_s)
        return min(v.e2e_compliance(slo_s) for v in views.values())

    def summary(self) -> str:
        base = (f"{len(self.records)} requests, "
                f"{self.throughput_rps:.1f} rps, "
                f"p50={self.percentile_ms(50):.1f}ms "
                f"p95={self.percentile_ms(95):.1f}ms, "
                f"queue={self.mean_queue_wait_ms:.1f}ms, "
                f"compliance={self.slo_compliance:.0%}")
        counts = self.outcome_counts()
        faulty = {k: v for k, v in counts.items() if k != "ok" and v}
        if faulty:
            detail = " ".join(f"{k}={v}" for k, v in sorted(faulty.items()))
            base += f", outcomes: {detail}"
        return base


class InferenceServer:
    """Poisson arrivals -> FIFO queue -> per-request adaptation."""

    arrival_rate_hz: Annotated[float, Positive]
    seed: Annotated[int, IntAtLeast(0)]

    def __init__(self, system: "Murmuration", arrival_rate_hz: float,
                 seed: int = 0, telemetry: Optional[Telemetry] = None,
                 recorder: Optional[RunRecorder] = None,
                 control=None, arrival_process=None, ingress=None,
                 events=None):
        """``telemetry``, ``recorder``, ``control`` and ``ingress``
        default to their null forms and ``events`` to an empty loop on
        the facade's clock, so the serving loop calls all five
        unconditionally (DESIGN.md, "Optional subsystems").  With a
        ``control`` loop the server drives its cadence with queue
        context and consults admission per request.

        ``arrival_process`` overrides Poisson arrivals: a callable
        ``(rng, num_requests) -> array of arrival times`` (seconds,
        finite and non-decreasing — checked before anything is served).

        ``ingress`` (a :class:`~repro.netsim.ingress.SharedIngress`)
        models the shared last-mile uplink request payloads cross
        before service can start; concurrent tenants fair-share it as
        its fluid ledger prices, and the upload time
        feeds ``ready`` and so the queue wait admission triages on.

        ``events`` (a :class:`~repro.sim.events.EventLoop`, ideally on
        the facade's :class:`~repro.runtime.clock.SimulatedClock`) is
        the loop the server advances time *through*: every scheduled
        world event due by an admission instant or a service start
        fires first, at its own scheduled time.
        """
        self.arrival_rate_hz = arrival_rate_hz
        self.seed = seed
        check_fields(self)
        self.system = system
        self.rng = np.random.default_rng(seed)
        self.telemetry = Telemetry.of(telemetry)
        self.recorder = RunRecorder.of(recorder)
        self.control = ControlLoop.of(control)
        self.arrival_process = arrival_process
        self.ingress = ingress if ingress is not None else NULL_INGRESS
        #: the EventLoop the serving loop advances through
        self.events = (events if events is not None
                       else EventLoop(system.clock))
        self._last_trace_idx: Optional[int] = None
        self.control.attach(system=system, server=self)
        reg = self.telemetry.registry.child("server")
        self._m_requests = reg.counter(
            "requests_total", help="requests served")
        self._m_satisfied = reg.counter(
            "slo_satisfied_total", help="requests meeting the SLO")
        self._m_violated = reg.counter(
            "slo_violated_total", help="requests missing the SLO")
        self._m_queue = reg.histogram(
            "queue_wait_s", help="simulated FIFO queue wait")
        self._m_e2e = reg.histogram(
            "e2e_s", help="simulated end-to-end latency")
        self._m_compliance = reg.gauge(
            "slo_compliance", help="running SLO compliance rate")
        self._count_outcome = reg.counters(
            "outcomes_total", "requests by outcome", "outcome")
        self._count_tenant_request = reg.counters(
            "tenant_requests_total", "requests per tenant", "tenant")
        self._count_tenant_satisfied = reg.counters(
            "tenant_satisfied_total", "SLO-satisfied requests per tenant",
            "tenant")
        self._count_tenant_shed = reg.counters(
            "tenant_shed_total", "admission-shed requests per tenant",
            "tenant")
        self._reg = reg
        self._observe_metrics = reg.observer(self._count_requests)
        # snapshot gauge: refreshed at export time, not per request
        reg.add_collect_hook(self._sync_compliance)

    def _sync_compliance(self) -> None:
        total = self._m_requests.value
        if total:
            self._m_compliance.value = self._m_satisfied.value / total

    def _apply_trace(self, condition_trace, trace_period_s: float,
                     start: float) -> None:
        """Switch the true world to the trace cell a dispatch *starts*
        in — not the one it arrived in: a queued request must see the
        network as it is when it runs.  This is the boundary-only model:
        the world changes when a request touches it.
        """
        if condition_trace:
            idx, condition = condition_at(condition_trace, start,
                                          trace_period_s)
            self.system.update_condition(condition)
            if idx != self._last_trace_idx:
                self._last_trace_idx = idx
                self.recorder.on_condition(start, idx, condition)

    def _observe(self, stats: ServingStats, records: List[RequestRecord],
                 batch: Optional[int] = None) -> None:
        """Append finished requests; each observer takes them in one call."""
        self.recorder.on_requests(len(stats.records), records, batch=batch)
        stats.records += records
        self._observe_metrics(records)

    def _count_requests(self, records: List[RequestRecord]) -> None:
        """The serving metrics' per-record loop (``registry.observer``)."""
        for rr in records:
            self._m_requests.inc()
            (self._m_satisfied if rr.satisfied else self._m_violated).inc()
            self._m_queue.observe(rr.queue_wait_s)
            self._m_e2e.observe(rr.end_to_end_s)
            self._count_outcome(rr.outcome)
            if rr.tenant is not None:
                self._count_tenant_request(rr.tenant)
                if rr.satisfied:
                    self._count_tenant_satisfied(rr.tenant)
                if rr.outcome == "shed":
                    self._count_tenant_shed(rr.tenant)

    def _arrivals(self, num_requests: int) -> np.ndarray:
        """Arrival times: Poisson by default, or the injected process
        (checked once, before anything is served)."""
        if self.arrival_process is None:
            return np.cumsum(self.rng.exponential(1.0 / self.arrival_rate_hz,
                                                  num_requests))
        arrivals = np.asarray(
            self.arrival_process(self.rng, num_requests), dtype=float)
        if arrivals.ndim != 1:
            raise ValueError(
                f"arrival_process returned an array of shape "
                f"{arrivals.shape}: it must return one time per request")
        if len(arrivals) != num_requests:
            raise ValueError(
                f"arrival_process returned {len(arrivals)} times "
                f"for num_requests={num_requests}")
        bad = ~np.isfinite(arrivals)
        bad[1:] |= arrivals[1:] < arrivals[:-1]
        if bad.any():
            idx = int(np.argmax(bad))
            raise ValueError(
                f"arrival_process returned {arrivals[idx]!r} at index "
                f"{idx}: arrival times must be finite and non-decreasing")
        return arrivals

    def _shed(self, stats: ServingStats, arrival: float,
              tenant: Optional[str]) -> None:
        """Account one admission-shed request: zero service, not
        satisfied, pipeline untouched."""
        self._observe(stats, [RequestRecord(
            arrival=arrival, start=arrival, finish=arrival,
            inference_s=0.0, decision_s=0.0, switch_s=0.0,
            satisfied=False, outcome="shed", tenant=tenant)])

    # -- the serving loop --------------------------------------------------
    def _serve(self, stats: ServingStats,
               num_requests: Annotated[int, IntAtLeast(1)],
               condition_trace, trace_period_s: float,
               tenants) -> ServingStats:
        """The one loop behind both servers' ``run``.  Per arrival:
        fire the world events due, price the upload, tick control, ask
        admission; a shed request ends there.  An admitted one leads a
        dispatch: :meth:`_members` says who rides with it, the world
        moves to the decision instant, :meth:`_dispatch` serves them
        (DESIGN.md, "Batched serving & the simulated clock")."""
        check_fields(InferenceServer._serve, locals())
        if tenants is None:
            tenants = [None] * num_requests
        elif len(tenants) != num_requests:
            raise ValueError(
                f"tenants covers {len(tenants)} requests but "
                f"num_requests is {num_requests}")
        self._last_trace_idx = None
        # floats once: the loop, membership and the queue depth index
        # and bisect a list, never a NumPy scalar per request
        arrivals = self._arrivals(num_requests).tolist()
        exec_free = 0.0    # when the executor (cluster + model) frees
        dec_free = 0.0     # when the gateway's decision engine frees
        advance_to = self.events.advance_to
        i = k = 0
        while i < num_requests:
            arrival, tenant = arrivals[i], tenants[i]
            # world events due by this admission instant fire first, so
            # the ingress and the admission peek see its true world
            advance_to(arrival)
            # the payload crosses the shared uplink before service
            ready = arrival + self.ingress.upload_time(arrival, tenant)
            self.control.server_tick(arrival, stats, arrivals, i, exec_free)
            verdict = self.control.admit(arrival, max(ready, exec_free),
                                         self.system.slo, tenant=tenant)
            if verdict == "shed":
                self._shed(stats, arrival, tenant)
                i += 1
                continue
            # only admitted requests occupy the uplink
            self.ingress.admit(arrival, tenant)
            j, close = self._members(arrivals, i, ready, exec_free)
            # decide once membership is known and the engine is free (a
            # dispatch that did not close early waited for the executor,
            # which never frees before the engine)
            d_start = max(close, dec_free)
            self._apply_trace(condition_trace, trace_period_s, d_start)
            # events up to the decision instant fire before it observes
            # the world (d_start may lag the loop: the advance clamps)
            advance_to(d_start)
            try:
                exec_free, dec_free = self._dispatch(
                    stats, k, i, j, arrivals, tenants, verdict == "degrade",
                    close, d_start, exec_free)
                k += 1
            except NoStrategyError:   # each request fails, zero service
                self._observe(stats, [RequestRecord(
                    a, d_start, d_start, 0.0, 0.0, 0.0, False, "failed",
                    tenant=t) for a, t in zip(arrivals[i:j], tenants[i:j])])
                dec_free = d_start
            i = j
        return stats

    def _members(self, arrivals: List[float], i: int, ready: float,
                 exec_free: float) -> tuple:
        """``(j, close)`` of the dispatch request ``i`` leads: it serves
        ``arrivals[i:j]`` and its membership is known at ``close``.
        FIFO: the leader alone, once its payload is in and the pipeline
        is free."""
        return i + 1, max(ready, exec_free)

    def _dispatch(self, stats: ServingStats, k: int, i: int, j: int,
                  arrivals: List[float], tenants, degraded: bool,
                  close: float, start: float, exec_free: float) -> tuple:
        """Serve ``arrivals[i:j]`` as dispatch ``k``, deciding at
        ``start``; returns the new ``(exec_free, dec_free)``.  FIFO: one
        ``request`` root span around the facade's single-request path."""
        arrival, tracer = arrivals[i], self.telemetry.tracer
        with tracer.span("request", sim_time=arrival, request=i) as root:
            with tracer.span("queue", sim_time=arrival) as qs:
                qs.set_sim_end(start)
            record: "InferenceRecord" = self.system.infer(
                now=start, request_id=i, degraded=degraded,
                tenant=tenants[i])
            # Summed left-to-right in pipeline order (decision, switch,
            # execute): the float the facade ends its own clock on.
            finish = (start + record.decision_time_s
                      + record.switch_time_s + record.latency_s)
            root.set_sim_end(finish)
            root.annotate(satisfied=record.satisfied,
                          cache_hit=record.cache_hit)
            if tenants[i] is not None:
                root.annotate(tenant=tenants[i])
            if record.outcome != "ok":
                root.annotate(outcome=record.outcome)
            self._observe(stats, [RequestRecord(
                arrival, start, finish, record.latency_s,
                record.decision_time_s, record.switch_time_s,
                record.satisfied, record.outcome, record.retries,
                record.failovers, tenants[i])])
        return finish, finish

    def run(self, num_requests: int,
            condition_trace: Optional[Sequence[NetworkCondition]] = None,
            trace_period_s: float = 1.0,
            tenants: Optional[Sequence[Optional[str]]] = None,
            ) -> ServingStats:
        """Serve ``num_requests``; returns the timeline statistics.

        ``condition_trace`` (optional) switches the true network state
        every ``trace_period_s`` of simulated time; ``tenants``
        (optional) tags request ``i`` with ``tenants[i]``, and the tag
        rides through admission, the facade, records, and telemetry.
        """
        return self._serve(ServingStats(), num_requests, condition_trace,
                           trace_period_s, tenants)
