"""The Murmuration system facade (paper Fig. 10).

Wires together every Stage-3 module: network monitoring, the monitoring
predictor, the model-selection/partition decision engine, the strategy
cache, model reconfiguration, and the distributed executor.  One
:class:`Murmuration` instance is "the local device's runtime"; remote
devices are simulated through the cluster model.

One request path (observe, decide or hit the strategy cache,
reconfigure, execute) serves every caller: :meth:`Murmuration.infer` is
:meth:`Murmuration.infer_batch` at ``n = 1``.  Two operating modes:

* **plan-only** (no executable supernet): each item is priced with the
  latency simulator — this is the mode the paper-scale benchmarks use;
* **executable** (a :class:`~repro.nas.supernet.Supernet` attached):
  each item really runs the partitioned submodel on its input through
  the distributed executor.

Fault handling (``faults=``): the injector perturbs the true world
each request.  Each item is an attempt on the
:class:`~repro.faults.resilience.FailoverLadder` — the executor's tensor
pass, or in plan-only mode a reachability scan standing in for it —
which discovers crashed peers through timed-out sends (never by reading
the schedule), pays the retry schedule, fails over to surviving devices
and degrades to the smallest submodel on the gateway when nothing else
survives.  Delivery outcomes feed a
:class:`~repro.faults.health.DeviceHealth` circuit breaker; the
*decision layer* consults only that breaker — cached strategies through
open circuits are invalidated, fresh decisions are rerouted
proactively, and a half-open probe re-admits recovered devices.

Every optional part is always present: the constructor normalises
``telemetry=``, ``recorder=``, ``control=`` and ``faults=`` to their
null forms, ``resilience`` to ``ResilienceConfig()`` and — unless the
injector can fail — the breakers to
:data:`~repro.faults.health.NULL_HEALTH`, so the request path calls
them unconditionally (DESIGN.md, "Optional subsystems").  A world that
cannot fail prices a plan-only batch once instead of per item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..devices.profiles import DeviceProfile
from ..faults.health import NULL_HEALTH, DeviceHealth
from ..faults.injector import FaultInjector
from ..faults.resilience import (DeviceUnreachableError, ExecutionFailedError,
                                 FailoverLadder, NoRouteError,
                                 NoStrategyError, ResilienceConfig)
from ..nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from ..nas.arch import min_arch
from ..nas.search_space import SearchSpace
from ..netsim.monitor import NetworkMonitor
from ..netsim.mesh import star_topology
from ..netsim.topology import NetworkCondition
from ..runtime.clock import SimulatedClock
from ..runtime.executor import DistributedExecutor, ExecutionResult
from ..runtime.rpc import Reroutes
from ..runtime.predictor import MonitoringPredictor
from ..runtime.reconfig import ModelReconfig
from ..control.loop import ControlLoop
from ..telemetry import Telemetry
from ..telemetry.recorder import RunRecorder
from .cost_model import PlanCostModel
from .decision import DecisionRecord, RLDecisionEngine, SearchDecisionEngine
from .slo import SLO
from .strategy import Strategy
from .strategy_cache import StrategyCache

if TYPE_CHECKING:
    from ..nas.supernet import Supernet

__all__ = ["BatchInferenceResult", "InferenceRecord", "Murmuration"]


@dataclass(frozen=True)
class InferenceRecord:
    """Outcome of one served request (frozen: the items of a price-once
    batch share one)."""

    latency_s: float
    accuracy: float
    satisfied: bool
    strategy: Strategy
    cache_hit: bool
    decision_time_s: float
    switch_time_s: float
    logits: Optional[np.ndarray] = None
    #: "ok" | "retried" | "degraded" | "failed"
    outcome: str = "ok"
    retries: int = 0
    failovers: int = 0

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@dataclass
class BatchInferenceResult:
    """Outcome of one served batch (one amortized decision + switch).

    Item records carry their *amortized* share of the decision/switch
    cost (total / batch size), so summing per-item accounting over a
    serving run conserves the real simulated time spent.  The absolute
    batch-level times live here.
    """

    items: List[InferenceRecord]
    #: full (un-amortized) decision-engine latency for the batch
    decision_time_s: float
    #: full (un-amortized) model switch time for the batch
    switch_time_s: float
    #: simulated time the decision started (the ``now`` of the call)
    decision_start_s: float
    #: simulated time the first item began executing
    exec_start_s: float
    #: absolute completion time of each item, in batch order
    item_finish_s: List[float]
    #: completion time of the last item (== the final ``clock.now``)
    finish_s: float
    cache_hit: bool


class Murmuration:
    """SLO-aware distributed inference runtime."""

    def __init__(self, space: SearchSpace, devices: Sequence[DeviceProfile],
                 condition: Optional[NetworkCondition], decision_engine,
                 slo: Optional[SLO] = None,
                 supernet: Optional[Supernet] = None,
                 cache: Optional[StrategyCache] = None,
                 use_predictor: bool = True,
                 monitor_noise: float = 0.03, seed: int = 0,
                 telemetry: Optional[Telemetry] = None,
                 faults: Optional[FaultInjector] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 recorder=None, control=None, cluster=None, clock=None):
        self.space = space
        # a caller-built topology (a mesh) is served as-is; else the
        # paper's star over ``devices`` at ``condition``
        self.cluster = (cluster if cluster is not None
                        else star_topology(devices, condition))
        self.engine = decision_engine
        self.slo = slo
        self.cache = cache if cache is not None else StrategyCache()
        self.telemetry = Telemetry.of(telemetry)
        #: the RunRecorder capturing decisions for record/replay
        self.recorder = RunRecorder.of(recorder)
        self.monitor = NetworkMonitor(self.cluster, noise=monitor_noise,
                                      seed=seed, telemetry=telemetry)
        self.predictor = (MonitoringPredictor(self.cluster.num_devices - 1)
                          if use_predictor else None)
        self.supernet = supernet
        self.faults = FaultInjector.of(faults)
        self.resilience = (resilience if resilience is not None
                           else ResilienceConfig())
        # in a world that cannot fail every circuit stays closed: the
        # null form says so and records nothing
        self.health = (DeviceHealth(self.cluster.num_devices,
                                    telemetry=telemetry)
                       if self.faults.can_fail else NULL_HEALTH)
        self.reconfig = (ModelReconfig(supernet, self.cluster.local)
                         if supernet is not None else None)
        self.executor = (DistributedExecutor(supernet, self.cluster,
                                             telemetry=telemetry,
                                             faults=self.faults,
                                             health=self.health,
                                             resilience=self.resilience)
                         if supernet is not None else None)
        self.records: List[InferenceRecord] = []
        #: requests served over a backup mesh path (plan-only mode;
        #: executable mode counts per delivery in the transport)
        self.path_reroutes = 0
        #: the facade's simulated clock — pass an explicit
        #: :class:`SimulatedClock` to share time with an
        #: :class:`~repro.sim.events.EventLoop` (one clock, one world)
        self.clock = clock if clock is not None else SimulatedClock()
        self._min_strategy: Optional[Strategy] = None
        # frozen records reused while nothing in them changes: the last
        # cache hit's decision, and the last price-once dispatch's item
        # record with the fields it was built from
        self._hit = DecisionRecord(None, 0.0, "cache")
        self._shared_fields: tuple = ()
        self._shared: Optional[InferenceRecord] = None
        # The facade's own cost model: engine wrappers (pinned-time,
        # pinned-cost) hide the inner engine's, and served, rerouted and
        # failover strategies are priced per request, not per decision.
        # It keeps a program per strategy the cache can hold.
        self._costs = PlanCostModel(space, self.cluster.devices,
                                    served=self.cache.capacity)
        self._ladder = FailoverLadder(self.resilience, self.health,
                                      self.cluster, space,
                                      self._costs.single_device)
        #: the ControlLoop retuning the runtime from telemetry
        self.control = ControlLoop.of(control).attach(system=self)
        reg = self.telemetry.registry.child("core")
        self._m_decision_s = reg.histogram(
            "decision_s", help="decision-engine latency")
        self._m_switch_s = reg.histogram(
            "switch_s", help="model reconfiguration time")
        self._m_inference_s = reg.histogram(
            "inference_s", help="per-request inference latency")
        self._m_cache_hits = reg.gauge(
            "cache_hits", help="strategy-cache hits")
        self._m_cache_misses = reg.gauge(
            "cache_misses", help="strategy-cache misses")
        self._m_cache_entries = reg.gauge(
            "cache_entries", help="strategy-cache occupancy")
        self._m_cache_hit_rate = reg.gauge(
            "cache_hit_rate", help="strategy-cache hit rate")
        self._m_cache_evictions = reg.gauge(
            "cache_evictions", help="strategy-cache LRU evictions")
        self._m_retries = reg.counter(
            "retries_total", help="message retries charged to requests")
        self._m_failovers = reg.counter(
            "failovers_total", help="requests re-planned onto survivors")
        self._m_degraded = reg.counter(
            "degraded_requests_total",
            help="requests completed via gateway degradation")
        self._m_failed = reg.counter(
            "failed_requests_total",
            help="requests that could not be completed")
        self._m_reroutes = reg.counter(
            "reroutes_total",
            help="decisions rerouted around open circuits")
        self._m_cache_invalidated = reg.counter(
            "cache_invalidations_total",
            help="cached strategies dropped for routing through "
                 "open-circuit devices")
        self._count_decision = reg.counters(
            "decisions_total", "decisions by engine", "engine")
        self._reroutes = Reroutes(self.cluster, self.telemetry)
        #: a star at the *observed* condition, re-conditioned per reroute
        self._observed = star_topology(self.cluster.devices,
                                       self.cluster.condition)
        # snapshot gauges refresh at export time, not per request
        reg.add_collect_hook(self._sync_cache_metrics)

    # -- control plane -----------------------------------------------------
    def set_slo(self, slo: SLO) -> None:
        """The SLO API: a single scalar latency or accuracy objective."""
        self.slo = slo

    def update_condition(self, condition: NetworkCondition) -> None:
        """Apply a change in true network conditions (trace replay) to
        the star's spokes; the injector's overlay stays on top of them.
        Re-applying the condition the star holds is a no-op: its
        ``version`` and memoised prices stay."""
        self.cluster.set_condition(condition)

    def observed_condition(self, now: Optional[float] = None) -> NetworkCondition:
        """Monitor probe round -> smoothed estimate (+ optional forecast)."""
        now = self.clock.now if now is None else now
        measurements = self.monitor.probe_all(now)
        estimate = self.monitor.estimate()
        if self.predictor is not None:
            self.predictor.observe_all(measurements)
            predicted = self.predictor.predict(now + 1.0, fallback=estimate)
            if predicted is not None:
                return predicted
        return estimate

    # -- decision helpers --------------------------------------------------
    def _accuracy(self, arch, plan) -> float:
        """Modelled accuracy of running ``arch`` under ``plan``."""
        return arch_accuracy(arch, self.space) - plan_accuracy_penalty(plan)

    def _reroute(self, strategy: Strategy,
                 condition: NetworkCondition) -> Strategy:
        """Re-place a strategy on breaker-approved devices only.

        Uses decision-layer knowledge exclusively: the health state and
        the *observed* condition, priced on the facade's observed star.
        """
        # the ladder's target, with open link circuits excluded too;
        # the gateway competes
        target = self._ladder.target(self.clock.now, links=True)
        device = self.cluster.device
        if target is None or (device(0).effective_flops
                              > device(target).effective_flops):
            target = 0
        plan = self._costs.single_device(strategy.arch, target)
        self._observed.set_condition(condition)
        expected_s = self._costs.latency(strategy.arch, plan, self._observed)
        return Strategy(strategy.arch, plan, expected_s,
                        self._accuracy(strategy.arch, plan))

    def decide(self, condition: Optional[NetworkCondition] = None,
               ) -> DecisionRecord:
        """Run (or cache-hit) the decision for the current SLO."""
        if self.slo is None:
            raise RuntimeError("no SLO set; call set_slo() first")
        condition = condition or self.observed_condition()
        # No cached strategy routes through an open circuit: nothing
        # blocked is put, and _drain_health drops what a circuit's
        # opening condemns.
        cached = self.cache.get(self.slo, condition)
        if cached is not None:
            if self._hit.strategy is not cached:
                self._hit = DecisionRecord(cached, 0.0, "cache")
            return self._note_decision(self._hit)
        record = self.engine.decide(self.slo, condition)
        if record.strategy is None:
            return self._note_decision(record)
        if not self.health.blocked(record.strategy.plan, self.clock.now):
            self.cache.put(self.slo, condition, record.strategy)
        elif self.resilience.failover:
            # Proactive reroute: avoid re-paying timeouts on devices the
            # breaker already condemned.  Not cached — the original
            # strategy becomes valid again once the circuit closes.
            record = DecisionRecord(
                self._reroute(record.strategy, condition),
                record.decision_time_s, "reroute")
            self._m_reroutes.inc()
        return self._note_decision(record)

    def _note_decision(self, record: DecisionRecord) -> DecisionRecord:
        """Count, time and record one decision, whatever produced it."""
        self._count_decision(record.engine)
        self._m_decision_s.observe(record.decision_time_s)
        self.recorder.on_decision(self.clock.now, record.engine,
                                  record.decision_time_s,
                                  record.engine == "cache")
        return record

    def min_strategy(self) -> Strategy:
        """The cheapest strategy: min submodel, fastest single device.

        Memoized — the admission controller's degraded path must not pay
        graph construction and placement search per request.  The quoted
        expected latency is priced under the cluster's condition at
        first use (not re-priced as the network moves); it is the
        runtime's own (observable) estimate of what a degraded answer
        costs, which is exactly the signal admission control needs.
        """
        if self._min_strategy is None:
            arch = min_arch(self.space)
            best_plan, best_s = None, None
            for d in range(self.cluster.num_devices):
                plan = self._costs.single_device(arch, d)
                try:
                    total = self._costs.latency(arch, plan, self.cluster)
                except NoRouteError:    # cut off right now
                    continue
                if best_s is None or total < best_s:
                    best_plan, best_s = plan, total
            self._min_strategy = Strategy(arch, best_plan, best_s,
                                          self._accuracy(arch, best_plan))
        return self._min_strategy

    def _sync_cache_metrics(self) -> None:
        cache = self.cache
        self._m_cache_hits.value = float(cache.hits)
        self._m_cache_misses.value = float(cache.misses)
        self._m_cache_entries.value = float(len(cache))
        self._m_cache_hit_rate.value = cache.hit_rate
        self._m_cache_evictions.value = float(cache.evictions)

    def precompute(self, conditions: Sequence[NetworkCondition]) -> int:
        """Warm the cache for forecast conditions (Sec. 5.1 fast path).

        Returns the number of strategies computed.
        """
        if self.slo is None:
            raise RuntimeError("no SLO set; call set_slo() first")
        computed = 0
        for cond in conditions:
            # peek(): warm-up probes are not serving lookups and must
            # not poison the miss count behind core_cache_hit_rate.
            if self.cache.peek(self.slo, cond) is None:
                rec = self.engine.decide(self.slo, cond)
                if rec.strategy is not None and not self.health.blocked(
                        rec.strategy.plan, self.clock.now):
                    self.cache.put(self.slo, cond, rec.strategy)
                    computed += 1
        return computed

    # -- data plane ------------------------------------------------------------
    def infer(self, x: Optional[np.ndarray] = None,
              now: Optional[float] = None,
              request_id: Optional[int] = None,
              degraded: bool = False,
              tenant: Optional[str] = None) -> InferenceRecord:
        """Serve one inference request under the current SLO.

        A batch of one: everything from the decision to the clock
        advance is :meth:`infer_batch`'s path, so the record and the
        clock are bit-identical to ``infer_batch(batch_size=1)``.

        ``degraded=True`` (set by the admission controller) skips the
        decision engine and serves the memoized min-submodel strategy at
        zero decision cost; the record's outcome becomes ``"degraded"``.

        ``tenant`` tags the request's spans and (in executable mode)
        every transfer it causes, so per-tenant wire accounting and
        contention attribution work end to end.  None changes nothing.

        ``now`` must be monotone (a small float-noise tolerance aside):
        a value that would rewind the shared clock raises ValueError.
        A caller that genuinely needs non-monotone serving time — e.g.
        replaying a shuffled trace — should call
        ``self.clock.reset(t)`` before each request to opt out of the
        guard explicitly.
        """
        if now is not None:
            # A caller that accumulates service segments in another
            # association order than ((start + d) + s) + l can land a
            # few ulps below the clock.  Tolerate float noise, reject
            # genuine rewinds.
            clock_now = self.clock.now
            if now < clock_now - 1e-9 * max(1.0, clock_now):
                raise ValueError(
                    f"infer(now={now}) would rewind the simulated clock "
                    f"from {clock_now}; serving time is monotone "
                    f"(the batched overlap path is the one legitimate "
                    f"rewind and goes through infer_batch)")
        return self._serve(
            xs=None if x is None else [x], n=1, now=now,
            request_ids=None if request_id is None else [request_id],
            tenants=None if tenant is None else [tenant],
            exec_not_before=None, degraded=degraded,
            note={} if request_id is None else {"request": request_id},
        ).items[0]

    def infer_batch(self, xs: Optional[Sequence[Optional[np.ndarray]]] = None,
                    batch_size: Optional[int] = None,
                    now: Optional[float] = None,
                    request_ids: Optional[Sequence[int]] = None,
                    exec_not_before: Optional[float] = None,
                    degraded: bool = False,
                    tenants: Optional[Sequence[Optional[str]]] = None,
                    ) -> BatchInferenceResult:
        """Serve a batch of requests with one amortized decision.

        ``degraded=True`` (set by the admission controller) serves the
        whole batch on the memoized min-submodel strategy at zero
        decision cost; every item's outcome becomes ``"degraded"``.

        ``tenants`` tags item ``i`` with ``tenants[i]`` exactly as
        :meth:`infer`'s ``tenant`` does; a batch may mix tenants.

        All items share a single decision (one probe round, one cache
        lookup or engine run) and a single model switch — sound because
        every item sees the same SLO and the same observed condition,
        i.e. the whole batch snaps to one :class:`StrategyCache` cell.
        Items then execute back to back; under fault injection each item
        reports its own outcome/retries, and a mid-batch failover
        carries forward so the batch re-plans as a unit.

        Clock model: the decision starts at ``now`` (default: the
        current ``clock.now``); the switch begins once the decision is
        done *and* the executor is free (``exec_not_before``, which lets
        a pipelined server overlap this batch's decision with the
        previous batch's execution); ``clock.now`` ends at the last
        item's completion.
        ``now`` may rewind the clock here: batch k+1's decision starts
        while batch k still executes — pipeline time, not a causality
        violation, because decision starts are monotone across batches.
        :meth:`infer` is this method at ``batch_size=1`` (plus a rewind
        guard on ``now``), by construction.
        """
        if xs is not None:
            n = len(xs)
            if batch_size is not None and batch_size != n:
                raise ValueError(
                    f"batch_size={batch_size} disagrees with len(xs)={n}")
        else:
            n = 1 if batch_size is None else int(batch_size)
        if n < 1:
            raise ValueError(f"batch size must be positive, got {n}")
        if request_ids is not None and len(request_ids) != n:
            raise ValueError("request_ids must match the batch size")
        if tenants is not None and len(tenants) != n:
            raise ValueError("tenants must match the batch size")
        return self._serve(xs=xs, n=n, now=now, request_ids=request_ids,
                           tenants=tenants, exec_not_before=exec_not_before,
                           degraded=degraded, note={"batch": n})

    def _serve(self, xs, n: int, now: Optional[float], request_ids, tenants,
               exec_not_before: Optional[float], degraded: bool,
               note: dict) -> BatchInferenceResult:
        """The one request path: decide, switch, execute ``n`` items.

        ``note`` is the caller's annotation for the decision span
        (``request=i`` from :meth:`infer`, ``batch=n`` from
        :meth:`infer_batch`).
        """
        if now is not None:
            # reset, not advance_to: the overlap path rewinds, and
            # infer's tolerance window admits a few-ulp rewind
            self.clock.reset(now)
        start = self.clock.now
        self.faults.advance(start)
        self.faults.apply_to(self.cluster)
        tracer = self.telemetry.tracer
        with tracer.span("decision", sim_time=start) as sp:
            decision = (self._note_decision(DecisionRecord(
                self.min_strategy(), 0.0, "admission")) if degraded
                else self.decide())
            sp.add_sim(decision.decision_time_s)
            sp.annotate(engine=decision.engine, **note)
        if decision.strategy is None:
            raise NoStrategyError(
                "no strategy satisfies the SLO under current conditions")
        strategy = decision.strategy
        decision_end = start + decision.decision_time_s
        model_free = (decision_end if exec_not_before is None
                      else max(decision_end, exec_not_before))
        switch_time = 0.0
        if self.reconfig is not None and (
                self.reconfig.active_arch is None
                or self.reconfig.active_arch != strategy.arch):
            with tracer.span("switch", sim_time=model_free) as sp:
                switch_time = self.reconfig.switch(
                    strategy.arch).modeled_time_s
                sp.add_sim(switch_time)
            self._m_switch_s.observe(switch_time)
        exec_start = model_free + switch_time
        cache_hit = decision.engine == "cache"
        amortized_decision = decision.decision_time_s / n
        amortized_switch = switch_time / n

        items: List[InferenceRecord] = []
        finishes: List[float] = []
        sim_t = exec_start
        served = strategy  # what the batch executes; a failover carries
        if not self.faults.can_fail and (xs is None or self.executor is None):
            # Plan-only in a world that cannot fail: nothing moves the
            # cluster between items, so one price and one record serve all
            # n, and each observer takes the dispatch in one call.
            latency = self._costs.latency(strategy.arch, strategy.plan,
                                          self.cluster)
            accuracy = strategy.expected_accuracy
            satisfied = (self.slo.satisfied_by(latency, accuracy)
                         if self.slo else True)
            outcome = "degraded" if degraded else "ok"
            fields = (latency, accuracy, satisfied, strategy, cache_hit,
                      amortized_decision, amortized_switch, None, outcome)
            if fields != self._shared_fields:
                self._shared_fields = fields
                self._shared = InferenceRecord(*fields)
            items = [self._shared] * n
            self.records += items
            for _ in items:
                sim_t = sim_t + latency
                finishes.append(sim_t)
            tracer.spans("execute", exec_start, finishes, request=request_ids,
                         tenant=tenants,
                         outcome=[outcome] * n if degraded else None)
            self._m_inference_s.observe_many([latency] * n)
            if degraded:
                self._m_degraded.inc(n)
        # the items the block above did not serve: executable or faulty
        for idx in range(len(items), n):
            x = xs[idx] if xs is not None else None
            rid = request_ids[idx] if request_ids is not None else None
            tenant = tenants[idx] if tenants is not None else None
            executable = self.executor is not None and x is not None
            logits = None
            with tracer.span("execute", sim_time=sim_t) as sp:
                if rid is not None:
                    sp.annotate(request=rid)
                if tenant is not None:
                    sp.annotate(tenant=tenant)
                try:
                    if executable:
                        self.executor.transport.tenant = tenant
                        ran = self.executor.execute(
                            x, served.arch, served.plan, sim_time=sim_t,
                            request_id=rid)
                        logits = ran.logits
                    else:
                        ran = self._ladder.climb(self._priced, served.arch,
                                                 served.plan, self.clock.now)
                except ExecutionFailedError as e:
                    latency, accuracy, outcome = e.wasted_s, 0.0, "failed"
                    retries, failovers = e.retries, 0
                else:
                    latency, outcome = ran.latency_s, ran.outcome
                    retries, failovers = ran.retries, ran.failovers
                    if failovers:
                        # the batch fails over as a unit: later items
                        # execute the replanned (arch, plan) directly
                        served = Strategy(
                            ran.executed_arch, ran.executed_plan,
                            served.expected_latency_s, self._accuracy(
                                ran.executed_arch, ran.executed_plan))
                    accuracy = served.expected_accuracy
                    # the ladder replaces the arch only to degrade: a
                    # batch-mate of a degraded item serves degraded too
                    smaller = served.arch is not strategy.arch
                    if outcome == "ok" and (degraded or smaller):
                        outcome = "degraded"
                sp.add_sim(latency)
                if outcome != "ok":
                    sp.annotate(outcome=outcome)
            satisfied = (outcome != "failed"
                         and (self.slo.satisfied_by(latency, accuracy)
                              if self.slo else True))
            # positional: a frozen record pays per field, keywords on top
            record = InferenceRecord(
                latency, accuracy, satisfied, strategy, cache_hit,
                amortized_decision, amortized_switch, logits, outcome,
                retries, failovers)
            self.records.append(record)
            items.append(record)
            sim_t = sim_t + latency
            finishes.append(sim_t)
            self._m_inference_s.observe(latency)
            if retries:
                self._m_retries.inc(retries)
            if failovers:
                self._m_failovers.inc(failovers)
            if outcome == "degraded":
                self._m_degraded.inc()
            elif outcome == "failed":
                self._m_failed.inc()
        # Full service time, not execution alone: the clock lands on the
        # last finish — ((start + d) + s) + l at n = 1, a serving loop's
        # ``finish`` — so callers that never pass ``now=`` stay in step
        # with fault schedules and health cooldowns.
        self.clock.advance_to(sim_t)
        if self.faults.can_fail:   # else NULL_HEALTH: nothing opens
            self._drain_health()
        return BatchInferenceResult(
            items=items, decision_time_s=decision.decision_time_s,
            switch_time_s=switch_time, decision_start_s=start,
            exec_start_s=exec_start, item_finish_s=finishes,
            finish_s=sim_t, cache_hit=cache_hit)

    def _drain_health(self) -> None:
        """Invalidate cached strategies behind newly opened circuits.

        Device circuits condemn every plan using the device; link
        circuits (mesh) condemn plans using a non-gateway end of the
        pair (every pair has one) — the placement may be fine once the
        path recovers, so the strategy is dropped, not banned.
        """
        for dev in self.health.drain_opened():
            n = self.cache.invalidate(
                lambda s, d=dev: d in s.plan.devices_used())
            self._m_cache_invalidated.inc(n)
        for a, b in self.health.drain_opened_links():
            ends = frozenset(d for d in (a, b) if d != 0)
            n = self.cache.invalidate(
                lambda s, e=ends: bool(e.intersection(
                    s.plan.devices_used())))
            self._m_cache_invalidated.inc(n)

    # -- the plan-only attempt ---------------------------------------------
    def _priced(self, arch, plan, penalty: float) -> ExecutionResult:
        """Plan-only mode's attempt on the failover ladder.

        Reachability checks stand in for the sends the executor would
        have attempted: a dead remote costs the full retry schedule,
        exactly like a timed-out transport send; with every remote
        reachable, every send is delivered on its first attempt and the
        attempt costs its price.  Breakers are stamped at the dispatch
        start; ``penalty`` is not read.  A transfer between two
        reachable remotes whose path is dead raises
        :class:`NoRouteError` from the price, which the ladder converts
        like the executor's.
        """
        faults, health, now = self.faults, self.health, self.clock.now
        remotes = [d for d in plan.devices_used() if d != 0]
        dead = next((d for d in remotes if not faults.reachable(0, d)), None)
        if dead is not None:
            health.record_failure(dead, now)
            health.record_link_failure(0, dead, now)
            raise DeviceUnreachableError(dead)
        latency = self._costs.latency(arch, plan, self.cluster)
        for d in remotes:
            health.record_success(d, now)
            health.record_link_success(0, d, now)
            self.path_reroutes += self._reroutes.note(0, d)
        return ExecutionResult(latency)

    # -- stats --------------------------------------------------------------------
    def compliance_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.satisfied for r in self.records) / len(self.records)
