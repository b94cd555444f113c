"""The four controllers: guards, feedback rules, and convergence."""

import math
from types import SimpleNamespace

import pytest

from repro.control import (AdmissionController, BatchPolicyController,
                           CacheGranularityController, ControlLoop,
                           ControlSnapshot, PrecomputeScheduler,
                           TenantFairnessController)
from repro.core import StrategyCache
from repro.netsim import NetworkCondition
from repro.runtime import BatchPolicy, RequestRecord, ServingStats


def _served(n=1, service_s=0.0, e2e_s=None):
    """``n`` served requests of ``service_s`` seconds of service each,
    ``e2e_s`` end to end (default: no queue wait)."""
    e2e_s = service_s if e2e_s is None else e2e_s
    return [RequestRecord(arrival=0.0, start=e2e_s - service_s,
                          finish=e2e_s, inference_s=service_s,
                          decision_s=0.0, switch_s=0.0, satisfied=True)] * n


def _snap(t=1.0, hits=0, misses=0, rel_err=0.0, window=(), queue=0,
          slo_s=0.3, condition=None):
    return ControlSnapshot(
        t=t, window_hits=hits, window_misses=misses,
        window=ServingStats(list(window)),
        queue_depth=queue, slo_s=slo_s, condition=condition,
        monitor_bw_rel_err=rel_err, monitor_delay_rel_err=rel_err)


class _FakeSystem:
    def __init__(self, min_latency_s=0.05):
        self.cache = StrategyCache()
        self.precomputed = []
        self._min_latency_s = min_latency_s

    def precompute(self, targets):
        self.precomputed.append(list(targets))
        return len(targets)

    def min_strategy(self):
        return SimpleNamespace(expected_latency_s=self._min_latency_s)


@pytest.mark.parametrize("ctor", [
    lambda: CacheGranularityController(hit_lo=0.9, hit_hi=0.5),
    lambda: CacheGranularityController(hit_lo=-0.1),
    lambda: CacheGranularityController(factor=1.0),
    lambda: CacheGranularityController(min_window=0),
    lambda: BatchPolicyController(min_batch=0),
    lambda: BatchPolicyController(min_batch=8, max_batch=4),
    # a float bound reached ``replace(policy, max_batch=...)`` mid-run
    lambda: BatchPolicyController(max_batch=8.0),
    lambda: BatchPolicyController(min_batch=1.5),
    lambda: BatchPolicyController(max_batch=float("inf")),
    lambda: BatchPolicyController(depth_per_slot=0.0),
    lambda: BatchPolicyController(headroom=1.0),
    lambda: AdmissionController(margin=0.0),
    lambda: AdmissionController(ewma_alpha=0.0),
    lambda: AdmissionController(ewma_alpha=1.1),
    lambda: PrecomputeScheduler(horizon_s=0.0),
    lambda: PrecomputeScheduler(max_cells=0),
])
def test_constructor_guards_raise_value_error(ctor):
    with pytest.raises(ValueError):
        ctor()


@pytest.mark.parametrize("controller, field, value", [
    # a NaN margin makes every budget NaN: after the first window every
    # request is shed; an infinite one means admission never acts
    (AdmissionController, "margin", math.nan),
    (AdmissionController, "margin", math.inf),
    (TenantFairnessController, "margin", math.nan),
    (TenantFairnessController, "pressure", math.nan),
    (TenantFairnessController, "tolerance", math.nan),
    (TenantFairnessController, "weights", {"a": math.nan}),
    (BatchPolicyController, "depth_per_slot", math.nan),
    (CacheGranularityController, "factor", math.nan),
    (PrecomputeScheduler, "horizon_s", math.nan),
])
def test_a_hostile_setting_is_a_value_error_naming_its_field(
        controller, field, value):
    with pytest.raises(ValueError, match=field):
        controller(**{field: value})


# hit-rate signals: 1/9 = 11% (overload), 9/1 = 90% (healthy)
_LOW = dict(hits=1, misses=9)
_HIGH = dict(hits=9, misses=1)


class TestCacheGranularity:
    def _loop(self):
        return ControlLoop([]).attach(system=_FakeSystem())

    def test_holds_without_enough_evidence(self):
        c = CacheGranularityController(min_window=8)
        assert c.update(_snap(hits=2, misses=2), self._loop()) is None

    def test_holds_without_a_system(self):
        c = CacheGranularityController()
        assert c.update(_snap(**_LOW), ControlLoop([])) is None

    def test_low_hit_rate_coarsens_both_steps(self):
        loop = self._loop()
        c = CacheGranularityController(factor=1.5)
        msg = c.update(_snap(**_LOW), loop)
        assert msg is not None and msg.startswith("coarsen")
        cache = loop.system.cache
        assert cache.bw_step == pytest.approx(37.5)
        assert cache.delay_step == pytest.approx(15.0)

    def test_high_hit_rate_with_low_error_refines(self):
        loop = self._loop()
        c = CacheGranularityController(factor=1.5, rel_err_budget=0.25)
        msg = c.update(_snap(rel_err=0.1, **_HIGH), loop)
        assert msg is not None and msg.startswith("refine")
        assert loop.system.cache.bw_step == pytest.approx(25 / 1.5)

    def test_high_error_blocks_refinement(self):
        loop = self._loop()
        c = CacheGranularityController(rel_err_budget=0.25)
        assert c.update(_snap(rel_err=0.5, **_HIGH), loop) is None

    def test_dead_band_holds(self):
        loop = self._loop()
        c = CacheGranularityController(hit_lo=0.4, hit_hi=0.85)
        assert c.update(_snap(hits=6, misses=4), loop) is None

    def test_settles_at_coarse_clamp_under_sustained_misses(self):
        loop = self._loop()
        c = CacheGranularityController(max_bw_step=200.0,
                                       max_delay_step=80.0)
        for _ in range(20):
            c.update(_snap(**_LOW), loop)
        cache = loop.system.cache
        assert cache.bw_step == 200.0 and cache.delay_step == 80.0
        assert c.update(_snap(**_LOW), loop) is None  # settled

    def test_settles_at_fine_clamp_under_sustained_hits(self):
        loop = self._loop()
        c = CacheGranularityController(min_bw_step=5.0, min_delay_step=2.0)
        for _ in range(20):
            c.update(_snap(rel_err=0.0, **_HIGH), loop)
        cache = loop.system.cache
        assert cache.bw_step == 5.0 and cache.delay_step == 2.0
        assert c.update(_snap(rel_err=0.0, **_HIGH), loop) is None

    def test_failed_refinement_latches_a_floor(self):
        """refine -> hit-rate collapse -> coarsen must latch the finer
        level out of reach: the next healthy window may NOT re-refine."""
        loop = self._loop()
        cache = loop.system.cache
        c = CacheGranularityController(factor=1.5)
        assert c.update(_snap(**_HIGH), loop).startswith("refine")
        assert c.update(_snap(**_LOW), loop).startswith("coarsen")
        assert c.refine_floor_bw == pytest.approx(25.0)
        assert c.update(_snap(**_HIGH), loop) is None  # floor holds
        assert cache.bw_step == pytest.approx(25.0)
        assert cache.delay_step == pytest.approx(10.0)

    def test_adversarial_alternation_settles(self):
        """Even a worst-case alternating signal cannot oscillate forever:
        every refine->coarsen round trip ratchets the floor, so the
        reachable step set shrinks to a fixed point."""
        loop = self._loop()
        cache = loop.system.cache
        c = CacheGranularityController()
        acted_at = []
        for i in range(120):
            snap = _snap(**(_HIGH if i % 2 == 0 else _LOW))
            if c.update(snap, loop) is not None:
                acted_at.append(i)
        assert acted_at, "controller never acted at all"
        assert max(acted_at) < 60, "still oscillating after 60 updates"
        final = (cache.bw_step, cache.delay_step)
        for i in range(10):
            assert c.update(_snap(**(_HIGH if i % 2 else _LOW)), loop) is None
        assert (cache.bw_step, cache.delay_step) == final


class TestBatchPolicy:
    def _loop(self, max_batch=4):
        server = SimpleNamespace(policy=BatchPolicy(max_batch=max_batch))
        return ControlLoop([]).attach(server=server), server

    def test_deep_backlog_doubles_the_cap(self):
        loop, server = self._loop(max_batch=4)
        c = BatchPolicyController(depth_per_slot=2.0)
        msg = c.update(_snap(queue=20), loop)
        assert msg is not None and msg.startswith("grow")
        assert server.policy.max_batch == 8

    def test_growth_respects_the_cap(self):
        loop, server = self._loop(max_batch=8)
        c = BatchPolicyController(max_batch=8)
        assert c.update(_snap(queue=100), loop) is None
        assert server.policy.max_batch == 8

    def test_idle_queue_with_headroom_halves_the_cap(self):
        loop, server = self._loop(max_batch=8)
        c = BatchPolicyController(headroom=0.5)
        msg = c.update(_snap(queue=0, window=_served(5, e2e_s=0.05),
                             slo_s=0.3), loop)
        assert msg is not None and msg.startswith("shrink")
        assert server.policy.max_batch == 4

    def test_dead_band_between_grow_and_shrink(self):
        loop, server = self._loop(max_batch=4)
        c = BatchPolicyController()
        # queue neither deep (> 8) nor near-empty (<= 1): hold
        assert c.update(_snap(queue=5, window=_served(5, e2e_s=0.05)),
                        loop) is None
        assert server.policy.max_batch == 4

    def test_no_shrink_without_a_request_window(self):
        loop, _ = self._loop(max_batch=8)
        c = BatchPolicyController()
        assert c.update(_snap(queue=0), loop) is None

    def test_ignores_non_batching_servers(self):
        c = BatchPolicyController()
        assert c.update(_snap(queue=100), ControlLoop([])) is None


class TestAdmission:
    def _loop(self, min_latency_s=0.05):
        return ControlLoop([]).attach(
            system=_FakeSystem(min_latency_s=min_latency_s))

    def test_serves_everything_without_evidence(self):
        c = AdmissionController()
        assert c.admit(0.0, 99.0, 0.3, self._loop()) == "serve"
        assert c.shed == 0 and c.degraded == 0

    def test_update_tracks_an_ewma_of_service_time(self):
        c = AdmissionController(ewma_alpha=0.3)
        c.update(_snap(window=_served(service_s=0.2)), None)
        assert c.service_estimate_s == pytest.approx(0.2)
        c.update(_snap(window=_served(service_s=0.1)), None)
        assert c.service_estimate_s == pytest.approx(0.3 * 0.1 + 0.7 * 0.2)
        c.update(_snap(), None)  # empty window: hold
        assert c.service_estimate_s == pytest.approx(0.17)

    def test_triage_serve_degrade_shed_by_remaining_budget(self):
        """margin*slo = 0.255; est 0.2, degraded est 0.05."""
        loop = self._loop(min_latency_s=0.05)
        c = AdmissionController(margin=0.85)
        c.update(_snap(window=_served(service_s=0.2)), loop)
        assert c.admit(0.0, 0.0, 0.3, loop) == "serve"     # 0.2 fits
        assert c.admit(0.0, 0.1, 0.3, loop) == "degrade"   # only 0.05 fits
        assert c.admit(0.0, 0.25, 0.3, loop) == "shed"     # nothing fits
        assert c.degraded == 1 and c.shed == 1


class TestPrecompute:
    def _loop(self):
        return ControlLoop([]).attach(system=_FakeSystem())

    def test_first_tick_only_baselines(self):
        loop = self._loop()
        c = PrecomputeScheduler()
        cond = NetworkCondition((100.0,), (10.0,))
        assert c.update(_snap(t=1.0, condition=cond), loop) is None
        assert loop.system.precomputed == []

    def test_drift_precomputes_extrapolated_cells(self):
        loop = self._loop()
        c = PrecomputeScheduler(horizon_s=2.0, max_cells=2)
        c.update(_snap(t=1.0, condition=NetworkCondition((100.0,), (10.0,))),
                 loop)
        msg = c.update(
            _snap(t=2.0, condition=NetworkCondition((120.0,), (12.0,))),
            loop)
        assert msg is not None and "precomputed 2" in msg
        assert c.computed == 2
        (targets,) = loop.system.precomputed
        # drift +20 Mbps/s, +2 ms/s, extrapolated 1s and 2s ahead
        assert targets[0].bandwidths_mbps[0] == pytest.approx(140.0)
        assert targets[1].bandwidths_mbps[0] == pytest.approx(160.0)
        assert targets[1].delays_ms[0] == pytest.approx(16.0)

    def test_noise_below_min_drift_holds(self):
        loop = self._loop()
        c = PrecomputeScheduler(min_drift=0.02)
        c.update(_snap(t=1.0, condition=NetworkCondition((100.0,), (10.0,))),
                 loop)
        assert c.update(
            _snap(t=2.0, condition=NetworkCondition((100.5,), (10.0,))),
            loop) is None
        assert loop.system.precomputed == []
