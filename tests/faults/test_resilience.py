"""Retry policy arithmetic, hostile policy settings, and the no-op
guarantee.

The headline contract: a world that can fail but does not (an injector
whose one event never activates) serves exactly what ``faults=None``
serves — every record field, plan-only FIFO and batched and executable
— so fault support costs nothing in accuracy when the world is healthy,
and the price-once batch keeps the per-item path as its oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.eval.spec import PinnedTimeEngine
from repro.faults import (NULL_FAULTS, NULL_HEALTH, DeviceCrash, DeviceHealth,
                          FaultInjector, FaultSchedule, LinkFlap,
                          ResilienceConfig, RetryPolicy)
from repro.nas import MBV3_SPACE, Supernet, max_arch
from repro.netsim import NetworkCondition
from repro.runtime import BatchingInferenceServer, BatchPolicy, InferenceServer
from repro.telemetry import Telemetry
from tests.core.test_infer_parity import _TINY, _SplitEngine


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(timeout_s=0.05, max_retries=2, backoff=2.0)
        assert p.attempts == 3
        assert p.timeout_of(0) == pytest.approx(0.05)
        assert p.timeout_of(1) == pytest.approx(0.10)
        assert p.timeout_of(2) == pytest.approx(0.20)
        assert p.give_up_cost() == pytest.approx(0.35)

    def test_zero_retries_still_costs_one_timeout(self):
        p = RetryPolicy(timeout_s=0.1, max_retries=0)
        assert p.attempts == 1
        assert p.give_up_cost() == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)


class TestResilienceConfig:
    def test_defaults(self):
        cfg = ResilienceConfig()
        assert cfg.failover and cfg.degradation
        assert cfg.failure_threshold == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(cooldown_s=-0.1)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("cls,field,value", [
    (RetryPolicy, "timeout_s", NAN), (RetryPolicy, "timeout_s", INF),
    (RetryPolicy, "backoff", NAN), (RetryPolicy, "backoff", INF),
    # a float retry count died in ``give_up_cost`` mid-run
    (RetryPolicy, "max_retries", 2.5),
    # a NaN cooldown held a circuit open forever, a NaN threshold never
    # opened one
    (ResilienceConfig, "cooldown_s", NAN),
    (ResilienceConfig, "failure_threshold", NAN),
    (ResilienceConfig, "failure_threshold", 2.5),
    (DeviceHealth, "cooldown_s", NAN),
    (DeviceHealth, "failure_threshold", NAN),
    (DeviceHealth, "failure_threshold", 2.5),
    # ``down_at`` died converting NaN to an int mid-run
    (LinkFlap, "step_s", NAN),
])
def test_a_hostile_setting_is_rejected_naming_its_field(cls, field, value):
    args = {DeviceHealth: (3,), LinkFlap: (0.0, 1.0)}.get(cls, ())
    with pytest.raises(ValueError, match=field):
        cls(*args, **{field: value})


def _dormant() -> FaultInjector:
    """An injector that can fail but never does: its one event starts
    long after every run here ends."""
    return FaultInjector(FaultSchedule([DeviceCrash(1e9, 2e9)]))


def _serve(faults, batched=False):
    devices = [rpi4(), desktop_gtx1080()]
    engine = SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=2)
    system = Murmuration(
        MBV3_SPACE, devices, NetworkCondition((80.0,), (30.0,)),
        PinnedTimeEngine(engine, 0.02), slo=SLO.latency_ms(300.0),
        use_predictor=False, monitor_noise=0.02, seed=0, faults=faults)
    if batched:
        return BatchingInferenceServer(
            system, arrival_rate_hz=40.0, policy=BatchPolicy(max_batch=8),
            seed=1).run(num_requests=120)
    return InferenceServer(system, arrival_rate_hz=5.0,
                           seed=1).run(num_requests=120)


class TestNoOpGuarantee:
    def test_empty_schedule_is_bit_identical_to_disabled(self):
        """An empty schedule takes the null path now, so the oracle is a
        dormant one: it prices per item, the null world once per batch."""
        for batched in (False, True):
            off = _serve(None, batched)
            dormant = _serve(_dormant(), batched)
            assert off.records == dormant.records  # every field and float
            assert {r.outcome for r in off.records} == {"ok"}
            if batched:
                assert off.batches == dormant.batches
                assert len(off.batches) < len(off.records)

    def test_executable_items_are_identical_too(self):
        devices = [rpi4(), desktop_gtx1080(), jetson_class()]
        condition = NetworkCondition((300.0, 150.0), (10.0, 20.0))
        net = Supernet(_TINY, seed=2).eval()
        res = max_arch(_TINY).resolution
        xs = [np.random.default_rng(i).normal(size=(1, 3, res, res))
              for i in range(6)]
        engine, runs = _SplitEngine(devices, condition), []
        for faults in (None, _dormant()):
            system = Murmuration(
                _TINY, devices, condition, engine,
                slo=SLO.latency_ms(100.0), supernet=net,
                use_predictor=False, monitor_noise=0.0, seed=3,
                faults=faults)
            runs.append([system.infer(xs[0])]
                        + system.infer_batch(xs=xs[1:]).items)
        for a, b in zip(*runs):
            for f in dataclasses.fields(a):
                if f.name == "logits":
                    assert np.array_equal(a.logits, b.logits)
                else:
                    assert getattr(a, f.name) == getattr(b, f.name), f.name
            assert a.outcome == "ok" and a.logits is not None

    def test_disabled_runtime_has_no_fault_state(self):
        """Without an injector the facade holds :data:`NULL_FAULTS` and
        the null breakers (every circuit closed, nothing recorded, no
        ``health_*`` metric); ``resilience`` is the default policy."""
        devices = [rpi4(), desktop_gtx1080()]
        tel = Telemetry()
        system = Murmuration(
            MBV3_SPACE, devices, NetworkCondition((80.0,), (30.0,)),
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=2),
            slo=SLO.latency_ms(300.0), telemetry=tel)
        assert system.faults is NULL_FAULTS and not system.faults.can_fail
        assert system.faults.transition_times() == ()
        assert system.health is NULL_HEALTH
        assert not isinstance(system.health, DeviceHealth)
        assert system.resilience == ResilienceConfig()
        assert system.cluster.compute_scale == {}
        plan = system.infer().strategy.plan
        assert system.health.blocked(plan, 0.0) == ()
        assert system.health.allow(1, 0.0)
        assert not system.health.record_failure(1, 0.0)
        assert not [m.name for m in tel.registry.collect()
                    if m.name.startswith("health")]
        # an empty schedule cannot fail either, so it gets them too
        assert not FaultInjector(FaultSchedule([])).can_fail


def test_no_cache_insert_routes_through_an_open_circuit():
    """Every insert checks the breakers (``decide`` no longer re-checks
    a hit): a strategy through an open circuit is neither cached by a
    decision nor warmed by ``precompute``; it is cached again once the
    circuit lets traffic through."""
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    condition = NetworkCondition((300.0, 150.0), (10.0, 20.0))
    system = Murmuration(
        _TINY, devices, condition, _SplitEngine(devices, condition),
        slo=SLO.latency_ms(100.0), use_predictor=False, monitor_noise=0.0,
        faults=FaultInjector(FaultSchedule([DeviceCrash(50.0, 60.0,
                                                        device=2)])),
        resilience=ResilienceConfig(failure_threshold=1, cooldown_s=5.0,
                                    failover=False))
    assert 1 in system.decide(condition).strategy.plan.devices_used()
    assert len(system.cache) == 1
    system.health.record_failure(1, 0.0)
    system._drain_health()              # as each dispatch ends
    assert len(system.cache) == 0
    assert system.decide(condition).engine == "search"
    assert system.precompute([condition]) == 0 and len(system.cache) == 0
    system.clock.advance_to(10.0)       # past the cooldown: half-open
    assert system.precompute([condition]) == 1
