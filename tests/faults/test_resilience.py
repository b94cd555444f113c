"""Retry policy arithmetic + the no-op guarantee.

The headline contract: constructing the runtime with ``faults=None``
(the default) or with an *empty* fault schedule must serve bit-identical
latencies, outcomes and decisions — fault support may cost nothing when
the world is healthy.
"""

import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.faults import (NULL_HEALTH, DeviceHealth, FaultInjector,
                          FaultSchedule, ResilienceConfig, RetryPolicy)
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition
from repro.runtime import InferenceServer
from repro.telemetry import Telemetry


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
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)


class TestResilienceConfig:
    def test_defaults(self):
        cfg = ResilienceConfig()
        assert cfg.failover and cfg.degradation
        assert cfg.failure_threshold == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(cooldown_s=-0.1)


def _serve(faults):
    devices = [rpi4(), desktop_gtx1080()]
    system = Murmuration(
        MBV3_SPACE, devices, NetworkCondition((80.0,), (30.0,)),
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=2),
        slo=SLO.latency_ms(300.0), use_predictor=False,
        monitor_noise=0.02, seed=0, faults=faults)
    server = InferenceServer(system, arrival_rate_hz=5.0, seed=1)
    return server.run(num_requests=25)


class TestNoOpGuarantee:
    def test_empty_schedule_is_bit_identical_to_disabled(self):
        off = _serve(None)
        empty = _serve(FaultInjector(FaultSchedule([])))
        assert len(off.records) == len(empty.records)
        for a, b in zip(off.records, empty.records):
            assert a.arrival == b.arrival
            assert a.inference_s == b.inference_s  # bit-identical latency
            assert a.switch_s == b.switch_s
            assert a.satisfied == b.satisfied
            assert (a.outcome, a.retries, a.failovers) == ("ok", 0, 0)
            assert (b.outcome, b.retries, b.failovers) == ("ok", 0, 0)

    def test_disabled_runtime_has_no_fault_state(self):
        """Without an injector only ``faults`` is a real ``None``: the
        breakers are the null form (every circuit closed, nothing
        recorded, no ``health_*`` metric) and ``resilience`` is the
        default policy nothing consults."""
        devices = [rpi4(), desktop_gtx1080()]
        tel = Telemetry()
        system = Murmuration(
            MBV3_SPACE, devices, NetworkCondition((80.0,), (30.0,)),
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=2),
            slo=SLO.latency_ms(300.0), telemetry=tel)
        assert system.faults is None
        assert system.health is NULL_HEALTH
        assert not isinstance(system.health, DeviceHealth)
        assert system.resilience == ResilienceConfig()
        assert system.cluster.compute_scale == {}
        plan = system.infer().strategy.plan
        assert system.health.blocked(plan, 0.0) == ()
        assert system.health.allow(1, 0.0)
        assert not system.health.record_failure(1, 0.0)
        assert system.health.drain_opened() == ()
        assert not [m.name for m in tel.registry.collect()
                    if m.name.startswith("health")]
