"""The controllers: guards and feedback rules."""

import math
from types import SimpleNamespace

import pytest

from repro.control import (AdmissionController, BatchPolicyController,
                           ControlLoop, ControlSnapshot, PrecomputeScheduler,
                           TenantFairnessController)
from repro.netsim import NetworkCondition
from repro.runtime import BatchPolicy, RequestRecord, ServingStats


def _served(n=1, service_s=0.0, e2e_s=None):
    """``n`` served requests of ``service_s`` seconds of service each,
    ``e2e_s`` end to end (default: no queue wait)."""
    e2e_s = service_s if e2e_s is None else e2e_s
    return [RequestRecord(arrival=0.0, start=e2e_s - service_s,
                          finish=e2e_s, inference_s=service_s,
                          decision_s=0.0, switch_s=0.0, satisfied=True)] * n


def _snap(t=1.0, window=(), queue=0, slo_s=0.3, condition=None):
    return ControlSnapshot(
        t=t, window=ServingStats(list(window)),
        queue_depth=queue, slo_s=slo_s, condition=condition)


class _FakeSystem:
    def __init__(self, min_latency_s=0.05):
        self.precomputed = []
        self._min_latency_s = min_latency_s

    def precompute(self, targets):
        self.precomputed.append(list(targets))
        return len(targets)

    def min_strategy(self):
        return SimpleNamespace(expected_latency_s=self._min_latency_s)


@pytest.mark.parametrize("controller, field, value", [
    # the sweep feeds scalars only: a NaN inside a mapping
    (TenantFairnessController, "weights", {"a": math.nan}),
])
def test_a_hostile_setting_is_a_value_error_naming_its_field(
        controller, field, value):
    with pytest.raises(ValueError, match=field):
        controller(**{field: value})


class TestBatchPolicy:
    def _loop(self, max_batch=4):
        server = SimpleNamespace(policy=BatchPolicy(max_batch=max_batch))
        return ControlLoop([]).attach(server=server), server

    def test_deep_backlog_doubles_the_cap(self):
        loop, server = self._loop(max_batch=4)
        c = BatchPolicyController()
        msg = c.update(_snap(queue=20), loop)
        assert msg is not None and msg.startswith("grow")
        assert server.policy.max_batch == 8

    def test_growth_respects_the_cap(self):
        loop, server = self._loop(max_batch=8)
        c = BatchPolicyController()
        assert c.update(_snap(queue=100), loop) is None
        assert server.policy.max_batch == 8

    def test_idle_queue_with_headroom_halves_the_cap(self):
        loop, server = self._loop(max_batch=8)
        c = BatchPolicyController()
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
        c = AdmissionController()
        c.update(_snap(window=_served(service_s=0.2)), None)
        assert c.service_estimate_s == pytest.approx(0.2)
        c.update(_snap(window=_served(service_s=0.1)), None)
        assert c.service_estimate_s == pytest.approx(0.3 * 0.1 + 0.7 * 0.2)
        c.update(_snap(), None)  # empty window: hold
        assert c.service_estimate_s == pytest.approx(0.17)

    def test_triage_serve_degrade_shed_by_remaining_budget(self):
        """margin*slo = 0.255; est 0.2, degraded est 0.05."""
        loop = self._loop(min_latency_s=0.05)
        c = AdmissionController()
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
        c = PrecomputeScheduler()
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
        c = PrecomputeScheduler()
        c.update(_snap(t=1.0, condition=NetworkCondition((100.0,), (10.0,))),
                 loop)
        assert c.update(
            _snap(t=2.0, condition=NetworkCondition((100.5,), (10.0,))),
            loop) is None
        assert loop.system.precomputed == []
