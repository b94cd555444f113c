"""Integration: the serving loop over an adaptive system on a trace, and
energy accounting of the chosen strategies."""

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, energy_of_report, rpi4
from repro.nas import MBV3_SPACE, build_graph
from repro.netsim import NetworkCondition, TraceConfig, random_walk_trace
from repro.partition import simulate_latency
from repro.runtime import InferenceServer


@pytest.fixture(scope="module")
def devices():
    return [rpi4(), desktop_gtx1080()]


class TestServingIntegration:
    def test_served_compliance_on_trace(self, devices):
        system = Murmuration(
            MBV3_SPACE, devices, NetworkCondition((200.0,), (20.0,)),
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=6),
            slo=SLO.latency_ms(300), use_predictor=False,
            monitor_noise=0.02, seed=0)
        trace = random_walk_trace(TraceConfig(
            num_remote=1, bw_range=(60.0, 350.0), delay_range=(5.0, 50.0),
            steps=20, seed=1))
        stats = InferenceServer(system, arrival_rate_hz=1.0, seed=2).run(
            num_requests=20, condition_trace=trace, trace_period_s=1.0)
        assert stats.slo_compliance >= 0.9
        assert stats.percentile_ms(50) > 0

    def test_energy_of_served_strategies(self, devices):
        """Strategies the system actually served can be priced for
        energy from the same simulator output."""
        system = Murmuration(
            MBV3_SPACE, devices, NetworkCondition((300.0,), (10.0,)),
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4),
            slo=SLO.latency_ms(200), use_predictor=False, seed=3)
        rec = system.infer()
        graph = build_graph(rec.strategy.arch, MBV3_SPACE)
        rep = simulate_latency(graph, rec.strategy.plan, system.cluster)
        er = energy_of_report(rep, devices)
        assert er.total_j > 0
        assert rep.total_s == pytest.approx(rec.latency_s, rel=0.2)
