"""Network monitoring and traces."""

import numpy as np
import pytest

from repro.devices import rpi4
from repro.netsim import (Cluster, NetworkCondition, NetworkMonitor,
                          TraceConfig, mobility_trace, random_walk_trace,
                          step_trace)


@pytest.fixture
def cluster():
    return Cluster([rpi4(), rpi4(), rpi4()],
                   NetworkCondition((100.0, 200.0), (10.0, 30.0)))


class TestMonitor:
    def test_probe_tracks_truth(self, cluster):
        mon = NetworkMonitor(cluster, noise=0.02, seed=1)
        for _ in range(30):
            mon.probe_all()
        est = mon.estimate()
        np.testing.assert_allclose(est.bandwidths_mbps, (100, 200), rtol=0.15)
        np.testing.assert_allclose(est.delays_ms, (10, 30), rtol=0.15)

    def test_estimate_before_probe_falls_back(self, cluster):
        mon = NetworkMonitor(cluster)
        est = mon.estimate()
        assert est.bandwidths_mbps == (100.0, 200.0)

    def test_monitor_follows_condition_change(self, cluster):
        mon = NetworkMonitor(cluster, noise=0.01, ewma_alpha=0.9, seed=3)
        for _ in range(5):
            mon.probe_all()
        cluster.set_condition(NetworkCondition((20.0, 20.0), (80.0, 80.0)))
        for _ in range(10):
            mon.probe_all()
        est = mon.estimate()
        assert est.bandwidths_mbps[0] < 40
        assert est.delays_ms[0] > 50


class TestTraces:
    @pytest.mark.parametrize("gen", [random_walk_trace, step_trace,
                                     mobility_trace])
    def test_length_and_bounds(self, gen):
        cfg = TraceConfig(num_remote=2, steps=50, seed=4)
        trace = gen(cfg)
        assert len(trace) == 50
        for cond in trace:
            assert cond.num_remote == 2
            for b in cond.bandwidths_mbps:
                assert cfg.bw_range[0] <= b <= cfg.bw_range[1]
            for d in cond.delays_ms:
                assert cfg.delay_range[0] <= d <= cfg.delay_range[1]

    def test_deterministic_by_seed(self):
        cfg = TraceConfig(steps=10, seed=9)
        a = random_walk_trace(cfg)
        b = random_walk_trace(cfg)
        assert a == b

    def test_step_trace_piecewise_constant(self):
        trace = step_trace(TraceConfig(steps=40, seed=1), period=10)
        assert trace[0] == trace[9]
        assert trace[0] != trace[10] or trace[10] != trace[20]

    def test_random_walk_is_smooth(self):
        cfg = TraceConfig(steps=100, seed=2)
        trace = random_walk_trace(cfg)
        deltas = [abs(a.bandwidths_mbps[0] - b.bandwidths_mbps[0])
                  for a, b in zip(trace, trace[1:])]
        span = cfg.bw_range[1] - cfg.bw_range[0]
        assert max(deltas) < span * 0.25

