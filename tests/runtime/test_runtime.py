"""Runtime subsystems: clock, transport, reconfig, monitoring predictor."""

import math

import numpy as np
import pytest

from repro.devices import rpi4
from repro.models import get_model
from repro.netsim import Cluster, Measurement, NetworkCondition
from repro.runtime import (FixedModelStore, LinearPredictor, ModelReconfig,
                           MonitoringPredictor, SimulatedClock, Transport)


@pytest.fixture
def cluster():
    return Cluster([rpi4(), rpi4()], NetworkCondition((100.0,), (10.0,)))


class TestClock:
    def test_advance(self):
        c = SimulatedClock()
        assert c.advance(1.5) == 1.5
        assert c.now == 1.5

    def test_advance_to(self):
        c = SimulatedClock(10.0)
        c.advance_to(12.0)
        assert c.now == 12.0

    def test_no_rewind(self):
        c = SimulatedClock(5.0)
        with pytest.raises(ValueError):
            c.advance(-1)
        with pytest.raises(ValueError):
            c.advance_to(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        SimulatedClock, lambda t: SimulatedClock(5.0).reset(t),
        lambda t: SimulatedClock(5.0).advance_to(t),
        lambda t: SimulatedClock(5.0).advance(t)],
        ids=["start", "reset", "advance_to", "advance"])
    def test_a_non_finite_time_is_refused_naming_it(self, call, bad):
        # ``nan < x`` is false, so a NaN passed every rewind guard and
        # every later request inherited it
        with pytest.raises(ValueError, match=str(bad)):
            call(bad)


class TestTransport:
    def test_local_send_free_and_lossless(self, cluster):
        t = Transport(cluster)
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        msg = t.send_tensor(x, 0, 0, 8, now=1.0)
        assert msg.delivered_at == 1.0
        np.testing.assert_allclose(msg.payload, x)

    def test_remote_send_costs_time(self, cluster):
        t = Transport(cluster)
        x = np.ones((1, 3, 16, 16))
        msg = t.send_tensor(x, 0, 1, 32, now=0.0)
        assert msg.delivered_at > 0.01  # at least the 10ms delay

    def test_quantization_error_is_real(self, cluster):
        t = Transport(cluster)
        x = np.random.default_rng(1).normal(size=(1, 2, 8, 8))
        msg = t.send_tensor(x, 0, 1, 8, now=0.0)
        err = np.abs(msg.payload - x).max()
        assert 0 < err < np.abs(x).max() / 100

    def test_8bit_smaller_than_fp32(self, cluster):
        t = Transport(cluster)
        x = np.ones((1, 4, 16, 16))
        m8 = t.send_tensor(x, 0, 1, 8, 0.0)
        m32 = t.send_tensor(x, 0, 1, 32, 0.0)
        assert m8.nbytes < m32.nbytes / 3

    def test_accounting(self, cluster):
        t = Transport(cluster)
        x = np.ones((1, 1, 4, 4))
        t.send_tensor(x, 0, 1, 32, 0.0)
        t.send_tensor(x, 0, 0, 32, 0.0)  # local: not counted
        t.send_control(0, 1, {"op": "reconfig"}, 0.0)
        assert t.num_messages == 2
        assert t.total_bytes > 0
        t.reset_log()
        assert t.num_messages == 0

    def test_reset_log_resets_every_aggregate(self, cluster):
        """Regression: aggregates must stay consistent with ``log``
        across resets — a reset window starts from a true zero."""
        t = Transport(cluster)
        x = np.ones((1, 1, 8, 8))
        t.send_tensor(x, 0, 1, 32, 0.0)
        t.send_control(0, 1, "ping", 0.0)
        first_bytes = t.total_bytes
        assert first_bytes > 0 and t.num_messages == 2 and len(t.log) == 2
        t.reset_log()
        assert (t.total_bytes, t.num_messages, t.num_retries,
                t.wasted_s) == (0, 0, 0, 0.0)
        assert t.log == []
        # the next window accumulates from scratch, not on stale totals
        t.send_tensor(x, 0, 1, 32, 0.0)
        assert t.num_messages == 1
        assert t.total_bytes == first_bytes - 256  # minus the control msg


class TestReconfig:
    def test_switch_tracks_active_arch(self):
        from repro.nas import Supernet, max_arch, min_arch, tiny_space
        space = tiny_space()
        net = Supernet(space, seed=0)
        rc = ModelReconfig(net, rpi4())
        with pytest.raises(RuntimeError):
            rc.active_units
        rec = rc.switch(max_arch(space))
        assert rec.kind == "supernet"
        assert rec.modeled_time_s < 0.05
        assert rc.active_arch == max_arch(space)
        rc.switch(min_arch(space))
        assert len(rc.history) == 2

    def test_fixed_store_reload_costs(self):
        store = FixedModelStore(rpi4())
        g1 = get_model("mobilenet_v3_large")
        g2 = get_model("resnet50")
        r1 = store.switch(g1)
        assert r1.modeled_time_s > 0.1  # cold load from SD card
        r_again = store.switch(g1)
        assert r_again.modeled_time_s < 0.01  # resident
        r2 = store.switch(g2)
        assert r2.modeled_time_s > r1.modeled_time_s  # bigger weights

    def test_fixed_store_eviction(self):
        g1 = get_model("mobilenet_v3_large")
        store = FixedModelStore(rpi4(),
                                resident_budget=g1.total_weight_bytes + 1)
        store.switch(g1)
        store.switch(get_model("resnet50"))  # evicts g1
        r = store.switch(g1)
        assert r.modeled_time_s > 0.1  # cold again


class TestLinearPredictor:
    def test_requires_window(self):
        with pytest.raises(ValueError):
            LinearPredictor(window=1)

    def test_empty_returns_none(self):
        assert LinearPredictor().predict(1.0) is None

    def test_single_sample_constant(self):
        p = LinearPredictor()
        p.observe(0.0, 5.0)
        assert p.predict(10.0) == 5.0

    def test_extrapolates_linear_trend(self):
        p = LinearPredictor(window=5)
        for t in range(5):
            p.observe(float(t), 10.0 + 2.0 * t)
        assert p.predict(5.0) == pytest.approx(20.0, abs=1e-9)

    def test_window_slides(self):
        p = LinearPredictor(window=3)
        for t in range(10):
            p.observe(float(t), float(t))
        assert p.n == 3


class TestMonitoringPredictor:
    def _measurement(self, device, t, bw, delay):
        return Measurement(device, bw, delay, t, "active")

    def test_predicts_trend(self):
        mp = MonitoringPredictor(num_remote=1, window=6)
        for t in range(6):
            mp.observe(self._measurement(1, float(t), 100.0 - 5 * t, 10.0))
        cond = mp.predict(6.0)
        assert cond.bandwidths_mbps[0] == pytest.approx(70.0, abs=1.0)
        assert cond.delays_ms[0] == pytest.approx(10.0, abs=0.5)

    def test_clamps_to_physical_range(self):
        mp = MonitoringPredictor(num_remote=1, bw_range=(1.0, 1000.0))
        for t in range(6):
            mp.observe(self._measurement(1, float(t), 50.0 - 20 * t, 5.0))
        cond = mp.predict(20.0)
        assert cond.bandwidths_mbps[0] == 1.0  # clamped, not negative

    def test_fallback_for_unseen_devices(self):
        mp = MonitoringPredictor(num_remote=2)
        mp.observe(self._measurement(1, 0.0, 100.0, 10.0))
        fallback = NetworkCondition((100.0, 200.0), (10.0, 20.0))
        cond = mp.predict(1.0, fallback=fallback)
        assert cond.bandwidths_mbps[1] == 200.0

    def test_none_without_fallback(self):
        mp = MonitoringPredictor(num_remote=2)
        assert mp.predict(1.0) is None

    def test_invalid_device(self):
        mp = MonitoringPredictor(num_remote=1)
        with pytest.raises(ValueError):
            mp.observe(self._measurement(5, 0.0, 1.0, 1.0))
