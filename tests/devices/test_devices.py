"""Device profiles and latency models, including the calibration anchors
the figures depend on."""

import pytest

from repro.devices import (DEVICE_CATALOG, block_time, desktop_gtx1080,
                           graph_time, model_switch_time, rpi4,
                           supernet_reconfig_time)
from repro.models import get_model
from repro.models.graph import ComputeBlock


class TestProfiles:
    def test_catalog_complete(self):
        for name in ("rpi4", "desktop_gtx1080", "jetson_class"):
            assert name in DEVICE_CATALOG
            assert DEVICE_CATALOG[name]().name == name

    def test_compute_time_roofline(self):
        dev = rpi4()
        # Compute-bound: memory term smaller.
        t1 = dev.compute_time(flops=dev.effective_flops, mem_bytes=0)
        assert t1 == pytest.approx(1.0 + dev.block_overhead_s)
        # Memory-bound: huge traffic dominates.
        t2 = dev.compute_time(flops=1.0, mem_bytes=dev.mem_bandwidth)
        assert t2 == pytest.approx(1.0 + dev.block_overhead_s)

    def test_gpu_faster_than_pi(self):
        g = get_model("resnet50")
        assert graph_time(g, desktop_gtx1080()) < graph_time(g, rpi4()) / 10


class TestCalibrationAnchors:
    """These anchors drive the figure shapes; see DESIGN.md."""

    def test_mbv3_on_pi_hundreds_of_ms(self):
        t = graph_time(get_model("mobilenet_v3_large"), rpi4())
        assert 0.3 < t < 0.7

    def test_mbv3_on_gpu_single_digit_ms(self):
        t = graph_time(get_model("mobilenet_v3_large"), desktop_gtx1080())
        assert t < 0.02

    def test_densenet_gpu_exceeds_140ms_slo(self):
        """Fig. 13a: Neurosurgeon+DenseNet161 can never meet 140 ms."""
        assert graph_time(get_model("densenet161"), desktop_gtx1080()) > 0.140

    def test_inception_gpu_under_140ms(self):
        """Fig. 16a: Neurosurgeon+Inception meets 140 ms at good corners."""
        assert graph_time(get_model("inception_v3"), desktop_gtx1080()) < 0.130

    def test_resnext_slowest(self):
        times = {n: graph_time(get_model(n), desktop_gtx1080())
                 for n in ("resnet50", "densenet161", "resnext101_32x8d")}
        assert times["resnext101_32x8d"] == max(times.values())


class TestBlockTime:
    def test_flop_scale(self):
        b = ComputeBlock("b", 1e9, (8, 8), 16)
        dev = rpi4()
        half = block_time(b, dev, flop_scale=0.5)
        full = block_time(b, dev, flop_scale=1.0)
        assert half < full

    def test_graph_time_sums_blocks(self):
        g = get_model("mobilenet_v3_large")
        dev = rpi4()
        total = graph_time(g, dev)
        assert total > block_time(g.blocks[0], dev)


class TestModelSwitch:
    def test_supernet_reconfig_millisecond_scale(self):
        t = supernet_reconfig_time(25, rpi4())
        assert 1e-3 < t < 50e-3

    def test_reload_much_slower_than_reconfig(self):
        """Fig. 19: reloading any fixed model is orders of magnitude
        slower than in-memory supernet reconfiguration."""
        pi = rpi4()
        reconf = supernet_reconfig_time(25, pi)
        for name in ("mobilenet_v3_large", "resnext101_32x8d"):
            reload_t = model_switch_time(get_model(name), pi, in_memory=False)
            assert reload_t > 20 * reconf

    def test_reload_scales_with_weights(self):
        pi = rpi4()
        small = model_switch_time(get_model("mobilenet_v3_large"), pi)
        big = model_switch_time(get_model("resnext101_32x8d"), pi)
        assert big > 3 * small

    def test_in_memory_flag(self):
        g = get_model("mobilenet_v3_large")
        pi = rpi4()
        assert model_switch_time(g, pi, in_memory=True) < model_switch_time(
            g, pi, in_memory=False)
