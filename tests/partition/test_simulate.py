"""Distributed-latency simulator: hand-checked cases + invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import desktop_gtx1080, graph_time, rpi4
from repro.models import ModelGraph, get_model
from repro.models.graph import ComputeBlock
from repro.netsim import NetworkCondition, star_topology
from repro.partition import (Grid, layerwise_split_plan, simulate_latency,
                             single_device_plan, spatial_plan)


def tiny_graph():
    """Two compute blocks + head, hand-computable."""
    return ModelGraph("tiny", [
        ComputeBlock("b0", flops=1e8, out_hw=(16, 16), out_ch=8),
        ComputeBlock("b1", flops=1e8, out_hw=(8, 8), out_ch=16),
        ComputeBlock("head", flops=1e6, out_hw=(1, 1), out_ch=10,
                     partitionable=False, fused=True),
    ], accuracy=70.0, input_hw=(32, 32))


@pytest.fixture
def two_pis():
    return star_topology([rpi4(), rpi4()], NetworkCondition((100.0,), (10.0,)))


class TestSingleDevice:
    def test_matches_graph_time(self, two_pis):
        g = tiny_graph()
        rep = simulate_latency(g, single_device_plan(g), two_pis)
        assert rep.total_s == pytest.approx(graph_time(g, rpi4()), rel=1e-6)
        assert rep.comm_bytes == 0
        assert rep.num_transfers == 0

    def test_compute_attributed_to_device(self, two_pis):
        g = tiny_graph()
        rep = simulate_latency(g, single_device_plan(g), two_pis)
        assert rep.compute_s[0] > 0
        assert rep.compute_s[1] == 0

    def test_per_block_done_monotone(self, two_pis):
        g = get_model("mobilenet_v3_large")
        rep = simulate_latency(g, single_device_plan(g), two_pis)
        assert rep.per_block_done == sorted(rep.per_block_done)


class TestLayerwise:
    def test_all_remote_pays_input_transfer(self, two_pis):
        g = tiny_graph()
        rep = simulate_latency(g, layerwise_split_plan(g, 0), two_pis)
        # input (32*32*3 fp32) to remote + compute + result back
        assert rep.num_transfers == 2
        input_wire = two_pis.link_to(1).transfer_time(32 * 32 * 3 * 4 + 32)
        assert rep.total_s > input_wire

    def test_result_return_skips_netem_delay(self, two_pis):
        """The logits response crosses the unshaped direction: raising
        the delay must cost one delay, not two."""
        g = tiny_graph()
        lo = simulate_latency(g, layerwise_split_plan(g, 0), two_pis).total_s
        hi_cluster = star_topology([rpi4(), rpi4()],
                                   NetworkCondition((100.0,), (110.0,)))
        hi = simulate_latency(g, layerwise_split_plan(g, 0),
                              hi_cluster).total_s
        assert hi - lo == pytest.approx(0.100, abs=0.01)

    def test_split_extremes_bracket(self, two_pis):
        g = get_model("mobilenet_v3_large")
        lats = [simulate_latency(g, layerwise_split_plan(g, s), two_pis).total_s
                for s in (0, len(g) // 2, len(g))]
        # all-local equals single device exactly
        assert lats[2] == pytest.approx(graph_time(g, rpi4()), rel=1e-6)

    def test_gpu_remote_offload_wins_for_big_model(self):
        """ResNet50: Pi-local is seconds, shipping to the GPU is not."""
        cl = star_topology([rpi4(), desktop_gtx1080()],
                           NetworkCondition((400.0,), (5.0,)))
        g = get_model("resnet50")
        local = simulate_latency(g, single_device_plan(g), cl).total_s
        remote = simulate_latency(g, layerwise_split_plan(g, 0), cl).total_s
        assert remote < local / 5


class TestSpatial:
    def test_parallel_speedup(self):
        cl = star_topology([rpi4()] * 5,
                           NetworkCondition((1000.0,) * 4, (2.0,) * 4))
        g = get_model("resnet50")
        single = simulate_latency(g, single_device_plan(g), cl).total_s
        quad = simulate_latency(
            g, spatial_plan(g, Grid(2, 2), [0, 1, 2, 3]), cl).total_s
        assert quad < single / 1.5

    def test_compute_spread_across_devices(self):
        cl = star_topology([rpi4()] * 5,
                           NetworkCondition((1000.0,) * 4, (2.0,) * 4))
        g = get_model("mobilenet_v3_large")
        rep = simulate_latency(g, spatial_plan(g, Grid(2, 2), [1, 2, 3, 4]), cl)
        busy = [rep.compute_s[d] for d in (1, 2, 3, 4)]
        assert min(busy) > 0
        assert max(busy) < 1.5 * min(busy)  # homogeneous tiles

    def test_fdsp_overhead_charged(self):
        """Total compute across tiles exceeds the unpartitioned compute."""
        cl = star_topology([rpi4()] * 5,
                           NetworkCondition((1000.0,) * 4, (2.0,) * 4))
        g = get_model("resnet50")
        rep1 = simulate_latency(g, single_device_plan(g), cl)
        rep4 = simulate_latency(g, spatial_plan(g, Grid(2, 2), [1, 2, 3, 4]),
                                cl)
        assert sum(rep4.compute_s.values()) > sum(rep1.compute_s.values())


class TestInvariants:
    @given(st.floats(20, 400), st.floats(1, 100))
    @settings(max_examples=25, deadline=None)
    def test_more_bandwidth_never_hurts(self, bw, delay):
        g = get_model("mobilenet_v3_large")
        plan = layerwise_split_plan(g, 0)
        base = simulate_latency(g, plan, star_topology(
            [rpi4(), desktop_gtx1080()],
            NetworkCondition((bw,), (delay,)))).total_s
        better = simulate_latency(g, plan, star_topology(
            [rpi4(), desktop_gtx1080()],
            NetworkCondition((bw * 2,), (delay,)))).total_s
        assert better <= base + 1e-12

    @given(st.floats(20, 400), st.floats(1, 100))
    @settings(max_examples=25, deadline=None)
    def test_more_delay_never_helps(self, bw, delay):
        g = get_model("mobilenet_v3_large")
        plan = layerwise_split_plan(g, 0)
        base = simulate_latency(g, plan, star_topology(
            [rpi4(), desktop_gtx1080()],
            NetworkCondition((bw,), (delay,)))).total_s
        worse = simulate_latency(g, plan, star_topology(
            [rpi4(), desktop_gtx1080()],
            NetworkCondition((bw,), (delay * 2,)))).total_s
        assert worse >= base - 1e-12

    def test_quantized_transfers_cheaper(self, two_pis):
        g = get_model("mobilenet_v3_large")
        fp32 = simulate_latency(g, layerwise_split_plan(g, 0, bits=32),
                                two_pis)
        int8 = simulate_latency(g, layerwise_split_plan(g, 0, bits=8),
                                two_pis)
        assert int8.comm_bytes < fp32.comm_bytes
        assert int8.total_s <= fp32.total_s

    def test_report_totals_consistent(self, two_pis):
        g = tiny_graph()
        rep = simulate_latency(g, layerwise_split_plan(g, 1), two_pis)
        assert rep.total_ms == pytest.approx(rep.total_s * 1e3)
        assert rep.total_s >= max(rep.compute_s.values())
