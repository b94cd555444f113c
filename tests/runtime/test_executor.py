"""The distributed executor really runs plan-sliced submodels.

The key correctness property: executing under any fp32 unpartitioned
plan must reproduce the plain forward pass bit-for-bit, and partitioned/
quantized plans must stay close while showing real (nonzero) FDSP and
quantization effects.
"""

import numpy as np
import pytest

from repro.devices import rpi4
from repro.nas import (Supernet, build_graph, max_arch, min_arch, tiny_space)
from repro.netsim import Cluster, NetworkCondition
from repro.partition import (Grid, layerwise_split_plan, single_device_plan,
                             spatial_front_plan, spatial_plan)
from repro.runtime import DistributedExecutor


SPACE = tiny_space()


@pytest.fixture(scope="module")
def net():
    return Supernet(SPACE, seed=2).eval()


@pytest.fixture(scope="module")
def cluster():
    return Cluster([rpi4() for _ in range(5)],
                   NetworkCondition((100.0,) * 4, (10.0,) * 4))


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).normal(size=(2, 3, 32, 32))


@pytest.fixture(scope="module")
def arch():
    return max_arch(SPACE)


class TestUnpartitioned:
    def test_local_plan_bit_exact(self, net, cluster, x, arch):
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, cluster)
        res = ex.execute(x, arch, single_device_plan(graph))
        direct = net.forward_arch(x, arch)
        np.testing.assert_allclose(res.logits, direct, atol=1e-12)
        assert res.comm_bytes == 0

    def test_layerwise_fp32_float32_exact(self, net, cluster, x, arch):
        """The 32-bit wire is float32, so a boundary crossing costs only
        single-precision rounding."""
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, cluster)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        res = ex.execute(x, arch, plan)
        direct = net.forward_arch(x, arch)
        np.testing.assert_allclose(res.logits, direct, atol=1e-4)
        assert (res.logits.argmax(1) == direct.argmax(1)).all()
        assert res.num_messages >= 2  # out and back

    def test_latency_report_attached(self, net, cluster, x, arch):
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, cluster)
        res = ex.execute(x, arch, layerwise_split_plan(graph, 0))
        assert res.latency_ms > 0
        assert res.report.num_transfers >= 1


class TestQuantizedWire:
    def test_8bit_transfer_perturbs_slightly(self, net, cluster, x, arch):
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, cluster)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1, bits=8)
        res = ex.execute(x, arch, plan)
        direct = net.forward_arch(x, arch)
        assert not np.allclose(res.logits, direct, atol=1e-12)
        # but predictions mostly agree
        agree = (res.logits.argmax(1) == direct.argmax(1)).mean()
        assert agree >= 0.5


class TestPartitioned:
    def test_spatial_runs_and_stays_close(self, net, cluster, x, arch):
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, cluster)
        plan = spatial_front_plan(graph, Grid(2, 2), [1, 2, 3, 4], min_hw=8)
        res = ex.execute(x, arch, plan)
        assert res.partitioned_segments >= 1
        direct = net.forward_arch(x, arch)
        # FDSP zero-padding is a real approximation: different but close.
        assert not np.allclose(res.logits, direct, atol=1e-9)
        corr = np.corrcoef(res.logits.ravel(), direct.ravel())[0, 1]
        assert corr > 0.8

    def test_a_tile_result_leaves_after_its_tile_arrived(self, net, cluster,
                                                         x, arch):
        """Regression: a tile's result went to the merger stamped at its
        segment's start, with the scatter, so a ledger put gather and
        scatter flows on the wire together.  It now leaves when the
        segment's compute is done."""
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, cluster)
        plan = spatial_front_plan(graph, Grid(2, 2), [1, 2, 3, 4], min_hw=8)
        ex.execute(x, arch, plan, sim_time=2.0)
        log = ex.transport.log
        # the log holds each tile's scatter right before its result's send
        tiles = [(a, b) for a, b in zip(log, log[1:])
                 if a.src == 0 and b.src == a.dst and b.dst == 1]
        assert len(tiles) >= 3
        for scatter, gather in tiles:
            assert scatter.sent_at >= 2.0
            assert gather.sent_at >= scatter.delivered_at

    def test_min_arch_resolution_16(self, net, cluster, arch):
        a = min_arch(SPACE)
        graph = build_graph(a, SPACE)
        ex = DistributedExecutor(net, cluster)
        x16 = np.random.default_rng(3).normal(size=(1, 3, 16, 16))
        res = ex.execute(x16, a, spatial_front_plan(graph, Grid(1, 2),
                                                    [1, 2], min_hw=4))
        assert res.logits.shape == (1, SPACE.num_classes)

    def test_wrong_resolution_rejected(self, net, cluster, x):
        a = min_arch(SPACE)  # wants 16, x is 32
        graph = build_graph(a, SPACE)
        ex = DistributedExecutor(net, cluster)
        with pytest.raises(ValueError, match="resolution"):
            ex.execute(x, a, single_device_plan(graph))
