"""Mesh topologies: routing and compatibility with the simulator."""

import numpy as np
import pytest

from repro.devices import rpi4
from repro.faults.resilience import NoRouteError, TransportError
from repro.models import get_model
from repro.netsim import (MeshCluster, MeshLink, NetworkCondition,
                          line_topology, ring_topology, star_topology)
from repro.partition import layerwise_split_plan, simulate_latency


class TestMeshLink:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            MeshLink(0, 0, 100.0, 5.0)

    @pytest.mark.parametrize("bw", [float("inf"), float("nan"), 0.0, -1.0])
    def test_a_bandwidth_must_be_positive_and_finite(self, bw):
        """Regression: an infinite edge bandwidth was a link, and the
        strategy cache's key snapping died on it with an
        ``OverflowError``; every rejection said only "invalid link
        parameters"."""
        with pytest.raises(ValueError, match=f"bandwidth_mbps must be "
                                             f"positive and finite, got {bw}"):
            MeshLink(0, 1, bw, 5.0)

    def test_nan_params_rejected(self):
        with pytest.raises(ValueError):
            MeshLink(0, 1, float("nan"), 5.0)
        with pytest.raises(ValueError):
            MeshLink(0, 1, 100.0, float("nan"))


class TestMeshCluster:
    def test_line_routing_accumulates_delay(self):
        devices = [rpi4() for _ in range(4)]
        mesh = line_topology(devices, bandwidth_mbps=100.0, delay_ms=10.0)
        # 0 -> 3 crosses 3 hops
        assert mesh.hop_count(0, 3) == 3
        t = mesh.transfer_time(0, 3, 0)
        assert t == pytest.approx((3 * 10.0 + 1.0) / 1e3)

    def test_bottleneck_bandwidth(self):
        devices = [rpi4() for _ in range(3)]
        mesh = MeshCluster(devices, [MeshLink(0, 1, 1000.0, 1.0),
                                     MeshLink(1, 2, 10.0, 1.0)])
        t = mesh.transfer_time(0, 2, 1_000_000)
        wire = 8.0 / 10.0  # 1 MB at the 10 Mbps bottleneck
        assert t == pytest.approx(wire + 0.003, rel=0.05)

    def test_ring_shorter_than_line_for_far_nodes(self):
        devices = [rpi4() for _ in range(6)]
        line = line_topology(devices, 100.0, 10.0)
        ring = ring_topology(devices, 100.0, 10.0)
        assert ring.hop_count(0, 5) == 1
        assert line.hop_count(0, 5) == 5
        assert ring.transfer_time(0, 5, 0) < line.transfer_time(0, 5, 0)

    def test_disconnected_route_raises(self):
        devices = [rpi4() for _ in range(3)]
        mesh = MeshCluster(devices, [MeshLink(0, 1, 100.0, 5.0)])
        assert not mesh.is_connected()
        with pytest.raises(NoRouteError, match="no surviving route") as exc:
            mesh.transfer_time(0, 2, 100)
        assert isinstance(exc.value, TransportError)
        assert (exc.value.src, exc.value.dst) == (0, 2)

    def test_unknown_device_in_link(self):
        with pytest.raises(ValueError):
            MeshCluster([rpi4()], [MeshLink(0, 5, 100.0, 5.0)])

    @pytest.mark.parametrize("reroute", [True, False])
    def test_an_unknown_device_id_is_a_typed_error(self, reroute):
        """It was a bare ``KeyError: 9`` from inside the path search."""
        mesh = ring_topology([rpi4() for _ in range(4)], 100.0, 5.0,
                             reroute=reroute)
        for call in (lambda: mesh.transfer_time(0, 9, 1e3),
                     lambda: mesh.transfer_time(9, 0, 1e3),
                     lambda: mesh.timed_transfer(0, 9, 1e3, 0.0),
                     lambda: mesh.route_info(1, 9),
                     lambda: mesh.link_to(9)):
            with pytest.raises(ValueError, match="no device 9: .* 4 devices"):
                call()
        assert mesh.route_info(0, 3).hops == 1   # the last id is fine

    def test_simulator_accepts_mesh(self):
        """The simulator prices a relay chain like any cluster."""
        devices = [rpi4() for _ in range(3)]
        mesh = line_topology(devices, bandwidth_mbps=200.0, delay_ms=10.0)
        g = get_model("mobilenet_v3_large")
        # run the tail on the far end of the chain (2 hops away)
        rep = simulate_latency(g, layerwise_split_plan(g, 3, remote=2), mesh)
        assert rep.total_s > 0
        # the same split to the adjacent node is cheaper (fewer hops)
        rep1 = simulate_latency(g, layerwise_split_plan(g, 3, remote=1), mesh)
        assert rep1.total_s < rep.total_s

    def test_mesh_matches_star_when_single_hop(self):
        """A 2-device mesh equals the equivalent star cluster."""
        devices = [rpi4(), rpi4()]
        mesh = MeshCluster(devices, [MeshLink(0, 1, 150.0, 12.0)])
        star = star_topology(devices, NetworkCondition((150.0,), (12.0,)))
        g = get_model("mobilenet_v3_large")
        plan = layerwise_split_plan(g, 5)
        t_mesh = simulate_latency(g, plan, mesh).total_s
        t_star = simulate_latency(g, plan, star).total_s
        assert t_mesh == pytest.approx(t_star, rel=1e-6)

