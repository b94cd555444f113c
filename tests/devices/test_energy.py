"""Energy accounting extension."""

import pytest

from repro.devices import (ENERGY_CATALOG, EnergyProfile, desktop_gtx1080,
                           energy_of_report, rpi4)
from repro.models import get_model
from repro.netsim import NetworkCondition, star_topology
from repro.partition import (Grid, layerwise_split_plan, simulate_latency,
                             single_device_plan, spatial_plan)


@pytest.fixture(scope="module")
def swarm():
    return star_topology([rpi4() for _ in range(5)],
                         NetworkCondition((500.0,) * 4, (5.0,) * 4))


class TestEnergyProfile:
    def test_compute_energy_components(self):
        ep = EnergyProfile(idle_w=2.0, active_w=6.0, tx_nj_per_byte=100.0,
                           rx_nj_per_byte=50.0)
        # 1 s makespan, 0.5 s busy: 2*1 + 4*0.5 = 4 J
        assert ep.compute_energy(0.5, 1.0) == pytest.approx(4.0)

    def test_busy_clamped_to_makespan(self):
        ep = EnergyProfile(2.0, 6.0, 0.0, 0.0)
        assert ep.compute_energy(5.0, 1.0) == ep.compute_energy(1.0, 1.0)

    def test_network_energy(self):
        ep = EnergyProfile(0.0, 0.0, tx_nj_per_byte=100.0,
                           rx_nj_per_byte=50.0)
        assert ep.network_energy(1e9, 0) == pytest.approx(100.0)

    def test_catalog_covers_devices(self):
        for name in ("rpi4", "desktop_gtx1080", "jetson_class"):
            assert name in ENERGY_CATALOG


class TestEnergyOfReport:
    def test_single_device_charges_one_device(self, swarm):
        g = get_model("mobilenet_v3_large")
        rep = simulate_latency(g, single_device_plan(g), swarm)
        er = energy_of_report(rep, swarm.devices)
        assert set(er.per_device_j) == {0}
        assert er.network_j == 0.0
        assert er.total_j > 0

    def test_partitioning_trades_energy_for_latency(self, swarm):
        """Spatial partitioning cuts latency but costs more total energy
        (FDSP redundant compute + more idle-active devices + radio)."""
        g = get_model("resnet50")
        rep1 = simulate_latency(g, single_device_plan(g), swarm)
        rep4 = simulate_latency(g, spatial_plan(g, Grid(2, 2), [0, 1, 2, 3]),
                                swarm)
        e1 = energy_of_report(rep1, swarm.devices)
        e4 = energy_of_report(rep4, swarm.devices)
        assert rep4.total_s < rep1.total_s
        assert e4.total_j > e1.total_j * 0.9  # no free lunch
        assert len(e4.per_device_j) == 4

    def test_quantization_cuts_network_energy(self, swarm):
        g = get_model("mobilenet_v3_large")
        p32 = layerwise_split_plan(g, 0, bits=32)
        p8 = layerwise_split_plan(g, 0, bits=8)
        e32 = energy_of_report(simulate_latency(g, p32, swarm), swarm.devices)
        e8 = energy_of_report(simulate_latency(g, p8, swarm), swarm.devices)
        assert e8.network_j < e32.network_j / 2

    def test_gpu_offload_energy_on_gpu(self):
        cl = star_topology([rpi4(), desktop_gtx1080()],
                           NetworkCondition((400.0,), (5.0,)))
        g = get_model("resnet50")
        rep = simulate_latency(g, layerwise_split_plan(g, 0), cl)
        er = energy_of_report(rep, cl.devices)
        # the 220 W desktop dominates the energy bill
        assert er.per_device_j[1] > er.per_device_j[0]
