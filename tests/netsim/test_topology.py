"""The star cluster and NetworkCondition."""

import pytest

from repro.core.cost_model import PlanCostModel
from repro.devices import desktop_gtx1080, rpi4
from repro.nas.arch import max_arch
from repro.nas.search_space import MBV3_SPACE
from repro.netsim import NetworkCondition, ring_topology, star_topology
from repro.partition import Grid, simulate_latency, spatial_plan

NAN = float("nan")


class TestNetworkCondition:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            NetworkCondition((1.0, 2.0), (3.0,))

    def test_uniform(self):
        c = NetworkCondition.uniform(3, 100.0, 5.0)
        assert c.num_remote == 3
        assert c.bandwidths_mbps == (100.0,) * 3

    def test_as_vector(self):
        c = NetworkCondition((1.0, 2.0), (3.0, 4.0))
        assert c.as_vector() == [1.0, 2.0, 3.0, 4.0]


class TestCluster:
    def test_dimension_check(self):
        with pytest.raises(ValueError):
            star_topology([rpi4(), rpi4()],
                          NetworkCondition((1.0, 2.0), (1.0, 2.0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_topology([], NetworkCondition((), ()))

    def test_local_loopback_free(self):
        cl = star_topology([rpi4(), rpi4()],
                           NetworkCondition((100.0,), (10.0,)))
        assert cl.transfer_time(0, 0, 10 ** 7) == 0.0

    def test_local_remote_uses_link(self):
        cl = star_topology([rpi4(), rpi4()],
                           NetworkCondition((100.0,), (10.0,)))
        t = cl.transfer_time(0, 1, 1_000_000)
        assert t == pytest.approx(cl.link_to(1).transfer_time(1_000_000))
        # symmetric
        assert cl.transfer_time(1, 0, 1_000_000) == pytest.approx(t)

    def test_remote_remote_relays(self):
        cond = NetworkCondition((100.0, 50.0), (10.0, 20.0))
        cl = star_topology([rpi4(), rpi4(), rpi4()], cond)
        t = cl.transfer_time(1, 2, 1_000_000)
        # bottleneck bandwidth = 50 Mbps; both delays paid once
        wire = 1_000_000 * 8.0 / 50e6
        assert t == pytest.approx(0.010 + 0.020 + 0.001 + wire, rel=0.05)

    def test_set_condition_updates_links(self):
        cl = star_topology([rpi4(), rpi4()],
                           NetworkCondition((100.0,), (10.0,)))
        t1 = cl.transfer_time(0, 1, 10 ** 6)
        cl.set_condition(NetworkCondition((200.0,), (10.0,)))
        t2 = cl.transfer_time(0, 1, 10 ** 6)
        assert t2 < t1

    def test_set_condition_dimension_guard(self):
        cl = star_topology([rpi4(), rpi4()],
                           NetworkCondition((100.0,), (10.0,)))
        with pytest.raises(ValueError):
            cl.set_condition(NetworkCondition((1.0, 2.0), (1.0, 2.0)))

    @pytest.mark.parametrize("condition", [
        NetworkCondition((float("nan"),), (5.0,)),
        NetworkCondition((100.0,), (float("nan"),)),
    ])
    def test_nan_conditions_are_rejected(self, condition):
        """A NaN link would price every transfer at NaN seconds, which
        the simulator's ``max`` silently drops (ROADMAP aim 3)."""
        with pytest.raises(ValueError):
            star_topology([rpi4(), rpi4()], condition)
        cl = star_topology([rpi4(), rpi4()],
                           NetworkCondition((100.0,), (10.0,)))
        with pytest.raises(ValueError):
            cl.set_condition(condition)

    def test_a_rejected_condition_leaves_the_cluster_as_it_was(self):
        """Regression: ``set_condition`` stored the condition before its
        links were validated, so a NaN condition left ``condition`` at
        the rejected value and only the loopback in the link table, and
        the next ``link_to(1)`` said the cluster had no device 1."""
        devs = [rpi4(), desktop_gtx1080(), rpi4()]
        good = NetworkCondition((100.0, 50.0), (10.0, 20.0))
        cl = star_topology(devs, good)
        cl.set_condition(good)
        model = PlanCostModel(MBV3_SPACE, devs)
        arch = max_arch(MBV3_SPACE)
        plan = spatial_plan(model.graph(arch), Grid(1, 2), [1, 2])
        priced = model.latency(arch, plan, cl)
        before = (cl.condition, cl.version, cl.link_to(1), cl.link_to(2),
                  cl.transfer_time(1, 2, 1e6))
        with pytest.raises(ValueError):
            cl.set_condition(NetworkCondition((NAN, 80.0), (10.0, 20.0)))
        assert (cl.condition, cl.version, cl.link_to(1), cl.link_to(2),
                cl.transfer_time(1, 2, 1e6)) == before
        assert cl.condition is good
        assert model.latency(arch, plan, cl) == priced == simulate_latency(
            model.graph(arch), plan, cl).total_s

    def test_device_accessors(self):
        cl = star_topology([rpi4(), desktop_gtx1080()],
                           NetworkCondition((100.0,), (10.0,)))
        assert cl.local.name == "rpi4"
        assert cl.device(1).name == "desktop_gtx1080"
        assert cl.num_devices == 2

    def test_an_unknown_device_id_is_a_typed_error(self):
        """It was a bare ``KeyError: 5`` / ``IndexError`` from the
        failing lookup."""
        cl = star_topology([rpi4(), desktop_gtx1080(), rpi4()],
                           NetworkCondition((100.0, 50.0), (10.0, 20.0)))
        for call in (lambda: cl.transfer_time(0, 5, 1e3),
                     lambda: cl.transfer_time(5, 1, 1e3),
                     lambda: cl.transfer_time(1, 5, 1e3),
                     lambda: cl.timed_transfer(0, 5, 1e3, 0.0),
                     lambda: cl.link_to(5),
                     lambda: cl.device(5)):
            with pytest.raises(ValueError, match="no device 5: .* 3 devices"):
                call()
        assert cl.transfer_time(0, 2, 1e3) > 0.0   # the last id is fine


def test_a_device_id_outside_the_cluster_is_refused_at_both_ends():
    """``device(-1)`` was the last device on both clusters, and a mesh's
    ``device(n)`` a bare ``IndexError``."""
    devs = [rpi4(), desktop_gtx1080(), rpi4()]
    for cluster in (star_topology(devs,
                                  NetworkCondition.uniform(2, 50.0, 5.0)),
                    ring_topology(devs, 50.0, 5.0)):
        for i in (-1, -3, 3, 4):
            with pytest.raises(ValueError, match=f"no device {i}: .* 3 dev"):
                cluster.device(i)
        assert [cluster.device(i) for i in range(3)] == devs
