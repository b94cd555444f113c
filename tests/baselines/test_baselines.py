"""Neurosurgeon / ADCNN baselines and the method registry."""

import pytest

from repro.baselines import (AUGMENTED_BASELINES, FDSP_FINETUNE_PENALTY,
                             SWARM_BASELINES, adcnn_plan, make_baseline,
                             neurosurgeon_plan)
from repro.core import SLO
from repro.devices import desktop_gtx1080, graph_time, rpi4
from repro.models import get_model
from repro.netsim import NetworkCondition, star_topology
from repro.partition import simulate_latency, single_device_plan


@pytest.fixture
def augmented():
    return star_topology([rpi4(), desktop_gtx1080()],
                         NetworkCondition((200.0,), (20.0,)))


@pytest.fixture
def swarm():
    return star_topology([rpi4() for _ in range(5)],
                         NetworkCondition((200.0,) * 4, (20.0,) * 4))


class TestNeurosurgeon:
    def test_beats_both_extremes_or_matches(self, augmented):
        g = get_model("resnet50")
        r = neurosurgeon_plan(g, augmented)
        local = simulate_latency(g, single_device_plan(g), augmented).total_s
        assert r.latency_s <= local + 1e-12

    def test_big_model_offloads_everything(self, augmented):
        """ResNeXt101 on a Pi is hopeless: the optimal split ships the
        raw input to the GPU."""
        g = get_model("resnext101_32x8d")
        r = neurosurgeon_plan(g, augmented)
        assert r.split == 0

    def test_slow_network_keeps_small_model_local(self):
        cl = star_topology([rpi4(), desktop_gtx1080()],
                           NetworkCondition((1.0,), (200.0,)))
        g = get_model("mobilenet_v3_large")
        r = neurosurgeon_plan(g, cl)
        assert r.split == len(g)  # all local

    def test_accuracy_is_model_accuracy(self, augmented):
        g = get_model("resnet50")
        assert neurosurgeon_plan(g, augmented).accuracy == g.accuracy

    def test_invalid_remote(self, augmented):
        g = get_model("resnet50")
        with pytest.raises(ValueError):
            neurosurgeon_plan(g, augmented, remote=0)


class TestADCNN:
    def test_partitions_on_fast_network(self, swarm):
        cl = star_topology([rpi4() for _ in range(5)],
                           NetworkCondition((1000.0,) * 4, (2.0,) * 4))
        g = get_model("resnet50")
        r = adcnn_plan(g, cl)
        assert r.grid.ntiles > 1
        single = simulate_latency(g, single_device_plan(g), cl).total_s
        assert r.latency_s < single

    def test_falls_back_local_on_terrible_network(self):
        cl = star_topology([rpi4() for _ in range(5)],
                           NetworkCondition((0.5,) * 4, (500.0,) * 4))
        g = get_model("mobilenet_v3_large")
        r = adcnn_plan(g, cl)
        assert r.grid.ntiles == 1
        assert r.accuracy == g.accuracy  # no FDSP penalty unpartitioned

    def test_finetune_penalty_applied_when_partitioned(self, swarm):
        cl = star_topology([rpi4() for _ in range(5)],
                           NetworkCondition((1000.0,) * 4, (2.0,) * 4))
        g = get_model("resnet50")
        r = adcnn_plan(g, cl)
        assert r.accuracy == pytest.approx(g.accuracy - FDSP_FINETUNE_PENALTY)

    def test_plan_valid(self, swarm):
        g = get_model("mobilenet_v3_large")
        r = adcnn_plan(g, swarm)
        r.plan.validate_for(g, swarm.num_devices)


class TestRegistry:
    def test_names(self):
        m = make_baseline("neurosurgeon", "resnet50")
        assert m.name == "Neurosurgeon + ResNet50"

    def test_rosters_match_paper_legends(self):
        aug = {m.name for m in AUGMENTED_BASELINES}
        assert "Neurosurgeon + DenseNet161" in aug
        assert "ADCNN + MobileNetV3" in aug
        assert len(AUGMENTED_BASELINES) == 7
        swm = {m.name for m in SWARM_BASELINES}
        assert "ADCNN + ResNeXt101" in swm
        assert len(SWARM_BASELINES) == 6

    def test_evaluate_with_slo(self, augmented):
        m = make_baseline("neurosurgeon", "mobilenet_v3_large")
        out = m.evaluate(augmented, SLO.latency(1.0))
        assert out.satisfied
        out_tight = m.evaluate(augmented, SLO.latency(0.001))
        assert not out_tight.satisfied

    def test_densenet_never_meets_140ms(self):
        """The paper's headline infeasibility result (Fig. 13a)."""
        m = make_baseline("neurosurgeon", "densenet161")
        for bw in (50.0, 200.0, 400.0):
            for delay in (5.0, 50.0, 100.0):
                cl = star_topology([rpi4(), desktop_gtx1080()],
                                   NetworkCondition((bw,), (delay,)))
                assert not m.evaluate(cl, SLO.latency_ms(140)).satisfied

    def test_mbv3_meets_140ms_on_good_network(self):
        m = make_baseline("neurosurgeon", "mobilenet_v3_large")
        cl = star_topology([rpi4(), desktop_gtx1080()],
                           NetworkCondition((400.0,), (5.0,)))
        assert m.evaluate(cl, SLO.latency_ms(140)).satisfied
