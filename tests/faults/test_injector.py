"""The injector: deterministic world perturbation + ground-truth queries."""

import pytest

from repro.devices import rpi4
from repro.faults import (DeviceCrash, FaultInjector, FaultSchedule,
                          LinkDegradation)
from repro.netsim import NetworkCondition, star_topology
from repro.telemetry import Telemetry


def _sched():
    return FaultSchedule([
        DeviceCrash(1.0, 2.0, device=1),
        LinkDegradation(1.0, 2.0, device=2, bw_factor=0.5),
    ])


class TestAdvance:
    def test_returns_newly_active_events(self):
        inj = FaultInjector(_sched())
        assert inj.advance(0.5) == []
        started = inj.advance(1.5)
        assert {e.kind for e in started} == {"crash", "degradation"}
        assert inj.advance(1.7) == []  # still active, not new
        assert inj.advance(2.5) == []  # crash+degradation ended

    def test_ground_truth_queries(self):
        inj = FaultInjector(_sched())
        inj.advance(1.5)
        assert inj.is_down(1)
        assert not inj.is_down(2)
        assert not inj.reachable(0, 1)
        assert inj.reachable(0, 2)
        inj.advance(2.5)
        assert not inj.is_down(1)


class TestApplyTo:
    def test_applies_degradation(self):
        base = NetworkCondition((100.0, 100.0), (10.0, 10.0))
        cluster = star_topology([rpi4()] * 3, base)
        inj = FaultInjector(_sched())
        inj.advance(1.5)
        inj.apply_to(cluster)
        assert cluster.condition.bandwidths_mbps == (100.0, 50.0)
        assert cluster.down_links == {(0, 1)}    # the crashed remote's spoke
        inj.advance(3.5)
        inj.apply_to(cluster)
        assert cluster.condition == base
        assert not cluster.down_links

    def test_idempotent_between_transitions(self):
        base = NetworkCondition((100.0, 100.0), (10.0, 10.0))
        cluster = star_topology([rpi4()] * 3, base)
        inj = FaultInjector(_sched())
        inj.advance(1.5)
        inj.apply_to(cluster)
        cond, version = cluster.condition, cluster.version
        inj.advance(1.6)
        inj.apply_to(cluster)
        # no rebuild: same overlay
        assert cluster.condition is cond and cluster.version == version

    def test_base_condition_change_reapplies(self):
        """A new condition moves the star's spokes; the overlay stays on
        top of them."""
        base = NetworkCondition((100.0, 100.0), (10.0, 10.0))
        cluster = star_topology([rpi4()] * 3, base)
        inj = FaultInjector(_sched())
        inj.advance(1.5)
        inj.apply_to(cluster)
        cluster.set_condition(NetworkCondition((40.0, 40.0), (10.0, 10.0)))
        inj.apply_to(cluster)
        assert cluster.condition.bandwidths_mbps == (40.0, 20.0)


class TestInjectorTelemetry:
    def test_events_and_device_up_gauge(self):
        tel = Telemetry()
        inj = FaultInjector(_sched(), telemetry=tel)
        up = tel.registry.get("faults_device_up", device="1")
        assert up.value == 1.0
        inj.advance(1.5)
        assert tel.registry.get("faults_events_total", kind="crash").value == 1
        assert up.value == 0.0
        inj.advance(2.5)
        assert up.value == 1.0
