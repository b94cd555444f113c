"""ControlLoop: cadence, snapshot windows, admission plumbing."""

from types import SimpleNamespace

import pytest

from repro.control import (BatchPolicyController, ControlAction, ControlLoop,
                           Controller)
from repro.core import SLO
from repro.netsim import NetworkCondition
from repro.runtime import BatchPolicy, RequestRecord, ServingStats
from repro.telemetry import Telemetry


class _Recorder(Controller):
    """Records every snapshot; returns a canned description (or None)."""

    name = "recorder"

    def __init__(self, description=None):
        self.snapshots = []
        self.description = description

    def update(self, snapshot, loop):
        self.snapshots.append(snapshot)
        return self.description


class _FakeMonitor:
    def __init__(self, condition):
        self._condition = condition

    def estimate(self):
        return self._condition


class _FakeSystem:
    """Just enough of the Murmuration facade for a snapshot."""

    def __init__(self, slo=None, min_latency_s=0.05):
        self.slo = slo if slo is not None else SLO.latency(0.3)
        self.monitor = _FakeMonitor(NetworkCondition((100.0,), (10.0,)))
        self._min_latency_s = min_latency_s

    def min_strategy(self):
        return SimpleNamespace(expected_latency_s=self._min_latency_s)


def _record(arrival, start, finish, outcome="ok", satisfied=True):
    service = finish - start
    return RequestRecord(arrival=arrival, start=start, finish=finish,
                         inference_s=service, decision_s=0.0, switch_s=0.0,
                         satisfied=satisfied, outcome=outcome)


class TestCadence:
    def test_does_not_fire_before_period(self):
        loop = ControlLoop([_Recorder()], period_s=0.5)
        assert not loop.maybe_tick(0.0)
        assert not loop.maybe_tick(0.49)
        assert loop.ticks == 0

    def test_fires_once_per_period(self):
        loop = ControlLoop([_Recorder()], period_s=0.5)
        assert loop.maybe_tick(0.5)
        assert not loop.maybe_tick(0.6)   # same period: already fired
        assert loop.maybe_tick(1.0)
        assert loop.ticks == 2

    def test_idempotent_for_one_time(self):
        """A second call at the same now does not fire again."""
        loop = ControlLoop([_Recorder()], period_s=0.5)
        assert loop.maybe_tick(0.7)
        assert not loop.maybe_tick(0.7)
        assert loop.ticks == 1

    def test_late_tick_catches_up_without_bursting(self):
        """A long gap fires ONE tick, then the cadence realigns ahead of
        now — controllers never see a burst of stale back-to-back ticks."""
        loop = ControlLoop([_Recorder()], period_s=0.5)
        assert loop.maybe_tick(2.7)       # missed 5 periods: one tick
        assert loop.ticks == 1
        assert not loop.maybe_tick(2.9)   # realigned to 3.0
        assert loop.maybe_tick(3.0)

    def test_default_long_gap_fires_exactly_once(self):
        """Regression for the idle-gap semantics: a gap spanning many
        periods fires exactly one tick per maybe_tick call — never a
        burst — and the controller sees exactly one snapshot at the late
        now."""
        rec = _Recorder()
        loop = ControlLoop([rec], period_s=0.5)
        assert loop.maybe_tick(10.3)      # missed ~20 periods
        assert loop.ticks == 1
        assert len(rec.snapshots) == 1
        assert rec.snapshots[0].t == 10.3
        assert not loop.maybe_tick(10.4)  # realigned past now
        assert loop.maybe_tick(10.5)
        assert loop.ticks == 2

    def test_attach_is_idempotent_and_chains(self):
        loop = ControlLoop([])
        system = _FakeSystem()
        assert loop.attach(system=system) is loop
        loop.attach(server="srv")
        assert loop.system is system and loop.server == "srv"
        loop.attach()  # no-arg attach must not detach anything
        assert loop.system is system and loop.server == "srv"


class TestSnapshot:
    def test_window_deltas_cover_interval_since_last_tick(self):
        rec = _Recorder()
        system = _FakeSystem()
        loop = ControlLoop([rec], period_s=1.0).attach(system=system)
        stats = ServingStats(records=[_record(0.0, 0.0, 0.2)])
        loop.maybe_tick(1.0, stats=stats, queue_depth=3)
        snap = rec.snapshots[-1]
        assert snap.window.records == stats.records
        assert snap.window.mean_service_s == pytest.approx(0.2)
        assert snap.queue_depth == 3
        assert snap.slo_s == pytest.approx(0.3)
        assert snap.condition == system.monitor.estimate()

        # second window sees only what happened since the first tick
        stats.records.append(_record(1.0, 1.1, 1.5, satisfied=False))
        loop.maybe_tick(2.0, stats=stats)
        snap = rec.snapshots[-1]
        assert snap.window.records == stats.records[1:]
        assert snap.window.slo_compliance == 0.0

    def test_shed_and_failed_excluded_from_service_estimate(self):
        """A shed request's zero-second 'service' must not drag the
        admission controller's estimate toward zero."""
        rec = _Recorder()
        loop = ControlLoop([rec], period_s=1.0).attach(system=_FakeSystem())
        stats = ServingStats(records=[
            _record(0.0, 0.0, 0.2),
            _record(0.1, 0.1, 0.1, outcome="shed", satisfied=False),
            _record(0.2, 0.2, 0.2, outcome="failed", satisfied=False),
        ])
        loop.maybe_tick(1.0, stats=stats)
        snap = rec.snapshots[-1]
        assert len(snap.window.records) == 3
        assert snap.window.mean_service_s == pytest.approx(0.2)

    def test_batch_policy_reads_the_reports_p95_with_sheds_in_the_window(
            self):
        """A window of one 200 ms request and nineteen sheds (end to end
        0 s): the report's p95 leaves the sheds out and reads 200 ms, over
        the 150 ms shrink threshold, so the cap holds.  A p95 taken over
        the sheds too reads 10 ms and halves the cap — the more admission
        sheds, the more the batch cap shrinks."""
        server = SimpleNamespace(policy=BatchPolicy(max_batch=8))
        rec = _Recorder()
        loop = ControlLoop([rec, BatchPolicyController()],
                           period_s=1.0).attach(system=_FakeSystem(),
                                                server=server)
        stats = ServingStats(records=[_record(0.0, 0.0, 0.2)] + [
            _record(0.05 * k, 0.05 * k, 0.05 * k, outcome="shed",
                    satisfied=False) for k in range(1, 20)])
        loop.maybe_tick(1.0, stats=stats, queue_depth=0)
        assert server.policy.max_batch == 8
        assert loop.actions == []
        assert rec.snapshots[-1].window.percentile_ms(95) \
            == stats.percentile_ms(95) == pytest.approx(200.0)

    def test_an_unattached_tick_sees_no_window_condition_or_slo(self):
        rec = _Recorder()
        loop = ControlLoop([rec], period_s=1.0)
        loop.maybe_tick(1.0)
        snap = rec.snapshots[-1]
        assert snap.window.records == []
        assert snap.window.mean_service_s == 0.0
        assert snap.condition is None and snap.slo_s is None


class TestActionsAndTelemetry:
    def test_actions_logged_with_time_and_controller(self):
        loop = ControlLoop([_Recorder(description="did a thing")],
                           period_s=0.5)
        loop.maybe_tick(0.5)
        loop.maybe_tick(1.0)
        assert loop.actions == [
            ControlAction(0.5, "recorder", "did a thing"),
            ControlAction(1.0, "recorder", "did a thing"),
        ]
        assert "2 ticks, 2 actions" in loop.summary()
        assert "recorder=2" in loop.summary()

    def test_telemetry_counts_ticks_and_actions(self):
        tel = Telemetry()
        loop = ControlLoop([_Recorder(description="x")], period_s=0.5,
                           telemetry=tel)
        loop.maybe_tick(0.5)
        loop.maybe_tick(1.0)
        reg = tel.registry
        assert reg.get("control_ticks_total").value == 2
        assert reg.get("control_actions_total",
                       controller="recorder").value == 2


class _AlwaysShed(Controller):
    name = "always-shed"

    def update(self, snapshot, loop):
        return None

    def admit(self, arrival, start, slo_s, loop, tenant=None):
        return "shed"


class TestAdmitPlumbing:
    def test_no_admission_controller_serves_everything(self):
        loop = ControlLoop([_Recorder()])
        assert loop.admit(0.0, 5.0, SLO.latency(0.1)) == "serve"

    def test_delegates_to_stacked_admission_controller(self):
        tel = Telemetry()
        loop = ControlLoop([_AlwaysShed()], telemetry=tel)
        assert loop.admit(0.0, 0.0, SLO.latency(0.1)) == "shed"
        assert tel.registry.get("control_admission_total",
                                verdict="shed").value == 1

    def test_accuracy_slo_is_not_actionable(self):
        """Queue wait cannot blow an accuracy SLO: always serve."""
        loop = ControlLoop([_AlwaysShed()])
        assert loop.admit(0.0, 99.0, SLO.accuracy(75.0)) == "serve"
        assert loop.admit(0.0, 99.0, None) == "serve"
