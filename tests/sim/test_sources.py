"""Event sources: world schedules become scheduled events."""

import pytest

from repro.control import ControlLoop
from repro.eval.runner import run_scenario
from repro.faults.injector import NULL_FAULTS, FaultInjector
from repro.faults.schedule import DeviceCrash, FaultSchedule, Straggler
from repro.netsim.contention import INGRESS_EDGE, SharedIngress
from repro.netsim.fluid import FluidTracker
from repro.netsim.link import Link
from repro.netsim.traces import condition_at
from repro.sim import (PRIORITY_OBSERVER, PRIORITY_WORLD, EventLoop,
                       schedule_condition_trace, schedule_control_ticks,
                       schedule_fault_transitions, schedule_ingress_trace,
                       schedule_monitor_caps)


class _Cluster:
    def __init__(self):
        self.caps_updates = []

    def update_fluid_caps(self, now, tracker=None):
        self.caps_updates.append(now)
        return True


class _System:
    def __init__(self, faults=None):
        self.cluster = _Cluster()
        self.conditions = []
        self.faults = faults
        self._base_condition = "base"

    def update_condition(self, condition):
        self.conditions.append(condition)


class _Recorder:
    def __init__(self):
        self.seen = []

    def on_condition(self, t, index, condition):
        self.seen.append((t, index, condition))


class _Condition:
    """Distinct, comparable trace cells (only identity matters here)."""

    def __init__(self, tag):
        self.tag = tag
        self.bandwidths_mbps = (float(tag),)
        self.delays_ms = (1.0,)

    def __eq__(self, other):
        return isinstance(other, _Condition) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


# -- condition trace -------------------------------------------------------
def test_condition_trace_schedules_one_event_per_cell_change():
    loop = EventLoop()
    system = _System()
    a, b = _Condition(1), _Condition(2)
    trace = [a, a, a, b, b, a]  # changes at cells 0, 3, 5
    events = schedule_condition_trace(loop, system, trace, period_s=0.5)
    assert [e.time for e in events] == [0.0, 1.5, 2.5]
    assert all(e.priority == PRIORITY_WORLD for e in events)
    loop.advance_to(10.0)
    assert system.conditions == [a, b, a]
    # every step re-converged the cluster's fluid caps at its instant
    assert system.cluster.caps_updates == [0.0, 1.5, 2.5]


def test_condition_trace_records_steps_at_their_true_instants():
    loop = EventLoop()
    system = _System()
    rec = _Recorder()
    trace = [_Condition(1), _Condition(2)]
    schedule_condition_trace(loop, system, trace, period_s=0.25,
                             recorder=rec)
    loop.advance_to(1.0)
    assert rec.seen == [(0.0, 0, trace[0]), (0.25, 1, trace[1])]


def test_condition_step_survives_float_rounded_fire_times():
    # int((3 * 0.7) / 0.7) == 2: recomputing the cell from the fire
    # time re-applied the previous cell and lost the transition.  The
    # scheduled event must carry its own index instead.
    loop = EventLoop()
    system = _System()
    rec = _Recorder()
    a, b = _Condition(1), _Condition(2)
    trace = [a, a, a, b]
    schedule_condition_trace(loop, system, trace, period_s=0.7,
                             recorder=rec)
    loop.advance_to(10.0)
    assert system.conditions == [a, b]
    assert [(i, c) for _, i, c in rec.seen] == [(0, a), (3, b)]


def test_mid_advance_step_applies_at_the_step_instant():
    loop = EventLoop()
    system = _System()
    trace = [_Condition(1), _Condition(2)]
    schedule_condition_trace(loop, system, trace, period_s=1.0)
    loop.advance_to(1.7)  # the t=1.0 step fires on the way
    assert system.cluster.caps_updates == [0.0, 1.0]


# -- fault transitions -----------------------------------------------------
def test_fault_transitions_fire_at_onsets_and_recoveries():
    schedule = FaultSchedule([
        DeviceCrash(1.0, 2.0, device=1),
        Straggler(1.5, 3.0, device=1, slowdown=2.0),
    ])
    injector = FaultInjector(schedule)
    applied = []
    system = _System(faults=injector)
    system.cluster.set_condition = lambda c: None

    # intercept apply_to: the real one needs a full Cluster
    injector.apply_to = lambda cluster, base: applied.append(injector.now)

    loop = EventLoop()
    events = schedule_fault_transitions(loop, system)
    assert [e.time for e in events] == [1.0, 1.5, 2.0, 3.0]
    loop.advance_to(10.0)
    assert applied == [1.0, 1.5, 2.0, 3.0]
    assert system.cluster.caps_updates == [1.0, 1.5, 2.0, 3.0]


def test_no_injector_schedules_nothing():
    # a system given no injector holds the null one, which has no
    # transitions to schedule
    loop = EventLoop()
    assert schedule_fault_transitions(loop, _System(faults=NULL_FAULTS)) == []
    assert loop.pending == 0


# -- control ticks ---------------------------------------------------------
class _Control:
    def __init__(self, period_s):
        self.period_s = period_s
        self.ticks = []

    def maybe_tick(self, now, **kw):
        self.ticks.append(now)
        return True


def test_control_ticks_keep_cadence_through_idle_gaps():
    loop = EventLoop()
    control = _Control(period_s=0.5)
    events = schedule_control_ticks(loop, control, horizon_s=2.0)
    assert [e.time for e in events] == [0.5, 1.0, 1.5, 2.0]
    assert all(e.priority == PRIORITY_OBSERVER for e in events)
    loop.advance_to(2.0)
    assert control.ticks == [0.5, 1.0, 1.5, 2.0]


def test_control_ticks_land_on_true_multiples_without_drift():
    # accumulating t += period_s compounds float error: with
    # period 0.1, horizon 3.0 tick 6 lands off 0.6 and the final tick
    # at 3.0 is skipped outright.  Ticks must be exact k * period_s.
    loop = EventLoop()
    control = _Control(period_s=0.1)
    events = schedule_control_ticks(loop, control, horizon_s=3.0)
    assert [e.time for e in events] == [k * 0.1 for k in range(1, 31)]
    assert events[-1].time == 3.0


def test_control_ticks_none_control_is_a_noop():
    loop = EventLoop()
    assert schedule_control_ticks(loop, None, horizon_s=2.0) == []


# -- periods are finite and positive, checked up front ---------------------
_BAD_PERIODS = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("period_s", _BAD_PERIODS)
@pytest.mark.parametrize("trace", [[10.0, 5.0, 10.0], []])
def test_ingress_trace_rejects_a_bad_period(period_s, trace):
    # nan used to schedule NaN-time events (the step at index 0 never
    # fired); an empty trace used to return before the period check
    loop = EventLoop()
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                            FluidTracker(), payload_bytes=1024.0)
    with pytest.raises(ValueError, match="period_s must be positive"):
        schedule_ingress_trace(loop, ingress, trace, period_s)
    assert loop.pending == 0


@pytest.mark.parametrize("period_s", _BAD_PERIODS)
def test_condition_trace_and_monitor_caps_reject_a_bad_period(period_s):
    loop = EventLoop()
    with pytest.raises(ValueError, match="period_s must be positive"):
        schedule_condition_trace(loop, _System(), [_Condition(1)], period_s)
    with pytest.raises(ValueError, match="period_s must be positive"):
        schedule_monitor_caps(loop, _System(), FluidTracker(), period_s,
                              horizon_s=2.0)


@pytest.mark.parametrize("period_s", _BAD_PERIODS)
def test_condition_at_and_control_loop_reject_a_bad_period(period_s):
    # ControlLoop(period_s=nan) used to pass ``period_s <= 0`` and then
    # report a tick as fired forever with ``ticks == 0``
    with pytest.raises(ValueError, match="period_s must be positive"):
        condition_at([1.0, 2.0], 0.5, period_s)
    with pytest.raises(ValueError, match="period_s must be positive"):
        ControlLoop([], period_s=period_s)


def test_condition_at_holds_the_last_cell_however_far_past_the_end():
    # 1e308 / 0.5 is inf, and ``int(inf)`` raised OverflowError
    assert [condition_at([1, 2, 3], t, 0.5)[0]
            for t in (0.999, 1.0, 1e308, float("inf"))] == [1, 2, 2, 2]
    with pytest.raises(ValueError, match="t must be non-negative"):
        condition_at([1, 2, 3], float("nan"), 0.5)


# -- ingress capacity trace ------------------------------------------------
@pytest.mark.parametrize("bad", [0, -5.0, float("nan")])
def test_a_bad_ingress_trace_cell_is_rejected_before_anything_runs(bad):
    """A cell that is not a positive bandwidth used to schedule happily
    and raise from inside its own event — already popped, the clock
    stuck at the step — or, for the lazy ablation and the scenario
    config, mid-serving.  All three name the cell up front."""
    from repro.eval.event_core import EventCoreConfig, SteppedIngress
    loop = EventLoop()
    link = Link(bandwidth_mbps=40.0, delay_ms=5.0)
    ingress = SharedIngress(link, FluidTracker(), payload_bytes=1024.0)
    with pytest.raises(ValueError, match=r"trace_mbps\[1\] must be positive"):
        schedule_ingress_trace(loop, ingress, [40, bad, 40], 1.0)
    assert loop.pending == 0
    loop.advance_to(5.0)
    assert loop.clock.now == 5.0 and ingress.link is link
    with pytest.raises(ValueError, match=r"trace_mbps\[1\] must be positive"):
        SteppedIngress(link, FluidTracker(), (40.0, bad, 40.0), 1.0)
    with pytest.raises(ValueError, match=r"trace_mbps\[2\] must be positive"):
        EventCoreConfig(ingress_trace_mbps=(40.0, 40.0, bad))


def test_ingress_trace_steps_capacity_and_reconverges_fluid():
    loop = EventLoop()
    tracker = FluidTracker()
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                            tracker, payload_bytes=512 * 1024.0)
    events = schedule_ingress_trace(loop, ingress, [40.0, 5.0, 40.0],
                                    period_s=1.0)
    assert [e.time for e in events] == [0.0, 1.0, 2.0]
    ingress.admit(0.5)  # an upload in flight across the t=1.0 step
    loop.advance_to(1.0)
    assert ingress.link.bandwidth_mbps == 5.0
    # the in-flight flow re-converged at the step instant
    assert tracker.caps_updates_total >= 1
    assert tracker._caps[INGRESS_EDGE] == 5e6
    loop.advance_to(2.0)
    assert ingress.link.bandwidth_mbps == 40.0


def test_reconvergence_happened_mid_flight():
    """Only the event variant applies capacities mid-flight, once per
    trace-cell change (5 changes in the default trace), and the served
    run leaves no step behind on its loop."""
    reports = run_scenario("event_core")
    assert reports["boundary"].tracker.caps_updates_total == 0
    assert reports["event"].tracker.caps_updates_total == 5
    assert reports["event"].events.fired_total == 5
    assert reports["event"].events.pending == 0


def test_ingress_step_survives_float_rounded_fire_times():
    # same rounding trap as the condition trace: the cell change at
    # idx 3, period 0.7 fires at 2.0999... which indexes back to cell 2
    # when recomputed from time — the step must carry its own index.
    loop = EventLoop()
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                            FluidTracker(), payload_bytes=1024.0)
    schedule_ingress_trace(loop, ingress, [40.0, 40.0, 40.0, 5.0],
                           period_s=0.7)
    loop.advance_to(10.0)
    assert ingress.link.bandwidth_mbps == 5.0


# -- monitor-fed caps ------------------------------------------------------
class _Estimate:
    def __init__(self, bandwidths_mbps):
        self.bandwidths_mbps = bandwidths_mbps


class _Monitor:
    def __init__(self, bandwidths_mbps):
        self._bw = bandwidths_mbps
        self.probes = []

    def probe_all(self, now):
        self.probes.append(now)

    def estimate(self):
        return _Estimate(self._bw)


def test_monitor_caps_push_observed_bandwidths_into_the_ledger():
    loop = EventLoop()
    system = _System()
    system.monitor = _Monitor((80.0, 20.0))
    tracker = FluidTracker()
    events = schedule_monitor_caps(loop, system, tracker, period_s=0.5,
                                   horizon_s=1.5)
    assert [e.time for e in events] == [0.5, 1.0, 1.5]
    loop.advance_to(1.5)
    assert system.monitor.probes == [0.5, 1.0, 1.5]
    assert tracker.caps_updates_total == 3
    assert tracker._caps[(0, 1)] == 80e6
    assert tracker._caps[(0, 2)] == 20e6


def test_monitor_caps_reject_non_fluid_trackers_and_bad_periods():
    loop = EventLoop()
    system = _System()
    system.monitor = _Monitor((10.0,))
    with pytest.raises(ValueError, match="fluid"):
        schedule_monitor_caps(loop, system, object(),
                              period_s=0.5, horizon_s=1.0)
    with pytest.raises(ValueError, match="positive"):
        schedule_monitor_caps(loop, system, FluidTracker(),
                              period_s=0.0, horizon_s=1.0)
