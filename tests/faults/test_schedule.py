"""Fault schedules: validation, point-in-time queries, generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (CorrelatedFailure, DeviceCrash, FaultSchedule,
                          LinkDegradation, LinkFailure, LinkFlap,
                          crash_and_recover_schedule)


class TestEventValidation:
    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            DeviceCrash(5.0, 5.0, device=1)

    def test_degradation_factor_range(self):
        with pytest.raises(ValueError):
            LinkDegradation(0.0, 1.0, device=1, bw_factor=1.5)

    def test_active_window_is_half_open(self):
        e = DeviceCrash(1.0, 2.0, device=1)
        assert not e.active(0.99)
        assert e.active(1.0)
        assert e.active(1.99)
        assert not e.active(2.0)


class TestScheduleQueries:
    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule(["crash"])

    def test_down_and_unreachable(self):
        sched = FaultSchedule([
            DeviceCrash(1.0, 2.0, device=1),
            CorrelatedFailure(1.5, 3.0, devices=(2, 3)),
        ])
        assert sched.down_devices(1.2) == {1}
        assert sched.down_devices(1.7) == {1, 2, 3}
        assert sched.down_devices(2.5) == {2, 3}
        assert sched.down_devices(3.0) == frozenset()
        assert not sched.reachable(0, 3, 2.5)
        assert sched.reachable(0, 1, 2.5)

    def test_reachability(self):
        sched = FaultSchedule([DeviceCrash(0.0, 1.0, device=2)])
        assert sched.reachable(0, 1, 0.5)
        assert not sched.reachable(0, 2, 0.5)
        # remote-remote relays through the switch: a dead end cannot
        assert not sched.reachable(1, 2, 0.5)
        assert sched.reachable(2, 2, 0.5)  # self-sends always deliver
        assert sched.reachable(0, 2, 1.0)

    def test_degrade(self):
        """A degradation hits its remote's spoke of a star only, and
        only inside its window."""
        spokes = [(0, 1), (0, 2)]
        sched = FaultSchedule([
            LinkDegradation(0.0, 1.0, device=1, bw_factor=0.5,
                            extra_delay_ms=15.0)])
        assert sched.link_degradations(0.5, spokes) == {(0, 1): (0.5, 15.0)}
        assert sched.link_degradations(2.0, spokes) == {}

    def test_degrade_ignores_out_of_range_device(self):
        sched = FaultSchedule([
            LinkDegradation(0.0, 1.0, device=5, bw_factor=0.5)])
        assert sched.link_degradations(0.5, [(0, 1)]) == {}

    def test_horizon(self):
        assert FaultSchedule([]).horizon == 0.0
        sched = FaultSchedule([DeviceCrash(1.0, 4.0, device=1),
                               LinkDegradation(0.0, 2.0, device=1)])
        assert sched.horizon == 4.0


class _Unindexed(FaultSchedule):
    """The oracle: every query scans every event, as before the
    transition-segment index."""

    def _live(self, now):
        return self.events


_TIMES = st.integers(0, 12).map(lambda k: k * 0.25)
_ENDS = st.one_of(st.integers(1, 8).map(lambda k: k * 0.25),
                  st.just(float("inf")))
_REMOTE = st.integers(1, 3)
_EDGE = st.sampled_from([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])


@st.composite
def _events(draw):
    start = draw(_TIMES)
    end = start + draw(_ENDS)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return DeviceCrash(start, end, device=draw(_REMOTE))
    if kind == 1:
        return LinkDegradation(start, end, device=draw(_REMOTE),
                               bw_factor=draw(st.floats(0.05, 1.0)),
                               extra_delay_ms=draw(st.floats(0.0, 50.0)))
    if kind == 2:
        return LinkFailure(start, end, *draw(_EDGE))
    if kind == 3:
        return LinkFlap(start, end, *draw(_EDGE), step_s=0.3,
                        seed=draw(st.integers(0, 9)))
    return CorrelatedFailure(start, end,
                             devices=tuple(draw(st.sets(_REMOTE))),
                             links=(draw(_EDGE),))


@settings(max_examples=150, deadline=None)
@given(st.lists(_events(), max_size=8),
       st.lists(st.one_of(_TIMES, _TIMES.map(lambda t: t + 0.1),
                          st.sampled_from([-1.0, 50.0, float("inf"),
                                           float("nan")])),
                min_size=1, max_size=6))
def test_indexed_queries_read_what_a_scan_of_every_event_reads(events, times):
    """Every point-in-time query of the indexed schedule equals the same
    query over every event, at transition instants, between them, and
    at times no window holds (NaN included); compounded factors keep
    their association because each segment keeps schedule order."""
    fast, slow = FaultSchedule(events), _Unindexed(events)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for now in times + list(fast.transition_times()):
        for name, args in (("active", ()), ("down_devices", ()),
                           ("down_links", ()), ("down_links", (edges,)),
                           ("link_degradations", (edges,))):
            assert getattr(fast, name)(now, *args) \
                == getattr(slow, name)(now, *args), (name, now)
        for src, dst in ((0, 1), (1, 2), (3, 0), (2, 2)):
            assert fast.reachable(src, dst, now) \
                == slow.reachable(src, dst, now)


class TestLinkEvents:
    def test_link_failure_validation_and_edge(self):
        with pytest.raises(ValueError):
            LinkFailure(0.0, 1.0, a=2, b=2)
        assert LinkFailure(0.0, 1.0, a=3, b=1).edge == (1, 3)

    def test_down_links_collects_failures(self):
        sched = FaultSchedule([LinkFailure(1.0, 4.0, a=0, b=1),
                               LinkFailure(2.0, 5.0, a=2, b=1)])
        assert sched.down_links(0.5) == frozenset()
        assert sched.down_links(1.5) == frozenset({(0, 1)})
        assert sched.down_links(3.0) == frozenset({(0, 1), (1, 2)})
        assert sched.down_links(4.5) == frozenset({(1, 2)})

    def test_flap_is_deterministic_and_order_independent(self):
        kw = dict(a=0, b=1, p_fail=0.4, p_recover=0.4, step_s=0.5, seed=9)
        f1 = LinkFlap(0.0, 20.0, **kw)
        f2 = LinkFlap(0.0, 20.0, **kw)
        times = [0.1 + 0.5 * k for k in range(40)]
        forward = [f1.down_at(t) for t in times]
        backward = [f2.down_at(t) for t in reversed(times)]
        assert forward == list(reversed(backward))
        # the onset is the first outage; outside the window it is up
        assert f1.down_at(0.0)
        assert not f1.down_at(25.0)
        # different seed, different burst pattern
        f3 = LinkFlap(0.0, 20.0, a=0, b=1, p_fail=0.4, p_recover=0.4,
                      step_s=0.5, seed=10)
        assert [f3.down_at(t) for t in times] != forward

    def test_flap_produces_bursts_not_iid(self):
        """Small p_recover yields multi-step outage runs."""
        flap = LinkFlap(0.0, 100.0, a=0, b=1, p_fail=0.5, p_recover=0.1,
                        step_s=1.0, seed=0)
        states = [flap.down_at(t + 0.5) for t in range(100)]
        longest = run = 0
        for s in states:
            run = run + 1 if s else 0
            longest = max(longest, run)
        assert longest >= 3

    def test_correlated_failure_validation(self):
        with pytest.raises(ValueError):
            CorrelatedFailure(0.0, 1.0)  # empty blast radius
        with pytest.raises(ValueError):
            CorrelatedFailure(0.0, 1.0, devices=(0,))  # gateway
        e = CorrelatedFailure(0.0, 1.0, devices=(2,), links=((3, 1),))
        assert e.links == ((1, 3),)  # normalized

    def test_correlated_failure_downs_devices_and_links_together(self):
        sched = FaultSchedule([CorrelatedFailure(
            2.0, 6.0, devices=(2, 3), links=((1, 2),), domain="rack")])
        assert sched.down_devices(3.0) == {2, 3}
        assert sched.down_links(3.0) == frozenset({(1, 2)})
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        # with the mesh edge list, the crashed devices sever everything
        assert sched.down_links(3.0, edges) == frozenset(
            {(1, 2), (2, 3), (0, 3)})
        assert sched.down_devices(6.0) == frozenset()
        assert sched.down_links(6.0, edges) == frozenset()


class TestGenerators:
    def test_crash_and_recover(self):
        sched = crash_and_recover_schedule(device=2, crash_at=1.0,
                                           recover_at=3.0)
        assert sched.down_devices(2.0) == {2}
        assert sched.down_devices(3.0) == frozenset()
