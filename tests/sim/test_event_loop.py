"""EventLoop: ordering, tie-breaking, clamping, clock integration."""

import pytest

from repro.runtime.clock import SimulatedClock
from repro.sim import EventLoop


def test_events_fire_in_time_order_regardless_of_schedule_order():
    loop = EventLoop()
    fired = []
    loop.schedule(3.0, lambda t: fired.append(("c", t)))
    loop.schedule(1.0, lambda t: fired.append(("a", t)))
    loop.schedule(2.0, lambda t: fired.append(("b", t)))
    assert loop.advance_to(5.0) == 3
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert loop.now == 5.0


def test_equal_time_ties_break_by_priority_then_insertion():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda t: fired.append("observer-first-scheduled"),
                  priority=10)
    loop.schedule(1.0, lambda t: fired.append("world-a"), priority=0)
    loop.schedule(1.0, lambda t: fired.append("world-b"), priority=0)
    loop.advance_to(1.0)
    # lower priority fires first; equal priorities keep insertion order
    assert fired == ["world-a", "world-b", "observer-first-scheduled"]


def test_callback_receives_scheduled_time_not_advance_target():
    loop = EventLoop()
    seen = []
    loop.schedule(3.0, seen.append)
    loop.advance_to(3.4)
    assert seen == [3.0]
    assert loop.now == 3.4


def test_advance_to_fires_events_exactly_at_the_target():
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, seen.append)
    loop.advance_to(2.0)
    assert seen == [2.0]


def test_advance_to_the_past_clamps_and_fires_nothing():
    loop = EventLoop()
    loop.advance_to(5.0)
    seen = []
    loop.schedule(6.0, seen.append)
    assert loop.advance_to(3.0) == 0
    assert loop.now == 5.0
    assert seen == []
    assert loop.pending == 1


def test_scheduling_into_the_past_is_rejected():
    loop = EventLoop()
    loop.advance_to(4.0)
    with pytest.raises(ValueError, match="past"):
        loop.schedule(3.0, lambda t: None)
    # scheduling exactly at now is fine (fires on the next advance)
    ev = loop.schedule(4.0, lambda t: None)
    assert ev.time == 4.0


def test_negative_relative_advance_is_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.advance(-1.0)


def test_callbacks_can_schedule_into_the_current_window():
    loop = EventLoop()
    fired = []

    def cascade(t):
        fired.append(("first", t))
        loop.schedule(t + 0.5, lambda tt: fired.append(("chained", tt)))

    loop.schedule(1.0, cascade)
    loop.advance_to(2.0)
    assert fired == [("first", 1.0), ("chained", 1.5)]


def test_shared_clock_moves_with_the_loop_and_vice_versa():
    clock = SimulatedClock()
    loop = EventLoop(clock)
    times = []
    loop.schedule(2.0, times.append)
    # someone else (the serving facade) advances the shared clock past
    # the event; the event is now "due" and fires on the next advance
    clock.advance_to(1.0)
    assert loop.now == 1.0
    loop.advance_to(2.5)
    assert times == [2.0]
    assert clock.now == 2.5


def test_event_older_than_clock_fires_without_rewinding():
    """The batched overlap path resets the shared clock forward past a
    pending event; the event still fires (at its own scheduled time)
    and the clock never moves backwards."""
    clock = SimulatedClock()
    loop = EventLoop(clock)
    times = []
    loop.schedule(2.0, times.append)
    clock.reset(3.0)  # overlap path jumped over the event
    loop.advance_to(3.5)
    assert times == [2.0]
    assert clock.now == 3.5


def test_run_drains_everything_in_order():
    loop = EventLoop()
    fired = []
    for t in (3.0, 1.0, 2.0):
        loop.schedule(t, fired.append)
    assert loop.run() == 3
    assert fired == [1.0, 2.0, 3.0]
    assert loop.pending == 0
    assert len(loop) == 0
    assert loop.fired_total == 3


def test_peek_time_and_counters():
    loop = EventLoop()
    assert loop.peek_time() is None
    loop.schedule(5.0, lambda t: None)
    loop.schedule(1.0, lambda t: None)
    assert loop.peek_time() == 1.0
    assert loop.pending == 2
    loop.advance_to(1.0)
    assert loop.peek_time() == 5.0
    assert loop.fired_total == 1


def test_no_events_advance_is_plain_clock_advance():
    """The byte-identity guarantee: an empty loop only moves the clock."""
    clock = SimulatedClock()
    loop = EventLoop(clock)
    assert loop.advance_to(7.25) == 0
    assert clock.now == 7.25
    assert loop.fired_total == 0


# -- non-finite times ------------------------------------------------------
@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_scheduling_at_a_non_finite_time_is_rejected(t):
    # a NaN event used to pass the ``t < now`` check, sit at the heap
    # top and compare false against every advance target: everything
    # behind it was silently lost
    loop = EventLoop()
    fired = []
    with pytest.raises(ValueError, match="cannot schedule"):
        loop.schedule(t, fired.append)
    loop.schedule(1.0, fired.append)
    assert loop.advance_to(5.0) == 1
    assert fired == [1.0] and loop.pending == 0


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_advancing_to_a_non_finite_time_is_rejected(t):
    loop = EventLoop()
    loop.schedule(1.0, lambda t: None)
    with pytest.raises(ValueError, match="cannot advance"):
        loop.advance_to(t)
    assert loop.now == 0.0 and loop.pending == 1
