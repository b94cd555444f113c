"""The DeviceHealth circuit breaker: closed -> open -> half-open -> closed.

Every breaker opens at the third consecutive failure and half-opens
two simulated seconds later.
"""

from repro.faults import CircuitState, DeviceHealth
from repro.faults.health import FAILURE_THRESHOLD
from repro.telemetry import Telemetry


class _Key:
    """One breaker of a :class:`DeviceHealth`, through its public methods."""

    def __init__(self, name, fail, succeed, state, allow):
        self.name = name
        self.fail, self.succeed = fail, succeed
        self.state, self.allow = state, allow

    def __repr__(self):
        return self.name


DEVICE = _Key("device 1",
              lambda h, t: h.record_failure(1, t),
              lambda h, t: h.record_success(1, t),
              lambda h, t: h.state(1, t),
              lambda h, t: h.allow(1, t))
#: an unordered pair: each call names its ends in either order
LINK = _Key("link 0-2",
            lambda h, t: h.record_link_failure(2, 0, t),
            lambda h, t: h.record_link_success(0, 2, t),
            lambda h, t: h.link_state(0, 2, t),
            lambda h, t: h.allow_link(2, 0, t))
#: device and link breakers run one state machine: each transition walk
#: below is written once and run over both keys


def walk_opens_then_half_opens(k):
    h = DeviceHealth(4)
    assert not k.fail(h, 0.0), k
    assert not k.fail(h, 0.1), k
    assert k.allow(h, 0.1), k
    assert k.fail(h, 0.2), k  # third: newly opened
    assert k.state(h, 0.2) is CircuitState.OPEN, k
    assert not k.allow(h, 0.3), k
    # device breakers are independent of link breakers
    assert h.allow(0, 0.3) and h.allow(2, 0.3), k
    assert h.allow_link(0, 1, 0.3), k
    assert k.state(h, 2.3) is CircuitState.HALF_OPEN, k
    assert k.allow(h, 2.3), k


def walk_success_resets(k):
    h = DeviceHealth(4)
    k.fail(h, 0.0)
    k.fail(h, 0.05)
    k.succeed(h, 0.1)  # streak broken
    assert not k.fail(h, 0.2), k
    assert not k.fail(h, 0.25), k
    assert k.state(h, 0.25) is CircuitState.CLOSED, k
    assert k.fail(h, 0.3), k  # now opens


def walk_half_open_failure_reopens(k):
    h = DeviceHealth(4)
    for t in (0.0, 0.1, 0.2):
        k.fail(h, t)
    assert k.state(h, 2.3) is CircuitState.HALF_OPEN, k
    # one failed probe reopens regardless of the threshold
    assert k.fail(h, 2.4), k
    assert k.state(h, 2.5) is CircuitState.OPEN, k
    # and the cooldown restarted from the reopen
    assert not k.allow(h, 4.3), k
    assert k.allow(h, 4.4), k


class TestBreakerTransitions:
    def test_opens_after_threshold_consecutive_failures(self):
        walk_opens_then_half_opens(DEVICE)

    def test_success_resets_consecutive_count(self):
        walk_success_resets(DEVICE)

    def test_half_open_after_cooldown_then_close_on_success(self):
        for k in (DEVICE, LINK):
            h = DeviceHealth(4)
            for _ in range(FAILURE_THRESHOLD):
                k.fail(h, 0.0)
            assert not k.allow(h, 1.9), k
            # cooldown expired: half-open admits a trial request
            assert k.allow(h, 2.0), k
            assert k.state(h, 2.0) is CircuitState.HALF_OPEN, k
            k.succeed(h, 2.1)
            assert k.state(h, 2.1) is CircuitState.CLOSED, k

    def test_half_open_failure_reopens_immediately(self):
        walk_half_open_failure_reopens(DEVICE)

    def test_gateway_is_always_allowed(self):
        h = DeviceHealth(2)
        assert not any(h.record_failure(0, 0.0)
                       for _ in range(FAILURE_THRESHOLD))
        assert h.allow(0, 0.1)
        assert h.state(0, 0.1) is CircuitState.CLOSED


class TestDrainOpened:
    def test_reports_each_opening_once(self):
        h = DeviceHealth(3)
        for _ in range(FAILURE_THRESHOLD):
            h.record_failure(1, 0.0)
            h.record_failure(2, 0.0)
        assert sorted(h.drain_opened()) == [1, 2]
        assert h.drain_opened() == []
        # reopen after a half-open probe fails -> drained again
        h.state(1, 2.5)
        h.record_failure(1, 2.5)
        assert h.drain_opened() == [1]


class TestLinkBreakers:
    def test_unknown_pair_is_closed_and_allowed(self):
        h = DeviceHealth(4)
        assert h.link_state(1, 3, 0.0) is CircuitState.CLOSED
        assert h.allow_link(1, 3, 0.0)
        assert h.allow_link(2, 2, 0.0)  # self-pair is trivially fine

    def test_opens_after_threshold_and_half_opens(self):
        walk_opens_then_half_opens(LINK)

    def test_success_resets_and_half_open_failure_reopens(self):
        walk_success_resets(LINK)
        walk_half_open_failure_reopens(LINK)

    def test_drain_opened_links(self):
        h = DeviceHealth(4)
        for _ in range(FAILURE_THRESHOLD):
            h.record_link_failure(0, 1, 0.0)
            h.record_link_failure(2, 3, 0.1)
        assert h.drain_opened_links() == [(0, 1), (2, 3)]
        assert h.drain_opened_links() == []
        assert h.drain_opened() == []  # device drain untouched

    def test_link_transition_counters(self):
        tel = Telemetry()
        h = DeviceHealth(4, telemetry=tel)
        for _ in range(FAILURE_THRESHOLD):
            h.record_link_failure(0, 2, 0.0)
        assert tel.registry.get("health_link_circuit_transitions_total",
                                link="0-2", to="open").value == 1
        h.record_link_success(0, 2, 2.5)  # half-open resolved, then closed
        assert tel.registry.get("health_link_circuit_transitions_total",
                                link="0-2", to="half_open").value == 1
        assert tel.registry.get("health_link_circuit_transitions_total",
                                link="0-2", to="closed").value == 1


class TestHealthTelemetry:
    def test_counters_and_state_gauge(self):
        tel = Telemetry()
        h = DeviceHealth(2, telemetry=tel)
        gauge = tel.registry.get("health_circuit_state", device="1")
        assert gauge.value == 0.0
        h.record_failure(1, 0.0)
        h.record_failure(1, 0.05)
        h.record_failure(1, 0.1)
        assert gauge.value == 2.0  # open
        assert tel.registry.get("health_failures_total").value == 3
        assert tel.registry.get("health_circuit_transitions_total",
                                device="1", to="open").value == 1
        h.state(1, 2.2)
        assert gauge.value == 1.0  # half-open
        h.record_success(1, 2.3)
        assert gauge.value == 0.0
        assert tel.registry.get("health_successes_total").value == 1
