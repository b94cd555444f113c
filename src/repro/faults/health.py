"""Per-device health tracking with circuit-breaker semantics.

The decision layer may not peek at the fault schedule; what it *may* do
is remember how its own sends went.  :class:`DeviceHealth` is that
memory: a per-device breaker that opens after ``FAILURE_THRESHOLD`` = 3
consecutive delivery failures, rejects the device while open (so cached
or freshly decided strategies routing through it are rerouted without
re-paying timeouts), half-opens after ``COOLDOWN_S`` = 2 s of simulated
time to let one trial request probe the device, and closes again on
success.

State machine (per remote device)::

    CLOSED --(3 consecutive failures)---------> OPEN
    OPEN   --(COOLDOWN_S elapsed)-------------> HALF_OPEN
    HALF_OPEN --success--> CLOSED
    HALF_OPEN --failure--> OPEN (cooldown restarts)

The gateway (device 0) is the coordinator itself and is always CLOSED.

On a mesh the same machine also runs per device *pair*: a link breaker
(keyed on the unordered endpoint pair) remembers how sends between two
specific devices went, so "the path to device 2 via this route is dead"
is tracked separately from "device 2 is dead".  Both tables are one
:class:`_Circuits` each; a breaker is created on its key's first
failure, so a device or pair that never fails costs nothing.
"""

from __future__ import annotations

import enum
from typing import Annotated, Dict, List, Optional, Tuple

from .. import IntAtLeast, check_fields
from ..netsim.link import canonical_edge
from ..telemetry import Telemetry

__all__ = ["CircuitState", "DeviceHealth", "NULL_HEALTH"]

#: consecutive failures before a circuit opens
FAILURE_THRESHOLD = 3
#: open -> half-open probe window, simulated seconds
COOLDOWN_S = 2.0


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: numeric encoding for the per-device circuit-state gauge
_GAUGE_VALUE = {CircuitState.CLOSED: 0.0, CircuitState.HALF_OPEN: 1.0,
                CircuitState.OPEN: 2.0}


class _Breaker:
    __slots__ = ("state", "consecutive_failures", "opened_at")

    def __init__(self):
        self.state = CircuitState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0


class _Circuits:
    """The one breaker state machine, over a table of keys (devices, or
    canonical device pairs).  A key never observed is CLOSED and holds
    nothing; ``note(key, to)`` reports each transition."""

    __slots__ = ("_breakers", "_opened", "_note")

    def __init__(self, note):
        self._breakers: Dict[object, _Breaker] = {}
        self._opened: list = []
        self._note = note

    def state(self, key, now: float) -> CircuitState:
        """Current state, resolving open -> half-open on cooldown expiry."""
        b = self._breakers.get(key)
        if b is None:
            return CircuitState.CLOSED
        if (b.state is CircuitState.OPEN
                and now >= b.opened_at + COOLDOWN_S):
            b.state = CircuitState.HALF_OPEN
            self._note(key, CircuitState.HALF_OPEN)
        return b.state

    def fail(self, key, now: float) -> bool:
        """One failure; True if the circuit newly opened."""
        b = self._breakers.get(key)
        if b is None:
            b = self._breakers[key] = _Breaker()
        state = self.state(key, now)
        b.consecutive_failures += 1
        if (state is CircuitState.HALF_OPEN
                or (state is CircuitState.CLOSED
                    and b.consecutive_failures >= FAILURE_THRESHOLD)):
            b.state = CircuitState.OPEN
            b.opened_at = now
            self._opened.append(key)
            self._note(key, CircuitState.OPEN)
            return True
        return False

    def succeed(self, key, now: float) -> None:
        b = self._breakers.get(key)
        if b is None:
            return  # nothing to reset; don't allocate on the happy path
        state = self.state(key, now)
        b.consecutive_failures = 0
        if state is not CircuitState.CLOSED:
            b.state = CircuitState.CLOSED
            self._note(key, CircuitState.CLOSED)

    def drain(self) -> list:
        """Keys whose circuit opened since the last drain."""
        out, self._opened = self._opened, []
        return out


class DeviceHealth:
    """Circuit breakers for every device in a cluster."""

    num_devices: Annotated[int, IntAtLeast(1)]

    def __init__(self, num_devices: int,
                 telemetry: Optional[Telemetry] = None):
        self.num_devices = num_devices
        check_fields(self)
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("health")
        self._m_failures = reg.counter(
            "failures_total", help="delivery failures recorded")
        self._m_successes = reg.counter(
            "successes_total", help="delivery successes recorded")
        count_device = reg.counters(
            "circuit_transitions_total", "circuit-breaker state changes",
            "device", "to")
        count_link = reg.counters(
            "link_circuit_transitions_total",
            "per-link circuit-breaker state changes", "link", "to")
        gauges = [reg.gauge("circuit_state",
                            help="0=closed 1=half-open 2=open", device=str(d))
                  for d in range(num_devices)]

        def device_moved(device: int, to: CircuitState) -> None:
            count_device(device, to.value)
            gauges[device].set(_GAUGE_VALUE[to])

        self._devices = _Circuits(device_moved)
        # per device-pair breakers, keyed on the canonical edge
        self._links = _Circuits(
            lambda pair, to: count_link(f"{pair[0]}-{pair[1]}", to.value))

    @staticmethod
    def of(health: Optional["DeviceHealth"]):
        """``health`` itself, or :data:`NULL_HEALTH` for ``None``."""
        return health if health is not None else NULL_HEALTH

    # -- devices ------------------------------------------------------------
    def state(self, device: int, now: float) -> CircuitState:
        """Current state, resolving open -> half-open on cooldown expiry."""
        return self._devices.state(device, now)

    def allow(self, device: int, now: float) -> bool:
        """May the runtime route work through ``device`` right now?

        Closed and half-open circuits allow (half-open = trial probe);
        open circuits reject.  The gateway's circuit never opens.
        """
        return self._devices.state(device, now) is not CircuitState.OPEN

    def blocked(self, plan, now: float) -> List[int]:
        """Devices of ``plan`` the breakers currently reject.

        A device is blocked when its own circuit is open *or* the
        gateway-pair link circuit is open — a healthy device behind a
        dead path is just as unusable for placement.
        """
        return [d for d in plan.devices_used()
                if d != 0 and not (self.allow(d, now)
                                   and self.allow_link(0, d, now))]

    def record_failure(self, device: int, now: float) -> bool:
        """Record one delivery failure; returns True if the circuit
        newly opened."""
        if device == 0:
            return False
        self._m_failures.inc()
        return self._devices.fail(device, now)

    def record_success(self, device: int, now: float) -> None:
        if device == 0:
            return
        self._m_successes.inc()
        self._devices.succeed(device, now)

    def drain_opened(self) -> List[int]:
        """Devices whose circuit opened since the last drain.

        The facade uses this to invalidate cached strategies that route
        through newly opened devices.
        """
        return self._devices.drain()

    # -- device pairs (mesh) ----------------------------------------------
    def link_state(self, a: int, b: int, now: float) -> CircuitState:
        """Current state of the pair's breaker (CLOSED if never observed),
        resolving open -> half-open on cooldown expiry."""
        return self._links.state(canonical_edge(a, b), now)

    def allow_link(self, a: int, b: int, now: float) -> bool:
        """May the runtime route a transfer between ``a`` and ``b``?
        (A device's pair with itself never opens.)"""
        return self.link_state(a, b, now) is not CircuitState.OPEN

    def record_link_failure(self, a: int, b: int, now: float) -> bool:
        """Record one failed delivery between a pair; returns True if
        the pair's circuit newly opened."""
        if a == b:
            return False
        return self._links.fail(canonical_edge(a, b), now)

    def record_link_success(self, a: int, b: int, now: float) -> None:
        self._links.succeed(canonical_edge(a, b), now)

    def drain_opened_links(self) -> List[Tuple[int, int]]:
        """Device pairs whose link circuit opened since the last drain."""
        return self._links.drain()


class NullHealth:
    """The breakers of a run without a fault injector, where no
    delivery can fail: every circuit closed, nothing recorded, nothing
    newly opened (DESIGN.md, "Optional subsystems").  ``state`` /
    ``link_state`` / ``snapshot`` are only read, and opened circuits
    only drained, from a real :class:`DeviceHealth`; :meth:`blocked`
    does not even enumerate the plan's devices."""

    def allow(self, device, now) -> bool:
        return True

    def allow_link(self, a, b, now) -> bool:
        return True

    def record_failure(self, device, now) -> bool:
        return False

    def record_link_failure(self, a, b, now) -> bool:
        return False

    def record_success(self, device, now) -> None:
        pass

    def record_link_success(self, a, b, now) -> None:
        pass

    def blocked(self, plan, now) -> tuple:
        return ()


#: what a component given no ``health`` holds
NULL_HEALTH = NullHealth()
