"""Per-device health tracking with circuit-breaker semantics.

The decision layer may not peek at the fault schedule; what it *may* do
is remember how its own sends went.  :class:`DeviceHealth` is that
memory: a per-device breaker that opens after ``failure_threshold``
consecutive delivery failures, rejects the device while open (so cached
or freshly decided strategies routing through it are rerouted without
re-paying timeouts), half-opens after ``cooldown_s`` of simulated time
to let one trial request probe the device, and closes again on success.

State machine (per remote device)::

    CLOSED --(threshold consecutive failures)--> OPEN
    OPEN   --(cooldown_s elapsed)-------------> HALF_OPEN
    HALF_OPEN --success--> CLOSED
    HALF_OPEN --failure--> OPEN (cooldown restarts)

The gateway (device 0) is the coordinator itself and is always CLOSED.

On a mesh the same machine also runs per device *pair*: a link breaker
(keyed on the unordered endpoint pair) remembers how sends between two
specific devices went, so "the path to device 2 via this route is dead"
is tracked separately from "device 2 is dead".  Link breakers are
created lazily on first observation — a pair that never fails costs
nothing.
"""

from __future__ import annotations

import enum
from typing import Annotated, Dict, List, Optional, Tuple

from .. import IntAtLeast, check_fields
from ..netsim.link import canonical_edge
from ..telemetry import Telemetry
from .resilience import Cooldown, Threshold

__all__ = ["CircuitState", "DeviceHealth", "NULL_HEALTH"]


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


class DeviceHealth:
    """Circuit breakers for every device in a cluster."""

    num_devices: Annotated[int, IntAtLeast(1)]
    failure_threshold: Threshold
    cooldown_s: Cooldown

    def __init__(self, num_devices: int, failure_threshold: int = 3,
                 cooldown_s: float = 2.0,
                 telemetry: Optional[Telemetry] = None):
        self.num_devices = num_devices
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        check_fields(self)
        self._breakers = [_Breaker() for _ in range(num_devices)]
        self._newly_opened: List[int] = []
        # per device-pair breakers, created lazily on first observation
        self._link_breakers: Dict[Tuple[int, int], _Breaker] = {}
        self._newly_opened_links: List[Tuple[int, int]] = []
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("health")
        self._m_failures = reg.counter(
            "failures_total", help="delivery failures recorded")
        self._m_successes = reg.counter(
            "successes_total", help="delivery successes recorded")
        self._count_transition = reg.counters(
            "circuit_transitions_total", "circuit-breaker state changes",
            "device", "to")
        self._count_link_transition = reg.counters(
            "link_circuit_transitions_total",
            "per-link circuit-breaker state changes", "link", "to")
        self._m_state = {
            d: reg.gauge("circuit_state", help="0=closed 1=half-open 2=open",
                         device=str(d))
            for d in range(num_devices)}

    @staticmethod
    def of(health: Optional["DeviceHealth"]):
        """``health`` itself, or :data:`NULL_HEALTH` for ``None``."""
        return health if health is not None else NULL_HEALTH

    # -- telemetry helpers ------------------------------------------------
    def _transition(self, device: int, to: CircuitState) -> None:
        self._count_transition(device, to.value)
        self._m_state[device].set(_GAUGE_VALUE[to])

    # -- queries ----------------------------------------------------------
    def state(self, device: int, now: float) -> CircuitState:
        """Current state, resolving open -> half-open on cooldown expiry."""
        b = self._breakers[device]
        if (b.state is CircuitState.OPEN
                and now >= b.opened_at + self.cooldown_s):
            b.state = CircuitState.HALF_OPEN
            self._transition(device, CircuitState.HALF_OPEN)
        return b.state

    def allow(self, device: int, now: float) -> bool:
        """May the runtime route work through ``device`` right now?

        Closed and half-open circuits allow (half-open = trial probe);
        open circuits reject.
        """
        if device == 0:
            return True
        return self.state(device, now) is not CircuitState.OPEN

    def blocked(self, plan, now: float) -> List[int]:
        """Devices of ``plan`` the breakers currently reject.

        A device is blocked when its own circuit is open *or* the
        gateway-pair link circuit is open — a healthy device behind a
        dead path is just as unusable for placement.
        """
        return [d for d in plan.devices_used()
                if d != 0 and not (self.allow(d, now)
                                   and self.allow_link(0, d, now))]

    def snapshot(self, now: float) -> Dict[int, str]:
        return {d: self.state(d, now).value for d in range(self.num_devices)}

    # -- observations -----------------------------------------------------
    def record_failure(self, device: int, now: float) -> bool:
        """Record one delivery failure; returns True if the circuit
        newly opened."""
        if device == 0:
            return False
        self._m_failures.inc()
        b = self._breakers[device]
        state = self.state(device, now)
        b.consecutive_failures += 1
        opens = (state is CircuitState.HALF_OPEN
                 or (state is CircuitState.CLOSED
                     and b.consecutive_failures >= self.failure_threshold))
        if opens and state is not CircuitState.OPEN:
            b.state = CircuitState.OPEN
            b.opened_at = now
            self._newly_opened.append(device)
            self._transition(device, CircuitState.OPEN)
            return True
        return False

    def record_success(self, device: int, now: float) -> None:
        if device == 0:
            return
        self._m_successes.inc()
        b = self._breakers[device]
        state = self.state(device, now)
        b.consecutive_failures = 0
        if state is not CircuitState.CLOSED:
            b.state = CircuitState.CLOSED
            self._transition(device, CircuitState.CLOSED)

    def drain_opened(self) -> List[int]:
        """Devices whose circuit opened since the last drain.

        The facade uses this to invalidate cached strategies that route
        through newly opened devices.
        """
        out, self._newly_opened = self._newly_opened, []
        return out

    # -- per-link breakers (mesh) -----------------------------------------
    def _link_breaker(self, a: int, b: int) -> _Breaker:
        return self._link_breakers.setdefault(canonical_edge(a, b), _Breaker())

    def _link_transition(self, pair: Tuple[int, int],
                         to: CircuitState) -> None:
        self._count_link_transition(f"{pair[0]}-{pair[1]}", to.value)

    def link_state(self, a: int, b: int, now: float) -> CircuitState:
        """Current state of the pair's breaker (CLOSED if never observed),
        resolving open -> half-open on cooldown expiry."""
        br = self._link_breakers.get(canonical_edge(a, b))
        if br is None:
            return CircuitState.CLOSED
        if (br.state is CircuitState.OPEN
                and now >= br.opened_at + self.cooldown_s):
            br.state = CircuitState.HALF_OPEN
            self._link_transition(canonical_edge(a, b), CircuitState.HALF_OPEN)
        return br.state

    def allow_link(self, a: int, b: int, now: float) -> bool:
        """May the runtime route a transfer between ``a`` and ``b``?"""
        if a == b:
            return True
        return self.link_state(a, b, now) is not CircuitState.OPEN

    def record_link_failure(self, a: int, b: int, now: float) -> bool:
        """Record one failed delivery between a pair; returns True if
        the pair's circuit newly opened."""
        if a == b:
            return False
        pair = canonical_edge(a, b)
        br = self._link_breaker(a, b)
        state = self.link_state(a, b, now)
        br.consecutive_failures += 1
        opens = (state is CircuitState.HALF_OPEN
                 or (state is CircuitState.CLOSED
                     and br.consecutive_failures >= self.failure_threshold))
        if opens and state is not CircuitState.OPEN:
            br.state = CircuitState.OPEN
            br.opened_at = now
            self._newly_opened_links.append(pair)
            self._link_transition(pair, CircuitState.OPEN)
            return True
        return False

    def record_link_success(self, a: int, b: int, now: float) -> None:
        if a == b:
            return
        br = self._link_breakers.get(canonical_edge(a, b))
        if br is None:
            return  # nothing to reset; don't allocate on the happy path
        state = self.link_state(a, b, now)
        br.consecutive_failures = 0
        if state is not CircuitState.CLOSED:
            br.state = CircuitState.CLOSED
            self._link_transition(canonical_edge(a, b), CircuitState.CLOSED)

    def drain_opened_links(self) -> List[Tuple[int, int]]:
        """Device pairs whose link circuit opened since the last drain."""
        out, self._newly_opened_links = self._newly_opened_links, []
        return out


class NullHealth:
    """The breakers of a run without a fault injector, where no
    delivery can fail: every circuit closed, nothing recorded, nothing
    newly opened (DESIGN.md, "Optional subsystems").  ``state`` /
    ``link_state`` / ``snapshot`` are only read from a real
    :class:`DeviceHealth`; :meth:`blocked` does not even enumerate the
    plan's devices."""

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

    def drain_opened(self) -> tuple:
        return ()

    drain_opened_links = drain_opened


#: what a component given no ``health`` holds
NULL_HEALTH = NullHealth()
