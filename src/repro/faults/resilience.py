"""Resilience policy: timeouts, retries, and what to do when they fail.

A :class:`RetryPolicy` prices the *sender's* view of a fault: a lost or
undeliverable message is only detected when its ack timeout expires, so
every failed attempt costs the attempt's timeout (exponentially backed
off), and a successful retry re-pays the full transfer time — retries
are visible in end-to-end latency, not hidden.

:class:`ResilienceConfig` bundles the runtime's reaction knobs: the
retry policy, whether the executor may fail over to surviving devices,
whether it may gracefully degrade to the smallest feasible submodel on
the gateway, and the circuit-breaker thresholds fed to
:class:`~repro.faults.health.DeviceHealth`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["RetryPolicy", "ResilienceConfig", "TransportError",
           "NoRouteError", "DeviceUnreachableError", "ExecutionFailedError",
           "check_breaker"]


def check_breaker(failure_threshold: int, cooldown_s: float) -> None:
    """The circuit-breaker knobs :class:`ResilienceConfig` and
    :class:`~repro.faults.health.DeviceHealth` share.  Negated tests: a
    NaN threshold would never open a circuit, a NaN cooldown never
    half-open one."""
    if type(failure_threshold) is not int or failure_threshold < 1:
        raise ValueError(f"failure_threshold must be an int >= 1, "
                         f"got {failure_threshold!r}")
    if not cooldown_s >= 0:
        raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + exponential-backoff retry schedule for one message.

    Attempt ``i`` (0-based) is declared lost after
    ``timeout_s * backoff**i`` simulated seconds; ``max_retries``
    re-transmissions follow the first attempt before the sender gives
    up and reports the peer unreachable.
    """

    timeout_s: float = 0.05
    max_retries: int = 2
    backoff: float = 2.0

    def __post_init__(self):
        # negated: NaN fails every comparison
        if not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout_s must be finite and positive, "
                             f"got {self.timeout_s!r}")
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, "
                             f"got {self.max_retries!r}")
        if not 1 <= self.backoff < math.inf:
            raise ValueError(f"backoff must be finite and >= 1, "
                             f"got {self.backoff!r}")

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def timeout_of(self, attempt: int) -> float:
        """Seconds attempt ``attempt`` waits before declaring loss."""
        return self.timeout_s * self.backoff ** attempt

    def give_up_cost(self) -> float:
        """Total simulated time wasted when every attempt times out."""
        return sum(self.timeout_of(i) for i in range(self.attempts))


@dataclass(frozen=True)
class ResilienceConfig:
    """How the runtime reacts to the faults it experiences."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: re-plan the remaining work onto surviving devices
    failover: bool = True
    #: last resort: smallest feasible submodel entirely on the gateway
    degradation: bool = True
    #: consecutive failures before a device's circuit opens
    failure_threshold: int = 3
    #: open -> half-open probe window, simulated seconds
    cooldown_s: float = 2.0

    def __post_init__(self):
        check_breaker(self.failure_threshold, self.cooldown_s)


class TransportError(RuntimeError):
    """Base class for data-plane delivery failures."""


class NoRouteError(TransportError):
    """The routing layer has no surviving path between two devices.

    Raised by :meth:`~repro.netsim.mesh.MeshCluster.transfer_time` when
    every path between ``src`` and ``dst`` crosses a failed link (or the
    pair was never connected).  It is the mesh-level sibling of
    :class:`DeviceUnreachableError`: the executor treats both as "this
    endpoint cannot be used right now" and fails over, charging the
    retry schedule's give-up cost — the sender still discovers the dead
    path by timing out, even though the local routing table reported it
    first.
    """

    def __init__(self, src: int, dst: int):
        super().__init__(
            f"no surviving route between device {src} and device {dst}")
        self.src = src
        self.dst = dst

    @property
    def device(self) -> int:
        """The blamed endpoint (never the gateway — that is the caller)."""
        return self.dst if self.dst != 0 else self.src


class DeviceUnreachableError(TransportError):
    """Every retry to a peer timed out.

    ``wasted_s`` is the simulated time the sender burned discovering the
    failure (the full retry schedule); ``retries`` the re-transmissions
    performed.  Both must be charged to the request that fails over.
    """

    def __init__(self, device: int, wasted_s: float, retries: int):
        super().__init__(
            f"device {device} unreachable after {retries} retries "
            f"({wasted_s * 1e3:.1f} ms wasted)")
        self.device = device
        self.wasted_s = wasted_s
        self.retries = retries


class ExecutionFailedError(RuntimeError):
    """A request could not be completed (failover disabled or exhausted).

    Carries the accounting the serving loop needs to record the failed
    request: wasted discovery time and retries performed.
    """

    def __init__(self, device: int, wasted_s: float, retries: int):
        super().__init__(
            f"execution failed: device {device} unreachable "
            f"({wasted_s * 1e3:.1f} ms wasted, failover disabled)")
        self.device = device
        self.wasted_s = wasted_s
        self.retries = retries
