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

from dataclasses import dataclass, field
from typing import Annotated

from .. import Bound, Checked, Finite, IntAtLeast, NonNegative, Positive

__all__ = ["RetryPolicy", "ResilienceConfig", "TransportError",
           "NoRouteError", "NoStrategyError", "DeviceUnreachableError",
           "ExecutionFailedError"]

#: the circuit-breaker knobs :class:`ResilienceConfig` and
#: :class:`~repro.faults.health.DeviceHealth` share: consecutive failures
#: before a circuit opens, and the open -> half-open window (an infinite
#: one never half-opens)
Threshold = Annotated[int, IntAtLeast(1)]
Cooldown = Annotated[float, NonNegative]


@dataclass(frozen=True)
class RetryPolicy(Checked):
    """Timeout + exponential-backoff retry schedule for one message.

    Attempt ``i`` (0-based) is declared lost after
    ``timeout_s * backoff**i`` simulated seconds; ``max_retries``
    re-transmissions follow the first attempt before the sender gives
    up and reports the peer unreachable.
    """

    timeout_s: Annotated[float, Finite, Positive] = 0.05
    max_retries: Annotated[int, IntAtLeast(0)] = 2
    backoff: Annotated[float, Finite, Bound(1.0)] = 2.0

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
class ResilienceConfig(Checked):
    """How the runtime reacts to the faults it experiences."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: re-plan the remaining work onto surviving devices
    failover: bool = True
    #: last resort: smallest feasible submodel entirely on the gateway
    degradation: bool = True
    #: consecutive failures before a device's circuit opens
    failure_threshold: Threshold = 3
    #: open -> half-open probe window, simulated seconds
    cooldown_s: Cooldown = 2.0


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


class NoStrategyError(RuntimeError):
    """No strategy satisfies the SLO under the observed conditions.

    :meth:`~repro.core.murmuration.Murmuration.infer` raises it to a
    direct caller; a serving loop records the dispatch's requests as
    ``failed`` (zero service, SLO missed) and keeps serving.
    """


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
