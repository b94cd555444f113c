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

:class:`FailoverLadder` is what the runtime does when an attempt fails,
written once for both data planes: charge the attempt's waste and
retries, fail over to the fastest remote the breakers allow, else
degrade to the min submodel on the gateway, or fail the request when
failover is off.  An *attempt* runs one ``(arch, plan)`` and either
returns an :class:`~repro.runtime.executor.ExecutionResult` carrying
its own latency, retries and wasted seconds, or raises
:class:`DeviceUnreachableError` after teaching the breakers what it saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Annotated, Any, Callable, Optional

from .. import Bound, Checked, Finite, IntAtLeast, NonNegative, Positive
from ..nas.arch import min_arch

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


@dataclass(frozen=True)
class FailoverLadder:
    """Retry, fail over, degrade: the runtime's one answer to a failure.

    ``place(arch, device)`` builds a single-device plan; ``cluster``
    supplies the devices' ``effective_flops``; ``health`` the breakers
    the failover target must pass.  The ladder reads only the runtime's
    own knowledge — exclusions from this request's failures and the
    breakers — never the fault schedule.
    """

    config: ResilienceConfig
    health: Any
    cluster: Any
    space: Any
    place: Callable

    def target(self, now: float, excluded=(), links: bool = False
               ) -> Optional[int]:
        """The remote with the most ``effective_flops`` whose device
        breaker allows it (and with ``links``, its gateway-pair link
        breaker too), outside ``excluded``; None when none remains."""
        health, cluster = self.health, self.cluster
        best, best_flops = None, 0.0
        for d in range(1, cluster.num_devices):
            if (d in excluded or not health.allow(d, now)
                    or (links and not health.allow_link(0, d, now))):
                continue
            flops = cluster.device(d).effective_flops
            if best is None or flops > best_flops:
                best, best_flops = d, flops
        return best

    def climb(self, attempt: Callable, arch, plan, now: float):
        """Run ``attempt`` on ``(arch, plan)`` until one completes.

        ``attempt(arch, plan, penalty_s)`` is told the penalty charged
        so far; ``now`` is when the breakers are asked for a target.
        The completing attempt's result comes back with the request's
        accounting filled in: the executed arch and plan, the outcome,
        every retry, failover and penalty, and the penalty added to its
        latency.  Raises :class:`ExecutionFailedError` when failover is
        off.
        """
        penalty, retries, failovers = 0.0, 0, 0
        degraded = False
        excluded: set = set()
        while True:
            try:
                done = attempt(arch, plan, penalty)
            except DeviceUnreachableError as e:
                penalty += e.wasted_s
                retries += e.retries
                if not self.config.failover:
                    raise ExecutionFailedError(e.device, penalty,
                                               retries) from e
                excluded.add(e.device)
                failovers += 1
                target = self.target(now, excluded)
                if target is None and self.config.degradation:
                    # the smallest submodel at the request's resolution,
                    # on the gateway: no send left to fail
                    arch = replace(min_arch(self.space),
                                   resolution=arch.resolution)
                    degraded = True
                plan = self.place(arch, 0 if target is None else target)
                continue
            retries += done.retries
            penalty += done.penalty_s
            done.latency_s += penalty
            done.retries, done.failovers = retries, failovers
            done.penalty_s = penalty
            done.executed_arch, done.executed_plan = arch, plan
            done.outcome = ("degraded" if degraded
                            else "retried" if (retries or failovers) else "ok")
            return done
