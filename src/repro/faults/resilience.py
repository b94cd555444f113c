"""Resilience policy: timeouts, retries, and what to do when they fail.

The retry schedule prices the *sender's* view of a fault: an
undeliverable message is only detected when its ack timeout expires, so
every failed attempt costs the attempt's timeout (exponentially backed
off).  Every send follows the one schedule: attempt ``i`` (0-based)
times out after ``TIMEOUT_S * BACKOFF ** i`` = 50, 100 and 200 ms, and a
sender gives up after ``MAX_RETRIES`` = 2 re-transmissions, having
wasted ``GIVE_UP_S`` = 0.35 s.  The fault state moves only between
dispatches, so every attempt of one send meets the same peer: a send is
delivered on its first attempt or gives up after the whole schedule,
and a retry never succeeds.

:class:`ResilienceConfig` bundles the runtime's reaction switches:
whether the executor may fail over to surviving devices, and whether it
may gracefully degrade to the smallest feasible submodel on the gateway.

:class:`FailoverLadder` is what the runtime does when an attempt fails,
written once for both data planes: charge the attempt's waste and
retries, fail over to the fastest remote the breakers allow, else
degrade to the min submodel on the gateway, or fail the request when
failover is off.  An *attempt* runs one ``(arch, plan)`` and either
returns an :class:`~repro.runtime.executor.ExecutionResult` carrying
its own latency, or raises
:class:`DeviceUnreachableError` after teaching the breakers what it saw
— or :class:`NoRouteError` when pricing met a dead path before any send
went out, which the ladder converts (see :meth:`FailoverLadder.climb`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from ..nas.arch import min_arch

__all__ = ["TIMEOUT_S", "MAX_RETRIES", "BACKOFF", "GIVE_UP_S", "timeout_of",
           "ResilienceConfig", "TransportError", "NoRouteError",
           "NoStrategyError", "DeviceUnreachableError",
           "ExecutionFailedError"]

#: the first attempt's ack timeout, simulated seconds
TIMEOUT_S = 0.05
#: re-transmissions after the first attempt before the sender gives up
MAX_RETRIES = 2
#: each retry waits this many times longer than the attempt before it
BACKOFF = 2.0


def timeout_of(attempt: int) -> float:
    """Seconds attempt ``attempt`` (0-based) waits before declaring it lost."""
    return TIMEOUT_S * BACKOFF ** attempt


#: total simulated time wasted when every attempt times out
GIVE_UP_S = sum(timeout_of(i) for i in range(MAX_RETRIES + 1))


@dataclass(frozen=True)
class ResilienceConfig:
    """How the runtime reacts to the faults it experiences."""

    #: re-plan the remaining work onto surviving devices
    failover: bool = True
    #: last resort: smallest feasible submodel entirely on the gateway
    degradation: bool = True


class TransportError(RuntimeError):
    """Base class for data-plane delivery failures."""


class NoRouteError(TransportError):
    """The routing layer has no surviving path between two devices.

    Raised by :meth:`~repro.netsim.mesh.MeshCluster.transfer_time` when
    every path between ``src`` and ``dst`` crosses a failed link (or the
    pair was never connected).  It is the mesh-level sibling of
    :class:`DeviceUnreachableError`: the :class:`FailoverLadder` treats
    both as "this endpoint cannot be used right now" and fails over,
    charging the retry schedule's give-up cost — the sender still
    discovers the dead path by timing out, even though the local
    routing table reported it first.
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
    failure (the full retry schedule, ``GIVE_UP_S``); ``retries`` the
    re-transmissions performed (``MAX_RETRIES``).  Both must be charged
    to the request that fails over.
    """

    wasted_s = GIVE_UP_S
    retries = MAX_RETRIES

    def __init__(self, device: int):
        super().__init__(
            f"device {device} unreachable after {MAX_RETRIES} retries "
            f"({GIVE_UP_S * 1e3:.1f} ms wasted)")
        self.device = device


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
        An attempt that raises :class:`NoRouteError` priced a dead path
        before any send went out: the sender would have timed out
        discovering it, so it is charged ``GIVE_UP_S`` and
        ``MAX_RETRIES``, and the breakers learn of it at
        ``now + (penalty + GIVE_UP_S)``.
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
                try:
                    done = attempt(arch, plan, penalty)
                except NoRouteError as e:
                    at = now + (penalty + GIVE_UP_S)
                    self.health.record_failure(e.device, at)
                    self.health.record_link_failure(e.src, e.dst, at)
                    raise DeviceUnreachableError(e.device) from e
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
            done.latency_s += penalty
            done.retries, done.failovers = retries, failovers
            done.penalty_s = penalty
            done.executed_arch, done.executed_plan = arch, plan
            done.outcome = ("degraded" if degraded
                            else "retried" if failovers else "ok")
            return done
