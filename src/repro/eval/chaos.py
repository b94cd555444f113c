"""Chaos scenario: crash-and-recover serving under fault injection.

Serves one Poisson request stream through three variants of the runtime
while remote devices crash and recover on a fixed schedule:

* ``murmuration`` — the full resilient runtime: adaptive decisions,
  retry/failover, circuit breaker, graceful degradation;
* ``static`` — a fixed strategy chosen once at nominal conditions, but
  with the same data-plane resilience (isolates the value of
  *adaptation* from the value of *failover*);
* ``no-failover`` — adaptive decisions with failover and degradation
  disabled (the ablation: requests touching a dead device fail).

Arrivals and monitor noise are seeded and the crash windows are fixed,
so a fixed configuration reproduces identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional

from .. import Bound, Checked
from ..devices.profiles import desktop_gtx1080, jetson_class, rpi4
from ..faults.injector import FaultInjector
from ..faults.resilience import ResilienceConfig
from ..faults.schedule import DeviceCrash, FaultSchedule, LinkDegradation
from ..netsim.link import Delay
from ..netsim.topology import NetworkCondition
from .spec import (Claim, DecisionTime, NumRequests, RandomArchs, Rate,
                   Scenario, Seed, SloMs, World)

__all__ = ["ChaosConfig", "NO_FAILOVER", "SCENARIO", "chaos_crash_schedule"]

#: the ablation's data plane: requests touching a dead device fail
NO_FAILOVER = ResilienceConfig(failover=False, degradation=False)


@dataclass(frozen=True)
class ChaosConfig(Checked):
    """One chaos serving run (all times in simulated seconds)."""

    num_requests: NumRequests = 60
    arrival_rate_hz: Rate = 4.0
    slo_ms: SloMs = 400.0
    seed: Seed = 0
    #: GPU desktop (device 1) outage window
    gpu_crash: tuple = (2.0, 8.0)
    #: Jetson (device 2) outage window; overlaps the GPU outage so a
    #: stretch exists where only the gateway survives -> degradation
    jetson_crash: tuple = (4.0, 8.0)
    #: post-recovery window where the GPU link collapses (bandwidth
    #: scaled, delay added) — stresses *adaptation*, not failover
    degrade_window: tuple = (9.0, 13.0)
    degrade_bw_factor: Annotated[float, Bound(0.0, 1.0, lo_open=True)] = 0.1
    degrade_delay_ms: Delay = 60.0
    n_random_archs: RandomArchs = 4
    decision_time_s: DecisionTime = 0.03


def chaos_crash_schedule(cfg: ChaosConfig) -> FaultSchedule:
    """The scenario's ground-truth fault trace."""
    return FaultSchedule([
        DeviceCrash(cfg.gpu_crash[0], cfg.gpu_crash[1], device=1),
        DeviceCrash(cfg.jetson_crash[0], cfg.jetson_crash[1], device=2),
        LinkDegradation(cfg.degrade_window[0], cfg.degrade_window[1],
                        device=1, bw_factor=cfg.degrade_bw_factor,
                        extra_delay_ms=cfg.degrade_delay_ms),
    ])


def _world(cfg: ChaosConfig, telemetry, static: bool = False,
           resilience: Optional[ResilienceConfig] = None) -> World:
    return World(
        devices=[rpi4(), desktop_gtx1080(), jetson_class()],
        condition=NetworkCondition((80.0, 60.0), (20.0, 30.0)),
        arrival_rate_hz=cfg.arrival_rate_hz, static=static,
        faults=FaultInjector(chaos_crash_schedule(cfg), telemetry=telemetry),
        resilience=resilience)


SCENARIO = Scenario(
    name="chaos", config=ChaosConfig, world=_world,
    variants={"murmuration": {},
              "static": {"static": True},
              "no-failover": {"resilience": NO_FAILOVER}},
    instrumented="murmuration",
    columns=("complete", "comply", "ok", "retr", "degr", "fail", "recovery"),
    claims=(
        Claim("the resilient runtime completes every request",
              ("murmuration", "complete"), "==", 1.0),
        Claim("the double outage forces gateway degradation",
              ("murmuration", "degr"), ">", 0),
        Claim("failures are found by paid retries",
              ("murmuration", "retries"), ">", 0),
        Claim("and paid failovers", ("murmuration", "failovers"), ">", 0),
        Claim("a clean request lands within a second of the faults clearing",
              ("murmuration", "recovery"), "<", 1.0),
        Claim("adaptation beats the static strategy on compliance",
              ("murmuration", "comply"), ">", ("static", "comply")),
        Claim("without failover requests fail",
              ("no-failover", "fail"), ">", 0),
        Claim("and fewer comply than under the resilient runtime",
              ("no-failover", "comply"), "<", ("murmuration", "comply"))),
    smoke=("num_requests=24", "gpu_crash=1.0,3.0", "jetson_crash=1.5,3.0",
           "degrade_window=3.5,5.0"))
