"""Mesh chaos scenario: link-level faults on multi-hop topologies.

The star chaos scenario (:mod:`repro.eval.chaos`) kills *devices*; this
one kills *paths*.  A Poisson request stream is served over a multi-hop
mesh (ring, line, or partial mesh) while the world loses links: a hard
:class:`~repro.faults.schedule.LinkFailure` on the gateway's primary
edge, a Gilbert–Elliott :class:`~repro.faults.schedule.LinkFlap` burst
on the same edge, and a :class:`~repro.faults.schedule.CorrelatedFailure`
that takes a relay device and its incident links down atomically.

Three variants serve the identical world:

* ``murmuration`` — fault-aware routing *and* the full resilience
  ladder: transfers transparently fail over to the next-best surviving
  path (paying its honest latency), and when no path survives the
  executor replans/degrades;
* ``no-failover`` — rerouting enabled, replanning and degradation
  disabled: isolates how much of the resilience is pure routing;
* ``no-reroute`` — static routing tables (fault-free base paths only)
  and no failover: the ablation.  A request whose path crosses a dead
  link fails, which is what a star-minded runtime does on a mesh.

Everything is seeded — arrivals, monitor noise, flap bursts — so a
fixed configuration reproduces identical numbers, and with the default
pinned ``decision_time_s`` the recordings are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional

from .. import Bound, Period, check_fields
from ..devices.profiles import desktop_gtx1080, jetson_class, rpi4
from ..faults.injector import FaultInjector
from ..faults.resilience import ResilienceConfig
from ..faults.schedule import (CorrelatedFailure, FaultSchedule, LinkFailure,
                               LinkFlap)
from ..netsim.link import Delay
from ..netsim.mesh import (MeshCluster, line_topology, partial_mesh_topology,
                           ring_topology)
from .chaos import NO_FAILOVER
from .spec import (Claim, DecisionTime, NumRequests, RandomArchs, Rate,
                   Scenario, Seed, SloMs, World)

__all__ = ["MeshChaosConfig", "SCENARIO", "build_mesh", "mesh_chaos_schedule"]

TOPOLOGIES = ("ring", "line", "mesh")


@dataclass(frozen=True)
class MeshChaosConfig:
    """One mesh chaos serving run (all times in simulated seconds)."""

    #: "ring" (two disjoint routes), "line" (no alternative — resilience
    #: must come from degradation), or "mesh" (ring + chord)
    topology: str = "ring"
    num_requests: NumRequests = 60
    arrival_rate_hz: Rate = 4.0
    slo_ms: SloMs = 400.0
    seed: Seed = 0
    bandwidth_mbps: Rate = 150.0
    delay_ms: Delay = 10.0
    #: hard outage of the gateway's primary edge (0, 1)
    link_fail_window: tuple = (1.5, 8.0)
    #: Gilbert–Elliott flap burst on the same edge
    flap_window: tuple = (8.5, 12.5)
    flap_p_fail: Annotated[float, Bound(0.0, 1.0, lo_open=True)] = 0.7
    flap_p_recover: Annotated[float, Bound(0.0, 1.0, lo_open=True)] = 0.25
    flap_step_s: Annotated[float, Period] = 0.25
    #: relay blast radius: device 2 and its incident links, atomically
    blast_window: tuple = (13.0, 15.5)
    n_random_archs: RandomArchs = 4
    decision_time_s: DecisionTime = 0.03

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, "
                f"got {self.topology!r}")
        check_fields(self)


def build_mesh(cfg: MeshChaosConfig, reroute: bool = True) -> MeshCluster:
    """The scenario's four-device swarm on the configured topology.

    Device 0 (gateway) and device 3 (relay) are Raspberry Pis; device 1
    is the GPU desktop every nominal plan wants to reach; device 2 is a
    Jetson.  On the ring the gateway has two disjoint routes to the
    GPU (0-1 and 0-3-2-1); the line has exactly one; the partial mesh
    adds a (1, 3) chord for a third.
    """
    devices = [rpi4(), desktop_gtx1080(), jetson_class(), rpi4()]
    if cfg.topology == "line":
        return line_topology(devices, cfg.bandwidth_mbps, cfg.delay_ms,
                             reroute=reroute)
    if cfg.topology == "mesh":
        return partial_mesh_topology(devices, cfg.bandwidth_mbps,
                                     cfg.delay_ms, chords=((1, 3),),
                                     reroute=reroute)
    return ring_topology(devices, cfg.bandwidth_mbps, cfg.delay_ms,
                         reroute=reroute)


def mesh_chaos_schedule(cfg: MeshChaosConfig) -> FaultSchedule:
    """The scenario's ground-truth fault trace (all link-addressed)."""
    return FaultSchedule([
        LinkFailure(cfg.link_fail_window[0], cfg.link_fail_window[1],
                    a=0, b=1),
        LinkFlap(cfg.flap_window[0], cfg.flap_window[1], a=0, b=1,
                 p_fail=cfg.flap_p_fail, p_recover=cfg.flap_p_recover,
                 step_s=cfg.flap_step_s, seed=cfg.seed),
        CorrelatedFailure(cfg.blast_window[0], cfg.blast_window[1],
                          devices=(2,), links=((1, 2), (2, 3)),
                          domain="relay"),
    ])


def _world(cfg: MeshChaosConfig, telemetry, reroute: bool = True,
           resilience: Optional[ResilienceConfig] = None) -> World:
    mesh = build_mesh(cfg, reroute=reroute)
    return World(
        devices=mesh.devices, cluster=mesh,
        arrival_rate_hz=cfg.arrival_rate_hz,
        faults=FaultInjector(mesh_chaos_schedule(cfg), telemetry=telemetry),
        resilience=resilience)


#: the world of the claims about a topology without alternatives
_LINE = ("topology=line",)

SCENARIO = Scenario(
    name="mesh_chaos", config=MeshChaosConfig, world=_world,
    variants={"murmuration": {},
              "no-failover": {"resilience": NO_FAILOVER},
              "no-reroute": {"resilience": NO_FAILOVER, "reroute": False}},
    instrumented="murmuration",
    columns=("complete", "comply", "ok", "retr", "degr", "fail", "reroute",
             "recovery"),
    claims=(
        Claim("rerouting completes at least 95%",
              ("murmuration", "complete"), ">=", 0.95),
        Claim("over backup paths", ("murmuration", "reroute"), ">", 0),
        Claim("static routing tables complete under 70%",
              ("no-reroute", "complete"), "<", 0.70),
        Claim("and never reroute", ("no-reroute", "reroute"), "==", 0),
        Claim("on the ring, routing alone completes what the full ladder does",
              ("no-failover", "complete"), "==", ("murmuration", "complete")),
        Claim("a line has no backup path, yet 95% complete",
              ("murmuration", "complete") + _LINE, ">=", 0.95),
        Claim("by degrading", ("murmuration", "degr") + _LINE, ">", 0),
        Claim("which static routing cannot do",
              ("no-reroute", "complete") + _LINE, "<", 0.70)),
    smoke=("num_requests=24", "link_fail_window=1.0,4.0",
           "flap_window=4.5,6.0", "blast_window=6.5,8.0"))
