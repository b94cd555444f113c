"""Multi-tenant serving scenario: fairness under an asymmetric burst.

Several tenants share one serving gateway *and* one last-mile uplink
(:class:`~repro.netsim.ingress.SharedIngress`): every request's
payload crosses the same wire before service can start, so concurrent
tenants fair-share its bandwidth through the max-min
:class:`~repro.netsim.fluid.FluidTracker`.  One tenant bursts
(piecewise-Poisson, ``burst_factor`` x its base rate inside
``burst_window``); the others stay steady.

Three variants serve the *identical* merged request stream:

* ``fifo`` — no admission control: the burst fills the queue and every
  tenant's requests arriving behind it miss their deadlines — the
  burster starves the rest;
* ``admission`` — the tenant-blind
  :class:`~repro.control.AdmissionController`: deadline-only triage
  protects aggregate compliance but sheds whoever is late, which under
  an asymmetric burst is everyone *behind* the burster;
* ``fair`` — the :class:`~repro.control.TenantFairnessController`:
  per-tenant budgets shed the over-share tenant's requests first, so
  the headline metric —
  :meth:`~repro.runtime.server.ServingStats.worst_tenant_e2e_compliance`
  — recovers.

Decision cost is pinned (``decision_time_s``) exactly as in
``serving_load``: with ``record=True`` each variant's recording is a
byte-stable function of the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Callable, List, Optional, Tuple

import numpy as np

from .. import Checked, IntAtLeast, Period, check_fields
from ..control import (AdmissionController, ControlLoop,
                       TenantFairnessController)
from ..devices.profiles import desktop_gtx1080, jetson_class, rpi4
from ..netsim.ingress import SharedIngress
from ..netsim.fluid import FluidTracker
from ..netsim.link import Delay, Link
from ..netsim.topology import NetworkCondition
from ..netsim.traces import TraceConfig, mobility_trace
from .spec import (BurstWindow, Claim, DecisionTime, NumRequests, PayloadKb,
                   RandomArchs, Rate, Scenario, Seed, SloMs, World)

__all__ = ["MultiTenantConfig", "SCENARIO", "TenantSpec", "default_tenants",
           "tenant_arrivals"]


@dataclass(frozen=True)
class TenantSpec(Checked):
    """One tenant's traffic contract."""

    name: str
    #: base Poisson arrival rate
    rate_hz: Rate
    #: fair-share weight at admission (budget fraction)
    weight: Rate = 1.0
    #: request payload crossing the shared ingress
    payload_kb: PayloadKb = 256.0
    #: optional overload burst: (t0, t1) simulated seconds
    burst_window: Optional[BurstWindow] = None
    #: rate multiplier inside the burst window
    burst_factor: Rate = 1.0


def default_tenants(n: Annotated[int, IntAtLeast(1)] = 2
                    ) -> Tuple[TenantSpec, ...]:
    """``n`` tenants splitting the default load; the first one bursts."""
    check_fields(default_tenants, locals())
    specs = [TenantSpec("burst", rate_hz=4.0,
                        burst_window=(4.0, 8.0), burst_factor=8.0)]
    for k in range(1, n):
        name = "steady" if n == 2 else f"steady-{k}"
        specs.append(TenantSpec(name, rate_hz=4.0))
    return tuple(specs)


@dataclass(frozen=True)
class MultiTenantConfig:
    """One multi-tenant comparison run (simulated seconds unless noted)."""

    tenants: Tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    num_requests: NumRequests = 240
    slo_ms: SloMs = 300.0
    seed: Seed = 0
    decision_time_s: DecisionTime = 0.04
    trace_steps: Annotated[int, IntAtLeast(0)] = 120
    trace_period_s: Annotated[float, Period] = 0.25
    n_random_archs: RandomArchs = 8
    control_period_s: Annotated[float, Period] = 0.5
    #: the shared last-mile uplink all tenants upload over
    ingress_bw_mbps: Rate = 40.0
    ingress_delay_ms: Delay = 5.0

    def __post_init__(self):
        check_fields(self)
        if not self.tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")


def tenant_arrivals(cfg: MultiTenantConfig
                    ) -> Tuple[np.ndarray, List[str]]:
    """The merged request stream: arrival times + aligned tenant tags.

    Each tenant gets its own seeded piecewise-Poisson stream (rate
    ``rate_hz``, times ``burst_factor`` inside ``burst_window``); the
    streams are merge-sorted and truncated to ``num_requests``.  A pure
    function of the config — every variant (and every re-record) serves
    the identical stream.
    """
    merged: List[Tuple[float, str]] = []
    for k, spec in enumerate(cfg.tenants):
        rng = np.random.default_rng((cfg.seed, 17, k))
        t0, t1 = spec.burst_window if spec.burst_window else (0.0, 0.0)
        t = 0.0
        for _ in range(cfg.num_requests):
            r = (spec.rate_hz * spec.burst_factor
                 if t0 <= t < t1 else spec.rate_hz)
            t += float(rng.exponential(1.0 / r))
            merged.append((t, spec.name))
    merged.sort()
    merged = merged[:cfg.num_requests]
    return (np.array([t for t, _ in merged]),
            [name for _, name in merged])


def _world(cfg: MultiTenantConfig, telemetry,
           controllers: Optional[Callable[[MultiTenantConfig], List]] = None,
           ) -> World:
    arrivals, tenants = tenant_arrivals(cfg)
    tracker = FluidTracker(telemetry=telemetry)
    return World(
        devices=[rpi4(), desktop_gtx1080(), jetson_class()],
        condition=NetworkCondition((150.0, 80.0), (10.0, 20.0)),
        arrival_rate_hz=sum(t.rate_hz for t in cfg.tenants),
        arrival_process=lambda rng, n: arrivals, tenants=tenants,
        ingress=SharedIngress(
            Link(bandwidth_mbps=cfg.ingress_bw_mbps,
                 delay_ms=cfg.ingress_delay_ms),
            tracker,
            per_tenant_bytes={t.name: t.payload_kb * 1024.0
                              for t in cfg.tenants}),
        tracker=tracker,
        control=(ControlLoop(controllers(cfg), period_s=cfg.control_period_s,
                             telemetry=telemetry)
                 if controllers is not None else None),
        trace=mobility_trace(TraceConfig(
            num_remote=2, bw_range=(40.0, 400.0), delay_range=(5.0, 60.0),
            steps=cfg.trace_steps, seed=cfg.seed)),
        trace_period_s=cfg.trace_period_s)


SCENARIO = Scenario(
    name="multi_tenant", config=MultiTenantConfig, world=_world,
    variants={
        "fifo": {},
        "admission": {"controllers": lambda cfg: [AdmissionController()]},
        "fair": {"controllers": lambda cfg: [TenantFairnessController(
            weights={t.name: t.weight for t in cfg.tenants})]}},
    instrumented="fair",
    columns=("e2e", "worst", "tenants", "shed", "contended"),
    claims=(
        Claim("fair beats fifo at the worst tenant by >= 15 pt",
              ("fair", "worst"), ">=", ("fifo", "worst"), 0.15),
        Claim("the fluid ledger prices real contention",
              ("fair", "contended"), ">", 0)),
    smoke=("num_requests=80", "trace_steps=60"))
