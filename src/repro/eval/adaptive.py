"""Adaptive-control scenario: static vs. controlled serving under stress.

Serves one seeded request stream through the batched pipeline twice over
the *same* world — a drifting mobility trace plus an overload burst in
the middle of the run — differing only in the ``control=`` parameter:

* ``static`` — ``control=None``: the construction-time cache
  granularity and batch policy hold for the whole run, and every
  request is admitted no matter how hopeless its deadline;
* ``controlled`` — a :class:`~repro.control.ControlLoop` stacking all
  three controllers: batch-policy adaptation, SLO-aware admission
  (shed/degrade), and drift-directed cache precompute.

The burst is what separates them.  A static pipeline admits everything,
the queue grows without bound, and every request in and after the burst
finishes long past its deadline — per-request execution latency still
looks fine, which is exactly why the headline metric here is
:meth:`~repro.runtime.server.ServingStats.e2e_compliance` (queueing
included, sheds counted against).  The controlled pipeline sheds the
requests that cannot be saved and serves the borderline ones degraded
(min submodel, zero decision cost), so the queue drains and the stream
recovers.

Decision cost is pinned (``decision_time_s``) exactly as in
``serving_load``: the whole scenario is a pure function of its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, List, Optional

import numpy as np

from .. import Checked, IntAtLeast, Period, check_fields
from ..control import (AdmissionController, BatchPolicyController,
                       ControlLoop, PrecomputeScheduler)
from ..devices.profiles import desktop_gtx1080, jetson_class, rpi4
from ..netsim.topology import NetworkCondition
from ..netsim.traces import TraceConfig, mobility_trace
from ..runtime.batching import BatchPolicy
from .spec import (BurstWindow, Claim, DecisionTime, NumRequests,
                   RandomArchs, Rate, Scenario, Seed, SloMs, World)

__all__ = ["AdaptiveConfig", "SCENARIO", "burst_arrival_process",
           "default_controllers"]


@dataclass(frozen=True)
class AdaptiveConfig(Checked):
    """One static-vs-controlled run (simulated seconds unless noted)."""

    num_requests: NumRequests = 240
    #: baseline arrival rate; sized so the pipeline keeps up off-burst
    arrival_rate_hz: Rate = 8.0
    #: burst window (simulated seconds) and rate multiplier inside it
    burst_window: BurstWindow = (4.0, 6.0)
    burst_factor: Rate = 5.0
    slo_ms: SloMs = 300.0
    seed: Seed = 0
    max_batch: Annotated[int, IntAtLeast(1)] = 4
    decision_time_s: DecisionTime = 0.04
    #: drifting world: sinusoidal mobility keeps the cache under
    #: pressure and gives the precompute scheduler a signal
    trace_steps: Annotated[int, IntAtLeast(0)] = 120
    trace_period_s: Annotated[float, Period] = 0.25
    n_random_archs: RandomArchs = 8
    #: control cadence (simulated seconds between ticks)
    control_period_s: Annotated[float, Period] = 0.5


def burst_arrival_process(rate_hz: Rate, window: BurstWindow,
                          factor: Rate) -> Callable:
    """Piecewise-Poisson arrivals: ``rate_hz``, times ``factor`` inside
    ``window``.  The rate applying to each gap is the rate at the gap's
    start, so the process is a pure function of the rng stream.
    """
    check_fields(burst_arrival_process, locals())
    t0, t1 = window

    def process(rng: np.random.Generator, n: int) -> np.ndarray:
        t = 0.0
        out = np.empty(n)
        for i in range(n):
            r = rate_hz * factor if t0 <= t < t1 else rate_hz
            t += float(rng.exponential(1.0 / r))
            out[i] = t
        return out

    return process


def default_controllers() -> List:
    """The standard three-controller stack."""
    return [
        BatchPolicyController(),
        AdmissionController(),
        PrecomputeScheduler(),
    ]


def _world(cfg: AdaptiveConfig, telemetry,
           controllers: Optional[Callable[[], List]] = None) -> World:
    """``controllers`` is a factory — controllers carry state, so every
    run stacks fresh ones.  Telemetry only counts the loop's ticks and
    verdicts: no controller reads it."""
    return World(
        devices=[rpi4(), desktop_gtx1080(), jetson_class()],
        condition=NetworkCondition((150.0, 80.0), (10.0, 20.0)),
        arrival_rate_hz=cfg.arrival_rate_hz,
        arrival_process=burst_arrival_process(
            cfg.arrival_rate_hz, cfg.burst_window, cfg.burst_factor),
        policy=BatchPolicy(max_batch=cfg.max_batch, overlap=True),
        control=(ControlLoop(controllers(), period_s=cfg.control_period_s,
                             telemetry=telemetry)
                 if controllers is not None else None),
        trace=mobility_trace(TraceConfig(
            num_remote=2, bw_range=(40.0, 400.0), delay_range=(5.0, 60.0),
            steps=cfg.trace_steps, seed=cfg.seed)),
        trace_period_s=cfg.trace_period_s)


SCENARIO = Scenario(
    name="adaptive", config=AdaptiveConfig, world=_world,
    variants={"static": {},
              "controlled": {"controllers": default_controllers}},
    instrumented="controlled",
    columns=("e2e", "p95ms", "queue", "shed", "degr", "batch"),
    claims=(
        Claim("control beats the static configuration end to end",
              ("controlled", "e2e"), ">", ("static", "e2e")),
        Claim("and on tail latency",
              ("controlled", "p95ms"), "<", ("static", "p95ms"))),
    smoke=("num_requests=80", "trace_steps=60", "burst_window=2.0,4.0"))
