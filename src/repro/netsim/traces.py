"""Dynamic network-condition traces.

The paper motivates Murmuration with *dynamic* edge environments (device
mobility, contention).  These generators produce time series of
:class:`~repro.netsim.topology.NetworkCondition` that the runtime
examples and the monitoring-predictor tests replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Iterator, List, Optional, Tuple

import numpy as np

from .. import (Checked, Finite, IntAtLeast, NonNegative, Period, Positive,
                check_fields)
from .topology import NetworkCondition

__all__ = ["TraceConfig", "condition_at", "random_walk_trace", "step_trace",
           "mobility_trace"]


def check_time(now: float) -> float:
    """``now`` as a float, or ``ValueError`` when it is not a finite
    instant — the one check every tracker entry point shares.  ``nan``
    compares false with everything, so a ledger that tests ``t_next >
    now`` fires every pending event and one that tests ``end > now``
    prunes every flow; ``inf`` moves a clock where nothing can follow."""
    now = float(now)
    if not -math.inf < now < math.inf:
        raise ValueError(f"now must be a finite time, got {now}")
    return now


def condition_at(trace, t: Annotated[float, NonNegative],
                 period_s: Annotated[float, Period]):
    """The trace cell active at simulated time ``t``.

    The one place the piecewise-constant trace indexing rule lives
    (it used to be duplicated across the serving loops): cell ``i``
    covers ``[i * period_s, (i + 1) * period_s)`` and the final cell
    extends forever — the world holds its last state, however far (or
    infinitely) past its end ``t`` lies.  Works for any sequence
    (conditions, capacities, ...).  Returns ``(index, trace[index])``.
    """
    if not trace:
        raise ValueError("condition_at needs a non-empty trace")
    check_fields(condition_at, locals())
    last = len(trace) - 1
    cell = t / period_s
    idx = int(cell) if cell < last else last
    return idx, trace[idx]


@dataclass(frozen=True)
class TraceConfig(Checked):
    num_remote: Annotated[int, IntAtLeast(1)] = 1
    bw_range: Annotated[Tuple[float, float], Finite, Positive] = (50.0,
                                                                  400.0)
    delay_range: Annotated[Tuple[float, float], Finite, NonNegative] = (
        5.0, 100.0)
    steps: Annotated[int, IntAtLeast(0)] = 100
    seed: Annotated[int, IntAtLeast(0)] = 0


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.clip(v, lo, hi)


def random_walk_trace(cfg: TraceConfig) -> List[NetworkCondition]:
    """Smooth random walk: bandwidth and delay drift step to step.

    Models gradual signal-strength change as a device moves.
    """
    rng = np.random.default_rng(cfg.seed)
    blo, bhi = cfg.bw_range
    dlo, dhi = cfg.delay_range
    bw = rng.uniform(blo, bhi, cfg.num_remote)
    delay = rng.uniform(dlo, dhi, cfg.num_remote)
    out = []
    for _ in range(cfg.steps):
        bw = _clip(bw + rng.normal(0, 0.05 * (bhi - blo), cfg.num_remote), blo, bhi)
        delay = _clip(delay + rng.normal(0, 0.05 * (dhi - dlo), cfg.num_remote),
                      dlo, dhi)
        out.append(NetworkCondition(tuple(bw), tuple(delay)))
    return out


def step_trace(cfg: TraceConfig, period: int = 20) -> List[NetworkCondition]:
    """Abrupt condition changes every ``period`` steps (handover events)."""
    rng = np.random.default_rng(cfg.seed)
    blo, bhi = cfg.bw_range
    dlo, dhi = cfg.delay_range
    out: List[NetworkCondition] = []
    current: Optional[NetworkCondition] = None
    for t in range(cfg.steps):
        if current is None or t % period == 0:
            current = NetworkCondition(
                tuple(rng.uniform(blo, bhi, cfg.num_remote)),
                tuple(rng.uniform(dlo, dhi, cfg.num_remote)))
        out.append(current)
    return out


def mobility_trace(cfg: TraceConfig) -> List[NetworkCondition]:
    """Sinusoidal approach/retreat pattern: bandwidth peaks while delay
    bottoms as the device passes close to the access point."""
    blo, bhi = cfg.bw_range
    dlo, dhi = cfg.delay_range
    rng = np.random.default_rng(cfg.seed)
    phase = rng.uniform(0, 2 * np.pi, cfg.num_remote)
    out = []
    for t in range(cfg.steps):
        s = np.sin(2 * np.pi * t / max(cfg.steps, 1) * 2 + phase) * 0.5 + 0.5
        bw = blo + (bhi - blo) * s
        delay = dhi - (dhi - dlo) * s
        noise_b = rng.normal(0, 0.02 * (bhi - blo), cfg.num_remote)
        noise_d = rng.normal(0, 0.02 * (dhi - dlo), cfg.num_remote)
        out.append(NetworkCondition(
            tuple(_clip(bw + noise_b, blo, bhi)),
            tuple(_clip(delay + noise_d, dlo, dhi))))
    return out
