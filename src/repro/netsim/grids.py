"""Network-condition grids used in the paper's evaluation.

Section 6 sweeps bandwidth/delay/SLO on fixed grids:

* Fig. 13 / 16a (augmented computing): bandwidth 50-400 Mbps (8 points),
  delay 5-100 ms (5 points) => 40 settings.
* Fig. 14 / 16b (device swarm): bandwidth 5-500 Mbps (9 points), delay
  fixed at 20 ms.
* RL training (Sec. 6.1.1): 10 discrete points per metric between a
  configurable min and max.
"""

from __future__ import annotations

from typing import Annotated, Iterator, List, Sequence, Tuple

import numpy as np

from .. import Finite, IntAtLeast, check_fields
from .topology import NetworkCondition

__all__ = [
    "AUGMENTED_BANDWIDTHS",
    "AUGMENTED_DELAYS",
    "SWARM_BANDWIDTHS",
    "SWARM_DELAY",
    "training_grid",
    "augmented_conditions",
    "swarm_conditions",
    "validation_conditions",
]

AUGMENTED_BANDWIDTHS: Tuple[float, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
AUGMENTED_DELAYS: Tuple[float, ...] = (5, 25, 50, 75, 100)
SWARM_BANDWIDTHS: Tuple[float, ...] = (5, 10, 20, 50, 100, 200, 350, 450, 500)
SWARM_DELAY: float = 20.0


def training_grid(lo: Annotated[float, Finite], hi: Annotated[float, Finite],
                  points: Annotated[int, IntAtLeast(2)] = 10) -> np.ndarray:
    """The 10-point discretization used for each metric during training."""
    check_fields(training_grid, locals())
    return np.linspace(lo, hi, points)


def augmented_conditions() -> List[NetworkCondition]:
    """All 40 (bw, delay) settings of the augmented-computing sweep
    (single remote device)."""
    return [NetworkCondition((bw,), (d,))
            for d in AUGMENTED_DELAYS for bw in AUGMENTED_BANDWIDTHS]


def swarm_conditions(num_remote: int = 4,
                     varied_device: int = 0) -> List[NetworkCondition]:
    """Swarm sweep: one remote device's bandwidth varies over the 9-point
    grid, the others stay at 100 Mbps; delay fixed at 20 ms (Fig. 14)."""
    conditions = []
    for bw in SWARM_BANDWIDTHS:
        bws = [100.0] * num_remote
        bws[varied_device] = bw
        conditions.append(NetworkCondition(tuple(bws),
                                           (SWARM_DELAY,) * num_remote))
    return conditions


def validation_conditions(num_remote: int, bw_range: Tuple[float, float],
                          delay_range: Tuple[float, float],
                          points: int = 5,
                          rng: np.random.Generator = None) -> List[NetworkCondition]:
    """Evenly spread validation conditions over the constraint space.

    For one remote device this is the full cartesian grid; for several,
    a low-discrepancy sample (full grids explode combinatorially).
    """
    bws = training_grid(*bw_range, points)
    delays = training_grid(*delay_range, points)
    if num_remote == 1:
        return [NetworkCondition((b,), (d,)) for b in bws for d in delays]
    rng = rng or np.random.default_rng(7)
    out = []
    for _ in range(points * points):
        b = tuple(float(rng.choice(bws)) for _ in range(num_remote))
        d = tuple(float(rng.choice(delays)) for _ in range(num_remote))
        out.append(NetworkCondition(b, d))
    return out
