"""Network-condition grids used in the paper's evaluation.

Section 6 sweeps bandwidth/delay/SLO on fixed grids:

* Fig. 13 / 16a (augmented computing): bandwidth 50-400 Mbps (8 points),
  delay 5-100 ms (5 points) => 40 settings.
* Fig. 14 / 16b (device swarm): bandwidth 5-500 Mbps (9 points), delay
  fixed at 20 ms.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["AUGMENTED_BANDWIDTHS", "AUGMENTED_DELAYS", "SWARM_BANDWIDTHS",
           "SWARM_DELAY"]

AUGMENTED_BANDWIDTHS: Tuple[float, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
AUGMENTED_DELAYS: Tuple[float, ...] = (5, 25, 50, 75, 100)
SWARM_BANDWIDTHS: Tuple[float, ...] = (5, 10, 20, 50, 100, 200, 350, 450, 500)
SWARM_DELAY: float = 20.0

