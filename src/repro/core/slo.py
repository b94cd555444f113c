"""The SLO API (paper Sec. 5).

Users express a single scalar objective: either a latency bound in
seconds or an accuracy floor in percent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SLO"]


@dataclass(frozen=True)
class SLO:
    """A service-level objective.

    ``kind`` is "latency" (value = max end-to-end seconds) or "accuracy"
    (value = min top-1 percent).
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("latency", "accuracy"):
            raise ValueError(f"SLO kind must be latency|accuracy, got {self.kind!r}")
        if self.kind == "latency" and not 0 < self.value < math.inf:
            raise ValueError(f"latency SLO must be finite positive seconds, "
                             f"got {self.value!r}")
        if self.kind == "accuracy" and not (0 < self.value <= 100):
            raise ValueError(f"accuracy SLO must be in (0, 100] percent, "
                             f"got {self.value!r}")

    @staticmethod
    def latency(seconds: float) -> "SLO":
        return SLO("latency", seconds)

    @staticmethod
    def latency_ms(ms: float) -> "SLO":
        return SLO("latency", ms / 1e3)

    @staticmethod
    def accuracy(percent: float) -> "SLO":
        return SLO("accuracy", percent)

    def satisfied_by(self, latency_s: float, accuracy: float) -> bool:
        if self.kind == "latency":
            return latency_s <= self.value
        return accuracy >= self.value
