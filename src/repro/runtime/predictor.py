"""Monitoring-data predictor (paper Sec. 5).

A lightweight per-metric linear regression over the recent monitoring
window forecasts near-future bandwidth/delay, letting the decision
module *precompute* strategies before conditions actually change.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from ..netsim.monitor import Measurement
from ..netsim.topology import NetworkCondition

__all__ = ["LinearPredictor", "MonitoringPredictor"]

#: samples a line is fitted over, newest kept
WINDOW = 8
#: physical ranges a forecast is clamped to, Mbit/s and ms
BW_RANGE = (1.0, 1000.0)
DELAY_RANGE = (0.0, 500.0)


class LinearPredictor:
    """Least-squares line fit over the last :data:`WINDOW` (t, value)
    samples."""

    def __init__(self):
        self._ts: Deque[float] = deque(maxlen=WINDOW)
        self._vs: Deque[float] = deque(maxlen=WINDOW)

    def observe(self, t: float, value: float) -> None:
        self._ts.append(float(t))
        self._vs.append(float(value))

    @property
    def n(self) -> int:
        return len(self._vs)

    def predict(self, t: float) -> Optional[float]:
        """Forecast the value at time ``t`` (None until 2+ samples)."""
        if self.n == 0:
            return None
        if self.n == 1:
            return self._vs[0]
        ts = np.asarray(self._ts)
        vs = np.asarray(self._vs)
        if np.ptp(ts) == 0:
            return float(vs.mean())
        slope, intercept = np.polyfit(ts, vs, 1)
        return float(slope * t + intercept)


class MonitoringPredictor:
    """Forecasts the full network condition from monitoring history."""

    def __init__(self, num_remote: int):
        self.num_remote = num_remote
        self._bw: Dict[int, LinearPredictor] = {
            d: LinearPredictor() for d in range(1, num_remote + 1)}
        self._delay: Dict[int, LinearPredictor] = {
            d: LinearPredictor() for d in range(1, num_remote + 1)}

    def observe(self, m: Measurement) -> None:
        if m.device not in self._bw:
            raise ValueError(f"device {m.device} out of range")
        self._bw[m.device].observe(m.timestamp, m.bandwidth_mbps)
        self._delay[m.device].observe(m.timestamp, m.delay_ms)

    def observe_all(self, measurements: List[Measurement]) -> None:
        for m in measurements:
            self.observe(m)

    def predict(self, t: float,
                fallback: Optional[NetworkCondition] = None,
                ) -> Optional[NetworkCondition]:
        """Predicted condition at time ``t``.

        Metrics without history fall back to ``fallback`` (or None is
        returned if no fallback covers them).  Predictions are clamped to
        :data:`BW_RANGE` and :data:`DELAY_RANGE`.
        """
        bws, delays = [], []
        for d in range(1, self.num_remote + 1):
            b = self._bw[d].predict(t)
            l = self._delay[d].predict(t)
            if b is None or l is None:
                if fallback is None:
                    return None
                b = fallback.bandwidths_mbps[d - 1] if b is None else b
                l = fallback.delays_ms[d - 1] if l is None else l
            bws.append(float(np.clip(b, *BW_RANGE)))
            delays.append(float(np.clip(l, *DELAY_RANGE)))
        return NetworkCondition(tuple(bws), tuple(delays))
