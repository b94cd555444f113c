"""Monitoring-data predictor (paper Sec. 5).

A lightweight per-metric linear regression over the recent monitoring
window forecasts near-future bandwidth/delay, letting the decision
module *precompute* strategies before conditions actually change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Annotated, Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import IntAtLeast, check_fields
from ..netsim.monitor import Measurement
from ..netsim.topology import NetworkCondition

__all__ = ["LinearPredictor", "MonitoringPredictor"]


class LinearPredictor:
    """Line fit over a sliding window of (t, value).

    ``robust=True`` switches from least squares to the Theil-Sen
    estimator (scipy), which shrugs off the occasional wildly wrong
    probe — a real failure mode of active measurements sharing a link
    with inference traffic.
    """

    window: Annotated[int, IntAtLeast(2)]

    def __init__(self, window: int = 8, robust: bool = False):
        self.window = window
        check_fields(self)
        self.robust = robust
        self._ts: Deque[float] = deque(maxlen=window)
        self._vs: Deque[float] = deque(maxlen=window)

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
        if self.robust and len(vs) >= 3:
            from scipy.stats import theilslopes
            slope, intercept, _, _ = theilslopes(vs, ts)
        else:
            slope, intercept = np.polyfit(ts, vs, 1)
        return float(slope * t + intercept)


class MonitoringPredictor:
    """Forecasts the full network condition from monitoring history."""

    def __init__(self, num_remote: int, window: int = 8,
                 bw_range: Tuple[float, float] = (1.0, 1000.0),
                 delay_range: Tuple[float, float] = (0.0, 500.0),
                 robust: bool = False):
        self.num_remote = num_remote
        self.bw_range = bw_range
        self.delay_range = delay_range
        self._bw: Dict[int, LinearPredictor] = {
            d: LinearPredictor(window, robust)
            for d in range(1, num_remote + 1)}
        self._delay: Dict[int, LinearPredictor] = {
            d: LinearPredictor(window, robust)
            for d in range(1, num_remote + 1)}

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
        physical ranges.
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
            bws.append(float(np.clip(b, *self.bw_range)))
            delays.append(float(np.clip(l, *self.delay_range)))
        return NetworkCondition(tuple(bws), tuple(delays))
