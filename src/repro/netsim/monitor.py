"""Network monitoring (Section 5's Network Monitoring module).

Takes *active* probes (ping-style RTT, iperf-style bandwidth
estimates).  Measurements carry realistic multiplicative noise; an
exponentially weighted moving average smooths them, and the most recent
smoothed estimate forms the condition fed to the decision module.

The noise is ``rng.lognormal(0.0, sigma)``'s stream, drawn in blocks of
standard normals and finished as ``exp(0.0 + sigma * z)`` — numpy's own
formula, so every sample equals the scalar call's.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Annotated, Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import Bound, Finite, IntAtLeast, NonNegative, check_fields
from ..telemetry import Telemetry
from .topology import Cluster, NetworkCondition

__all__ = ["Measurement", "NetworkMonitor"]

_BLOCK = 256    # standard normals drawn per refill (even: two per probe)
_RECENT = 16    # samples behind recent_rel_error


class Measurement(NamedTuple):
    """One monitoring sample for one remote device."""

    device: int
    bandwidth_mbps: float
    delay_ms: float
    timestamp: float
    source: str  # "active"


class NetworkMonitor:
    """Samples the (simulated) true link state with measurement noise.

    Parameters
    ----------
    cluster : the cluster whose links are observed.
    noise : relative std-dev of active-probe error.
    ewma_alpha : smoothing factor; 1.0 = trust the latest sample fully.
    """

    noise: Annotated[float, Finite, NonNegative]
    ewma_alpha: Annotated[float, Bound(0.0, 1.0, lo_open=True)]
    seed: Annotated[int, IntAtLeast(0)]

    def __init__(self, cluster: Cluster, noise: float = 0.05,
                 ewma_alpha: float = 0.5, seed: int = 0,
                 telemetry: Optional[Telemetry] = None):
        self.noise = noise
        self.ewma_alpha = ewma_alpha
        self.seed = seed
        check_fields(self)
        self.cluster = cluster
        self._rng = np.random.default_rng(seed)
        #: the current block of standard normals and how many are used
        self._normals: List[float] = []
        self._drawn = _BLOCK
        self._recent: Deque[Measurement] = deque(maxlen=_RECENT)
        self._smoothed_bw: Dict[int, float] = {}
        self._smoothed_delay: Dict[int, float] = {}
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("monitor")
        # pre-resolved: the probe hot path is a plain increment
        self._m_probes = reg.counter("probes_total",
                                     help="monitoring samples",
                                     source="active")
        # stays registered at 0: the frozen registry snapshots
        # (telemetry_snapshot_digests) carry the passive series
        reg.counter("probes_total", help="monitoring samples",
                    source="passive")
        self._m_bw_err = reg.histogram(
            "bw_estimate_rel_error",
            help="|smoothed bw - true bw| / true bw after each sample")
        self._m_delay_err = reg.histogram(
            "delay_estimate_rel_error",
            help="|smoothed delay - true delay| / true delay")

    # -- probing -------------------------------------------------------------
    def active_probe(self, device: int, now: float = 0.0) -> Measurement:
        """Ping + short bandwidth probe against one remote device, in one
        pass: bandwidth draw, delay draw, EWMA, counter, then both
        estimate errors against the true link."""
        if not (1 <= device < self.cluster.num_devices):
            raise ValueError(f"device {device} is not a remote device")
        cond = self.cluster.condition
        true_bw = cond.bandwidths_mbps[device - 1]
        true_delay = cond.delays_ms[device - 1]
        k = self._drawn
        if k == _BLOCK:    # a probe takes two: a block never splits one
            self._normals = self._rng.standard_normal(_BLOCK).tolist()
            k = 0
        self._drawn = k + 2
        bw = true_bw * math.exp(0.0 + self.noise * self._normals[k])
        delay = true_delay * math.exp(0.0 + self.noise * self._normals[k + 1])
        m = Measurement(device, bw, delay, now, "active")
        self._recent.append(m)
        a = self.ewma_alpha
        smoothed_bw, smoothed_delay = self._smoothed_bw, self._smoothed_delay
        if device in smoothed_bw:
            bw = smoothed_bw[device] = a * bw + (1 - a) * smoothed_bw[device]
            delay = smoothed_delay[device] = (
                a * delay + (1 - a) * smoothed_delay[device])
        else:
            smoothed_bw[device], smoothed_delay[device] = bw, delay
        self._m_probes.inc()
        self._m_bw_err.observe_rel_error(bw, true_bw)
        self._m_delay_err.observe_rel_error(delay, true_delay)
        return m

    def probe_all(self, now: float = 0.0) -> List[Measurement]:
        return [self.active_probe(d, now)
                for d in range(1, self.cluster.num_devices)]

    # -- state ---------------------------------------------------------------
    def recent_rel_error(self) -> Tuple[float, float]:
        """(bandwidth, delay) mean of ``|sample - smoothed| / smoothed``
        over the last 16 samples, each against its device's
        current smoothed estimate; 0.0 with no sample.

        This is the estimate error a deployment can observe.  The
        ``*_estimate_rel_error`` histograms compare against the true
        link instead: they are for dashboards, never for steering.
        """
        bw_errs: List[float] = []
        delay_errs: List[float] = []
        for m in self._recent:
            sm_bw = self._smoothed_bw[m.device]
            sm_delay = self._smoothed_delay[m.device]
            if sm_bw:
                bw_errs.append(abs(m.bandwidth_mbps - sm_bw) / sm_bw)
            if sm_delay:
                delay_errs.append(abs(m.delay_ms - sm_delay) / sm_delay)
        return (float(np.mean(bw_errs)) if bw_errs else 0.0,
                float(np.mean(delay_errs)) if delay_errs else 0.0)

    def estimate(self) -> NetworkCondition:
        """Current smoothed estimate of all links.

        Devices never probed fall back to the true condition (the monitor
        is bootstrapped with one probe round in the runtime).
        """
        n = self.cluster.num_devices - 1
        cond = self.cluster.condition
        bws, delays = [], []
        for d in range(1, n + 1):
            bws.append(self._smoothed_bw.get(d, cond.bandwidths_mbps[d - 1]))
            delays.append(self._smoothed_delay.get(d, cond.delays_ms[d - 1]))
        return NetworkCondition(tuple(bws), tuple(delays))
