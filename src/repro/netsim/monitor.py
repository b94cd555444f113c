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

from .. import Bound, Finite, IntAtLeast, NonNegative, _mean, check_fields
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
        self._observe_probe = reg.observer(self._count_probe)

    # -- probing -------------------------------------------------------------
    def probe_all(self, now: float = 0.0) -> List[Measurement]:
        """One round of ping + short bandwidth probes, remotes in order.
        Per remote: bandwidth draw, delay draw, EWMA, then one observer
        call (the counter and both estimate errors against the truth)."""
        cond = self.cluster.condition
        noise, a = self.noise, self.ewma_alpha
        smoothed_bw, smoothed_delay = self._smoothed_bw, self._smoothed_delay
        normals, k = self._normals, self._drawn
        out = []
        for device in range(1, self.cluster.num_devices):
            true_bw = cond.bandwidths_mbps[device - 1]
            true_delay = cond.delays_ms[device - 1]
            if k == _BLOCK:    # a probe takes two: a block never splits one
                normals = self._normals = self._rng.standard_normal(
                    _BLOCK).tolist()
                k = 0
            bw = true_bw * math.exp(0.0 + noise * normals[k])
            delay = true_delay * math.exp(0.0 + noise * normals[k + 1])
            k += 2
            m = Measurement(device, bw, delay, now, "active")
            self._recent.append(m)
            out.append(m)
            if device in smoothed_bw:
                bw = smoothed_bw[device] = (
                    a * bw + (1 - a) * smoothed_bw[device])
                delay = smoothed_delay[device] = (
                    a * delay + (1 - a) * smoothed_delay[device])
            else:
                smoothed_bw[device], smoothed_delay[device] = bw, delay
            self._observe_probe(bw, true_bw, delay, true_delay)
        self._drawn = k
        return out

    def _count_probe(self, bw: float, true_bw: float, delay: float,
                     true_delay: float) -> None:
        """One probe's metrics (``registry.observer``)."""
        self._m_probes.inc()
        self._m_bw_err.observe_rel_error(bw, true_bw)
        self._m_delay_err.observe_rel_error(delay, true_delay)

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
        return (_mean(bw_errs) if bw_errs else 0.0,
                _mean(delay_errs) if delay_errs else 0.0)

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
