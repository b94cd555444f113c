"""Network monitoring (Section 5's Network Monitoring module).

Combines *active* probes (ping-style RTT, iperf-style bandwidth
estimates) with *passive* observations (timing actual data transfers).
Measurements carry realistic multiplicative noise; an exponentially
weighted moving average smooths them, and the most recent smoothed
estimate forms the condition fed to the decision module.

The noise is ``rng.lognormal(0.0, sigma)``'s stream, drawn in blocks of
standard normals and finished as ``exp(0.0 + sigma * z)`` — numpy's own
formula, so every sample equals the scalar call's.
"""

from __future__ import annotations

import math
from typing import Annotated, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import Bound, Finite, IntAtLeast, NonNegative, check_fields
from ..telemetry import Telemetry
from .topology import Cluster, NetworkCondition

__all__ = ["Measurement", "NetworkMonitor"]

_BLOCK = 256    # standard normals drawn per refill
_RECENT = 16    # samples behind recent_rel_error


class Measurement(NamedTuple):
    """One monitoring sample for one remote device."""

    device: int
    bandwidth_mbps: float
    delay_ms: float
    timestamp: float
    source: str  # "active" | "passive"


class NetworkMonitor:
    """Samples the (simulated) true link state with measurement noise.

    Parameters
    ----------
    cluster : the cluster whose links are observed.
    noise : relative std-dev of active-probe error (passive observations
        are noisier: real transfers share the link with inference traffic).
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
        self._normals = iter(())
        self._history: List[Measurement] = []
        self._smoothed_bw: Dict[int, float] = {}
        self._smoothed_delay: Dict[int, float] = {}
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("monitor")
        # Pre-resolved per-source counters keep the probe hot path
        # to plain attribute increments.
        self._m_probes = {
            source: reg.counter("probes_total", help="monitoring samples",
                                source=source)
            for source in ("active", "passive")}
        self._m_bw_err = reg.histogram(
            "bw_estimate_rel_error",
            help="|smoothed bw - true bw| / true bw after each sample")
        self._m_delay_err = reg.histogram(
            "delay_estimate_rel_error",
            help="|smoothed delay - true delay| / true delay")

    # -- probing -------------------------------------------------------------
    def _lognormal(self, sigma: float) -> float:
        """The next ``self._rng.lognormal(0.0, sigma)``, bit for bit."""
        z = next(self._normals, None)
        if z is None:
            self._normals = iter(self._rng.standard_normal(_BLOCK).tolist())
            z = next(self._normals)
        return math.exp(0.0 + sigma * z)

    def _record(self, m: Measurement, cond: NetworkCondition) -> Measurement:
        """Ingest one measurement and update telemetry error gauges."""
        self._ingest(m)
        self._m_probes[m.source].inc()
        self._m_bw_err.observe_rel_error(
            self._smoothed_bw[m.device], cond.bandwidths_mbps[m.device - 1])
        self._m_delay_err.observe_rel_error(
            self._smoothed_delay[m.device], cond.delays_ms[m.device - 1])
        return m

    def active_probe(self, device: int, now: float = 0.0) -> Measurement:
        """Ping + short bandwidth probe against one remote device."""
        if not (1 <= device < self.cluster.num_devices):
            raise ValueError(f"device {device} is not a remote device")
        cond = self.cluster.condition
        bw = cond.bandwidths_mbps[device - 1] * self._lognormal(self.noise)
        delay = cond.delays_ms[device - 1] * self._lognormal(self.noise)
        return self._record(Measurement(device, bw, delay, now, "active"),
                            cond)

    def passive_observe(self, device: int, nbytes: float, elapsed_s: float,
                        now: float = 0.0) -> Measurement:
        """Derive link state from a timed real transfer.

        Unlike an active probe — which samples ground truth with noise —
        a passive observation is computed from what actually happened on
        the wire: ``nbytes`` delivered in ``elapsed_s``.  The fixed
        per-message cost (propagation delay + RPC overhead) is backed
        out using the monitor's own smoothed delay estimate (link-model
        fallback before the first probe), and the remainder prices the
        payload: ``bw = nbytes * 8 / payload_time``.  The delay sample
        still comes from the ack timing (noisy, 2x active noise —
        transfers share the link with inference traffic).
        """
        if not 0 < elapsed_s < math.inf:
            raise ValueError(
                f"elapsed_s must be positive and finite, got {elapsed_s!r}")
        if not 0 < nbytes < math.inf:
            raise ValueError(
                f"nbytes must be positive and finite, got {nbytes!r}")
        if not (1 <= device < self.cluster.num_devices):
            raise ValueError(f"device {device} is not a remote device")
        link = self.cluster.link_to(device)
        est_delay_ms = self._smoothed_delay.get(device, link.delay_ms)
        overhead_s = (est_delay_ms + link.rpc_overhead_ms) / 1e3
        # A transfer faster than the modeled fixed cost still carries
        # signal; keep a sliver of the elapsed time so bw stays finite.
        payload_s = max(elapsed_s - overhead_s, 0.01 * elapsed_s)
        bw_mbps = nbytes * 8.0 / payload_s / 1e6
        cond = self.cluster.condition
        delay = cond.delays_ms[device - 1] * self._lognormal(self.noise * 2.0)
        return self._record(
            Measurement(device, bw_mbps, delay, now, "passive"), cond)

    def probe_all(self, now: float = 0.0) -> List[Measurement]:
        return [self.active_probe(d, now)
                for d in range(1, self.cluster.num_devices)]

    # -- state ---------------------------------------------------------------
    def _ingest(self, m: Measurement) -> None:
        self._history.append(m)
        a = self.ewma_alpha
        if m.device in self._smoothed_bw:
            self._smoothed_bw[m.device] = (
                a * m.bandwidth_mbps + (1 - a) * self._smoothed_bw[m.device])
            self._smoothed_delay[m.device] = (
                a * m.delay_ms + (1 - a) * self._smoothed_delay[m.device])
        else:
            self._smoothed_bw[m.device] = m.bandwidth_mbps
            self._smoothed_delay[m.device] = m.delay_ms

    @property
    def history(self) -> List[Measurement]:
        return list(self._history)

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
        for m in self._history[-_RECENT:]:
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

    def device_series(self, device: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(timestamps, bandwidths, delays) history for one device."""
        ms = [m for m in self._history if m.device == device]
        return (np.array([m.timestamp for m in ms]),
                np.array([m.bandwidth_mbps for m in ms]),
                np.array([m.delay_ms for m in ms]))
