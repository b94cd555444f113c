"""Per-inference energy accounting (extension).

CoEdge (related work, Sec. 2.1) optimizes distributed inference for the
*energy* of IoT devices rather than latency; this module adds the same
lens to Murmuration's cost stack so energy-aware trade-off studies run
on the identical simulator output.

Model: each participating device draws ``idle_w`` for the whole
inference makespan, an extra ``active_w - idle_w`` while computing, and
pays per-byte radio costs for transmit/receive.  Typical values for the
catalog devices come from published Pi-4 (≈2.7 W idle, ≈6.4 W loaded)
and desktop-GPU measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..partition.simulate import LatencyReport
from .profiles import DeviceProfile

__all__ = ["EnergyProfile", "EnergyReport", "ENERGY_CATALOG",
           "energy_of_report"]


@dataclass(frozen=True)
class EnergyProfile:
    """Power/energy constants of one device."""

    idle_w: float
    active_w: float
    tx_nj_per_byte: float    # nanojoules per transmitted byte
    rx_nj_per_byte: float

    def compute_energy(self, busy_s: float, makespan_s: float) -> float:
        """Joules: idle draw for the makespan + active delta while busy."""
        busy = min(busy_s, makespan_s)
        return self.idle_w * makespan_s + (self.active_w - self.idle_w) * busy

    def network_energy(self, tx_bytes: float, rx_bytes: float) -> float:
        return (tx_bytes * self.tx_nj_per_byte
                + rx_bytes * self.rx_nj_per_byte) * 1e-9


#: Energy profiles keyed by device catalog name.
ENERGY_CATALOG: Dict[str, EnergyProfile] = {
    "rpi4": EnergyProfile(idle_w=2.7, active_w=6.4,
                          tx_nj_per_byte=180.0, rx_nj_per_byte=120.0),
    "desktop_gtx1080": EnergyProfile(idle_w=45.0, active_w=220.0,
                                     tx_nj_per_byte=60.0,
                                     rx_nj_per_byte=40.0),
    "jetson_class": EnergyProfile(idle_w=4.0, active_w=15.0,
                                  tx_nj_per_byte=120.0,
                                  rx_nj_per_byte=80.0),
}


@dataclass(frozen=True)
class EnergyReport:
    """Energy of one inference, per device and total."""

    per_device_j: Dict[int, float]
    compute_j: float
    network_j: float

    @property
    def total_j(self) -> float:
        return sum(self.per_device_j.values())


def energy_of_report(report: LatencyReport,
                     devices: Sequence[DeviceProfile]) -> EnergyReport:
    """Energy of a simulated inference.

    Devices that neither compute nor communicate are treated as outside
    the deployment (no idle draw charged) — matching how CoEdge counts
    only participating nodes.
    """
    per_device: Dict[int, float] = {}
    compute_total = 0.0
    network_total = 0.0
    makespan = report.total_s
    for i, dev in enumerate(devices):
        busy = report.compute_s.get(i, 0.0)
        tx = report.tx_bytes.get(i, 0.0)
        rx = report.rx_bytes.get(i, 0.0)
        if busy == 0.0 and tx == 0.0 and rx == 0.0:
            continue
        if dev.name not in ENERGY_CATALOG:
            raise KeyError(f"no energy profile for device {dev.name!r}")
        ep = ENERGY_CATALOG[dev.name]
        e_compute = ep.compute_energy(busy, makespan)
        e_net = ep.network_energy(tx, rx)
        per_device[i] = e_compute + e_net
        compute_total += e_compute
        network_total += e_net
    return EnergyReport(per_device, compute_total, network_total)
