"""Edge-device profiles.

The paper's testbed devices (Raspberry Pi 4; a desktop with an AMD Ryzen
5500 and an Nvidia GTX1080) are replaced by calibrated analytical
profiles.  Calibration anchors (batch-1 inference, fp32):

* MobileNetV3-Large @224 ≈ 450 ms on a Pi-4-class CPU (framework-bound
  fp32 PyTorch, matching the paper's Fig. 17 scale) and ≈ 4 ms on the
  GTX1080-class GPU (framework-bound small-batch throughput ~110 GFLOP/s,
  far below peak — consistent with published batch-1 PyTorch numbers).
* DenseNet161 ≈ 140 ms and ResNeXt101-32x8d ≈ 300 ms on the GPU class,
  which reproduces the paper's observation that Neurosurgeon with these
  models cannot meet a 140 ms latency SLO under any network condition
  (Fig. 13a).

``speed_factor`` expresses how fast the device runs *control-plane*
Python code (RL decision, evolutionary search) relative to this host;
Fig. 18's search-time experiment measures host wall-time and projects it
through this factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["DeviceProfile", "DEVICE_CATALOG", "rpi4",
           "desktop_gtx1080", "jetson_class"]


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one compute device.

    Attributes
    ----------
    name : catalog identifier.
    kind : "cpu" or "gpu" — used for utilization heuristics.
    effective_flops : sustained batch-1 FLOP/s (2 x MAC convention).
    mem_bandwidth : sustained memory bandwidth, bytes/s (roofline term).
    block_overhead_s : fixed per-block dispatch overhead (framework +
        kernel launch), seconds.
    disk_read_bps : weight-loading throughput, bytes/s (model-switch cost).
    memory_bytes : RAM available for weights + activations.
    speed_factor : control-plane Python speed relative to the build host
        (1.0 = same speed; 0.05 = 20x slower).
    device_class : small integer fed to the RL state encoding.
    depthwise_penalty : slowdown factor for depthwise-separable blocks.
        Their low arithmetic intensity wastes CPU SIMD lanes: published
        batch-1 numbers show MobileNet-class nets achieving a small
        fraction of a CPU's dense-conv throughput, while GPUs are less
        affected.
    """

    name: str
    kind: str
    effective_flops: float
    mem_bandwidth: float
    block_overhead_s: float
    disk_read_bps: float
    memory_bytes: int
    speed_factor: float
    device_class: int
    depthwise_penalty: float = 1.0

    def compute_time(self, flops: float, mem_bytes: float = 0.0,
                     n_blocks: int = 1) -> float:
        """Roofline block latency: max(compute, memory) + dispatch."""
        t_compute = flops / self.effective_flops
        t_memory = mem_bytes / self.mem_bandwidth
        return max(t_compute, t_memory) + self.block_overhead_s * n_blocks

    def weight_load_time(self, weight_bytes: float) -> float:
        """Time to page model weights from storage into memory."""
        return weight_bytes / self.disk_read_bps


def rpi4() -> DeviceProfile:
    """Raspberry Pi 4 class device (quad A72 @1.5 GHz)."""
    return DeviceProfile(
        name="rpi4", kind="cpu",
        effective_flops=3.1e9,        # dense-conv fp32 batch-1 throughput
        mem_bandwidth=2.0e9,
        block_overhead_s=0.4e-3,
        disk_read_bps=90e6,           # SD-card class storage
        memory_bytes=4 * 1024 ** 3,
        speed_factor=0.065,           # ~15x slower Python than the host
        device_class=0,
        depthwise_penalty=2.5,        # MBConv nets run ~1 GFLOP/s effective
    )


def desktop_gtx1080() -> DeviceProfile:
    """Desktop with AMD Ryzen 5500 + Nvidia GTX1080 (batch-1 inference)."""
    return DeviceProfile(
        name="desktop_gtx1080", kind="gpu",
        effective_flops=110.0e9,      # framework-bound batch-1 throughput
        mem_bandwidth=60.0e9,
        block_overhead_s=0.25e-3,
        disk_read_bps=500e6,          # SATA SSD
        memory_bytes=8 * 1024 ** 3,
        speed_factor=1.0,
        device_class=1,
        depthwise_penalty=1.3,
    )


def jetson_class() -> DeviceProfile:
    """A mid-tier embedded GPU (used in extension experiments)."""
    return DeviceProfile(
        name="jetson_class", kind="gpu",
        effective_flops=25.0e9,
        mem_bandwidth=15.0e9,
        block_overhead_s=0.35e-3,
        disk_read_bps=200e6,
        memory_bytes=4 * 1024 ** 3,
        speed_factor=0.3,
        device_class=2,
        depthwise_penalty=1.5,
    )


DEVICE_CATALOG: Dict[str, object] = {
    "rpi4": rpi4,
    "desktop_gtx1080": desktop_gtx1080,
    "jetson_class": jetson_class,
}
