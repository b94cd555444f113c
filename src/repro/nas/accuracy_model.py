"""Calibrated analytical accuracy model.

The paper trains its supernet on ImageNet and uses an accuracy predictor
during RL training.  We have no ImageNet here, so the "ground truth" the
predictor (and the RL reward) consumes is this analytical model, anchored
to published OFA/MobileNetV3 numbers:

* the max submodel (res 224, depth 4, k7, e6) reaches ~78.6 % top-1,
  just below ResNeXt101's 79.3 % — matching Fig. 15 where only
  Neurosurgeon+ResNeXt covers the highest accuracy constraint;
* the min submodel (res 160, depth 2, k3, e3) lands near 71 %, below
  MobileNetV3-Large's 75.2 %;
* effects are monotone in every dimension with magnitudes in line with
  the OFA paper's reported deltas (resolution and width dominate, kernel
  size is mild);
* FDSP spatial partitioning and 8-bit wire quantization cost a small,
  bounded amount (Sec. 4.1 calls this "a small impact on accuracy"),
  which creates the accuracy<->latency trade-off the RL policy navigates.

A deterministic per-architecture residual (hash-seeded, ±0.15 %) gives
the landscape realistic texture so search methods cannot exploit exact
linearity.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from .. import _mean
from ..partition.plan import ExecutionPlan
from .arch import ArchConfig
from .search_space import SearchSpace

__all__ = ["ACC_MAX", "arch_accuracy", "plan_accuracy_penalty",
           "strategy_accuracy"]

#: Top-1 accuracy of the max submodel (percent).
ACC_MAX = 78.6

# Penalty weights (percentage points at the extreme of each dimension).
_W_RESOLUTION = 2.2
_W_DEPTH = 2.4
_W_KERNEL = 1.3
_W_EXPAND = 1.9
_RESIDUAL_SCALE = 0.15

# Runtime-setting penalties.
_P_GRID_1X2 = 0.45   # all blocks partitioned 1x2
_P_GRID_2X2 = 0.95   # all blocks partitioned 2x2
_P_BITS_8 = 0.45     # all device-crossing inputs quantized to 8 bit
_P_BITS_16 = 0.12


def _residual(key: tuple) -> float:
    """The ±0.15 % texture of the arch with this canonical key."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    u = int.from_bytes(digest[:8], "little") / 2 ** 64
    return (2.0 * u - 1.0) * _RESIDUAL_SCALE


def arch_accuracy(arch: ArchConfig, space: SearchSpace) -> float:
    """Top-1 accuracy (percent) of a submodel, independent of placement."""
    arch.validate(space)
    res_pens, depth_pens, kernel_pens, expand_pens = space.unit_penalties
    # the key holds the active slots' kernels and expansions, in order
    key = res, depths, kernels, expands = arch.canonical_key(space)
    acc = (ACC_MAX
           - _W_RESOLUTION * res_pens[res]
           - _W_DEPTH * _mean(list(map(depth_pens.__getitem__, depths)))
           - _W_KERNEL * _mean(list(map(kernel_pens.__getitem__, kernels)))
           - _W_EXPAND * _mean(list(map(expand_pens.__getitem__, expands)))
           + _residual(key))
    return float(acc)


def plan_accuracy_penalty(plan: ExecutionPlan) -> float:
    """Accuracy cost (percentage points) of the runtime settings.

    FDSP zero padding perturbs tile borders; low-precision wire transfer
    adds quantization noise.  Both penalties scale with the fraction of
    blocks affected.
    """
    n = len(plan)
    tiled_1x2 = tiled_2x2 = 0
    # Quantization only matters where the input actually crosses devices.
    crossings8 = crossings16 = 0
    prev_devices = (0,)
    for bp in plan:
        ntiles = len(bp.devices)        # == bp.grid.ntiles
        if ntiles == 2:
            tiled_1x2 += 1
        elif ntiles >= 4:
            tiled_2x2 += 1
        devices = tuple(bp.devices)
        if devices != prev_devices:
            if bp.bits == 8:
                crossings8 += 1
            elif bp.bits == 16:
                crossings16 += 1
        prev_devices = devices
    frac_1x2 = tiled_1x2 / n
    frac_2x2 = tiled_2x2 / n
    pen = (_P_GRID_1X2 * frac_1x2 + _P_GRID_2X2 * frac_2x2
           + _P_BITS_8 * min(1.0, crossings8 / 4.0)
           + _P_BITS_16 * min(1.0, crossings16 / 4.0))
    return float(pen)


def strategy_accuracy(arch: ArchConfig, space: SearchSpace,
                      plan: Optional[ExecutionPlan] = None) -> float:
    """End-to-end accuracy of (submodel, placement) — what the user sees."""
    acc = arch_accuracy(arch, space)
    if plan is not None:
        acc -= plan_accuracy_penalty(plan)
    return float(acc)
