"""The partition-ready one-shot NAS search space (paper Sec. 4.1).

Six customizable settings per the paper: spatial partitioning (1x1-2x2),
input feature quantization (8/16/32 bit), image resolution (160-224),
block depth (2-4 per stage), kernel size (3-7) and channel/expansion
size.  The first two are *runtime placement* settings (they live in the
:class:`~repro.partition.plan.ExecutionPlan`); the last four define the
submodel architecture (:class:`~repro.nas.arch.ArchConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

from ..nn.quantize import SUPPORTED_BITS
from ..partition.spatial import GRIDS, Grid

__all__ = ["StageSpec", "SearchSpace", "MBV3_SPACE", "tiny_space"]


@dataclass(frozen=True)
class StageSpec:
    """Macro definition of one supernet stage (fixed across submodels)."""

    out_ch: int
    stride: int
    use_se: bool
    activation: str  # "relu" | "hswish"


@dataclass(frozen=True)
class SearchSpace:
    """All elastic dimensions plus the fixed macro-skeleton.

    The skeleton is a MobileNetV3-style stack: a stem conv, ``stages``
    inverted-residual stages, a final 1x1 conv and a two-layer head.
    """

    stages: Tuple[StageSpec, ...]
    kernel_options: Tuple[int, ...] = (3, 5, 7)
    expand_options: Tuple[int, ...] = (3, 4, 6)
    depth_options: Tuple[int, ...] = (2, 3, 4)
    resolution_options: Tuple[int, ...] = (160, 176, 192, 208, 224)
    grid_options: Tuple[Grid, ...] = GRIDS
    bits_options: Tuple[int, ...] = SUPPORTED_BITS
    stem_ch: int = 16
    final_ch: int = 960
    head_hidden: int = 1280
    num_classes: int = 1000

    def __post_init__(self):
        if not self.stages:
            raise ValueError("search space needs at least one stage")
        for opts, name in [(self.kernel_options, "kernel"),
                           (self.expand_options, "expand"),
                           (self.depth_options, "depth"),
                           (self.resolution_options, "resolution")]:
            if len(opts) == 0 or sorted(set(opts)) != sorted(opts):
                raise ValueError(f"{name}_options must be unique and non-empty")

    # Derived constants, computed once per space: pricing one submodel
    # read ``max_depth`` 164 times.  ``cached_property`` stores the value
    # in the instance ``__dict__`` (no ``__setattr__``, so frozen is
    # fine); it is not a field, so ``==``, ``hash``, ``repr`` and
    # ``dataclasses.replace`` are what they were.
    @cached_property
    def num_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth_options)

    @cached_property
    def min_depth(self) -> int:
        return min(self.depth_options)

    @cached_property
    def unit_penalties(self) -> Tuple[Dict[int, float], ...]:
        """Per resolution, depth, kernel and expand option, the accuracy
        model's penalty fraction: ``(hi - v) / (hi - lo)`` over the
        dimension's options, 1 at the smallest, 0 if it has one value."""
        return tuple(
            {v: (max(opts) - v) / (max(opts) - min(opts))
             if max(opts) != min(opts) else 0.0 for v in opts}
            for opts in (self.resolution_options, self.depth_options,
                         self.kernel_options, self.expand_options))

    @property
    def max_blocks(self) -> int:
        return self.num_stages * self.max_depth

    def num_submodels(self) -> int:
        """Count of distinct architectures (ignoring runtime settings)."""
        per_block = len(self.kernel_options) * len(self.expand_options)
        total = 0
        # For each stage, sum over depth choices of per-block combos.
        per_stage = sum(per_block ** d for d in self.depth_options)
        return len(self.resolution_options) * per_stage ** self.num_stages


#: ImageNet-scale MobileNetV3-style space used for cost modelling and the
#: paper-scale experiments.
MBV3_SPACE = SearchSpace(stages=(
    StageSpec(out_ch=24, stride=2, use_se=False, activation="relu"),
    StageSpec(out_ch=40, stride=2, use_se=True, activation="relu"),
    StageSpec(out_ch=80, stride=2, use_se=False, activation="hswish"),
    StageSpec(out_ch=112, stride=1, use_se=True, activation="hswish"),
    StageSpec(out_ch=160, stride=2, use_se=True, activation="hswish"),
))


def tiny_space(num_classes: int = 10) -> SearchSpace:
    """A reduced space whose supernet is cheap enough to *actually train*
    with the NumPy engine (used by tests, examples and the training demo).
    """
    return SearchSpace(
        stages=(
            StageSpec(out_ch=16, stride=2, use_se=False, activation="relu"),
            StageSpec(out_ch=24, stride=2, use_se=True, activation="hswish"),
            StageSpec(out_ch=32, stride=2, use_se=True, activation="hswish"),
        ),
        kernel_options=(3, 5),
        expand_options=(2, 3),
        depth_options=(1, 2),
        resolution_options=(16, 32),
        stem_ch=8,
        final_ch=64,
        head_hidden=48,
        num_classes=num_classes,
    )
