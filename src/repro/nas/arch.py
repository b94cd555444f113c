"""Submodel architecture configurations.

An :class:`ArchConfig` pins every *model* dimension of the search space:
input resolution, per-stage depth, and per-active-block kernel size and
expansion ratio.  Runtime dimensions (spatial grid, wire bits, placement)
live in the :class:`~repro.partition.plan.ExecutionPlan` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .search_space import SearchSpace

__all__ = ["ArchConfig", "max_arch", "min_arch", "random_arch",
           "mutate_arch", "crossover_arch"]


@dataclass(frozen=True)
class ArchConfig:
    """One submodel of the supernet.

    ``kernels``/``expands`` are per *slot* (stage-major, ``max_depth``
    slots per stage); entries beyond a stage's chosen depth are inactive
    but kept so encodings are fixed-length.
    """

    resolution: int
    depths: Tuple[int, ...]
    kernels: Tuple[int, ...]
    expands: Tuple[int, ...]

    def validate(self, space: SearchSpace) -> None:
        if self.resolution not in space.resolution_options:
            raise ValueError(f"resolution {self.resolution} not in space")
        if len(self.depths) != space.num_stages:
            raise ValueError(
                f"need {space.num_stages} stage depths, got {len(self.depths)}")
        for d in self.depths:
            if d not in space.depth_options:
                raise ValueError(f"depth {d} not in {space.depth_options}")
        slots = space.num_stages * space.max_depth
        if len(self.kernels) != slots or len(self.expands) != slots:
            raise ValueError(f"need {slots} kernel/expand slots")
        for k in self.kernels:
            if k not in space.kernel_options:
                raise ValueError(f"kernel {k} not in {space.kernel_options}")
        for e in self.expands:
            if e not in space.expand_options:
                raise ValueError(f"expand {e} not in {space.expand_options}")

    # -- slot helpers ----------------------------------------------------
    def slot(self, space: SearchSpace, stage: int, block: int) -> int:
        return stage * space.max_depth + block

    def active_slots(self, space: SearchSpace) -> List[int]:
        depths, max_depth = self.depths, space.max_depth
        return [s * max_depth + b for s in range(space.num_stages)
                for b in range(depths[s])]

    def num_blocks(self) -> int:
        return int(sum(self.depths))

    # -- encoding ---------------------------------------------------------
    def encode(self, space: SearchSpace) -> np.ndarray:
        """Fixed-length normalized feature vector (for the accuracy
        predictor and the RL state)."""
        res_max = max(space.resolution_options)
        parts = [self.resolution / res_max]
        dmax = space.max_depth
        parts += [d / dmax for d in self.depths]
        kmax = max(space.kernel_options)
        emax = max(space.expand_options)
        active = set(self.active_slots(space))
        for i in range(space.num_stages * space.max_depth):
            if i in active:
                parts.append(self.kernels[i] / kmax)
                parts.append(self.expands[i] / emax)
            else:
                parts.append(0.0)
                parts.append(0.0)
        return np.asarray(parts, dtype=np.float64)

    @staticmethod
    def encoding_length(space: SearchSpace) -> int:
        return 1 + space.num_stages + 2 * space.num_stages * space.max_depth

    def canonical_key(self, space: SearchSpace) -> tuple:
        """Hashable identity ignoring inactive-slot values."""
        active = self.active_slots(space)
        return (self.resolution, self.depths,
                tuple(map(self.kernels.__getitem__, active)),
                tuple(map(self.expands.__getitem__, active)))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def max_arch(space: SearchSpace) -> ArchConfig:
    """The largest submodel (distillation teacher / upper accuracy bound)."""
    slots = space.num_stages * space.max_depth
    return ArchConfig(
        resolution=max(space.resolution_options),
        depths=(space.max_depth,) * space.num_stages,
        kernels=(max(space.kernel_options),) * slots,
        expands=(max(space.expand_options),) * slots,
    )


def min_arch(space: SearchSpace) -> ArchConfig:
    """The smallest submodel (fastest / lowest accuracy bound)."""
    slots = space.num_stages * space.max_depth
    return ArchConfig(
        resolution=min(space.resolution_options),
        depths=(space.min_depth,) * space.num_stages,
        kernels=(min(space.kernel_options),) * slots,
        expands=(min(space.expand_options),) * slots,
    )


def random_arch(space: SearchSpace,
                rng: Optional[np.random.Generator] = None) -> ArchConfig:
    rng = rng or np.random.default_rng()
    slots = space.num_stages * space.max_depth
    return ArchConfig(
        resolution=int(rng.choice(space.resolution_options)),
        depths=tuple(int(rng.choice(space.depth_options))
                     for _ in range(space.num_stages)),
        kernels=tuple(int(rng.choice(space.kernel_options))
                      for _ in range(slots)),
        expands=tuple(int(rng.choice(space.expand_options))
                      for _ in range(slots)),
    )


def mutate_arch(arch: ArchConfig, space: SearchSpace,
                rate: float = 0.15,
                rng: Optional[np.random.Generator] = None) -> ArchConfig:
    """Independently resample each dimension with probability ``rate``."""
    rng = rng or np.random.default_rng()
    res = arch.resolution
    if rng.random() < rate:
        res = int(rng.choice(space.resolution_options))
    depths = tuple(
        int(rng.choice(space.depth_options)) if rng.random() < rate else d
        for d in arch.depths)
    kernels = tuple(
        int(rng.choice(space.kernel_options)) if rng.random() < rate else k
        for k in arch.kernels)
    expands = tuple(
        int(rng.choice(space.expand_options)) if rng.random() < rate else e
        for e in arch.expands)
    return ArchConfig(res, depths, kernels, expands)


def crossover_arch(a: ArchConfig, b: ArchConfig,
                   rng: Optional[np.random.Generator] = None) -> ArchConfig:
    """Uniform crossover of two parents (evolutionary-search operator)."""
    rng = rng or np.random.default_rng()

    def pick(x, y):
        return x if rng.random() < 0.5 else y

    return ArchConfig(
        resolution=pick(a.resolution, b.resolution),
        depths=tuple(pick(x, y) for x, y in zip(a.depths, b.depths)),
        kernels=tuple(pick(x, y) for x, y in zip(a.kernels, b.kernels)),
        expands=tuple(pick(x, y) for x, y in zip(a.expands, b.expands)),
    )
