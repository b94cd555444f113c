"""Execution plans: per-block partitioning + placement + wire precision.

An :class:`ExecutionPlan` is the object both the latency simulator and
the real executor consume.  It is also what the RL policy emits and what
the strategy cache stores — the "strategy" of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..models.graph import ModelGraph
from ..nn.quantize import SUPPORTED_BITS
from .spatial import Grid

__all__ = ["BlockPlan", "ExecutionPlan", "single_device_plan",
           "layerwise_split_plan", "spatial_plan", "spatial_front_plan",
           "greedy_spatial_plan"]


@dataclass(frozen=True)
class BlockPlan:
    """Placement decision for one compute block.

    Attributes
    ----------
    grid : spatial partitioning grid for this block.
    devices : device id per tile, row-major; length == grid.ntiles.
    bits : wire precision for this block's *input* when it crosses a
        device boundary (8/16/32).

    Instances are immutable and **shared**: the plan constructors below
    and ``MurmurationEnv.decode`` build each distinct ``(grid, devices,
    bits)`` once and repeat the instance, within a plan and across
    plans.  Compare block plans with ``==``, never by identity.
    """

    grid: Grid
    devices: Tuple[int, ...]
    bits: int = 32

    def __post_init__(self):
        if len(self.devices) != self.grid.ntiles:
            raise ValueError(
                f"{self.grid} grid needs {self.grid.ntiles} device ids, "
                f"got {len(self.devices)}")
        if self.bits not in SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {SUPPORTED_BITS}")
        if any(d < 0 for d in self.devices):
            raise ValueError("device ids must be non-negative")


class ExecutionPlan:
    """Per-block plans for a whole model, plus the output device."""

    def __init__(self, block_plans: Sequence[BlockPlan], output_device: int = 0):
        if not block_plans:
            raise ValueError("empty execution plan")
        self.block_plans: List[BlockPlan] = list(block_plans)
        self.output_device = output_device
        self._devices_used: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        return len(self.block_plans)

    def __getitem__(self, i: int) -> BlockPlan:
        return self.block_plans[i]

    def __iter__(self):
        return iter(self.block_plans)

    def devices_used(self) -> Tuple[int, ...]:
        """The sorted device ids the plan touches, output device included;
        walked once, on the first call (nothing mutates a built plan)."""
        if self._devices_used is None:
            used = {self.output_device}
            for bp in self.block_plans:
                used.update(bp.devices)
            self._devices_used = tuple(sorted(used))
        return self._devices_used

    def validate_for(self, graph: ModelGraph, num_devices: int) -> None:
        """Check the plan is structurally legal for ``graph``.

        Fused blocks must be unpartitioned; device ids must exist.
        """
        if len(self.block_plans) != len(graph):
            raise ValueError(
                f"plan has {len(self.block_plans)} entries for a "
                f"{len(graph)}-block graph")
        for bp, block in zip(self.block_plans, graph):
            if block.fused and bp.grid.ntiles != 1:
                raise ValueError(
                    f"block {block.name!r} is fused but planned on {bp.grid}")
            if not block.partitionable and bp.grid.ntiles != 1:
                raise ValueError(
                    f"block {block.name!r} is not spatially partitionable")
            for d in bp.devices:
                if d >= num_devices:
                    raise ValueError(
                        f"plan references device {d} but cluster has "
                        f"{num_devices}")
        if not 0 <= self.output_device < num_devices:
            raise ValueError("output device out of range")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ExecutionPlan(blocks={len(self)}, "
                f"devices={self.devices_used()})")


# ---------------------------------------------------------------------------
# Canonical plan constructors
# ---------------------------------------------------------------------------

def single_device_plan(graph: ModelGraph, device: int = 0) -> ExecutionPlan:
    """Run everything on one device (the Fig. 1a baseline)."""
    return ExecutionPlan([BlockPlan(Grid(1, 1), (device,))] * len(graph),
                         output_device=device if device == 0 else 0)


def layerwise_split_plan(graph: ModelGraph, split: int, local: int = 0,
                         remote: int = 1, bits: int = 32) -> ExecutionPlan:
    """Neurosurgeon-style plan: blocks [0, split) local, rest remote.

    ``split=0`` ships the raw input (all-remote); ``split=len(graph)`` is
    all-local.
    """
    if not (0 <= split <= len(graph)):
        raise ValueError(f"split {split} out of range for {len(graph)} blocks")
    g11 = Grid(1, 1)
    plans: List[BlockPlan] = []
    if split > 0:
        plans += [BlockPlan(g11, (local,), bits=bits)] * split
    if split < len(graph):
        plans += [BlockPlan(g11, (remote,), bits=bits)] * (len(graph) - split)
    return ExecutionPlan(plans, output_device=0)


def spatial_plan(graph: ModelGraph, grid: Grid, devices: Sequence[int],
                 aggregator: int = 0, bits: int = 32) -> ExecutionPlan:
    """ADCNN-style plan: every partitionable block split on ``grid`` over
    ``devices``; fused / non-partitionable blocks run on ``aggregator``."""
    return spatial_front_plan(graph, grid, devices, aggregator=aggregator,
                              bits=bits, min_hw=0)


def spatial_front_plan(graph: ModelGraph, grid: Grid,
                       devices: Sequence[int], aggregator: int = 0,
                       bits: int = 32, min_hw: int = 14) -> ExecutionPlan:
    """Partition only the *front* of the network (DeepThings-style).

    FDSP's zero-padding overhead grows as feature maps shrink (a 2-pixel
    halo on a 3x3 tile triples the work), so partitioning pays off on the
    early, large-feature-map blocks and hurts on the late ones.  This
    template tiles blocks whose output is at least ``min_hw`` pixels and
    runs the remainder on ``aggregator``.
    """
    if len(devices) != grid.ntiles:
        raise ValueError(f"{grid} grid needs {grid.ntiles} devices")
    # front? -> its setting; each is built (and validated) when the first
    # block needs it and repeated from then on
    settings = {True: (grid, tuple(devices)),
                False: (Grid(1, 1), (aggregator,))}
    shared: Dict[bool, BlockPlan] = {}
    plans = []
    for block in graph:
        front = (block.partitionable and not block.fused
                 and min(block.out_hw) >= min_hw and grid.ntiles > 1)
        if front not in shared:
            shared[front] = BlockPlan(*settings[front], bits=bits)
        plans.append(shared[front])
    return ExecutionPlan(plans, output_device=0)


def greedy_spatial_plan(graph: ModelGraph, devices: Sequence[int],
                        aggregator: int = 0, bits: int = 32,
                        grids: Optional[Sequence[Grid]] = None,
                        ) -> ExecutionPlan:
    """Per-block grid selection (what the RL policy's joint decisions
    converge to): each block independently picks the grid minimizing its
    parallel compute share ``fdsp_overhead / ntiles``, given the block's
    own halo and feature-map size.

    Large-feature-map blocks get wide grids; small late blocks with big
    receptive fields fall back to 1x1 — the mixed plans that make
    multi-device scaling (Fig. 17) actually pay off.
    """
    from .spatial import fdsp_compute_overhead

    if grids is None:
        grids = [Grid(1, 1), Grid(1, 2), Grid(2, 2), Grid(2, 3), Grid(3, 3)]
    usable = [g for g in grids if g.ntiles <= len(devices)]
    g11 = Grid(1, 1)
    # None -> the aggregator's setting, a grid -> that grid over the
    # first devices; each is built (and validated) when first chosen
    # and repeated from then on
    shared: Dict[Optional[Grid], BlockPlan] = {}
    plans = []
    for block in graph:
        if block.fused or not block.partitionable:
            best_grid = None
        else:
            best_grid, best_cost = g11, 1.0
            for g in usable:
                h, w = block.out_hw
                if h < 2 * g.rows or w < 2 * g.cols:
                    continue  # tiles would be degenerate
                cost = fdsp_compute_overhead(block.out_hw, g,
                                             halo=block.halo) / g.ntiles
                if cost < best_cost - 1e-9:
                    best_grid, best_cost = g, cost
        if best_grid not in shared:
            shared[best_grid] = (
                BlockPlan(g11, (aggregator,), bits=bits) if best_grid is None
                else BlockPlan(best_grid, tuple(devices[:best_grid.ntiles]),
                               bits=bits))
        plans.append(shared[best_grid])
    return ExecutionPlan(plans, output_device=0)
