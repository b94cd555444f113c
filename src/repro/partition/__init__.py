"""Model partitioning: FDSP spatial tiling, layer-wise splits, execution
plans and the distributed-latency simulator."""

from .plan import (
    BlockPlan,
    ExecutionPlan,
    greedy_spatial_plan,
    layerwise_split_plan,
    single_device_plan,
    spatial_front_plan,
    spatial_plan,
)
from .compiled import PlanProgram, compile_plan, price
from .simulate import LatencyReport, simulate_latency
from .spatial import (
    GRIDS,
    Grid,
    fdsp_compute_overhead,
    merge_tiles,
    split_tiles,
    tile_shape,
)

__all__ = [
    "Grid",
    "greedy_spatial_plan",
    "spatial_front_plan",
    "GRIDS",
    "fdsp_compute_overhead",
    "split_tiles",
    "merge_tiles",
    "tile_shape",
    "BlockPlan",
    "ExecutionPlan",
    "single_device_plan",
    "layerwise_split_plan",
    "spatial_plan",
    "LatencyReport",
    "simulate_latency",
    "PlanProgram",
    "compile_plan",
    "price",
]
