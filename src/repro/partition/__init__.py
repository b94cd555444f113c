"""Model partitioning: FDSP spatial tiling, layer-wise splits, execution
plans and the distributed-latency simulator."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "spatial": ("Grid", "GRIDS", "fdsp_compute_overhead", "split_tiles",
                "merge_tiles", "tile_shape"),
    "plan": ("greedy_spatial_plan", "spatial_front_plan", "BlockPlan",
             "ExecutionPlan", "single_device_plan", "layerwise_split_plan",
             "spatial_plan"),
    "simulate": ("LatencyReport", "simulate_latency"),
    "compiled": ("PlanProgram", "compile_plan", "price"),
})
