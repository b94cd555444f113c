"""Stage 3 runtime: simulated clock, RPC substitute, the distributed
executor, model reconfiguration and the monitoring predictor."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "clock": ("SimulatedClock",),
    "rpc": ("Transport", "Message"),
    "executor": ("DistributedExecutor", "ExecutionResult"),
    "reconfig": ("ModelReconfig", "FixedModelStore", "SwitchRecord"),
    "predictor": ("LinearPredictor", "MonitoringPredictor"),
    "server": ("InferenceServer", "RequestRecord", "ServingStats"),
    "batching": ("BatchingInferenceServer", "BatchPolicy", "BatchRecord",
                 "BatchedServingStats"),
})
