"""Fixed-DNN distributed-inference baselines: Neurosurgeon (layer-wise)
and ADCNN (FDSP spatial), plus the figure-driver registry."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "neurosurgeon": ("neurosurgeon_plan", "NeurosurgeonResult"),
    "adcnn": ("adcnn_plan", "ADCNNResult", "FDSP_FINETUNE_PENALTY"),
    "registry": ("BaselineMethod", "BaselineOutcome", "make_baseline",
                 "AUGMENTED_BASELINES", "SWARM_BASELINES"),
})
