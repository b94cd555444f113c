"""Stage 1: partition-ready one-shot NAS.

Search space, architecture configs, the executable weight-sharing
supernet, progressive-shrinking training, accuracy models/predictors,
cost-graph lowering, and the evolutionary-search baseline.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "search_space": ("SearchSpace", "StageSpec", "MBV3_SPACE", "tiny_space"),
    "arch": ("ArchConfig", "max_arch", "min_arch", "random_arch",
             "mutate_arch", "crossover_arch"),
    "supernet": ("Supernet",),
    "training": ("SupernetTrainer", "TrainConfig", "TrainResult",
                 "evaluate_arch", "recalibrate_bn", "partition_aware_forward"),
    "dataset": ("SyntheticImageDataset", "downsample"),
    "accuracy_model": ("ACC_MAX", "arch_accuracy", "plan_accuracy_penalty",
                       "strategy_accuracy"),
    "accuracy_predictor": ("AccuracyPredictor", "fit_predictor"),
    "graph_builder": ("build_graph",),
    "evolution": ("EvolutionConfig", "EvolutionResult", "candidate_plans",
                  "evolutionary_search"),
})
