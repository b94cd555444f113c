"""Stage 2: goal-conditioned multi-task RL.

The environment over the cost models, the LSTM policy, the SUPREME
trainer, and the GCSL/PPO baselines.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "env": ("MurmurationEnv", "EnvConfig", "Task", "StrategyOutcome"),
    "policy": ("LSTMPolicy", "PolicyConfig", "RolloutBatch"),
    "spaces": ("ACTION_TYPES", "ActionStep", "build_schedule"),
    "gcsl": ("GCSLTrainer", "GCSLConfig"),
    "ppo": ("PPOTrainer", "PPOConfig"),
    "supreme": ("SupremeTrainer", "SupremeConfig", "murmuration_basic_config",
                "BucketedReplayBuffer", "BucketDim", "Entry"),
    "common": ("EvalResult", "TrainingHistory", "bootstrap_actions",
               "evaluate_policy", "satisfiable", "satisfiable_mask",
               "supervised_update"),
})
