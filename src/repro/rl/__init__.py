"""Stage 2: goal-conditioned multi-task RL.

The environment over the cost models, the LSTM policy, the SUPREME
trainer, and the GCSL/PPO baselines.
"""

from .common import (
    EvalResult,
    TrainingHistory,
    bootstrap_actions,
    evaluate_policy,
    satisfiable,
    satisfiable_mask,
    supervised_update,
)
from .env import EnvConfig, MurmurationEnv, StrategyOutcome, Task
from .gcsl import GCSLConfig, GCSLTrainer
from .policy import LSTMPolicy, PolicyConfig, RolloutBatch
from .ppo import PPOConfig, PPOTrainer
from .spaces import ACTION_TYPES, ActionStep, build_schedule
from .supreme import (
    BucketDim,
    BucketedReplayBuffer,
    Entry,
    SupremeConfig,
    SupremeTrainer,
    murmuration_basic_config,
)

__all__ = [
    "MurmurationEnv",
    "EnvConfig",
    "Task",
    "StrategyOutcome",
    "LSTMPolicy",
    "PolicyConfig",
    "RolloutBatch",
    "ACTION_TYPES",
    "ActionStep",
    "build_schedule",
    "GCSLTrainer",
    "GCSLConfig",
    "PPOTrainer",
    "PPOConfig",
    "SupremeTrainer",
    "SupremeConfig",
    "murmuration_basic_config",
    "BucketedReplayBuffer",
    "BucketDim",
    "Entry",
    "EvalResult",
    "TrainingHistory",
    "bootstrap_actions",
    "evaluate_policy",
    "satisfiable",
    "satisfiable_mask",
    "supervised_update",
]
