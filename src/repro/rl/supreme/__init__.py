"""SUPREME: bucketed replay buffer with sharing/pruning/mutation, and
the full Stage-2 trainer."""

from ... import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "buffer": ("BucketDim", "BucketedReplayBuffer", "Entry"),
    "mutation": ("mutate_actions", "improve_locality", "suboptimal_buckets"),
    "trainer": ("SupremeConfig", "SupremeTrainer", "murmuration_basic_config"),
})
