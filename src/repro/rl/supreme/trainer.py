"""SUPREME: Share, bUcketed, PRunE, Epsilon-greedy, Mutation Exploration.

The full Stage-2 trainer (paper Sec. 4.4 / Fig. 6).  Two loops:

* the **lower loop** is GCSL — rollouts with epsilon-greedy exploration
  are hindsight-relabeled and the policy is trained by goal-conditioned
  imitation on buffer samples;
* the **upper loop** optimizes the buffer itself — bucketed top-n
  storage, cross-task sharing along the constraint lattice, domination
  pruning, and mutation of stored trajectories.

Curriculum learning (Sec. 6.1.1) gradually opens constraint dimensions:
first the SLO and device 1's bandwidth vary, then device 1's delay,
device 2's bandwidth, and so on.

The feature flags (``share``/``prune``/``mutate``/``epsilon``/
``curriculum``) make ablations first-class: the paper's fourth training
curve ("Murmuration" in Fig. 11, distinct from full SUPREME) is
reproduced as SUPREME with pruning and mutation disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...nn.optim import Adam
from ...telemetry import Telemetry
from ..common import (TrainingHistory, bootstrap_actions, evaluate_policy,
                      satisfiable_mask, supervised_update)
from ..env import MurmurationEnv, Task
from ..policy import LSTMPolicy, PolicyConfig
from .buffer import BucketDim, BucketedReplayBuffer, Entry
from .mutation import improve_locality, mutate_actions, suboptimal_buckets

__all__ = ["SupremeConfig", "SupremeTrainer", "murmuration_basic_config"]


@dataclass
class SupremeConfig:
    total_steps: int = 2000          # collected episodes
    rollout_batch: int = 16
    train_batch: int = 32
    train_every: int = 1
    lr: float = 1e-3
    grid_points: int = 10            # lattice resolution per dimension
    top_n: int = 4
    eval_every: int = 200
    eval_points: int = 4
    seed: int = 0
    # exploration
    epsilon_start: float = 0.5
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 1500
    # feature flags (ablations)
    share: bool = True
    prune: bool = True
    mutate: bool = True
    curriculum: bool = True
    prune_every: int = 200
    mutate_every: int = 100
    mutations_per_round: int = 8
    curriculum_steps_per_dim: int = 300


def murmuration_basic_config(**overrides) -> SupremeConfig:
    """The paper's intermediate "Murmuration" curve: bucketed buffer with
    sharing, but no pruning/mutation (Fig. 11 legend)."""
    cfg = SupremeConfig(prune=False, mutate=False)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class SupremeTrainer:
    """Full SUPREME training loop."""

    def __init__(self, env: MurmurationEnv,
                 config: Optional[SupremeConfig] = None,
                 policy: Optional[LSTMPolicy] = None,
                 telemetry: Optional[Telemetry] = None):
        self.env = env
        self.cfg = config or SupremeConfig()
        self.rng = np.random.default_rng(self.cfg.seed)
        self.policy = policy or LSTMPolicy.for_env(
            env, PolicyConfig(seed=self.cfg.seed))
        self.opt = Adam(self.policy.parameters(), lr=self.cfg.lr)
        self.buffer = self._build_buffer()
        self.history = TrainingHistory()
        self._collected = 0
        self.telemetry = Telemetry.of(telemetry)
        reg = self.telemetry.registry.child("supreme")
        self._m_episodes = reg.counter(
            "episodes_total", help="collected rollout episodes")
        self._m_mutations = reg.counter(
            "mutations_total", help="mutation-round relabels")
        self._m_updates = reg.counter(
            "updates_total", help="supervised policy updates")
        self._m_loss = reg.histogram(
            "loss", help="imitation loss per update", lo=1e-8)
        self._m_reward = reg.histogram(
            "relabeled_reward", help="hindsight-relabeled reward",
            lo=1e-8)
        self._m_epsilon = reg.gauge(
            "epsilon", help="current exploration rate")
        self._m_buffer = reg.gauge(
            "buffer_entries", help="entries stored in the buffer")
        self._bootstrap()

    # -- buffer construction ------------------------------------------------
    def _build_buffer(self) -> BucketedReplayBuffer:
        cfg = self.cfg
        env = self.env
        g = cfg.grid_points
        dims: List[BucketDim] = []
        if env.cfg.slo_kind == "latency":
            grid = np.linspace(*env.cfg.slo_range, g)
            dims.append(BucketDim("slo", tuple(grid), relax_sign=+1))
        else:
            grid = np.linspace(*env.cfg.acc_slo_range, g)
            # A lower accuracy requirement is easier.
            dims.append(BucketDim("slo", tuple(grid), relax_sign=-1))
        for r in range(env.num_remote):
            bw = np.linspace(*env.cfg.bw_range, g)
            dims.append(BucketDim(f"bw{r + 1}", tuple(bw), relax_sign=+1))
        for r in range(env.num_remote):
            dl = np.linspace(*env.cfg.delay_range, g)
            dims.append(BucketDim(f"delay{r + 1}", tuple(dl), relax_sign=-1))
        return BucketedReplayBuffer(dims, top_n=cfg.top_n, share=cfg.share)

    def _buffer_values(self, task_values: Sequence[float]) -> Tuple[float, ...]:
        """Reorder env constraint values [slo, bws..., delays...] — the
        buffer uses the same order, so this is the identity; kept as a
        single point of change."""
        return tuple(task_values)

    # -- data flow -----------------------------------------------------------
    def _relabel_and_insert(self, actions: np.ndarray, task: Task) -> None:
        outcome = self.env.evaluate_actions(actions, task)
        values = self._buffer_values(self.env.achieved_values(outcome, task))
        entry = Entry(
            actions=np.asarray(actions, dtype=np.int64).copy(),
            reward=self.env.relabeled_reward(outcome),
            latency_s=outcome.latency_s,
            accuracy=outcome.accuracy,
            condition=tuple(task.condition.as_vector()),
        )
        self.buffer.insert(values, entry)
        self._m_reward.observe(entry.reward)

    def _bootstrap(self) -> None:
        task = self.env.sample_task(self.rng)
        for actions in bootstrap_actions(self.env):
            self._relabel_and_insert(actions, task)

    def _epsilon(self) -> float:
        cfg = self.cfg
        frac = min(1.0, self._collected / max(1, cfg.epsilon_decay_steps))
        return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac

    def _active_dims(self) -> Optional[int]:
        if not self.cfg.curriculum:
            return None
        return 2 + self._collected // self.cfg.curriculum_steps_per_dim

    def _collect(self) -> None:
        cfg = self.cfg
        tasks = [self.env.sample_task(self.rng, cfg.grid_points,
                                      self._active_dims())
                 for _ in range(cfg.rollout_batch)]
        contexts = np.stack([self.env.encode_task(t) for t in tasks])
        batch = self.policy.rollout(contexts, self.env.schedule, self.rng,
                                    epsilon=self._epsilon())
        for i, task in enumerate(tasks):
            self._relabel_and_insert(batch.actions[i], task)
        self._collected += len(tasks)
        self._m_episodes.inc(len(tasks))
        self._m_epsilon.set(self._epsilon())
        self._m_buffer.set(self.buffer.num_entries)

    def _train_batch(self) -> Optional[float]:
        cfg = self.cfg
        pairs = self.buffer.sample(cfg.train_batch, self.rng)
        if not pairs:
            return None
        contexts = np.stack([
            self.env.encode_task(self.env.task_from_values(values))
            for values, _ in pairs])
        actions = np.stack([e.actions for _, e in pairs])
        loss = supervised_update(self.policy, self.opt, self.env,
                                 contexts, actions)
        if loss is not None:
            self._m_updates.inc()
            self._m_loss.observe(loss)
        return loss

    def _mutate_round(self) -> None:
        cfg = self.cfg
        targets = suboptimal_buckets(self.buffer)
        all_entries = [(idx, e) for idx, e in self.buffer.entries()]
        if not all_entries:
            return
        for _ in range(cfg.mutations_per_round):
            # Prefer entries from suboptimal buckets when available.
            pool = ([p for p in all_entries if p[0] in set(targets)]
                    or all_entries)
            idx, entry = pool[int(self.rng.integers(len(pool)))]
            task = self.env.task_from_values(self.buffer.representative(idx))
            if self.rng.random() < 0.5:
                mutated = mutate_actions(entry.actions, self.env, self.rng)
            else:
                mutated = improve_locality(entry.actions, self.env, self.rng)
            self._relabel_and_insert(mutated, task)
            self._m_mutations.inc()

    # -- driver ------------------------------------------------------------------
    def train(self, eval_tasks: Optional[Sequence[Task]] = None,
              eval_mask: Optional[np.ndarray] = None) -> TrainingHistory:
        cfg = self.cfg
        if eval_tasks is None:
            eval_tasks = self.env.validation_tasks(cfg.eval_points)
        if eval_mask is None:
            eval_mask = satisfiable_mask(self.env, eval_tasks)
        while self._collected < cfg.total_steps:
            self._collect()
            for _ in range(cfg.train_every):
                loss = self._train_batch()
                if loss is not None:
                    self.history.losses.append(loss)
            if cfg.mutate and (self._collected % cfg.mutate_every
                               ) < cfg.rollout_batch:
                self._mutate_round()
            if cfg.prune and (self._collected % cfg.prune_every
                              ) < cfg.rollout_batch:
                self.buffer.prune()
            if (self._collected % cfg.eval_every) < cfg.rollout_batch:
                res = evaluate_policy(self.policy, self.env, eval_tasks,
                                      eval_mask)
                self.history.record(self._collected, res)
        return self.history
