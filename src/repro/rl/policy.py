"""The LSTM decision policy (paper Fig. 5).

A single-layer LSTM (256 hidden units by default) carries state across
the decision sequence; each action *type* (resolution, depth, kernel,
expansion, grid, bits, device selection, ...) has its own fully
connected output head.  The per-step input concatenates the episode
context (SLO + network condition + device types), a one-hot of the
previous action, and a one-hot of the current step type.

Rollouts are batched: B episodes advance through the schedule in
lock-step, so every step is one (B, hidden) matrix multiply — this is
what makes NumPy training tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.init import xavier_uniform
from ..nn.layers import Module, Parameter
from ..nn.lstm import LSTMCell
from .spaces import ACTION_TYPES, ActionStep

__all__ = ["PolicyConfig", "LSTMPolicy", "RolloutBatch"]


@dataclass
class PolicyConfig:
    hidden_size: int = 256
    seed: int = 0


@dataclass
class RolloutBatch:
    """Sampled actions for a batch of episodes."""

    actions: np.ndarray        # (B, T) int
    log_probs: np.ndarray      # (B, T)
    entropies: np.ndarray      # (B, T)


class _Head:
    """Per-action-type output head with per-step caching.

    A plain Linear layer cannot be reused across time steps (its cache
    would be overwritten), so heads keep an explicit list of inputs and
    accumulate gradients over all steps they served.
    """

    def __init__(self, hidden: int, n_choices: int,
                 rng: np.random.Generator):
        self.weight = Parameter(xavier_uniform(
            (n_choices, hidden), fan_in=hidden, fan_out=n_choices, rng=rng))
        self.bias = Parameter(np.zeros(n_choices))
        self.n_choices = n_choices
        self._inputs: List[np.ndarray] = []

    def reset(self) -> None:
        self._inputs.clear()

    def forward(self, h: np.ndarray, record: bool = False) -> np.ndarray:
        if record:
            self._inputs.append(h)
        return h @ self.weight.data.T + self.bias.data

    def backward_step(self, grad_logits: np.ndarray,
                      step_index: int) -> np.ndarray:
        h = self._inputs[step_index]
        self.weight.grad += grad_logits.T @ h
        self.bias.grad += grad_logits.sum(axis=0)
        return grad_logits @ self.weight.data


class LSTMPolicy(Module):
    """Goal-conditioned LSTM policy with typed heads and a value head."""

    def __init__(self, context_dim: int, max_choices: int,
                 head_sizes: Dict[str, int],
                 config: Optional[PolicyConfig] = None):
        super().__init__()
        cfg = config or PolicyConfig()
        self.cfg = cfg
        self.context_dim = context_dim
        self.max_choices = max_choices
        self.input_dim = context_dim + max_choices + len(ACTION_TYPES)
        rng = np.random.default_rng(cfg.seed)
        self.cell = LSTMCell(self.input_dim, cfg.hidden_size, rng=rng)
        self.heads: Dict[str, _Head] = {
            kind: _Head(cfg.hidden_size, n, rng)
            for kind, n in head_sizes.items()}
        self.value_head = _Head(cfg.hidden_size, 1, rng)
        # Register head parameters so parameters() sees them.
        for kind, head in self.heads.items():
            self.register_parameter(f"head_{kind}_w", head.weight)
            self.register_parameter(f"head_{kind}_b", head.bias)
        self.register_parameter("value_w", self.value_head.weight)
        self.register_parameter("value_b", self.value_head.bias)
        self._step_records: List[Tuple[str, int]] = []

    @staticmethod
    def for_env(env, config: Optional[PolicyConfig] = None) -> "LSTMPolicy":
        head_sizes: Dict[str, int] = {}
        for step in env.schedule:
            prev = head_sizes.setdefault(step.kind, step.n_choices)
            if prev != step.n_choices:
                raise ValueError(
                    f"inconsistent choice count for head {step.kind!r}")
        return LSTMPolicy(env.context_dim, env.max_choices, head_sizes, config)

    # -- input construction ------------------------------------------------
    def _step_input(self, contexts: np.ndarray, prev_actions: np.ndarray,
                    step: ActionStep) -> np.ndarray:
        b = contexts.shape[0]
        prev_oh = np.zeros((b, self.max_choices))
        valid = prev_actions >= 0
        prev_oh[np.arange(b)[valid], prev_actions[valid]] = 1.0
        kind_oh = np.zeros((b, len(ACTION_TYPES)))
        kind_oh[:, step.kind_id] = 1.0
        return np.concatenate([contexts, prev_oh, kind_oh], axis=1)

    # -- sampling ------------------------------------------------------------
    def rollout(self, contexts: np.ndarray, schedule: Sequence[ActionStep],
                rng: np.random.Generator, epsilon: float = 0.0,
                greedy: bool = False) -> RolloutBatch:
        """Sample a batch of episodes (no gradient tape kept)."""
        return self._rollout_impl(contexts, schedule, rng, epsilon, greedy)

    def _rollout_impl(self, contexts, schedule, rng, epsilon, greedy):
        b = contexts.shape[0]
        state = self.cell.zero_state(b)
        prev = np.full(b, -1, dtype=np.int64)
        t_steps = len(schedule)
        actions = np.zeros((b, t_steps), dtype=np.int64)
        logps = np.zeros((b, t_steps))
        ents = np.zeros((b, t_steps))
        for t, step in enumerate(schedule):
            x = self._step_input(contexts, prev, step)
            h, state = self.cell.forward_step(x, state, record=False)
            logits = self.heads[step.kind].forward(h)
            logp = F.log_softmax(logits, axis=-1)
            p = np.exp(logp)
            ents[:, t] = -(p * logp).sum(axis=1)
            if greedy:
                a = logits.argmax(axis=1)
            else:
                # Gumbel-max sampling (vectorized categorical draw).
                g = rng.gumbel(size=logits.shape)
                a = (logits + g).argmax(axis=1)
            if epsilon > 0:
                explore = rng.random(b) < epsilon
                a = np.where(explore, rng.integers(0, step.n_choices, b), a)
            actions[:, t] = a
            logps[:, t] = logp[np.arange(b), a]
            prev = a
        return RolloutBatch(actions, logps, ents)

    # -- teacher forcing (training) ---------------------------------------------
    def teacher_forward(self, contexts: np.ndarray, actions: np.ndarray,
                        schedule: Sequence[ActionStep],
                        ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Forward with the tape recorded.

        Returns (per-step logits, per-step values).  Must be followed by
        :meth:`teacher_backward` before the next forward.
        """
        b = contexts.shape[0]
        self.cell.reset_tape()
        for head in self.heads.values():
            head.reset()
        self.value_head.reset()
        self._step_records = []
        state = self.cell.zero_state(b)
        prev = np.full(b, -1, dtype=np.int64)
        logits_out: List[np.ndarray] = []
        values_out: List[np.ndarray] = []
        head_counts: Dict[str, int] = {k: 0 for k in self.heads}
        for t, step in enumerate(schedule):
            x = self._step_input(contexts, prev, step)
            h, state = self.cell.forward_step(x, state, record=True)
            logits_out.append(self.heads[step.kind].forward(h, record=True))
            values_out.append(self.value_head.forward(h, record=True)[:, 0])
            self._step_records.append((step.kind, head_counts[step.kind]))
            head_counts[step.kind] += 1
            prev = actions[:, t]
        return logits_out, values_out

    def teacher_backward(self, grad_logits: List[np.ndarray],
                         grad_values: Optional[List[np.ndarray]] = None) -> None:
        """BPTT given per-step gradients w.r.t. logits (and values)."""
        grads_h: List[np.ndarray] = []
        for t, (kind, idx) in enumerate(self._step_records):
            gh = self.heads[kind].backward_step(grad_logits[t], idx)
            if grad_values is not None:
                gh = gh + self.value_head.backward_step(
                    grad_values[t][:, None], t)
            grads_h.append(gh)
        self.cell.backward_through_time(grads_h)

    # -- convenience -------------------------------------------------------------
    def greedy_actions(self, context: np.ndarray,
                       schedule: Sequence[ActionStep]) -> np.ndarray:
        """Deterministic decision for one task (runtime path)."""
        batch = self.rollout(context[None, :], schedule,
                             np.random.default_rng(0), greedy=True)
        return batch.actions[0]
