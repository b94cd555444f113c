"""Model Selection and Partition Decision module (paper Sec. 5).

Two interchangeable engines:

* :class:`RLDecisionEngine` — wraps a trained LSTM policy; one greedy
  rollout per decision (milliseconds — the Fig. 18 fast path);
* :class:`SearchDecisionEngine` — exhaustive over seed architectures x
  canonical plan templates, priced through a
  :class:`~repro.core.cost_model.PlanCostModel`; training-free (useful
  as a bootstrap and as an upper-bound reference in tests).

Both return a :class:`~repro.core.strategy.Strategy` or ``None`` when no
checked strategy satisfies the SLO.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.profiles import DeviceProfile
from ..nas.arch import ArchConfig, max_arch, min_arch, random_arch
from ..nas.search_space import SearchSpace
from ..netsim.topology import Cluster, NetworkCondition
from ..rl.env import MurmurationEnv, Task
from .cost_model import PlanCostModel
from .slo import SLO
from .strategy import Strategy

if TYPE_CHECKING:
    from ..rl.policy import LSTMPolicy

__all__ = ["DecisionRecord", "RLDecisionEngine", "SearchDecisionEngine"]


@dataclass(frozen=True)
class DecisionRecord:
    strategy: Optional[Strategy]
    decision_time_s: float
    engine: str


class RLDecisionEngine:
    """Greedy policy rollout -> strategy.

    When the policy's greedy choice misses the SLO, the engine falls
    back to the bootstrap seed strategies (min/max submodel per device)
    — the same safe trajectories training starts from — so a deployable
    strategy is returned whenever one exists in that safe set.  Disable
    with ``fallback=False`` to measure the raw policy (as the training
    evaluations do).
    """

    def __init__(self, env: MurmurationEnv, policy: LSTMPolicy,
                 fallback: bool = True):
        self.env = env
        self.policy = policy
        self.fallback = fallback

    def decide(self, slo: SLO, condition: NetworkCondition) -> DecisionRecord:
        t0 = time.perf_counter()
        if slo.kind != self.env.cfg.slo_kind:
            raise ValueError(
                f"engine trained for {self.env.cfg.slo_kind!r} SLOs, "
                f"got {slo.kind!r}")
        task = Task(slo.value, condition)
        context = self.env.encode_task(task)
        actions = self.policy.greedy_actions(context, self.env.schedule)
        outcome = self.env.evaluate_actions(actions, task)
        if not outcome.satisfied and self.fallback:
            outcome = self._best_seed(task, outcome)
        elapsed = time.perf_counter() - t0
        if not outcome.satisfied:
            return DecisionRecord(None, elapsed, "rl")
        strategy = Strategy(outcome.arch, outcome.plan, outcome.latency_s,
                            outcome.accuracy)
        return DecisionRecord(strategy, elapsed, "rl")

    def _best_seed(self, task: Task, fallback_outcome):
        from ..rl.common import bootstrap_actions

        best = fallback_outcome
        for actions in bootstrap_actions(self.env):
            out = self.env.evaluate_actions(actions, task)
            if out.satisfied and (not best.satisfied
                                  or out.reward > best.reward):
                best = out
        return best


class SearchDecisionEngine:
    """Exhaustive over seed archs x plan templates.

    The answer is the brute-force loop's (``tests/core/
    reference_decide.py`` keeps that loop as the oracle); the work is
    not: an arch's candidates are enumerated once, and only when its
    accuracy bound says one of them may be the answer; each candidate is
    compiled the first time it is priced; and a latency SLO prices
    candidates in descending accuracy and stops at the first feasible
    one.
    """

    def __init__(self, space: SearchSpace, devices: Sequence[DeviceProfile],
                 n_random_archs: int = 12, seed: int = 0):
        self.space = space
        self.devices = list(devices)
        rng = np.random.default_rng(seed)
        self.archs: List[ArchConfig] = [min_arch(space), max_arch(space)]
        self.archs += [random_arch(space, rng) for _ in range(n_random_archs)]
        self._costs = PlanCostModel(space, self.devices)

    def decide(self, slo: SLO, condition: NetworkCondition) -> DecisionRecord:
        t0 = time.perf_counter()
        cluster = Cluster(self.devices, condition)
        costs = self._costs
        best: Optional[Strategy] = None
        if slo.kind == "latency":
            # Most accurate feasible candidate; among equals the first
            # enumerated (the scan's stable order).
            for _, arch, plan, acc in costs.scan(self.archs):
                latency = costs.latency(arch, plan, cluster)
                if latency <= slo.value:
                    best = Strategy(arch, plan, latency, acc)
                    break
        else:
            # Fastest candidate at or above the accuracy floor; among
            # equals the first enumerated.  An arch whose bound is below
            # the floor has no candidate above it and is not enumerated.
            for arch in self.archs:
                if costs.bound(arch) < slo.value:
                    continue
                for plan, acc in costs.candidates(arch):
                    if not acc >= slo.value:
                        continue
                    latency = costs.latency(arch, plan, cluster)
                    if best is None or latency < best.expected_latency_s:
                        best = Strategy(arch, plan, latency, acc)
        return DecisionRecord(best, time.perf_counter() - t0, "search")
