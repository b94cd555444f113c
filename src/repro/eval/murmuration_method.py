"""Murmuration's strategy choice for the system-level figures.

Figures 13-17 evaluate the *deployed* system: a converged policy picking
(submodel, plan) per condition.  Two interchangeable evaluators:

* :class:`MurmurationOracle` — exhaustive search over a deterministic
  lattice of submodels x canonical plan templates.  This is the
  converged-policy proxy the default benchmarks use: the paper's RL
  policy approaches this choice after 20k training steps (Fig. 11), and
  the oracle is deterministic/seed-free, which keeps figure regeneration
  stable.
* :func:`policy_method` — wraps an actually trained
  :class:`~repro.rl.policy.LSTMPolicy` (use after running the Fig. 11
  training benches) for an end-to-end-learned variant.
"""

from __future__ import annotations

from itertools import groupby, product, takewhile
from typing import Callable, List, Optional, Sequence

from ..core.cost_model import PlanCostModel
from ..core.slo import SLO
from ..core.strategy import Strategy
from ..nas.arch import ArchConfig
from ..nas.search_space import SearchSpace
from ..netsim.topology import Cluster, NetworkCondition
from ..rl.env import MurmurationEnv, Task

__all__ = ["MurmurationOracle", "policy_method", "lattice_archs"]


def lattice_archs(space: SearchSpace) -> List[ArchConfig]:
    """A deterministic sweep of submodels: every (resolution, depth
    level, kernel level, expand level) combination, uniform per stage."""
    out = []
    slots = space.num_stages * space.max_depth
    for res, d, k, e in product(space.resolution_options,
                                space.depth_options,
                                space.kernel_options,
                                space.expand_options):
        out.append(ArchConfig(
            resolution=res,
            depths=(d,) * space.num_stages,
            kernels=(k,) * slots,
            expands=(e,) * slots,
        ))
    return out


class MurmurationOracle:
    """Exhaustive (lattice arch) x (plan template) strategy selection.

    A latency SLO picks the most accurate feasible candidate and, among
    equally accurate ones, the fastest; an accuracy SLO picks the
    fastest candidate at or above the floor and, among equally fast
    ones, the most accurate.  Remaining ties go to the candidate the
    ``for arch: for plan`` enumeration meets first.
    """

    def __init__(self, space: SearchSpace, devices: Sequence,
                 archs: Optional[List[ArchConfig]] = None):
        self.space = space
        self.devices = list(devices)
        self.archs = archs if archs is not None else lattice_archs(space)
        self._costs = PlanCostModel(space, self.devices)

    def decide(self, slo: SLO, condition: NetworkCondition,
               ) -> Optional[Strategy]:
        cluster = Cluster(self.devices, condition)
        costs = self._costs

        def priced(candidates):
            return [(costs.latency(c.arch, c.plan, cluster), c)
                    for c in candidates]

        scan = costs.scan(self.archs)
        best = None
        if slo.kind == "latency":
            # Walk equal-accuracy groups downwards; the first group with
            # a feasible member holds the answer: its fastest (``min``
            # keeps the first of equals, and a group is in enumeration
            # order).
            for _, group in groupby(scan, key=lambda c: c.accuracy):
                feasible = [(latency, c) for latency, c in priced(group)
                            if latency <= slo.value]
                if feasible:
                    best = min(feasible, key=lambda lc: lc[0])
                    break
        else:
            floor = priced(takewhile(lambda c: c.accuracy >= slo.value, scan))
            if floor:
                best = min(floor, key=lambda lc: (
                    lc[0], -lc[1].accuracy, lc[1].order))
        if best is None:
            return None
        latency, c = best
        return Strategy(c.arch, c.plan, latency, c.accuracy)


def policy_method(env: MurmurationEnv, policy) -> Callable[
        [SLO, NetworkCondition], Optional[Strategy]]:
    """Wrap a trained policy as a figure-driver decision function."""

    def decide(slo: SLO, condition: NetworkCondition) -> Optional[Strategy]:
        if slo.kind != env.cfg.slo_kind:
            raise ValueError("policy trained for a different SLO kind")
        task = Task(slo.value, condition)
        actions = policy.greedy_actions(env.encode_task(task), env.schedule)
        outcome = env.evaluate_actions(actions, task)
        if not outcome.satisfied:
            return None
        return Strategy(outcome.arch, outcome.plan, outcome.latency_s,
                        outcome.accuracy)

    return decide
