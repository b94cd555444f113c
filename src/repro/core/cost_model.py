"""The plan cost model: what every repeated (arch, plan) pricing shares.

A decision search prices the same ``archs x candidate_plans`` set under
every condition it is asked about, and a cached strategy is priced on
every request it serves.  Nothing about a pair but its link-transfer
terms depends on the condition, so a :class:`PlanCostModel` builds each
graph once, enumerates each arch's candidates once, compiles a pair to
a :class:`~repro.partition.compiled.PlanProgram` the first time it is
priced, and from then on a price is a replay
(:func:`~repro.partition.compiled.price`) — bit-identical to
``simulate_latency(...).total_s`` (DESIGN.md, "Plan cost model").

Every memo belongs to one model, and a model to one owner (an engine,
an oracle, a facade); nothing is shared at module level, so a world's
programs die with it.  Callers that price a pair *once* — the RL
environment, the evolutionary-search baseline, the fixed-model
baselines, the executor — stay on ``simulate_latency``: a compile costs
most of a simulation, the price comes on top, and nothing amortises it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from ..devices.profiles import DeviceProfile
from ..models.graph import ModelGraph
from ..nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from ..nas.arch import ArchConfig
from ..nas.evolution import candidate_plans
from ..nas.graph_builder import build_graph
from ..nas.search_space import SearchSpace
from ..partition.compiled import PlanProgram, compile_plan, price
from ..partition.plan import ExecutionPlan, single_device_plan

__all__ = ["Candidate", "PlanCostModel"]

#: graphs / programs a model keeps beyond what its owner accounts for
#: (enumerated archs and candidates, strategies held in service): the
#: archs an uncached reroute, failover or degraded answer touches
_SPARE = 16


class _Shape(NamedTuple):
    """All that ``candidate_plans`` reads of a cluster."""

    num_devices: int


class Candidate(NamedTuple):
    """One point of the arch x plan scan."""

    #: position in the ``for arch: for plan`` enumeration (tie-breaks)
    order: int
    arch: ArchConfig
    plan: ExecutionPlan
    accuracy: float


def _make_room(memo: dict, bound: int) -> None:
    """Drop the least recently used entry of a full memo.  Every lookup
    re-inserts what it found, so a dict's insertion order is its order
    of use; a dropped entry is simply rebuilt if it is asked for again."""
    if len(memo) >= bound:
        del memo[next(iter(memo))]


class PlanCostModel:
    """Graphs, candidates and compiled programs for one device set.

    ``served`` is how many strategies from outside its own candidate
    enumeration the owner holds in service at once (the facade: its
    strategy cache's capacity; a search engine: none) — it sizes the
    program memo and is not a tuning knob.
    """

    def __init__(self, space: SearchSpace, devices: Sequence[DeviceProfile],
                 served: int = 0):
        self.space = space
        self.devices = list(devices)
        self._served = served
        self._graphs: Dict[ArchConfig, ModelGraph] = {}
        self._single: Dict[Tuple[ArchConfig, int], ExecutionPlan] = {}
        self._candidates: Dict[
            ArchConfig, List[Tuple[ExecutionPlan, float]]] = {}
        self._num_candidates = 0
        # (arch, id(plan)) -> (plan, program); holding the plan keeps its
        # id from being recycled while the entry lives
        self._programs: Dict[Tuple[ArchConfig, int],
                             Tuple[ExecutionPlan, PlanProgram]] = {}
        self._scan: Tuple[tuple, Tuple[Candidate, ...]] = ((), ())

    # -- memos -------------------------------------------------------------
    def graph(self, arch: ArchConfig) -> ModelGraph:
        """The cost graph of ``arch`` (built once)."""
        graph = self._graphs.pop(arch, None)
        if graph is None:
            _make_room(self._graphs, _SPARE + len(self._candidates))
            graph = build_graph(arch, self.space)
        self._graphs[arch] = graph
        return graph

    def single_device(self, arch: ArchConfig, device: int = 0
                      ) -> ExecutionPlan:
        """``single_device_plan(graph(arch), device)`` — one object per
        pair, so a reroute or failover target met again is a replay of
        its program, not a fresh plan compiled once and left behind."""
        key = (arch, device)
        plan = self._single.pop(key, None)
        if plan is None:
            _make_room(self._single, (_SPARE + len(self._candidates))
                       * len(self.devices))
            plan = single_device_plan(self.graph(arch), device=device)
        self._single[key] = plan
        return plan

    def candidates(self, arch: ArchConfig
                   ) -> List[Tuple[ExecutionPlan, float]]:
        """``(plan, accuracy)`` for every plan template of ``arch``, in
        ``candidate_plans`` order (enumerated once: the templates read
        nothing of a cluster but its device count)."""
        found = self._candidates.get(arch)
        if found is None:
            base = arch_accuracy(arch, self.space)
            found = self._candidates[arch] = [
                (plan, base - plan_accuracy_penalty(plan))
                for plan in candidate_plans(self.graph(arch),
                                            _Shape(len(self.devices)))]
            self._num_candidates += len(found)
        return found

    def _program(self, arch: ArchConfig, plan: ExecutionPlan) -> PlanProgram:
        key = (arch, id(plan))
        entry = self._programs.pop(key, None)
        if entry is None:
            _make_room(self._programs,
                       _SPARE + self._num_candidates + self._served)
            entry = (plan, compile_plan(self.graph(arch), plan, self.devices))
        self._programs[key] = entry
        return entry[1]

    # -- pricing -----------------------------------------------------------
    def latency(self, arch: ArchConfig, plan: ExecutionPlan,
                cluster) -> float:
        """``simulate_latency(graph(arch), plan, cluster).total_s``."""
        return price(self._program(arch, plan), cluster)

    def num_transfers(self, arch: ArchConfig, plan: ExecutionPlan) -> int:
        """``LatencyReport.num_transfers`` of the pair (structural)."""
        return self._program(arch, plan).num_transfers

    def scan(self, archs: Sequence[ArchConfig]) -> Tuple[Candidate, ...]:
        """Every candidate of ``archs``, highest accuracy first.

        The sort is stable, so equal accuracies keep the ``for arch:
        for plan`` order a brute-force loop visits them in; only the
        non-dominated points can win an SLO, and for a latency bound the
        winner is the first feasible candidate of this order.
        """
        key = tuple(archs)
        if self._scan[0] != key:
            pairs = ((arch, plan, acc) for arch in key
                     for plan, acc in self.candidates(arch))
            self._scan = (key, tuple(sorted(
                (Candidate(order, *pair) for order, pair in enumerate(pairs)),
                key=lambda c: -c.accuracy)))
        return self._scan[1]
