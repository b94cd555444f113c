"""The plan cost model: what every repeated (arch, plan) pricing shares.

A decision search prices the same ``archs x candidate_plans`` set under
every condition it is asked about, and a cached strategy is priced on
every request it serves.  Nothing about a pair but its link-transfer
terms depends on the condition, so a :class:`PlanCostModel` builds each
graph once, enumerates an arch's candidates the first time a scan
reaches it, compiles a pair to a
:class:`~repro.partition.compiled.PlanProgram` the first time it is
priced, and from then on a price is a replay
(:func:`~repro.partition.compiled.price`) — bit-identical to
``simulate_latency(...).total_s`` (DESIGN.md, "Plan cost model") — taken
once per world state (a cluster's ``version``) and then remembered.

Every memo belongs to one model, and a model to one owner (an engine,
an oracle, a facade); nothing is shared at module level, so a world's
programs die with it.  Callers that price a pair *once* — the RL
environment, the evolutionary-search baseline, the fixed-model
baselines, the executor — stay on ``simulate_latency``: a compile costs
most of a simulation, the price comes on top, and nothing amortises it.
"""

from __future__ import annotations

import weakref
from heapq import heappop, heappush
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


class _Scan:
    """The candidates of one ``archs`` tuple, highest accuracy first and
    equal accuracies in ``for arch: for plan`` order, enumerated only as
    deep as a walk has gone.

    A best-first merge: no candidate is more accurate than its arch's
    :meth:`PlanCostModel.bound`, so an arch whose key ``(-bound,
    position, -1)`` sorts after the best candidate already enumerated
    cannot hold the next one, and stays unopened.  Walks replay the
    prefix yielded so far and extend it only when they go deeper.
    """

    def __init__(self, model: "PlanCostModel", archs: tuple):
        self.archs = archs
        # a proxy: the model holds its scan, and a strong reference back
        # would make the pair a cycle that only the collector frees
        self._model = weakref.proxy(model)
        self._yielded: List[Candidate] = []
        # ((-accuracy, arch position, plan position), candidate)
        self._heap: list = []
        # ((-bound, arch position, -1), arch), the best last; None until
        # the first walk (a constructor computes nothing)
        self._unopened: Optional[list] = None

    def __iter__(self) -> Iterator[Candidate]:
        yielded, k = self._yielded, 0
        while k < len(yielded) or self._extend():
            yield yielded[k]
            k += 1

    def _extend(self) -> bool:
        """Append the next candidate to the prefix; False past the last."""
        model, heap, unopened = self._model, self._heap, self._unopened
        if unopened is None:
            unopened = self._unopened = sorted(
                (((-model.bound(arch), i, -1), arch)
                 for i, arch in enumerate(self.archs)), reverse=True)
        while unopened and (not heap or unopened[-1][0] < heap[0][0]):
            (_, i, _), arch = unopened.pop()
            found = model.candidates(arch)
            # every arch has as many templates as the next (their list
            # depends on the device count alone), so arch i's plans
            # start at i * len(found) of the eager enumeration
            for j, (plan, acc) in enumerate(found):
                heappush(heap, ((-acc, i, j),
                                Candidate(i * len(found) + j, arch, plan, acc)))
        if not heap:
            return False
        self._yielded.append(heappop(heap)[1])
        return True


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
        self._bounds: Dict[ArchConfig, float] = {}
        self._single: Dict[Tuple[ArchConfig, int], ExecutionPlan] = {}
        self._candidates: Dict[
            ArchConfig, List[Tuple[ExecutionPlan, float]]] = {}
        self._num_candidates = 0
        # (arch, id(plan)) -> [plan, program, cluster, version, price];
        # holding the plan keeps its id from being recycled while the
        # entry lives, and holding the cluster (never its id) does the
        # same for the one memoised price
        self._programs: Dict[Tuple[ArchConfig, int], list] = {}
        #: (arch, plan, cluster, version, price) of the last latency call
        self._last: tuple = (None, None, None, -1, 0.0)
        self._scan = _Scan(self, ())

    # -- memos -------------------------------------------------------------
    def graph(self, arch: ArchConfig) -> ModelGraph:
        """The cost graph of ``arch`` (built once)."""
        graph = self._graphs.pop(arch, None)
        if graph is None:
            _make_room(self._graphs, _SPARE + len(self._candidates))
            graph = build_graph(arch, self.space, self._bounds.get(arch))
        self._graphs[arch] = graph
        return graph

    def bound(self, arch: ArchConfig) -> float:
        """``arch_accuracy(arch)``: no candidate of ``arch`` is more
        accurate (every plan penalty is >= 0), and its first template,
        the device-0 single-device plan, is exactly this accurate."""
        bound = self._bounds.get(arch)
        if bound is None:
            bound = self._bounds[arch] = arch_accuracy(arch, self.space)
        return bound

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
            base = self.bound(arch)
            found = self._candidates[arch] = [
                (plan, base - plan_accuracy_penalty(plan))
                for plan in candidate_plans(self.graph(arch),
                                            _Shape(len(self.devices)))]
            self._num_candidates += len(found)
        return found

    def _entry(self, arch: ArchConfig, plan: ExecutionPlan) -> list:
        key = (arch, id(plan))
        entry = self._programs.pop(key, None)
        if entry is None:
            _make_room(self._programs,
                       _SPARE + self._num_candidates + self._served)
            entry = [plan, compile_plan(self.graph(arch), plan, self.devices),
                     None, -1, 0.0]
        self._programs[key] = entry
        return entry

    # -- pricing -----------------------------------------------------------
    def latency(self, arch: ArchConfig, plan: ExecutionPlan,
                cluster) -> float:
        """``simulate_latency(graph(arch), plan, cluster).total_s``,
        priced once per ``(cluster, cluster.version)``; an exact repeat
        of the last call is found by identity, hashing no arch."""
        last = self._last
        if (arch is last[0] and plan is last[1] and cluster is last[2]
                and cluster.version == last[3]):
            return last[4]
        entry = self._entry(arch, plan)
        if entry[2] is not cluster or entry[3] != cluster.version:
            entry[4] = price(entry[1], cluster)
            entry[2], entry[3] = cluster, cluster.version
        self._last = (arch, plan, cluster, entry[3], entry[4])
        return entry[4]

    def scan(self, archs: Sequence[ArchConfig]) -> _Scan:
        """Every candidate of ``archs``, highest accuracy first, lazily.

        The order is a stable sort's: equal accuracies keep the ``for
        arch: for plan`` order a brute-force loop visits them in; only
        the non-dominated points can win an SLO, and for a latency bound
        the winner is the first feasible candidate of this order.  An
        arch is enumerated only when a walk reaches its bound, and the
        prefix walked so far is kept for the next walk of the same archs.
        """
        key = tuple(archs)
        if self._scan.archs != key:
            self._scan = _Scan(self, key)
        return self._scan
