"""The goal-conditioned multi-task environment (paper Sec. 4.2).

A *task* is a network condition (bandwidth/delay per remote device); the
*goal* is the SLO value.  An episode is one pass over the decision
schedule; at the end the chosen (architecture, execution plan) is priced
by the latency simulator and the accuracy model, and the goal-conditioned
reward of Eq. 2 / Eq. 3 is assigned.

The environment also exposes :meth:`decode` and :meth:`evaluate_actions`
so the replay-buffer machinery (relabeling, mutation) can re-price stored
action sequences under different tasks without re-rolling the policy.

Training prices a *fresh* strategy per step — no (submodel, plan) pair
repeats, so nothing whole can be memoised — but every part of one does
(DESIGN.md, "Pricing a fresh strategy"): the graph is assembled from
shared cost blocks, the plan from this env's table of block plans (one
``BlockPlan`` per distinct ``(grid, devices, bits)``), the schedule is
tabled once, the canonical key of the decoded arch is derived once per
evaluation, and the default accuracy is the one ``build_graph`` already
tagged the graph with.  Pricing itself stays on ``simulate_latency``:
compiling a pair that is priced once would cost more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem, lt
from typing import Annotated, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import Finite, IntAtLeast, NonNegative, Positive, check_fields
from ..devices.profiles import DeviceProfile
from ..nas.accuracy_model import plan_accuracy_penalty
from ..nas.arch import ArchConfig
from ..nas.graph_builder import build_graph
from ..nas.search_space import SearchSpace
from ..netsim.topology import Cluster, NetworkCondition
from ..partition.plan import BlockPlan, ExecutionPlan
from ..partition.simulate import simulate_latency
from ..partition.spatial import Grid
from .spaces import ACTION_TYPES, ActionStep, build_schedule

__all__ = ["Task", "StrategyOutcome", "EnvConfig", "MurmurationEnv"]

_G11 = Grid(1, 1)

#: entries an env keeps in its graph memo and in its ``BlockPlan`` table
_MEMO_BOUND = 4096


def _make_room(memo: dict) -> None:
    """Drop the first (oldest) entry of a full memo; it is rebuilt if it
    is asked for again (the ``core/cost_model._make_room`` idiom)."""
    if len(memo) >= _MEMO_BOUND:
        del memo[next(iter(memo))]


@dataclass(frozen=True)
class Task:
    """Goal (SLO value) + task (network condition)."""

    slo: float
    condition: NetworkCondition

    def context_vector(self, env: "MurmurationEnv") -> np.ndarray:
        return env.encode_task(self)


@dataclass(frozen=True)
class StrategyOutcome:
    """What one decoded strategy costs."""

    arch: ArchConfig
    plan: ExecutionPlan
    latency_s: float
    accuracy: float
    reward: float
    satisfied: bool


@dataclass
class EnvConfig:
    """Environment hyperparameters.

    ``slo_kind`` selects Eq. 2 ("latency": maximize accuracy subject to a
    latency bound) or Eq. 3 ("accuracy": minimize latency subject to an
    accuracy bound).  ``alpha``/``beta`` are the reward shaping constants.
    """

    slo_kind: str = "latency"
    # the ranges are sampled and divided by, as acc_norm and
    # latency_ref_s are
    slo_range: Annotated[Tuple[float, float], Finite, Positive] = (
        0.05, 0.5)      # seconds (latency SLO)
    acc_slo_range: Annotated[Tuple[float, float], Finite] = (
        72.0, 78.5)     # percent (accuracy SLO)
    bw_range: Annotated[Tuple[float, float], Finite, Positive] = (
        50.0, 400.0)
    delay_range: Annotated[Tuple[float, float], Finite, NonNegative] = (
        5.0, 100.0)
    alpha: Annotated[float, Finite] = 2.0
    beta: Annotated[float, Finite] = 0.1
    acc_norm: Annotated[Tuple[float, float], Finite] = (70.0, 80.0)
    latency_ref_s: Annotated[float, Finite, Positive] = 1.0
    max_tiles: Annotated[int, IntAtLeast(1)] = 4

    def __post_init__(self):
        if self.slo_kind not in ("latency", "accuracy"):
            raise ValueError("slo_kind must be 'latency' or 'accuracy'")
        check_fields(self)
        # each range is an ordered (lo, hi) with hi > 0: acc_norm divides
        # by hi - lo, the delay range by hi
        for name in ("slo_range", "acc_slo_range", "bw_range",
                     "delay_range", "acc_norm"):
            lo, hi = getattr(self, name)
            if not (lo < hi if name == "acc_norm" else lo <= hi and hi > 0):
                raise ValueError(f"EnvConfig.{name} must be an ordered "
                                 f"(lo, hi), got {(lo, hi)!r}")


class MurmurationEnv:
    """Joint submodel-selection + partitioning environment."""

    def __init__(self, space: SearchSpace, devices: Sequence[DeviceProfile],
                 config: Optional[EnvConfig] = None,
                 accuracy_fn: Optional[Callable[[ArchConfig], float]] = None):
        self.space = space
        self.devices = list(devices)
        self.cfg = config or EnvConfig()
        # The default is the analytical model's value, which build_graph
        # already tagged the env's (memoised) graph with.
        self.accuracy_fn = accuracy_fn or (
            lambda a: self._graph(a).accuracy)
        max_tiles = self.cfg.max_tiles
        most = max(g.ntiles for g in space.grid_options)
        if max_tiles < most:
            raise ValueError(f"EnvConfig.max_tiles must be at least the "
                             f"space's largest grid ({most} tiles), got "
                             f"{max_tiles}")
        self.schedule: List[ActionStep] = build_schedule(
            space, len(self.devices), max_tiles)
        self.max_choices = max(s.n_choices for s in self.schedule)
        # What decode reads, tabled once: each step's choice count and
        # options, and the step behind each decision (a stage's kernel and
        # expansion repeated per slot: all blocks of a stage share them).
        options = (space.resolution_options, space.depth_options,
                   space.kernel_options, space.expand_options,
                   space.grid_options, space.bits_options,
                   range(len(self.devices)), range(len(self.devices)))
        self._n_choices = [s.n_choices for s in self.schedule]
        self._options = [options[s.kind_id] for s in self.schedule]
        steps = {kind: [] for kind in ACTION_TYPES}   # stage-major, by slot
        for i, s in enumerate(self.schedule):
            steps[s.kind].append(i)
        slots, tiles = range(space.max_depth), steps["device"]
        self._rows = (
            steps["resolution"][0], steps["depth"],
            [i for i in steps["kernel"] for _ in slots],
            [i for i in steps["expand"] for _ in slots],
            steps["grid"], steps["bits"],
            [tiles[i:i + max_tiles] for i in range(0, len(tiles), max_tiles)],
            steps["head_device"][0])
        # canonical key -> graph, least recently used first; the pair
        # beside it answers "the arch just decoded" without deriving a key
        self._graph_cache: dict = {}
        self._last_graph: tuple = (None, None)
        # (grid rows, cols, devices, bits) -> the one BlockPlan of this
        # env with that setting (validated when built), oldest first
        self._block_plans: dict = {}

    # -- dimensions --------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_remote(self) -> int:
        return len(self.devices) - 1

    @property
    def episode_length(self) -> int:
        return len(self.schedule)

    @property
    def context_dim(self) -> int:
        # slo + per-remote (bw, delay) + per-device class (3-way one-hot)
        return 1 + 2 * self.num_remote + 3 * self.num_devices

    # -- task handling ------------------------------------------------------
    def encode_task(self, task: Task) -> np.ndarray:
        cfg = self.cfg
        if cfg.slo_kind == "latency":
            slo_norm = task.slo / cfg.slo_range[1]
        else:
            lo, hi = cfg.acc_slo_range
            slo_norm = (task.slo - lo) / max(hi - lo, 1e-9)
        parts = [slo_norm]
        parts += [b / cfg.bw_range[1] for b in task.condition.bandwidths_mbps]
        parts += [d / cfg.delay_range[1] for d in task.condition.delays_ms]
        for dev in self.devices:
            onehot = [0.0, 0.0, 0.0]
            onehot[dev.device_class % 3] = 1.0
            parts += onehot
        return np.asarray(parts, dtype=np.float64)

    def sample_task(self, rng: np.random.Generator,
                    grid_points: int = 10,
                    active_dims: Optional[int] = None) -> Task:
        """Sample a task from the 10-point training grids.

        ``active_dims`` implements curriculum learning: only the first k
        constraint dimensions vary (ordered SLO, bw1, delay1, bw2, ...);
        the rest sit at their easiest value.
        """
        cfg = self.cfg
        if cfg.slo_kind == "latency":
            slo_grid = np.linspace(*cfg.slo_range, grid_points)
            easiest_slo = cfg.slo_range[1]
        else:
            slo_grid = np.linspace(*cfg.acc_slo_range, grid_points)
            easiest_slo = cfg.acc_slo_range[0]
        bw_grid = np.linspace(*cfg.bw_range, grid_points)
        delay_grid = np.linspace(*cfg.delay_range, grid_points)

        dims = 1 + 2 * self.num_remote
        k = dims if active_dims is None else max(1, min(active_dims, dims))
        slo = float(rng.choice(slo_grid)) if k >= 1 else easiest_slo
        bws, delays = [], []
        for r in range(self.num_remote):
            bw_dim = 2 + 2 * r   # dim index of this remote's bandwidth
            dl_dim = 3 + 2 * r   # and of its delay
            bws.append(float(rng.choice(bw_grid)) if k >= bw_dim
                       else cfg.bw_range[1])
            delays.append(float(rng.choice(delay_grid)) if k >= dl_dim
                          else cfg.delay_range[0])
        return Task(slo, NetworkCondition(tuple(bws), tuple(delays)))

    def validation_tasks(self, points: int = 4,
                         seed: int = 123) -> List[Task]:
        """Evenly spread validation tasks over the constraint space."""
        cfg = self.cfg
        rng = np.random.default_rng(seed)
        if cfg.slo_kind == "latency":
            slos = np.linspace(*cfg.slo_range, points)
        else:
            slos = np.linspace(*cfg.acc_slo_range, points)
        bws = np.linspace(*cfg.bw_range, points)
        delays = np.linspace(*cfg.delay_range, points)
        tasks = []
        if self.num_remote == 1:
            for s in slos:
                for b in bws:
                    for d in delays:
                        tasks.append(Task(float(s), NetworkCondition(
                            (float(b),), (float(d),))))
        else:
            for s in slos:
                for _ in range(points * points):
                    b = tuple(float(rng.choice(bws))
                              for _ in range(self.num_remote))
                    d = tuple(float(rng.choice(delays))
                              for _ in range(self.num_remote))
                    tasks.append(Task(float(s), NetworkCondition(b, d)))
        return tasks

    # -- constraint-lattice helpers (used by the SUPREME buffer) -----------
    def constraint_values(self, task: Task) -> Tuple[float, ...]:
        """Flatten a task to the buffer's constraint vector:
        [slo, bw_1..bw_n, delay_1..delay_n]."""
        return ((task.slo,) + tuple(task.condition.bandwidths_mbps)
                + tuple(task.condition.delays_ms))

    def task_from_values(self, values: Sequence[float]) -> Task:
        n = self.num_remote
        if len(values) != 1 + 2 * n:
            raise ValueError(f"expected {1 + 2 * n} values, got {len(values)}")
        return Task(float(values[0]), NetworkCondition(
            tuple(values[1:1 + n]), tuple(values[1 + n:])))

    def achieved_values(self, outcome: "StrategyOutcome",
                        task: Task) -> Tuple[float, ...]:
        """Hindsight-relabeled constraint point: the goal dimension takes
        the *achieved* value (latency or accuracy), the condition stays
        as observed."""
        achieved = (outcome.latency_s if self.cfg.slo_kind == "latency"
                    else outcome.accuracy)
        return ((achieved,) + tuple(task.condition.bandwidths_mbps)
                + tuple(task.condition.delays_ms))

    def relabeled_reward(self, outcome: "StrategyOutcome") -> float:
        """Reward under the hindsight goal (satisfied by construction)."""
        slo = (outcome.latency_s if self.cfg.slo_kind == "latency"
               else outcome.accuracy)
        r, _ = self.reward(outcome.latency_s, outcome.accuracy, slo)
        return r

    # -- decoding -----------------------------------------------------------
    def decode(self, actions: Sequence[int]) -> Tuple[ArchConfig, ExecutionPlan]:
        """Map an action sequence to (architecture, execution plan)."""
        if len(actions) != len(self.schedule):
            raise ValueError(
                f"expected {len(self.schedule)} actions, got {len(actions)}")
        n_choices = self._n_choices
        if min(actions) < 0 or not all(map(lt, actions, n_choices)):
            i = next(i for i, (a, n) in enumerate(zip(actions, n_choices))
                     if not 0 <= a < n)
            raise ValueError(
                f"action {actions[i]} out of range for {self.schedule[i]}")
        chosen = list(map(getitem, self._options, actions)).__getitem__
        res, depths, kernels, expands, grids, bits, tiles, head = self._rows
        arch = ArchConfig(chosen(res), tuple(map(chosen, depths)),
                          tuple(map(chosen, kernels)),
                          tuple(map(chosen, expands)))

        graph = self._graph(arch)
        shared = self._block_plan
        wire = list(map(chosen, bits))
        head_plan = shared(_G11, (chosen(head),), wire[-1])
        by_stage = [shared(_G11, (chosen(tiles[0][0]),), wire[0])]  # stem
        for g, b, slots in zip(map(chosen, grids), wire, tiles):
            by_stage.append(shared(g, tuple(map(chosen, slots[:g.ntiles])), b))
        # build_graph's layout: the stem, each stage's blocks, then the
        # final conv and the fused head, which run on the head device
        plans = by_stage[:1]
        for stage_plan, depth in zip(by_stage[1:], arch.depths):
            plans += [stage_plan] * depth
        plans += [head_plan] * (len(graph) - len(plans))
        return arch, ExecutionPlan(plans, output_device=0)

    def _block_plan(self, grid: Grid, devices: Tuple[int, ...],
                    bits: int) -> BlockPlan:
        """This env's one ``BlockPlan`` with the setting (they are frozen:
        every plan decoded here repeats the instance)."""
        key = (grid.rows, grid.cols, devices, bits)
        found = self._block_plans.get(key)
        if found is None:
            _make_room(self._block_plans)
            found = self._block_plans[key] = BlockPlan(grid, devices, bits)
        return found

    def _graph(self, arch: ArchConfig):
        last_arch, graph = self._last_graph
        if arch is last_arch:
            return graph
        # Every lookup re-inserts what it found, so the dict's order is
        # its order of use and a full memo drops one graph, the least
        # recently used.
        key = arch.canonical_key(self.space)
        graph = self._graph_cache.pop(key, None)
        if graph is None:
            graph = build_graph(arch, self.space)
            _make_room(self._graph_cache)
        self._graph_cache[key] = graph
        self._last_graph = (arch, graph)
        return graph

    # -- pricing ---------------------------------------------------------------
    def evaluate_strategy(self, arch: ArchConfig, plan: ExecutionPlan,
                          task: Task) -> StrategyOutcome:
        cluster = Cluster(self.devices, task.condition)
        report = simulate_latency(self._graph(arch), plan, cluster)
        accuracy = self.accuracy_fn(arch) - plan_accuracy_penalty(plan)
        latency = report.total_s
        reward, ok = self.reward(latency, accuracy, task.slo)
        return StrategyOutcome(arch, plan, latency, accuracy, reward, ok)

    def evaluate_actions(self, actions: Sequence[int],
                         task: Task) -> StrategyOutcome:
        arch, plan = self.decode(actions)
        return self.evaluate_strategy(arch, plan, task)

    def reward(self, latency_s: float, accuracy: float,
               slo: float) -> Tuple[float, bool]:
        """Goal-conditioned reward (Eq. 2 / Eq. 3)."""
        cfg = self.cfg
        if cfg.slo_kind == "latency":
            if latency_s <= slo:
                lo, hi = cfg.acc_norm
                a_norm = (accuracy - lo) / (hi - lo)
                return cfg.alpha * a_norm - cfg.beta, True
            return 0.0, False
        # accuracy SLO: reward low latency once accuracy is met
        if accuracy >= slo:
            l_norm = 1.0 - min(latency_s, cfg.latency_ref_s) / cfg.latency_ref_s
            return cfg.alpha * l_norm - cfg.beta, True
        return 0.0, False
