"""Per-figure experiment drivers (paper Sec. 6), the runtime ablation
and the extensions.

Each function regenerates the data behind one figure as plain dicts;
:data:`repro.eval.figures.FIGURES` declares how each prints and what it
must show.  EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..baselines.registry import (AUGMENTED_BASELINES, SWARM_BASELINES,
                                  BaselineMethod)
from ..core.decision import SearchDecisionEngine
from ..core.murmuration import Murmuration
from ..core.slo import SLO
from ..core.strategy_cache import StrategyCache
from ..devices.energy import energy_of_report
from ..devices.latency import model_switch_time, supernet_reconfig_time
from ..devices.profiles import desktop_gtx1080, rpi4
from ..models.vit import vit_small_16
from ..models.zoo import MODEL_ZOO, get_model
from ..nas.arch import lattice_archs
from ..nas.evolution import EvolutionConfig, evolutionary_search
from ..nas.graph_builder import build_graph
from ..nas.search_space import MBV3_SPACE, SearchSpace
from ..netsim.grids import (AUGMENTED_BANDWIDTHS, AUGMENTED_DELAYS,
                            SWARM_BANDWIDTHS, SWARM_DELAY)
from ..netsim.mesh import star_topology
from ..netsim.topology import NetworkCondition
from ..netsim.traces import TraceConfig, random_walk_trace
from ..partition.plan import (layerwise_split_plan, single_device_plan,
                              spatial_plan)
from ..partition.simulate import simulate_latency
from ..partition.spatial import Grid
from ..rl.env import EnvConfig, MurmurationEnv, Task
from ..rl.policy import LSTMPolicy
from .scenarios import augmented_devices, swarm_devices

__all__ = [
    "MethodPoint",
    "fig13_augmented_accuracy",
    "fig14_swarm_accuracy",
    "fig15_accuracy_slo_latency",
    "fig16a_compliance_augmented",
    "fig16b_compliance_swarm",
    "fig17_scalability",
    "fig18_search_time",
    "fig19_switch_time",
    "runtime_ablation",
    "vit_patch_parallel",
    "energy_tradeoff",
]


@dataclass(frozen=True)
class MethodPoint:
    """One (method, condition) cell of a figure."""

    satisfied: bool
    accuracy: Optional[float]
    latency_ms: Optional[float]


PointGrid = Dict[str, Dict[Tuple, MethodPoint]]


def _grid(devices, methods: Sequence[BaselineMethod], cells,
          space: SearchSpace, accuracy_floor: Optional[float] = None,
          ) -> PointGrid:
    """Each baseline's point, then Murmuration's, in every ``(key, slo,
    condition)`` cell: ``{method: {key: point}}``.  A point below
    ``accuracy_floor`` misses the (joint) SLO."""
    def point(accuracy, latency_s):
        if accuracy_floor is not None and not accuracy >= accuracy_floor:
            return MethodPoint(False, None, None)
        return MethodPoint(True, accuracy, latency_s * 1e3)

    engine = SearchDecisionEngine(space, devices, archs=lattice_archs(space))
    out: PointGrid = {m.name: {} for m in methods}
    out["Murmuration (Ours)"] = {}
    for key, slo, condition in cells:
        cluster = star_topology(devices, condition)
        for m in methods:
            r = m.evaluate(cluster, slo)
            out[m.name][key] = (point(r.accuracy, r.latency_s) if r.satisfied
                                else MethodPoint(False, None, None))
        s = engine.decide(slo, condition).strategy
        out["Murmuration (Ours)"][key] = (
            MethodPoint(False, None, None) if s is None
            else point(s.expected_accuracy, s.expected_latency_s))
    return out


# ---------------------------------------------------------------------------
# Figs. 13-15 — accuracy under a latency SLO, latency under an accuracy SLO
# ---------------------------------------------------------------------------

def fig13_augmented_accuracy(latency_slo_ms: float = 140.0,
                             bandwidths: Sequence[float] = AUGMENTED_BANDWIDTHS,
                             delays: Sequence[float] = AUGMENTED_DELAYS,
                             space: SearchSpace = MBV3_SPACE) -> PointGrid:
    """Accuracy achieved under a latency SLO across the (bw, delay) grid
    (augmented computing).

    Returns {method name: {(delay_ms, bw_mbps): MethodPoint}}.
    """
    slo = SLO.latency_ms(latency_slo_ms)
    return _grid(augmented_devices(), AUGMENTED_BASELINES, [
        ((delay, bw), slo, NetworkCondition((bw,), (delay,)))
        for delay in delays for bw in bandwidths], space)


def fig14_swarm_accuracy(latency_slos_ms: Sequence[float] = (
        2000.0, 1000.0, 600.0, 500.0, 400.0),
        bandwidths: Sequence[float] = SWARM_BANDWIDTHS,
        delay_ms: float = SWARM_DELAY,
        space: SearchSpace = MBV3_SPACE) -> PointGrid:
    """Device swarm, one remote Pi's bandwidth swept (the others at 100
    Mbps): {method: {(latency_slo_ms, bw): MethodPoint}}."""
    return _grid(swarm_devices(5), SWARM_BASELINES, [
        ((slo_ms, bw), SLO.latency_ms(slo_ms),
         NetworkCondition((bw, 100.0, 100.0, 100.0), (delay_ms,) * 4))
        for slo_ms in latency_slos_ms for bw in bandwidths], space)


def fig15_accuracy_slo_latency(
        accuracy_slos: Sequence[float] = (72.0, 73.0, 74.0, 75.0, 76.0,
                                          77.0, 78.0, 78.5),
        bandwidths: Sequence[float] = AUGMENTED_BANDWIDTHS,
        delay_ms: float = 20.0,
        space: SearchSpace = MBV3_SPACE) -> PointGrid:
    """Returns {method: {(bw, accuracy_slo): MethodPoint}} — Fig. 15 uses
    only the Neurosurgeon family plus Murmuration."""
    neuro = [m for m in AUGMENTED_BASELINES if m.framework == "neurosurgeon"]
    return _grid(augmented_devices(), neuro, [
        ((bw, acc), SLO.accuracy(acc), NetworkCondition((bw,), (delay_ms,)))
        for bw in bandwidths for acc in accuracy_slos], space)


# ---------------------------------------------------------------------------
# Fig. 16 — SLO compliance rates
# ---------------------------------------------------------------------------

def _compliance(grid: PointGrid, slos: Sequence[float]
                ) -> Dict[str, Dict[float, float]]:
    """Per method, the share (%) of cells met at each SLO (key[0])."""
    out: Dict[str, Dict[float, float]] = {}
    for name, points in grid.items():
        out[name] = {}
        for slo in slos:
            met = [p.satisfied for key, p in points.items() if key[0] == slo]
            out[name][slo] = 100.0 * sum(met) / len(met)
    return out


def fig16a_compliance_augmented(
        latency_slos_ms: Sequence[float] = (100.0, 120.0, 140.0),
        accuracy_floor: float = 75.0,
        space: SearchSpace = MBV3_SPACE) -> Dict[str, Dict[float, float]]:
    """Compliance over the 40 augmented network settings with a joint
    (latency <= L, accuracy >= 75%) SLO.  Methods: the paper's Fig. 16a
    trio."""
    methods = [m for m in AUGMENTED_BASELINES
               if m.name in ("Neurosurgeon + ResNet50",
                             "Neurosurgeon + Inception")]
    return _compliance(_grid(augmented_devices(), methods, [
        ((slo_ms, delay, bw), SLO.latency_ms(slo_ms),
         NetworkCondition((bw,), (delay,)))
        for slo_ms in latency_slos_ms for delay in AUGMENTED_DELAYS
        for bw in AUGMENTED_BANDWIDTHS], space, accuracy_floor),
        latency_slos_ms)


def fig16b_compliance_swarm(
        latency_slos_ms: Sequence[float] = (600.0, 1000.0),
        accuracy_floor: float = 74.0,
        space: SearchSpace = MBV3_SPACE) -> Dict[str, Dict[float, float]]:
    """Compliance over the 9 swarm settings (bw 5-500, delay 20 ms), the
    whole swarm's links swept together."""
    methods = [m for m in SWARM_BASELINES
               if m.name in ("ADCNN + MobileNetV3", "ADCNN + ResNet50")]
    return _compliance(_grid(swarm_devices(5), methods, [
        ((slo_ms, bw), SLO.latency_ms(slo_ms),
         NetworkCondition((bw,) * 4, (SWARM_DELAY,) * 4))
        for slo_ms in latency_slos_ms for bw in SWARM_BANDWIDTHS],
        space, accuracy_floor), latency_slos_ms)


# ---------------------------------------------------------------------------
# Fig. 17 — scalability with device count
# ---------------------------------------------------------------------------

def fig17_scalability(accuracy_slos: Sequence[float] = (75.0, 76.0),
                      device_counts: Sequence[int] = tuple(range(1, 10)),
                      bandwidth_mbps: float = 1000.0, delay_ms: float = 2.0,
                      space: SearchSpace = MBV3_SPACE,
                      ) -> Dict[float, Dict[int, Optional[float]]]:
    """Murmuration latency (ms) vs swarm size under an accuracy SLO.

    Returns {accuracy_slo: {n_devices: latency_ms or None}}.
    """
    out: Dict[float, Dict[int, Optional[float]]] = {}
    archs = lattice_archs(space)
    for acc in accuracy_slos:
        slo = SLO.accuracy(acc)
        out[acc] = {}
        for n in device_counts:
            engine = SearchDecisionEngine(space, swarm_devices(n), archs=archs)
            condition = NetworkCondition((bandwidth_mbps,) * (n - 1),
                                         (delay_ms,) * (n - 1))
            s = engine.decide(slo, condition).strategy
            out[acc][n] = None if s is None else s.expected_latency_s * 1e3
    return out


# ---------------------------------------------------------------------------
# Fig. 18 — decision time: evolutionary search vs the RL policy
# ---------------------------------------------------------------------------

def fig18_search_time(space: SearchSpace = MBV3_SPACE, population: int = 100,
                      generations: int = 20, repeats: int = 20,
                      ) -> Dict[str, Dict[str, float]]:
    """Wall-clock decision time, projected onto the two device classes:
    an evolutionary search of ``population x generations`` candidates
    (the paper's budget by default) against the mean of ``repeats`` RL
    decisions (enough that the first, cold one does not decide it).

    Returns {"evolutionary": {device: seconds}, "rl": {device: seconds}}.
    """
    devices = augmented_devices()
    condition = NetworkCondition((200.0,), (20.0,))
    cluster = star_topology(devices, condition)
    cfg = EvolutionConfig(population=population, generations=generations)

    t0 = time.perf_counter()
    evolutionary_search(space, cluster, latency_slo_s=0.14, config=cfg)
    evo_host = time.perf_counter() - t0

    env = MurmurationEnv(space, devices, EnvConfig())
    policy = LSTMPolicy.for_env(env)
    task = Task(0.14, condition)
    context = env.encode_task(task)
    t0 = time.perf_counter()
    for _ in range(repeats):
        actions = policy.greedy_actions(context, env.schedule)
        env.evaluate_actions(actions, task)
    rl_host = (time.perf_counter() - t0) / repeats

    out: Dict[str, Dict[str, float]] = {"evolutionary": {}, "rl": {}}
    for dev in (desktop_gtx1080(), rpi4()):
        out["evolutionary"][dev.name] = evo_host / dev.speed_factor
        out["rl"][dev.name] = rl_host / dev.speed_factor
    out["evolutionary"]["host"] = evo_host
    out["rl"]["host"] = rl_host
    return out


# ---------------------------------------------------------------------------
# Fig. 19 — model switch time
# ---------------------------------------------------------------------------

def fig19_switch_time(space: SearchSpace = MBV3_SPACE,
                      ) -> Dict[str, float]:
    """Seconds to switch models on a Raspberry Pi 4.

    Murmuration switches submodels inside the resident supernet; the
    fixed-model alternatives reload weights from storage.
    """
    pi = rpi4()
    from ..nas.arch import max_arch
    subnet_blocks = len(build_graph(max_arch(space), space))
    out = {"Murmuration (supernet reconfig)":
           supernet_reconfig_time(subnet_blocks, pi)}
    for name in MODEL_ZOO:
        graph = get_model(name)
        out[f"reload {graph.name}"] = model_switch_time(graph, pi,
                                                        in_memory=False)
    return out


# ---------------------------------------------------------------------------
# The runtime ablation (Sec. 5.1) and the extensions (ViT, energy)
# ---------------------------------------------------------------------------

def runtime_ablation() -> Dict[str, Tuple[float, int, float]]:
    """Decision seconds over a 40-step random-walk trace with the
    strategy cache, with it effectively disabled, and with it warmed by
    ``precompute`` against forecast conditions: ``{arm: (mean seconds,
    cache hits, first request's seconds)}``.  The other two arms decide
    once before the replay: an engine's first miss enumerates its
    candidates (~7 ms against ~0.03 ms warm), swamping a 40-step mean.
    """
    trace = random_walk_trace(TraceConfig(
        num_remote=1, bw_range=(80.0, 400.0), delay_range=(5.0, 60.0),
        steps=40, seed=3))

    def replay(cache, use_predictor=False, seed=0, forecasts=0):
        devices = augmented_devices()
        system = Murmuration(
            MBV3_SPACE, devices, NetworkCondition((200.0,), (20.0,)),
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=8),
            slo=SLO.latency(0.3), cache=cache, use_predictor=use_predictor,
            monitor_noise=0.02, seed=seed)
        if forecasts:
            system.precompute([system.observed_condition()
                               for _ in range(forecasts)])
        else:
            system.engine.decide(system.slo, trace[0])
        times = []
        for condition in trace:
            system.update_condition(condition)
            times.append(system.infer().decision_time_s)
        return (sum(times) / len(times), times.count(0.0), times[0])

    return {
        "with cache": replay(StrategyCache(capacity=256)),
        "without cache": replay(StrategyCache(
            capacity=1, bw_step=1e-6, delay_step=1e-6)),
        "after precompute": replay(StrategyCache(capacity=256),
                                   use_predictor=True, seed=1, forecasts=5)}


def vit_patch_parallel() -> Dict[float, Tuple[float, float, float, float]]:
    """ViT-S/16 latency (s) on a 5-Pi swarm (2 ms links) per bandwidth:
    single device, a layer-wise split at the midpoint, and 2x2 patch
    parallelism exchanging K/V in fp32 and in int8."""
    v = vit_small_16()
    plans = (single_device_plan(v), layerwise_split_plan(v, len(v) // 2),
             spatial_plan(v, Grid(2, 2), [0, 1, 2, 3], bits=32),
             spatial_plan(v, Grid(2, 2), [0, 1, 2, 3], bits=8))
    out = {}
    for bw in (5.0, 20.0, 100.0, 500.0, 1000.0):
        cluster = star_topology(swarm_devices(5),
                                NetworkCondition((bw,) * 4, (2.0,) * 4))
        out[bw] = tuple(simulate_latency(v, plan, cluster).total_s
                        for plan in plans)
    return out


def energy_tradeoff() -> Dict[str, Tuple[float, float, float]]:
    """ResNet50 ``(latency s, energy J, radio J)`` run locally on a Pi,
    tiled 2x2 over four Pis, and offloaded from a Pi to the GPU."""
    g = get_model("resnet50")
    swarm = star_topology(swarm_devices(5),
                          NetworkCondition((500.0,) * 4, (5.0,) * 4))
    augmented = star_topology(augmented_devices(),
                              NetworkCondition((400.0,), (5.0,)))
    out = {}
    for name, cluster, plan in (
            ("1 Pi (local)", swarm, single_device_plan(g)),
            ("4 Pis (2x2 FDSP)", swarm,
             spatial_plan(g, Grid(2, 2), [0, 1, 2, 3])),
            ("Pi -> GPU offload", augmented, layerwise_split_plan(g, 0))):
        report = simulate_latency(g, plan, cluster)
        energy = energy_of_report(report, cluster.devices)
        out[name] = (report.total_s, energy.total_j, energy.network_j)
    return out
