"""The paper's figures as data: ``FIGURES`` maps a name to its
:class:`Figure` -- driver, formatter, named *measures* of the driver's
data and :class:`~repro.eval.spec.Claim` rows over them.  ``repro.cli``
builds a subcommand per entry; ``benchmarks/bench_claims.py`` checks
the claims.  Drivers and formatters are imported on first call."""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from .scenarios import augmented_devices, swarm_devices
from .spec import Claim, ClaimResult, check_names, compare

__all__ = ["FIGURES", "Figure", "check_figure", "run_figure"]


def _lazy(module: str, name: str) -> Callable:
    """``repro.eval.<module>.<name>``, imported when first called."""
    return lambda *args, **kwargs: getattr(importlib.import_module(
        f"{__package__}.{module}"), name)(*args, **kwargs)


_driver = partial(_lazy, "experiments")
_format = partial(_lazy, "reporting")
_train = partial(_lazy, "training_curves")


@dataclass(frozen=True)
class Figure:
    """One figure's declaration."""

    #: the help line of its ``repro.cli`` subcommand
    help: str
    #: ``driver(**size) -> data``; called bare, the full size
    driver: Callable[..., Any]
    #: ``format(data) -> str``: the table ``repro.cli <name>`` prints
    format: Callable[[Any], str]
    #: name -> ``measure(data)``, a number or None (not available)
    measures: Mapping[str, Callable[[Any], Optional[float]]]
    claims: Tuple[Claim, ...]
    #: the CI-sized budget as driver arguments ({}: the full size is)
    smoke: Mapping[str, Any]
    #: left out of ``bench_claims.py``'s default selection
    slow: bool = False


OURS, SUPREME = "Murmuration (Ours)", "SUPREME (Ours)"
AUGMENTED, SWARM = "augmented computing", "device swarm"
SWITCH = "Murmuration (supernet reconfig)"
LOCAL, FDSP, OFFLOAD = "1 Pi (local)", "4 Pis (2x2 FDSP)", "Pi -> GPU offload"


def _met(data, method: str) -> int:
    return sum(p.satisfied for p in data[method].values())


def _versus(data, attr: str, keep=lambda cell: True) -> list:
    """Per kept grid cell: Murmuration's ``attr`` (None where it misses
    the SLO) and a list of every qualifying baseline's."""
    return [(getattr(p, attr), [getattr(points[cell], attr)
                                for method, points in data.items()
                                if method != OURS and points[cell].satisfied])
            for cell, p in data[OURS].items() if keep(cell)]


def _worst_fall(data, group: int, attr: str) -> float:
    """Largest fall of Murmuration's ``attr`` between neighbouring met
    cells sharing key position ``group``, the other position rising."""
    series: Dict[Any, List[float]] = {}
    for key in sorted(data[OURS], key=lambda key: key[1 - group]):
        if data[OURS][key].satisfied:
            series.setdefault(key[group], []).append(
                getattr(data[OURS][key], attr))
    return max((a - b for s in series.values() for a, b in zip(s, s[1:])),
               default=0.0)


def _loosest(data) -> list:
    """Murmuration's cells at the loosest latency SLO (key position 0)."""
    slo = max(key[0] for key in data[OURS])
    return [p for key, p in data[OURS].items() if key[0] == slo]


def _gaps(panel) -> List[float]:
    """Murmuration's compliance minus each baseline's, at every SLO."""
    return [panel[OURS][slo] - points[slo] for method, points in
            panel.items() if method != OURS for slo in panel[OURS]]


def _series(data) -> List[list]:
    """Fig. 17's latencies, one list per accuracy SLO, by device count."""
    return [[points[n] for n in sorted(points)] for points in data.values()]


def _switch_costs():
    """Fig. 19's bars and the reload seconds of six switches alternating
    ResNet50 and DenseNet161 in a store with room for one."""
    from ..devices import rpi4
    from ..models import get_model
    from ..runtime import FixedModelStore

    store = FixedModelStore(
        rpi4(), resident_budget=get_model("resnet50").total_weight_bytes + 1)
    return {"switch": _driver("fig19_switch_time")(),
            "alternating_reload_s": sum(
                store.switch(get_model(name)).modeled_time_s
                for _ in range(3) for name in ("resnet50", "densenet161"))}


def _rows(title: str, *columns: str) -> Callable[[Any], str]:
    return lambda rows: _format("format_rows")(title, columns, rows)


FIGURES: Dict[str, Figure] = {
    "fig11": Figure(
        "RL training curves, both scenarios (Figs. 11 and 12)",
        lambda total_steps=20_000, eval_every=2_000: {
            name: _train("run_training_curves")(
                devices(), total_steps, eval_every, seed=0)
            for name, devices in ((AUGMENTED, augmented_devices),
                                  (SWARM, swarm_devices))},
        lambda d: "\n\n".join(f"=== Fig 11/12 ({name}) ===\n"
                              + _train("format_training_curves")(histories)
                              for name, histories in d.items()),
        {"augmented_supreme": lambda d: d[AUGMENTED][SUPREME].avg_reward[-1],
         "augmented_gcsl": lambda d: d[AUGMENTED]["GCSL"].avg_reward[-1],
         "augmented_ppo": lambda d: d[AUGMENTED]["PPO"].avg_reward[-1],
         "swarm_supreme": lambda d: d[SWARM][SUPREME].avg_reward[-1],
         "swarm_ppo": lambda d: d[SWARM]["PPO"].avg_reward[-1]},
        (Claim("augmented: SUPREME ends at or above PPO",
               "augmented_supreme", ">=", "augmented_ppo"),
         Claim("augmented: SUPREME ends at most 0.05 below GCSL",
               "augmented_supreme", ">=", "augmented_gcsl", -0.05),
         Claim("swarm: SUPREME ends at or above PPO",
               "swarm_supreme", ">=", "swarm_ppo")),
        smoke={"total_steps": 800, "eval_every": 200}, slow=True),
    "fig13": Figure("accuracy grid @ 140 ms latency SLO (augmented)",
        _driver("fig13_augmented_accuracy"), _format("format_accuracy_grid"),
        {"misses": lambda d: len(d[OURS]) - _met(d, OURS),
         "densenet161_cells": lambda d: _met(d, "Neurosurgeon + DenseNet161"),
         "resnext101_cells": lambda d: _met(d, "Neurosurgeon + ResNeXt101"),
         "best_gain_pts": lambda d: max([0.0] + [
             ours - max(rivals) for ours, rivals in _versus(d, "accuracy")
             if rivals and ours is not None])},
        (Claim("Murmuration covers every condition", "misses", "==", 0),
         Claim("Neurosurgeon + DenseNet161 never qualifies",
               "densenet161_cells", "==", 0),
         Claim("Neurosurgeon + ResNeXt101 never qualifies",
               "resnext101_cells", "==", 0),
         Claim("2.5+ points over the best qualifying baseline somewhere",
               "best_gain_pts", ">=", 2.5)),
        smoke={"bandwidths": (50.0, 150.0, 250.0, 400.0),
               "delays": (5.0, 50.0, 100.0)}),
    "fig14": Figure("swarm accuracy vs bandwidth per SLO",
        _driver("fig14_swarm_accuracy"),
        lambda d: _format("format_accuracy_grid")(d, row_label="slo_ms",
                                                  col_label="bw"),
        {"misses_at_loosest": lambda d: sum(
            not p.satisfied for p in _loosest(d)),
         "accuracy_fall": lambda d: _worst_fall(d, 1, "accuracy"),
         "best_at_loosest": lambda d: max(
             (p.accuracy for p in _loosest(d) if p.satisfied), default=None),
         # -inf where only a baseline qualifies
         "min_lead": lambda d: min(
             (-math.inf if ours is None else ours - rival
              for ours, rivals in _versus(d, "accuracy") for rival in rivals),
             default=math.inf)},
        (Claim("Murmuration qualifies everywhere at the loosest SLO",
               "misses_at_loosest", "==", 0),
         Claim("a looser SLO never lowers the accuracy at one bandwidth",
               "accuracy_fall", "<=", 0.0),
         Claim("the loosest SLO reaches the big submodels (> 77.5 %)",
               "best_at_loosest", ">", 77.5),
         Claim("wherever a baseline qualifies, Murmuration does and is at "
               "least as accurate", "min_lead", ">=", 0.0, -1e-9)),
        smoke={"latency_slos_ms": (2000.0, 600.0, 400.0),
               "bandwidths": (5.0, 50.0, 200.0, 500.0)}),
    "fig15": Figure("latency under accuracy SLOs",
        _driver("fig15_accuracy_slo_latency"), _format("format_latency_grid"),
        {"latency_fall_ms": lambda d: _worst_fall(d, 0, "latency_ms"),
         "reduction_at_77": lambda d: max(
             (min(rivals) / ours for ours, rivals in _versus(
                 d, "latency_ms", lambda cell: cell[1] == 77.0)
              if rivals and ours is not None), default=None)},
        (Claim("a tighter accuracy SLO never lowers the latency at one "
               "bandwidth", "latency_fall_ms", "<=", 0.0),
         Claim("over 2x below the fastest qualifying baseline at 77 %",
               "reduction_at_77", ">", 2.0)),
        smoke={"bandwidths": (50.0, 200.0, 400.0),
               "accuracy_slos": (72.0, 74.0, 76.0, 77.0, 78.0)}),
    "fig16": Figure("SLO compliance rates (16a augmented, 16b swarm)",
        lambda: {"augmented": _driver("fig16a_compliance_augmented")(),
                 "swarm": _driver("fig16b_compliance_swarm")()},
        lambda d: "-- Fig 16a (augmented) --\n{}\n\n-- Fig 16b (swarm) --\n{}"
        .format(*map(_format("format_compliance"), d.values())),
        {"augmented_min_lead": lambda d: min(_gaps(d["augmented"])),
         "augmented_at_140": lambda d: d["augmented"][OURS][140.0],
         "augmented_at_100": lambda d: d["augmented"][OURS][100.0],
         "swarm_min_lead": lambda d: min(_gaps(d["swarm"])),
         "swarm_max_gain": lambda d: max(_gaps(d["swarm"]))},
        (Claim("16a: Murmuration's bar tops every method at every SLO",
               "augmented_min_lead", ">=", 0.0, -1e-9),
         Claim("16a: compliance grows from a 100 ms to a 140 ms SLO",
               "augmented_at_140", ">=", "augmented_at_100"),
         Claim("16b: Murmuration's bar tops every baseline at every SLO",
               "swarm_min_lead", ">=", 0.0, -1e-9),
         Claim("16b: 40+ points over the weakest baseline",
               "swarm_max_gain", ">=", 40.0)), smoke={}),
    "fig17": Figure("scaling with device count",
        _driver("fig17_scalability"), _format("format_scalability"),
        {"uncovered": lambda d: sum(lats.count(None) for lats in _series(d)),
         "latency_rise_ms": lambda d: max(
             (b - a for lats in _series(d) for a, b in zip(lats, lats[1:])
              if None not in (a, b)), default=0.0),
         "min_speedup": lambda d: None if any(
             None in lats for lats in _series(d)) else min(
                 lats[0] / lats[-1] for lats in _series(d))},
        (Claim("every swarm size meets both accuracy SLOs",
               "uncovered", "==", 0),
         Claim("another device never raises the latency",
               "latency_rise_ms", "<=", 0.0, 1e-9),
         Claim("1 -> 9 devices is over 1.7x faster at both SLOs",
               "min_speedup", ">", 1.7)), smoke={}),
    "fig18": Figure(
        "decision time: evolutionary search vs RL",
        lambda population=100, generations=20: {
            "seconds": _driver("fig18_search_time")(
                population=population, generations=generations),
            "candidates": population * generations},
        lambda d: _format("format_search_time")(d["seconds"]),
        # budget-independent: the host ratio scaled to 2000 candidates
        {"ratio_per_2000": lambda d: min(
            d["seconds"]["evolutionary"][dev] / d["seconds"]["rl"][dev]
            for dev in ("desktop_gtx1080", "rpi4")) * 2000 / d["candidates"],
         "rl_desktop_s": lambda d: d["seconds"]["rl"]["desktop_gtx1080"]},
        (Claim("evolutionary / RL time per 2000 candidates is over 50x on "
               "both devices", "ratio_per_2000", ">", 50.0),
         Claim("an RL decision takes under 0.2 s on the desktop",
               "rl_desktop_s", "<", 0.2)),
        smoke={"population": 40, "generations": 10}),
    "fig19": Figure("model switch time", _switch_costs,
        lambda d: _format("format_switch_time")(d["switch"]),
        {"reconfig_s": lambda d: d["switch"][SWITCH],
         "min_reload_ratio": lambda d: min(
             t for name, t in d["switch"].items()
             if name.startswith("reload")) / d["switch"][SWITCH],
         "alternating_reload_s": lambda d: d["alternating_reload_s"]},
        (Claim("a supernet reconfiguration takes milliseconds",
               "reconfig_s", "<", 0.05),
         Claim("every fixed-model reload costs over 30x a reconfiguration",
               "min_reload_ratio", ">", 30.0),
         Claim("6 alternating switches under a one-model budget reload for "
               "over 5 s", "alternating_reload_s", ">", 5.0)), smoke={}),
    "ablation_runtime": Figure(
        "ablation: strategy cache and precompute (Sec. 5.1)",
        _driver("runtime_ablation"),
        _rows("Decision time over a 40-step trace", "mean s", "cache hits",
              "first s"),
        {"cache_hits": lambda d: d["with cache"][1],
         "mean_s_with_cache": lambda d: d["with cache"][0],
         "mean_s_without_cache": lambda d: d["without cache"][0],
         "first_s_after_precompute": lambda d: d["after precompute"][2]},
        (Claim("the cache serves over 5 of 40 steps", "cache_hits", ">", 5),
         Claim("the cache cuts the mean decision time",
               "mean_s_with_cache", "<", "mean_s_without_cache"),
         Claim("after precompute the first decision takes under 0.5 s",
               "first_s_after_precompute", "<", 0.5)), smoke={}),
    "ablation_supreme": Figure(
        "ablation: SUPREME with each mechanism disabled",
        _train("supreme_ablation"),
        _rows("SUPREME component ablation", "reward", "compliance", "buffer"),
        {"non_finite_rewards": lambda d: sum(
            not math.isfinite(row[0]) for row in d.values()),
         "full_buffer": lambda d: d["full"][2],
         "no_prune_buffer": lambda d: d["no-prune"][2]},
        (Claim("every variant ends at a finite reward",
               "non_finite_rewards", "==", 0),
         Claim("pruning keeps the buffer at most 8 entries above unpruned",
               "full_buffer", "<=", "no_prune_buffer", 8)),
        smoke={"steps": 600}, slow=True),
    "rl_baselines": Figure(
        "appendix: SUPREME, Murmuration, GCSL and PPO at one budget",
        lambda steps=6_000: _train("run_training_curves")(
            augmented_devices(), total_steps=steps, eval_every=steps, seed=3),
        _train("format_training_curves"),
        {"supreme": lambda d: d[SUPREME].avg_reward[-1],
         "ppo": lambda d: d["PPO"].avg_reward[-1]},
        (Claim("PPO trails SUPREME", "supreme", ">=", "ppo"),),
        smoke={"steps": 480}, slow=True),
    "vit": Figure("extension: ViT patch-parallel inference",
        _driver("vit_patch_parallel"),
        _rows("ViT-S/16 on a 5-Pi swarm (latency s, by bandwidth Mbps)",
              "single", "split", "patch-par fp32", "patch-par int8"),
        {"fp32_speedup_at_1000": lambda d: d[1000.0][0] / d[1000.0][2],
         "fp32_slowdown_1000_to_5": lambda d: d[5.0][2] / d[1000.0][2],
         "fp32_at_5": lambda d: d[5.0][2], "int8_at_5": lambda d: d[5.0][3]},
        (Claim("at 1 Gbps patch parallelism is over 2.5x faster than one "
               "device", "fp32_speedup_at_1000", ">", 2.5),
         Claim("its latency grows over 1.5x from 1000 to 5 Mbps",
               "fp32_slowdown_1000_to_5", ">", 1.5),
         Claim("int8 K/V exchange recovers part of it at 5 Mbps",
               "int8_at_5", "<", "fp32_at_5")), smoke={}),
    "energy": Figure(
        "extension: energy vs latency of three ResNet50 deployments",
        _driver("energy_tradeoff"),
        _rows("Energy vs latency (ResNet50)", "latency s", "energy J",
              "radio J"),
        {"local_s": lambda d: d[LOCAL][0], "fdsp_s": lambda d: d[FDSP][0],
         "offload_s": lambda d: d[OFFLOAD][0],
         "local_j": lambda d: d[LOCAL][1],
         "offload_j": lambda d: d[OFFLOAD][1],
         "fdsp_over_local_j": lambda d: d[FDSP][1] / d[LOCAL][1]},
        (Claim("4-Pi FDSP is faster than one Pi", "fdsp_s", "<", "local_s"),
         Claim("GPU offload is faster than one Pi", "offload_s", "<",
               "local_s"),
         Claim("the swarm pays redundant work (over 0.8x one Pi's energy)",
               "fdsp_over_local_j", ">", 0.8),
         Claim("the 220 W GPU costs more energy than one Pi",
               "offload_j", ">", "local_j")), smoke={}),
}


def run_figure(name: str, smoke: bool = False):
    """The figure's data at full size (or at its ``smoke`` budget)."""
    figure = FIGURES[name]
    return figure.driver(**(figure.smoke if smoke else {}))


def check_figure(name: str, data=None, *, smoke: bool = False,
                 claims: Optional[Sequence[Claim]] = None,
                 ) -> List[ClaimResult]:
    """Evaluate the figure's claims (or ``claims``) on ``data``, run here
    at the chosen size when not given.  A claim naming an unknown measure
    or operator raises ``ValueError`` before anything runs."""
    figure = FIGURES[name]
    claims = figure.claims if claims is None else claims
    for claim in claims:
        check_names(name, claim, [
            ("measure", cell, figure.measures)
            for cell in (claim.left, claim.right) if isinstance(cell, str)])
    if data is None:
        data = run_figure(name, smoke)
    return compare(claims, lambda cell: figure.measures[cell](data)
                   if isinstance(cell, str) else cell)
