"""Frozen digests of what the decision engines answer.

``scenario_digests.json``, ``facade_parity_golden.json`` and the golden
recordings pin the facade and every scenario; this file pins the
*engines* underneath them.  ``tests/fixtures/decision_digests.json``
holds, for :class:`SearchDecisionEngine` and :class:`MurmurationOracle`,
the sha256 of the chosen strategy over a seeded grid of

* 2, 3, 4, 5, 6 and 9 devices, so every ``candidate_plans`` branch
  (1x2, 2x2, 2x3, 3x3, front, greedy) and the repartition path is hit;
* three seeded network conditions per device count;
* both SLO kinds at a generous value, a *boundary* value (exactly the
  median candidate's latency / accuracy, so ``<=`` / ``>=`` decide it)
  and an infeasible one (the answer is ``None``);

plus ``float.hex`` of small ``fig15`` / ``fig16a`` / ``fig16b`` outputs.
The file was generated *before* the decision search moved onto the plan
cost model and must keep passing untouched: a different tie-break, a
float that moved by one ulp or a candidate that went missing changes a
digest.
"""

import functools

import numpy as np
import pytest

from repro.core import SLO, SearchDecisionEngine
from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.eval.experiments import (fig15_accuracy_slo_latency,
                                    fig16a_compliance_augmented,
                                    fig16b_compliance_swarm)
from repro.eval.murmuration_method import MurmurationOracle, lattice_archs
from repro.nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from repro.nas.evolution import candidate_plans
from repro.nas.graph_builder import build_graph
from repro.nas.search_space import MBV3_SPACE
from repro.netsim.grids import AUGMENTED_BANDWIDTHS
from repro.netsim.topology import Cluster, NetworkCondition
from repro.partition.simulate import simulate_latency
from tests.frozen import sha256

DEVICE_COUNTS = (2, 3, 4, 5, 6, 9)
N_CONDITIONS = 3
KINDS = ("latency", "accuracy")
LEVELS = ("generous", "boundary", "infeasible")
ENGINES = ("search", "oracle")


def devices(n):
    kinds = (rpi4, desktop_gtx1080, jetson_class)
    return [kinds[i % 3]() for i in range(n)]


def conditions(n):
    rng = np.random.default_rng(1000 + n)
    return [NetworkCondition(
        tuple(float(b) for b in rng.uniform(5.0, 400.0, n - 1)),
        tuple(float(d) for d in rng.uniform(2.0, 60.0, n - 1)))
        for _ in range(N_CONDITIONS)]


def engine(name, n):
    """The engine and a ``decide -> Strategy | None`` over it."""
    if name == "search":
        eng = SearchDecisionEngine(MBV3_SPACE, devices(n), n_random_archs=3,
                                   seed=n)
        return eng, lambda slo, cond: eng.decide(slo, cond).strategy
    eng = MurmurationOracle(MBV3_SPACE, devices(n),
                            archs=lattice_archs(MBV3_SPACE)[n::17])
    return eng, eng.decide


def strategy_digest(strategy):
    if strategy is None:
        return None
    arch = strategy.arch
    answer = ((arch.resolution, arch.depths, arch.kernels, arch.expands),
              [((bp.grid.rows, bp.grid.cols), tuple(bp.devices), bp.bits)
               for bp in strategy.plan],
              strategy.plan.output_device,
              float(strategy.expected_latency_s).hex(),
              float(strategy.expected_accuracy).hex())
    return sha256(repr(answer))


def case_id(name, n, ci, kind, level):
    return f"{name}/n{n}/c{ci}/{kind}/{level}"


def figures():
    """Small figure outputs, every float as ``float.hex``."""
    def point(p):
        return [p.satisfied,
                None if p.accuracy is None else float(p.accuracy).hex(),
                None if p.latency_ms is None else float(p.latency_ms).hex()]

    fig15 = fig15_accuracy_slo_latency(
        accuracy_slos=(73.0, 77.0), bandwidths=AUGMENTED_BANDWIDTHS[:3])
    return {
        "fig15": {method: {f"{bw}/{acc}": point(p)
                           for (bw, acc), p in cells.items()}
                  for method, cells in fig15.items()},
        "fig16a": {method: {str(slo): float(v).hex()
                            for slo, v in by_slo.items()}
                   for method, by_slo in fig16a_compliance_augmented(
                       latency_slos_ms=(120.0,)).items()},
        "fig16b": {method: {str(slo): float(v).hex()
                            for slo, v in by_slo.items()}
                   for method, by_slo in fig16b_compliance_swarm(
                       latency_slos_ms=(600.0,)).items()},
    }


def slo_values(eng, n, cond):
    """SLO value per kind and level: the boundary is the median of every
    candidate's brute-force price."""
    cluster = Cluster(devices(n), cond)
    lats, accs = [], []
    for arch in eng.archs:
        graph = build_graph(arch, MBV3_SPACE)
        base = arch_accuracy(arch, MBV3_SPACE)
        for plan in candidate_plans(graph, cluster):
            lats.append(simulate_latency(graph, plan, cluster).total_s)
            accs.append(base - plan_accuracy_penalty(plan))
    lats.sort()
    accs.sort()
    return {"latency": {"generous": 60.0, "boundary": lats[len(lats) // 2],
                        "infeasible": lats[0] / 2.0},
            "accuracy": {"generous": 1.0, "boundary": accs[len(accs) // 2],
                         "infeasible": 99.9}}


@functools.lru_cache(maxsize=None)
def fixture_content():
    decisions = {}
    for name in ENGINES:
        for n in DEVICE_COUNTS:
            eng, decide = engine(name, n)
            for ci, cond in enumerate(conditions(n)):
                values = slo_values(eng, n, cond)
                for kind in KINDS:
                    for level in LEVELS:
                        value = float(values[kind][level])
                        decisions[case_id(name, n, ci, kind, level)] = {
                            "value": value.hex(),
                            "digest": strategy_digest(
                                decide(SLO(kind, value), cond))}
    return {"decisions": decisions, "figures": figures()}


def test_the_whole_grid_is_frozen(moved):
    assert "decisions" not in moved("decision_digests")


@pytest.mark.parametrize("n", DEVICE_COUNTS)
@pytest.mark.parametrize("name", ENGINES)
def test_decisions_match_the_frozen_digests(moved, name, n):
    assert "decisions" not in moved("decision_digests")
    for cid, row in fixture_content()["decisions"].items():
        if cid.startswith(f"{name}/n{n}/"):   # only infeasible goes unmet
            assert (row["digest"] is None) == cid.endswith("infeasible")


def test_small_figure_outputs_match_to_the_last_bit(moved):
    assert "figures" not in moved("decision_digests")
