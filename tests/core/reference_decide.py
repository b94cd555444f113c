"""The brute-force decision loops, kept as test oracles.

These are the bodies ``SearchDecisionEngine.decide`` and
``MurmurationOracle.decide`` had before both moved onto
:class:`~repro.core.cost_model.PlanCostModel`, verbatim but for reading
``space`` / ``devices`` / ``archs`` off the engine passed in: rebuild
every graph, re-enumerate every plan, simulate every pair, keep the best
under the engine's own tie-break.  Slow on purpose; never import this
from ``src/``.

``reference_scan`` is ``PlanCostModel.scan`` as it was before it became
a lazy best-first merge: every candidate of every arch, stable-sorted by
descending accuracy — verbatim but for returning the tuple instead of
memoising it.
"""

from typing import Optional, Tuple

from repro.core.cost_model import Candidate
from repro.core.slo import SLO
from repro.core.strategy import Strategy
from repro.nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from repro.nas.evolution import candidate_plans
from repro.nas.graph_builder import build_graph
from repro.netsim.topology import Cluster, NetworkCondition
from repro.partition.simulate import simulate_latency


def reference_scan(model, archs) -> Tuple[Candidate, ...]:
    """``PlanCostModel.scan``: enumerate everything, then sort."""
    key = tuple(archs)
    pairs = ((arch, plan, acc) for arch in key
             for plan, acc in model.candidates(arch))
    return tuple(sorted(
        (Candidate(order, *pair) for order, pair in enumerate(pairs)),
        key=lambda c: -c.accuracy))


def reference_search_decide(engine, slo: SLO, condition: NetworkCondition,
                            ) -> Optional[Strategy]:
    """``SearchDecisionEngine.decide``: strictly better replaces."""
    cluster = Cluster(engine.devices, condition)
    best: Optional[Strategy] = None
    for arch in engine.archs:
        graph = build_graph(arch, engine.space)
        base_acc = arch_accuracy(arch, engine.space)
        for plan in candidate_plans(graph, cluster):
            rep = simulate_latency(graph, plan, cluster)
            acc = base_acc - plan_accuracy_penalty(plan)
            if not slo.satisfied_by(rep.total_s, acc):
                continue
            if best is None:
                better = True
            elif slo.kind == "latency":
                better = acc > best.expected_accuracy
            else:
                better = rep.total_s < best.expected_latency_s
            if better:
                best = Strategy(arch, plan, rep.total_s, acc)
    return best


def reference_oracle_decide(engine, slo: SLO, condition: NetworkCondition,
                            ) -> Optional[Strategy]:
    """``MurmurationOracle.decide``: lexicographic on the other axis."""
    cluster = Cluster(engine.devices, condition)
    best: Optional[Strategy] = None
    for arch in engine.archs:
        graph = build_graph(arch, engine.space)
        base_acc = arch_accuracy(arch, engine.space)
        for plan in candidate_plans(graph, cluster):
            latency = simulate_latency(graph, plan, cluster).total_s
            acc = base_acc - plan_accuracy_penalty(plan)
            if not slo.satisfied_by(latency, acc):
                continue
            if best is None:
                better = True
            elif slo.kind == "latency":
                better = (acc, -latency) > (best.expected_accuracy,
                                            -best.expected_latency_s)
            else:
                better = (-latency, acc) > (-best.expected_latency_s,
                                            best.expected_accuracy)
            if better:
                best = Strategy(arch, plan, latency, acc)
    return best
