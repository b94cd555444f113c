"""Frozen digests of what pricing a fresh strategy computes.

``decision_digests.json`` pins what a decision search *chooses* and
``test_compiled_kernel.py`` holds the compiled kernel ``==`` the walker's
``total_s``; nothing pinned the parts a never-seen (submodel, plan) pair
is priced from.  ``tests/fixtures/strategy_price_digests.json`` holds
the sha256 over ``float.hex`` / ``repr`` of

* ``report/*`` — **every** :class:`LatencyReport` field (``total_s``,
  ``compute_s``, ``comm_s``, ``comm_bytes``, ``num_transfers``,
  ``per_block_done``, ``tx_bytes``, ``rx_bytes``) of seeded (graph,
  plan, cluster) triples: MBV3 random archs with per-slot kernels and
  expands, ``vit_small_16`` (the K/V sync branch) and ``resnet50``, under
  every candidate template and seeded mixed-grid plans (some with
  ``output_device != 0``), on stars of 2, 3 and 5 devices, a star with a
  non-empty ``compute_scale`` and a ring mesh under a fault overlay;
* ``env/*`` — ``decode`` (the arch and every block's ``(grid, devices,
  bits)``) and every :class:`StrategyOutcome` field of
  ``evaluate_actions`` for seeded action sequences and tasks on
  ``MBV3_SPACE`` x 3 devices and ``tiny_space()`` x 2 devices, both
  ``slo_kind``\\ s;
* ``graphs/*`` — ``arch_accuracy`` and every :class:`ComputeBlock` field
  of ``build_graph`` for 500 ``random_arch``\\ s plus ``min_arch`` /
  ``max_arch``;
* ``plans/*`` — per-block settings and order of ``candidate_plans`` for
  2–9 devices.

The file was generated *before* graphs began to share their blocks,
plans their block settings and ``simulate_latency`` moved to flat lists,
and must keep passing untouched: an accuracy, a FLOP count or a priced
float that moves by one ulp changes a digest.
"""

import functools
from dataclasses import astuple, fields

import numpy as np
import pytest

from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.faults.resilience import NoRouteError
from repro.models import get_model
from repro.models.graph import ComputeBlock
from repro.models.vit import vit_small_16
from repro.nas.accuracy_model import arch_accuracy
from repro.nas.arch import max_arch, min_arch, random_arch
from repro.nas.evolution import candidate_plans
from repro.nas.graph_builder import build_graph
from repro.nas.search_space import MBV3_SPACE, tiny_space
from repro.netsim import Cluster, NetworkCondition, ring_topology
from repro.partition import (BlockPlan, ExecutionPlan, Grid,
                             simulate_latency)
from repro.rl import EnvConfig, MurmurationEnv
from tests.frozen import digest

GRIDS = (Grid(1, 1), Grid(1, 2), Grid(2, 2), Grid(2, 3))
TINY = tiny_space()


def _devices(n):
    return [(rpi4, desktop_gtx1080, jetson_class)[i % 3]() for i in range(n)]


def _hex(v):
    return float(v).hex()


def _plan_rows(plan):
    """Per-block settings, in order, and where the logits go."""
    return {"output_device": plan.output_device,
            "blocks": [[bp.grid.rows, bp.grid.cols, list(bp.devices), bp.bits]
                       for bp in plan]}


def _arch_rows(arch):
    return [arch.resolution, list(arch.depths), list(arch.kernels),
            list(arch.expands)]


# -- (a) every LatencyReport field -------------------------------------------

def _mbv3_graphs():
    rng = np.random.default_rng((20, 1))
    archs = [min_arch(MBV3_SPACE), max_arch(MBV3_SPACE)]
    archs += [random_arch(MBV3_SPACE, rng) for _ in range(6)]
    return [build_graph(a, MBV3_SPACE) for a in archs]


FAMILIES = {
    "mbv3": _mbv3_graphs,
    "vit_small_16": lambda: [vit_small_16()],
    "resnet50": lambda: [get_model("resnet50")],
}


def _star(n, seed, scale=None):
    rng = np.random.default_rng((20, 2, seed))
    cluster = Cluster(_devices(n), NetworkCondition(
        tuple(float(b) for b in rng.uniform(5.0, 400.0, n - 1)),
        tuple(float(d) for d in rng.uniform(0.0, 60.0, n - 1))))
    if scale:
        cluster.compute_scale = dict(scale)
    return cluster


def _faulted_ring():
    """(0, 1) is down, so 0 -> 1 goes the long way round over a degraded
    (2, 3); device 1 straggles."""
    mesh = ring_topology(_devices(4), 150.0, 10.0)
    mesh.apply_link_faults(down=[(0, 1)], degraded={(2, 3): (0.25, 15.0)})
    mesh.compute_scale = {1: 3.0}
    return mesh


CLUSTERS = {
    "star2": lambda: _star(2, 2),
    "star3": lambda: _star(3, 3),
    "star5": lambda: _star(5, 5),
    "star3_scaled": lambda: _star(3, 4, scale={0: 1.75, 2: 0.5}),
    "ring4_faulted": _faulted_ring,
}


def _mixed_plan(graph, n, rng):
    """Random grid, devices and bits per partitionable block: consecutive
    blocks on different grids force the gather branch."""
    plans = []
    for block in graph:
        grid = Grid(1, 1)
        if block.partitionable and not block.fused:
            grid = GRIDS[int(rng.integers(len(GRIDS)))]
        plans.append(BlockPlan(
            grid, tuple(int(d) for d in rng.integers(0, n, grid.ntiles)),
            bits=int(rng.choice([8, 16, 32]))))
    return ExecutionPlan(plans, output_device=int(rng.integers(n)))


def _report_row(graph, plan, cluster):
    try:
        r = simulate_latency(graph, plan, cluster)
    except NoRouteError as exc:
        return ["no route", exc.src, exc.dst]
    return {"total_s": _hex(r.total_s),
            "compute_s": [[k, _hex(v)] for k, v in r.compute_s.items()],
            "comm_s": _hex(r.comm_s),
            "comm_bytes": _hex(r.comm_bytes),
            "num_transfers": r.num_transfers,
            "per_block_done": [_hex(v) for v in r.per_block_done],
            "tx_bytes": [[k, _hex(v)] for k, v in r.tx_bytes.items()],
            "rx_bytes": [[k, _hex(v)] for k, v in r.rx_bytes.items()]}


def report_answer(family, kind):
    cluster = CLUSTERS[kind]()
    n = cluster.num_devices
    rng = np.random.default_rng((20, 3, sorted(FAMILIES).index(family),
                                 sorted(CLUSTERS).index(kind)))
    rows = []
    for graph in FAMILIES[family]():
        plans = candidate_plans(graph, cluster)
        plans += [_mixed_plan(graph, n, rng) for _ in range(4)]
        rows += [_report_row(graph, plan, cluster) for plan in plans]
    return rows


# -- (b) decode and evaluate_actions -----------------------------------------

ENVS = {
    "mbv3x3": (MBV3_SPACE, 3),
    "tinyx2": (TINY, 2),
}


def env_answer(which, slo_kind):
    space, num_devices = ENVS[which]
    env = MurmurationEnv(space, _devices(num_devices),
                         EnvConfig(slo_kind=slo_kind))
    rng = np.random.default_rng((20, 4, sorted(ENVS).index(which),
                                 int(slo_kind == "accuracy")))
    choices = np.asarray([s.n_choices for s in env.schedule])
    rows = []
    for _ in range(300):
        actions = [int(a) for a in rng.integers(0, choices)]
        task = env.sample_task(rng)
        arch, plan = env.decode(actions)
        out = env.evaluate_actions(actions, task)
        rows.append({
            "decode": [_arch_rows(arch), _plan_rows(plan)],
            "outcome": [_arch_rows(out.arch), _plan_rows(out.plan),
                        _hex(out.latency_s), _hex(out.accuracy),
                        _hex(out.reward), bool(out.satisfied)]})
    return rows


# -- (c) arch_accuracy and build_graph ---------------------------------------

SPACES = {"mbv3": MBV3_SPACE, "tiny": TINY}
_BLOCK_FIELDS = [f.name for f in fields(ComputeBlock)]


def _graph_rows(graph):
    blocks = [{name: _hex(v) if isinstance(v, float) else repr(v)
               for name, v in zip(_BLOCK_FIELDS, astuple(block))}
              for block in graph]
    return {"name": graph.name, "accuracy": _hex(graph.accuracy),
            "input": [list(graph.input_hw), graph.input_ch],
            "blocks": blocks}


def graphs_answer(which, n=500):
    space = SPACES[which]
    rng = np.random.default_rng((20, 5, sorted(SPACES).index(which)))
    archs = [min_arch(space), max_arch(space)]
    archs += [random_arch(space, rng) for _ in range(n)]
    return [[_arch_rows(a), _hex(arch_accuracy(a, space)),
             _graph_rows(build_graph(a, space))] for a in archs]


# -- (d) candidate_plans -----------------------------------------------------

class _Shape:
    def __init__(self, num_devices):
        self.num_devices = num_devices


def plans_answer(num_devices):
    rng = np.random.default_rng((20, 6))
    graphs = [build_graph(a, MBV3_SPACE) for a in
              [min_arch(MBV3_SPACE), max_arch(MBV3_SPACE)]
              + [random_arch(MBV3_SPACE, rng) for _ in range(3)]]
    graphs += [vit_small_16(), get_model("resnet50")]
    return [[g, _plan_rows(plan)] for g, graph in enumerate(graphs)
            for plan in candidate_plans(graph, _Shape(num_devices))]


CASES = {}
for _family in FAMILIES:
    for _kind in CLUSTERS:
        CASES[f"report/{_family}/{_kind}"] = (report_answer, _family, _kind)
for _which in ENVS:
    for _slo_kind in ("latency", "accuracy"):
        CASES[f"env/{_which}/{_slo_kind}"] = (env_answer, _which, _slo_kind)
for _which in SPACES:
    CASES[f"graphs/{_which}"] = (graphs_answer, _which)
for _n in range(2, 10):
    CASES[f"plans/{_n}"] = (plans_answer, _n)


@functools.lru_cache(maxsize=None)
def play(key):
    fn, *args = CASES[key]
    return fn(*args)


def fixture_content():
    # the row count beside each digest says *what* moved
    return {key: {"digest": digest(play(key)), "count": len(play(key))}
            for key in CASES}


@pytest.mark.parametrize("key", list(CASES))
def test_a_fresh_strategy_costs_what_it_cost_when_frozen(moved, key):
    assert key not in moved("strategy_price_digests")


def test_the_cases_reach_the_branches_they_name():
    """The fixture would pin little if no plan tiled, gathered, synced,
    crossed the faulted link or answered away from device 0."""
    vit = play("report/vit_small_16/star5")
    local = vit[0]["num_transfers"]
    assert sum(r["num_transfers"] > local + 4 for r in vit) >= 4
    ring = play("report/resnet50/ring4_faulted")
    assert all(isinstance(r, dict) for r in ring)      # rerouted, not lost
    scaled = play("report/resnet50/star3_scaled")
    plain = CLUSTERS["star3_scaled"]()
    plain.compute_scale = {}
    graph = get_model("resnet50")
    first = candidate_plans(graph, plain)[0]
    assert scaled[0]["total_s"] \
        != _hex(simulate_latency(graph, first, plain).total_s)
    rng = np.random.default_rng(0)
    assert {_mixed_plan(graph, 3, rng).output_device
            for _ in range(12)} == {0, 1, 2}
    for which in ENVS:
        rows = play(f"env/{which}/latency")
        assert any(r["outcome"][5] for r in rows)
        assert not all(r["outcome"][5] for r in rows)
        grids = {(b[0], b[1]) for r in rows
                 for b in r["decode"][1]["blocks"]}
        assert {(1, 1), (1, 2), (2, 2)} <= grids

