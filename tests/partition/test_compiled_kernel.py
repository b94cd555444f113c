"""The compiled pricing kernel against its oracle, ``simulate_latency``.

``price(compile_plan(g, p, devices), cluster)`` must equal
``simulate_latency(g, p, cluster).total_s`` with ``==`` — not
approximately — and the program's structural ``num_transfers`` must
equal the report's, on every graph family, plan shape and cluster kind
the repository has.  Seeded cases pin each branch of the walk by name;
a ``hypothesis`` strategy over (graph, per-block grid / devices / bits,
condition) extends them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.faults.resilience import NoRouteError
from repro.models import get_model
from repro.models.vit import vit_small_16
from repro.nas.arch import max_arch, min_arch, random_arch
from repro.nas.evolution import candidate_plans
from repro.nas.graph_builder import build_graph
from repro.nas.search_space import MBV3_SPACE
from repro.netsim import NetworkCondition, ring_topology, star_topology
from repro.partition import (BlockPlan, ExecutionPlan, Grid,
                             simulate_latency, single_device_plan)
from repro.partition.compiled import compile_plan, price

GRIDS = (Grid(1, 1), Grid(1, 2), Grid(2, 2), Grid(2, 3))


def devices(n):
    kinds = (rpi4, desktop_gtx1080, jetson_class)
    return [kinds[i % 3]() for i in range(n)]


def star(n, seed=0):
    rng = np.random.default_rng(seed)
    return star_topology(devices(n), NetworkCondition(
        tuple(float(b) for b in rng.uniform(5.0, 400.0, n - 1)),
        tuple(float(d) for d in rng.uniform(0.0, 60.0, n - 1))))


def mbv3_graphs():
    rng = np.random.default_rng(5)
    archs = [min_arch(MBV3_SPACE), max_arch(MBV3_SPACE)]
    archs += [random_arch(MBV3_SPACE, rng) for _ in range(3)]
    return [build_graph(a, MBV3_SPACE) for a in archs]


def assert_identical(graph, plan, cluster):
    """Kernel == oracle, or both raise the same typed error."""
    try:
        report = simulate_latency(graph, plan, cluster)
    except NoRouteError as exc:
        with pytest.raises(NoRouteError) as caught:
            price(compile_plan(graph, plan, cluster.devices), cluster)
        assert (caught.value.src, caught.value.dst) == (exc.src, exc.dst)
        return None
    program = compile_plan(graph, plan, cluster.devices)
    assert price(program, cluster) == report.total_s
    assert program.num_transfers == report.num_transfers
    return report


def mixed_plan(graph, grids, n, rng, output_device=0):
    """Partitionable blocks cycle through ``grids`` on random devices:
    consecutive blocks on different grids force the gather branch."""
    plans, turn = [], 0
    for block in graph:
        grid = Grid(1, 1)
        if block.partitionable and not block.fused:
            grid = grids[turn % len(grids)]
            turn += 1
        plans.append(BlockPlan(
            grid, tuple(int(d) for d in rng.integers(0, n, grid.ntiles)),
            bits=int(rng.choice([8, 16, 32]))))
    return ExecutionPlan(plans, output_device=output_device)


# -- seeded: every candidate template on every graph family ------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
def test_every_mbv3_candidate_plan_prices_identically(n):
    cluster = star(n, seed=n)
    for graph in mbv3_graphs():
        for plan in candidate_plans(graph, cluster):
            assert_identical(graph, plan, cluster)


@pytest.mark.parametrize("name", ["resnet50", "inception_v3"])
def test_fixed_models_price_identically(name):
    graph = get_model(name)
    for n in (2, 5):
        cluster = star(n, seed=3)
        for plan in candidate_plans(graph, cluster):
            assert_identical(graph, plan, cluster)


def test_vit_reaches_the_kv_sync_branch():
    """Only ViT graphs have ``sync_elements > 0``; a tiled attention
    block must add one peer transfer per other device."""
    graph = vit_small_16()
    assert any(b.sync_elements > 0 for b in graph)
    cluster = star(5, seed=1)
    local = simulate_latency(graph, single_device_plan(graph), cluster)
    synced = 0
    for plan in candidate_plans(graph, cluster):
        report = assert_identical(graph, plan, cluster)
        if any(bp.grid.ntiles > 1 for bp in plan):
            synced += report.num_transfers > local.num_transfers + 4
    assert synced >= 4


# -- seeded: hand-built shapes no template produces --------------------------

@pytest.mark.parametrize("graph", [build_graph(max_arch(MBV3_SPACE),
                                               MBV3_SPACE),
                                   vit_small_16()],
                         ids=["mbv3", "vit"])
@pytest.mark.parametrize("output_device", [0, 2])
def test_alternating_grids_force_the_gather_branch(graph, output_device):
    """1x2 <-> 2x2 alternation repartitions at every block; on ViT the
    K/V sync then waits on the tile's own arrival (no previous tile of
    the same index exists)."""
    rng = np.random.default_rng(11)
    for grids in ((Grid(1, 2), Grid(2, 2)), (Grid(2, 2), Grid(1, 1)),
                  (Grid(2, 3), Grid(1, 2), Grid(2, 2))):
        for seed in range(3):
            cluster = star(4, seed=seed)
            plan = mixed_plan(graph, grids, 4, rng, output_device)
            assert_identical(graph, plan, cluster)


def test_a_program_rejects_a_cluster_of_another_size():
    graph = build_graph(min_arch(MBV3_SPACE), MBV3_SPACE)
    program = compile_plan(graph, single_device_plan(graph), devices(3))
    with pytest.raises(ValueError, match="3 devices"):
        price(program, star(4))


def test_compile_validates_the_plan_once_there():
    graph = build_graph(min_arch(MBV3_SPACE), MBV3_SPACE)
    with pytest.raises(ValueError, match="references device"):
        compile_plan(graph, single_device_plan(graph, device=3), devices(3))


# -- seeded: a ring mesh under fault overlays --------------------------------

OVERLAYS = [
    {},
    {"down": [(0, 1)]},
    {"degraded": {(0, 1): (0.25, 15.0), (2, 3): (0.5, 0.0)}},
    {"down": [(1, 2)], "degraded": {(0, 3): (0.1, 40.0)}},
    {"down": [(0, 1), (2, 3)]},     # 0-3 and 1-2 survive: two islands
]


@pytest.mark.parametrize("reroute", [True, False])
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_ring_mesh_under_faults_prices_identically(overlay, reroute):
    graph = build_graph(max_arch(MBV3_SPACE), MBV3_SPACE)
    mesh = ring_topology(devices(4), 150.0, 10.0, reroute=reroute)
    mesh.apply_link_faults(**overlay)
    raised = 0
    for plan in candidate_plans(graph, mesh):
        raised += assert_identical(graph, plan, mesh) is None
    if overlay.get("down") and (not reroute or len(overlay["down"]) > 1):
        assert raised, "no plan crossed the severed link"
    elif not overlay.get("down"):
        assert not raised


def test_one_program_follows_the_mesh_through_overlays():
    """Compiled once, priced under every overlay in turn: nothing of a
    route is baked into the program."""
    graph = vit_small_16()
    mesh = ring_topology(devices(4), 150.0, 10.0)
    rng = np.random.default_rng(4)
    plan = mixed_plan(graph, (Grid(2, 2), Grid(1, 2)), 4, rng)
    program = compile_plan(graph, plan, mesh.devices)
    for overlay in OVERLAYS[:4] + [{}]:
        mesh.apply_link_faults(**overlay)
        assert price(program, mesh) \
            == simulate_latency(graph, plan, mesh).total_s


# -- fuzzed ------------------------------------------------------------------

FUZZ_GRAPHS = mbv3_graphs() + [vit_small_16(), get_model("resnet50")]


@st.composite
def priced_cases(draw):
    graph = draw(st.sampled_from(FUZZ_GRAPHS))
    n = draw(st.integers(2, 6))
    plans = []
    for block in graph:
        grid = Grid(1, 1)
        if block.partitionable and not block.fused:
            grid = draw(st.sampled_from(GRIDS))
        plans.append(BlockPlan(
            grid,
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=grid.ntiles,
                                max_size=grid.ntiles))),
            bits=draw(st.sampled_from([8, 16, 32]))))
    plan = ExecutionPlan(plans, output_device=draw(st.integers(0, n - 1)))
    condition = NetworkCondition(
        tuple(draw(st.lists(st.floats(0.05, 2000.0), min_size=n - 1,
                            max_size=n - 1))),
        tuple(draw(st.lists(st.floats(0.0, 500.0), min_size=n - 1,
                            max_size=n - 1))))
    return graph, plan, n, condition


@settings(max_examples=150, deadline=None)
@given(priced_cases())
def test_fuzzed_plans_price_identically_on_a_star(case):
    graph, plan, n, condition = case
    assert_identical(graph, plan, star_topology(devices(n), condition))


@settings(max_examples=60, deadline=None)
@given(priced_cases(), st.booleans(),
       st.sets(st.integers(0, 5), max_size=2),
       st.dictionaries(st.integers(0, 5),
                       st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 80.0)),
                       max_size=3))
def test_fuzzed_plans_price_identically_on_a_faulted_ring(
        case, reroute, down, degraded):
    graph, plan, n, _ = case
    if n < 3:
        n = 3
    mesh = ring_topology(devices(n), 120.0, 8.0, reroute=reroute)

    def edge(i):
        return (i % n, (i + 1) % n)

    mesh.apply_link_faults(down=[edge(i) for i in down],
                           degraded={edge(i): v for i, v in degraded.items()})
    assert_identical(graph, plan, mesh)
