"""``simulate_latency`` against its own frozen oracle.

``tests/partition/reference_simulate.py`` is the walker as it stood
before it moved to flat lists.  Everything here prices the same
``(graph, plan, cluster)`` triple with it and with the live
:func:`repro.partition.simulate.simulate_latency` and requires ``==`` —
never ``approx`` — on **every** :class:`LatencyReport` field, dict key
order included (``busiest_device`` breaks ties by it): every candidate
template on stars of 2–9 devices, the hand-built gather / K-V-sync
shapes, a ring mesh under fault overlays, and the ``hypothesis``
strategy ``test_compiled_kernel.py`` fuzzes the compiled kernel with
(``priced_cases``), on a star and on a faulted ring.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.resilience import NoRouteError
from repro.models import get_model
from repro.models.vit import vit_small_16
from repro.nas.arch import max_arch
from repro.nas.evolution import candidate_plans
from repro.nas.graph_builder import build_graph
from repro.nas.search_space import MBV3_SPACE
from repro.netsim import Cluster, ring_topology
from repro.partition import Grid, simulate_latency
from repro.partition.simulate import LatencyReport
from tests.partition import reference_simulate
from tests.partition.test_compiled_kernel import (OVERLAYS, devices,
                                                  mbv3_graphs, mixed_plan,
                                                  priced_cases, star)

FIELDS = [f.name for f in fields(LatencyReport)]


def test_the_oracle_reports_the_same_fields():
    assert FIELDS == [f.name for f in
                      fields(reference_simulate.LatencyReport)]
    assert {"total_s", "compute_s", "comm_s", "comm_bytes", "num_transfers",
            "per_block_done", "tx_bytes", "rx_bytes"} == set(FIELDS)


def assert_same_report(graph, plan, cluster):
    """Live == oracle on every field, or both raise the same error."""
    try:
        want = reference_simulate.simulate_latency(graph, plan, cluster)
    except NoRouteError as exc:
        with pytest.raises(NoRouteError) as caught:
            simulate_latency(graph, plan, cluster)
        assert (caught.value.src, caught.value.dst) == (exc.src, exc.dst)
        return None
    got = simulate_latency(graph, plan, cluster)
    assert isinstance(got, LatencyReport)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        assert a == b, name
        if isinstance(a, dict):
            assert list(a) == list(b), name
    assert got.total_ms == want.total_ms
    assert got.busiest_device == want.busiest_device
    return got


# -- seeded ------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_every_candidate_plan_reports_identically(n):
    cluster = star(n, seed=n, scale={0: 1.5, n - 1: 0.75} if n == 5 else None)
    graphs = mbv3_graphs() + [vit_small_16(), get_model("resnet50")]
    for graph in graphs:
        for plan in candidate_plans(graph, cluster):
            assert_same_report(graph, plan, cluster)


@pytest.mark.parametrize("graph", [build_graph(max_arch(MBV3_SPACE),
                                               MBV3_SPACE),
                                   vit_small_16()],
                         ids=["mbv3", "vit"])
@pytest.mark.parametrize("output_device", [0, 2])
def test_gather_and_sync_branches_report_identically(graph, output_device):
    rng = np.random.default_rng(23)
    moved = 0
    for grids in ((Grid(1, 2), Grid(2, 2)), (Grid(2, 2), Grid(1, 1)),
                  (Grid(2, 3), Grid(1, 2), Grid(2, 2))):
        for seed in range(3):
            cluster = star(4, seed=seed)
            plan = mixed_plan(graph, grids, 4, rng, output_device)
            report = assert_same_report(graph, plan, cluster)
            moved += report.num_transfers > 0 and report.comm_s > 0
    assert moved == 9


@pytest.mark.parametrize("reroute", [True, False])
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_ring_mesh_under_faults_reports_identically(overlay, reroute):
    graph = build_graph(max_arch(MBV3_SPACE), MBV3_SPACE)
    mesh = ring_topology(devices(4), 150.0, 10.0, reroute=reroute)
    mesh.apply_link_faults(**overlay)
    mesh.compute_scale = {1: 3.0}
    for plan in candidate_plans(graph, mesh):
        assert_same_report(graph, plan, mesh)


# -- fuzzed ------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(priced_cases())
def test_fuzzed_plans_report_identically_on_a_star(case):
    graph, plan, n, condition, scale = case
    cluster = Cluster(devices(n), condition)
    cluster.compute_scale = scale
    assert_same_report(graph, plan, cluster)


@settings(max_examples=60, deadline=None)
@given(priced_cases(), st.booleans(),
       st.sets(st.integers(0, 5), max_size=2),
       st.dictionaries(st.integers(0, 5),
                       st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 80.0)),
                       max_size=3))
def test_fuzzed_plans_report_identically_on_a_faulted_ring(
        case, reroute, down, degraded):
    graph, plan, n, _, scale = case
    if n < 3:
        n = 3
    mesh = ring_topology(devices(n), 120.0, 8.0, reroute=reroute)

    def edge(i):
        return (i % n, (i + 1) % n)

    mesh.apply_link_faults(down=[edge(i) for i in down],
                           degraded={edge(i): v for i, v in degraded.items()})
    mesh.compute_scale = scale
    assert_same_report(graph, plan, mesh)
