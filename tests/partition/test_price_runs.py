"""Chain-fused price programs against the per-tile interpreter.

``compile_plan`` lowers a program's tiles into entries: one tile with
its arrival steps, or a run of tiles that each start when the tile
before them ends on the same device, priced as one left fold over their
compute times.  Three walkers must agree with ``==``: the live ``price``,
the interpreter it replaced (``reference_price.py``) and
``simulate_latency``.  The lowering itself is held to two laws: a plan
on one device is at most two entries, and every ``ready`` slot any
entry or the tail reads is one an entry writes.  Real plans never read
a chained slot twice or hop devices without a transfer, so synthetic
programs fuzz the lowering's guards against the interpreter too.

``PRICE_KERNEL_N`` sets the fuzzers' example count; CI multiplies it
by ten.
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.resilience import NoRouteError
from repro.models import get_model
from repro.netsim import NetworkCondition, ring_topology, star_topology
from repro.partition import simulate_latency, single_device_plan
from repro.partition.compiled import (_MAX_READY, _MAX_SELF, _MAX_SENT,
                                      _READY, _SENT, PlanProgram, _lower,
                                      compile_plan, price)
from tests.partition.reference_price import reference_price
from tests.partition.test_compiled_kernel import (FUZZ_GRAPHS, devices,
                                                  priced_cases, star)

KERNEL_N = int(os.environ.get("PRICE_KERNEL_N", "100"))


def assert_three_agree(graph, plan, cluster):
    """price == reference_price == simulate_latency, or all three raise."""
    program = compile_plan(graph, plan, cluster.devices)
    try:
        expected = simulate_latency(graph, plan, cluster).total_s
    except NoRouteError:
        for walker in (price, reference_price):
            try:
                walker(program, cluster)
            except NoRouteError:
                continue
            raise AssertionError(f"{walker.__name__} priced a severed route")
        return
    assert reference_price(program, cluster) == expected
    assert price(program, cluster) == expected


@settings(max_examples=KERNEL_N, deadline=None)
@given(priced_cases())
def test_fused_price_equals_the_interpreter_on_a_star(case):
    graph, plan, n, condition = case
    assert_three_agree(graph, plan, star_topology(devices(n), condition))


@settings(max_examples=max(KERNEL_N // 2, 1), deadline=None)
@given(priced_cases(), st.booleans(),
       st.sets(st.integers(0, 5), max_size=2),
       st.dictionaries(st.integers(0, 5),
                       st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 80.0)),
                       max_size=3))
def test_fused_price_equals_the_interpreter_on_a_faulted_ring(
        case, reroute, down, degraded):
    graph, plan, n, _ = case
    n = max(n, 3)
    mesh = ring_topology(devices(n), 120.0, 8.0, reroute=reroute)

    def edge(i):
        return (i % n, (i + 1) % n)

    mesh.apply_link_faults(down=[edge(i) for i in down],
                           degraded={edge(i): v for i, v in degraded.items()})
    assert_three_agree(graph, plan, mesh)


def _condition(n, seed):
    rng = np.random.default_rng(seed)
    return NetworkCondition(
        tuple(float(b) for b in rng.uniform(5.0, 400.0, n - 1)),
        tuple(float(d) for d in rng.uniform(0.0, 60.0, n - 1)))


def test_a_single_device_plan_is_at_most_two_entries():
    """Local: one run from the input.  Remote: the upload, then one run."""
    for graph in FUZZ_GRAPHS + [get_model("inception_v3")]:
        for device in range(3):
            program = compile_plan(
                graph, single_device_plan(graph, device=device), devices(3))
            assert len(program.entries) <= 2
            assert not program.entries[-1][1], "the chain was not fused"
            cluster = star_topology(devices(3), _condition(3, seed=device))
            assert price(program, cluster) \
                == reference_price(program, cluster)


def assert_lowered(program):
    """The entries cover the tiles in order; a run holds only tiles that
    wait on the tile just before them, on its device, and skips only
    ``ready`` slots nothing else reads."""
    tiles = program.tiles
    covered = [g for _, _, lo, hi in program.entries for g in range(lo, hi)]
    assert covered == list(range(len(tiles)))
    written = {0}
    reads = [k for k, _, _ in program.tail]
    for dst, steps, lo, hi in program.entries:
        if steps:
            assert hi == lo + 1 and tiles[lo] == (dst, steps)
            reads += [k for _, k, _ in steps if k >= 0]
        else:
            reads.append(lo)
            for g in range(lo, hi):
                assert tiles[g] == (dst, ((_READY, g, -1),))
                assert g == 0 or tiles[g - 1][0] == dst
        written.add(hi)
    assert set(reads) <= written
    for _, steps, lo, hi in program.entries:
        if not steps:
            inner = set(range(lo + 1, hi))
            assert inner.isdisjoint(
                k for g, (_, tsteps) in enumerate(tiles)
                if not lo <= g < hi for _, k, _ in tsteps)
            assert inner.isdisjoint(k for k, _, _ in program.tail)


@settings(max_examples=KERNEL_N, deadline=None)
@given(priced_cases())
def test_lowering_keeps_every_read_slot_and_fuses_only_chains(case):
    graph, plan, n, _ = case
    assert_lowered(compile_plan(graph, plan, devices(n)))


# -- synthetic programs: tile shapes no plan produces -----------------------

TRANSFERS = ((0, 1, 4e4), (1, 0, 2e3), (1, 2, 5e5), (2, 1, 1e3))


@st.composite
def synthetic_programs(draw):
    """Random tiles that often chain, hop devices without a transfer and
    read a chained slot twice: the cases a run must not fuse."""
    n = draw(st.integers(3, 4))
    tiles, dst = [], 0
    for g in range(draw(st.integers(1, 10))):
        dst = draw(st.one_of(st.just(dst), st.integers(0, n - 1)))
        if draw(st.booleans()):
            steps = ((_READY, g, -1),)
        else:
            steps = tuple(draw(st.lists(st.one_of(
                st.tuples(st.sampled_from([_READY, _MAX_READY]),
                          st.integers(0, g), st.just(-1)),
                st.tuples(st.sampled_from([_SENT, _MAX_SENT]),
                          st.integers(0, g),
                          st.integers(0, len(TRANSFERS) - 1)),
                st.tuples(st.just(_MAX_SELF), st.just(-1),
                          st.integers(0, len(TRANSFERS) - 1))),
                min_size=1, max_size=3)))
        tiles.append((dst, steps))
    tail = tuple(draw(st.lists(st.tuples(
        st.integers(0, len(tiles)), st.integers(-1, len(TRANSFERS) - 1),
        st.integers(-1, n - 1).filter(lambda d: d != 0)),
        min_size=1, max_size=3)))
    compute = tuple(draw(st.lists(st.floats(0.0, 5.0), min_size=len(tiles),
                                  max_size=len(tiles))))
    tiles = tuple(tiles)
    program = PlanProgram(n, TRANSFERS, tiles, _lower(tiles, tail), compute,
                          tail, 0)
    return program, draw(st.integers(0, 2**16))


@settings(max_examples=KERNEL_N * 2, deadline=None)
@given(synthetic_programs())
def test_synthetic_programs_lower_and_price_as_the_interpreter(case):
    program, seed = case
    assert_lowered(program)
    cluster = star(program.num_devices, seed=seed)
    assert price(program, cluster) == reference_price(program, cluster)
