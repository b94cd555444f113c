"""The plan cost model and the decision search built on it.

``decide`` must answer exactly what the brute-force loop in
``reference_decide.py`` answers — same arch, same plan, same floats —
for both SLO kinds, including the ties its rule breaks, over seeded and
lattice arch sets; and the model's memos must do what DESIGN.md says of them:
build once, compile on first pricing, stay bounded, keep plans alive.
"""

import gc
import os
import weakref
from dataclasses import replace

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cost_model as cost_model
from repro.core import (SLO, Murmuration, SearchDecisionEngine, Strategy,
                        StrategyCache)
from repro.core.cost_model import PlanCostModel
from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.faults import (DeviceCrash, FaultInjector, FaultSchedule,
                          LinkDegradation, LinkFailure, LinkFlap)
from repro.faults.resilience import NoRouteError
from repro.nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from repro.nas.arch import (ArchConfig, lattice_archs, max_arch, min_arch,
                            random_arch)
from repro.nas.search_space import MBV3_SPACE
from repro.netsim import NetworkCondition, ring_topology, star_topology
from repro.partition import simulate_latency, single_device_plan, spatial_plan
from repro.partition.compiled import compile_plan, price
from repro.partition.spatial import Grid
from repro.rl import EnvConfig, MurmurationEnv
from tests.core.reference_decide import (reference_scan,
                                         reference_search_decide)
from tests.partition.test_compiled_kernel import priced_cases, star

NAN = float("nan")
KERNEL_N = int(os.environ.get("PRICE_KERNEL_N", "100"))


def devices(n):
    kinds = (rpi4, desktop_gtx1080, jetson_class)
    return [kinds[i % 3]() for i in range(n)]


def conditions(n, count=3):
    rng = np.random.default_rng(40 + n)
    return [NetworkCondition(
        tuple(float(b) for b in rng.uniform(5.0, 400.0, n - 1)),
        tuple(float(d) for d in rng.uniform(2.0, 60.0, n - 1)))
        for _ in range(count)]


def shadow(arch):
    """A distinct ArchConfig with the same graph and the same accuracy:
    only a slot beyond a stage's chosen depth differs."""
    stage = next(s for s, d in enumerate(arch.depths)
                 if d < MBV3_SPACE.max_depth)
    slot = arch.slot(MBV3_SPACE, stage, MBV3_SPACE.max_depth - 1)
    kernels = list(arch.kernels)
    kernels[slot] = next(k for k in MBV3_SPACE.kernel_options
                         if k != kernels[slot])
    twin = replace(arch, kernels=tuple(kernels))
    assert twin != arch
    return twin


def fields(strategy):
    if strategy is None:
        return None
    return (strategy.arch,
            [(bp.grid, bp.devices, bp.bits) for bp in strategy.plan],
            strategy.plan.output_device,
            float(strategy.expected_latency_s).hex(),
            float(strategy.expected_accuracy).hex())


def slo_grid(engine, cluster):
    """SLO values that land on, between and beyond the candidates."""
    lats, accs = [], []
    for c in engine._costs.scan(engine.archs):
        lats.append(engine._costs.latency(c.arch, c.plan, cluster))
        accs.append(c.accuracy)
    lats.sort()
    accs.sort()
    picks = [0, len(lats) // 4, len(lats) // 2, -1]
    return ([SLO.latency(lats[i]) for i in picks]
            + [SLO.latency(lats[0] / 2), SLO.latency(lats[-1] * 2),
               SLO.latency(float(np.nextafter(lats[len(lats) // 2], 0.0)))]
            + [SLO.accuracy(accs[i]) for i in picks]
            + [SLO.accuracy(1.0), SLO.accuracy(99.9),
               SLO.accuracy(float(np.nextafter(accs[len(accs) // 2], 100.0)))])


# -- decide == the brute-force loop ------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5])
def test_search_engine_answers_what_the_brute_force_loop_answers(n):
    seeded = SearchDecisionEngine(MBV3_SPACE, devices(n), n_random_archs=3,
                                  seed=n)
    # equal accuracy *and* equal latency under two distinct archs, and one
    # arch listed twice: only first-enumerated-wins separates them
    seeded.archs = ([shadow(seeded.archs[0])] + seeded.archs
                    + [seeded.archs[1]])
    # a slice of the arch set the figures decide over, with a shadow twin
    archs = lattice_archs(MBV3_SPACE)[n::23]
    lattice = SearchDecisionEngine(MBV3_SPACE, devices(n),
                                   archs=[shadow(archs[0])] + archs)
    for engine in (seeded, lattice):
        for cond in conditions(n):
            cluster = star_topology(engine.devices, cond)
            for slo in slo_grid(engine, cluster):
                assert fields(engine.decide(slo, cond).strategy) \
                    == fields(reference_search_decide(engine, slo, cond)), slo


def test_a_latency_tie_goes_to_the_first_enumerated_not_the_fastest():
    """Among equally accurate feasible plans the engine keeps the first
    enumerated, and on this world a strictly faster one exists: without
    such a tie the tie cases above would prove nothing."""
    devs, cond = devices(3), NetworkCondition((300.0, 200.0), (5.0, 8.0))
    engine = SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=0)
    slo = SLO.latency(5.0)
    first = engine.decide(slo, cond).strategy
    costs, cluster = engine._costs, star_topology(devs, cond)
    group = [Strategy(c.arch, c.plan, costs.latency(c.arch, c.plan, cluster),
                      c.accuracy) for c in costs.scan(engine.archs)
             if c.accuracy == first.expected_accuracy]
    assert all(s.expected_latency_s <= slo.value for s in group)
    assert fields(first) == fields(group[0])
    assert min(s.expected_latency_s for s in group) \
        < first.expected_latency_s


def test_a_nan_link_is_an_error_not_the_best_strategy():
    """Regression: NaN passed ``Link``'s ``<= 0`` check, priced every
    transfer at NaN and ``max(done, nan)`` kept ``done`` — the max
    submodel on devices (0, 1) "ran" in 0.0 s and won every SLO."""
    engine = SearchDecisionEngine(
        MBV3_SPACE, [rpi4(), desktop_gtx1080(), jetson_class()],
        n_random_archs=2)
    for cond in (NetworkCondition((NAN, 100.0), (5.0, 5.0)),
                 NetworkCondition((100.0, 100.0), (5.0, NAN))):
        with pytest.raises(ValueError):
            engine.decide(SLO.latency_ms(300), cond)
        with pytest.raises(ValueError):
            SearchDecisionEngine(MBV3_SPACE, engine.devices,
                                 archs=lattice_archs(MBV3_SPACE)).decide(
                                     SLO.accuracy(70.0), cond)


def test_an_empty_arch_set_is_rejected_when_built():
    """Without the check every ``decide`` answers None, and a figure
    prints every cell as a miss."""
    with pytest.raises(ValueError, match="at least one arch"):
        SearchDecisionEngine(MBV3_SPACE, devices(2), archs=[])


# -- the model's memos ---------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Call counts of what the model is there to not repeat."""
    calls = {"build_graph": 0, "candidate_plans": 0, "compile_plan": 0}

    def counting(name):
        real = getattr(cost_model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cost_model, name, wrapper)

    for name in calls:
        counting(name)
    return calls


def test_a_miss_compiles_only_what_it_prices(counted):
    engine = SearchDecisionEngine(MBV3_SPACE, devices(3), n_random_archs=4)
    assert counted == {"build_graph": 0, "candidate_plans": 0,
                       "compile_plan": 0}, "constructors stay free"
    for cond in conditions(3, count=6):
        assert engine.decide(SLO.latency_ms(300), cond).strategy is not None
    total = len(tuple(engine._costs.scan(engine.archs)))
    assert counted["build_graph"] == counted["candidate_plans"] == 6
    assert 0 < counted["compile_plan"] < total // 4
    # an accuracy floor of 1 % prices everything, once
    for cond in conditions(3, count=2):
        engine.decide(SLO.accuracy(1.0), cond)
    assert counted["compile_plan"] == total
    assert counted["build_graph"] == counted["candidate_plans"] == 6


def test_scan_is_descending_and_stable():
    model = PlanCostModel(MBV3_SPACE, devices(4))
    archs = [min_arch(MBV3_SPACE), max_arch(MBV3_SPACE)]
    lazy = model.scan(archs)
    scan = tuple(lazy)
    assert [c.accuracy for c in scan] \
        == sorted((c.accuracy for c in scan), reverse=True)
    for a, b in zip(scan, scan[1:]):
        if a.accuracy == b.accuracy:
            assert a.order < b.order
    assert sorted(c.order for c in scan) == list(range(len(scan)))
    assert model.scan(list(archs)) is lazy, "same archs, same scan"
    assert model.scan(archs[:1]) is not lazy


# -- the best-first scan == the eager stable sort ------------------------------

@st.composite
def arch_lists(draw):
    """Random archs, some with a shadow twin that ties on accuracy, some
    listed more than once."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = [random_arch(MBV3_SPACE, rng)
            for _ in range(draw(st.integers(1, 5)))]
    pool += [shadow(a) for a in pool
             if min(a.depths) < MBV3_SPACE.max_depth and draw(st.booleans())]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), arch_lists(), st.integers(0, 400))
def test_the_lazy_scan_is_the_eager_stable_sort(n, archs, depth):
    model = PlanCostModel(MBV3_SPACE, devices(n))
    walked = list(islice(model.scan(archs), depth))
    # the bound is tight (a template of penalty 0.0), so an arch is
    # enumerated exactly when the walk yields its first candidate
    assert set(model._candidates) == {c.arch for c in walked}
    eager = reference_scan(model, archs)
    lazy = tuple(model.scan(archs))
    assert walked == list(lazy[:depth]), "the prefix is replayed"
    assert len(lazy) == len(eager)
    for a, b in zip(lazy, eager):
        assert a.arch is b.arch and a.plan is b.plan
        assert (a.order, a.accuracy.hex()) == (b.order, b.accuracy.hex())


def test_an_unopened_arch_wins_a_tie_with_a_later_arch_plan():
    """Arch 0's bound equals the accuracy of a penalised plan of arch 1:
    the stable sort puts arch 0's first plan before it, so the merge must
    open arch 0 on a tie, not only on a strictly higher bound."""
    model = PlanCostModel(MBV3_SPACE, devices(3))
    low, high = min_arch(MBV3_SPACE), max_arch(MBV3_SPACE)
    model._bounds[high] = 80.0
    tied = 80.0 - max(plan_accuracy_penalty(p)
                      for p, _ in model.candidates(high))
    model._bounds[low] = tied
    scan = tuple(model.scan([low, high]))
    assert scan[0].arch is high and scan[0].accuracy == 80.0
    first_tied = next(c for c in scan if c.accuracy == tied)
    assert first_tied.arch is low and first_tied.order == 0
    assert scan == reference_scan(model, [low, high])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_no_template_beats_its_bound_and_the_first_meets_it(n, seed):
    model = PlanCostModel(MBV3_SPACE, devices(n))
    arch = random_arch(MBV3_SPACE, np.random.default_rng(seed))
    assert model.bound(arch) == arch_accuracy(arch, MBV3_SPACE)
    found = model.candidates(arch)
    assert all(plan_accuracy_penalty(plan) >= 0.0 for plan, _ in found)
    assert all(acc <= model.bound(arch) for _, acc in found)
    first = single_device_plan(model.graph(arch), 0)
    assert plan_accuracy_penalty(first) == 0.0
    assert fields(Strategy(arch, found[0][0], 0.0, 0.0)) \
        == fields(Strategy(arch, first, 0.0, 0.0))
    assert found[0][1] == model.bound(arch)


_ENVS = {}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.data())
def test_a_decoded_plan_has_a_non_negative_penalty(n, data):
    if n not in _ENVS:
        _ENVS[n] = MurmurationEnv(MBV3_SPACE, devices(n),
                                  EnvConfig(slo_kind="latency"))
    env = _ENVS[n]
    actions = [data.draw(st.integers(0, s.n_choices - 1))
               for s in env.schedule]
    _, plan = env.decode(actions)
    assert plan_accuracy_penalty(plan) >= 0.0


def test_a_cold_latency_miss_enumerates_one_arch_not_ten(counted):
    """``drift_miss``'s engine at its nominal condition: the answer is
    the most accurate arch's first plan, and nothing else is built."""
    devs = [rpi4(), desktop_gtx1080(), jetson_class()]
    engine = SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=8, seed=0)
    slo = SLO.latency_ms(300)
    cond = NetworkCondition((150.0, 80.0), (10.0, 20.0))
    assert len(engine.archs) == 10
    answer = engine.decide(slo, cond).strategy
    assert counted["build_graph"] == counted["candidate_plans"] == 1
    assert counted["compile_plan"] <= 2
    assert fields(answer) == fields(reference_search_decide(engine, slo, cond))


def test_an_accuracy_floor_above_every_bound_enumerates_nothing(counted):
    engine = SearchDecisionEngine(MBV3_SPACE, devices(3), n_random_archs=8)
    cond = conditions(3)[0]
    bounds = [engine._costs.bound(a) for a in engine.archs]
    top = max(bounds)
    above = float(np.nextafter(top, 100.0))
    assert engine.decide(SLO.accuracy(above), cond).strategy is None
    assert counted == {"build_graph": 0, "candidate_plans": 0,
                       "compile_plan": 0}
    # a floor *at* the best bound is met by that arch's penalty-free plan
    # and enumerates only the archs that reach it
    met = engine.decide(SLO.accuracy(top), cond).strategy
    assert met.expected_accuracy == top
    assert counted["candidate_plans"] == len(set(
        a for a, b in zip(engine.archs, bounds) if b == top))
    assert fields(met) == fields(
        reference_search_decide(engine, SLO.accuracy(top), cond))


def test_programs_are_bounded_by_use_and_keep_their_plan_alive():
    served = 5
    model = PlanCostModel(MBV3_SPACE, devices(3), served=served)
    bound = cost_model._SPARE + served
    arch = min_arch(MBV3_SPACE)
    cluster = star_topology(model.devices, conditions(3)[0])
    plan = single_device_plan(model.graph(arch), device=1)
    expected = simulate_latency(model.graph(arch), plan, cluster)
    assert model.latency(arch, plan, cluster) == expected.total_s
    assert model._entry(arch, plan)[1].num_transfers \
        == expected.num_transfers
    # the memo keys on id(plan): it must own a reference, or a new plan
    # allocated at the freed address would be priced as the old one
    alive = weakref.ref(plan)
    del plan
    gc.collect()
    assert alive() is not None
    # a strategy in service is priced between any two others: however
    # many one-off plans pass through, it is never the one dropped
    live = spatial_plan(model.graph(arch), Grid(1, 2), [1, 2])
    live_program = model._entry(arch, live)[1]
    for _ in range(3 * bound):
        fresh = spatial_plan(model.graph(arch), Grid(1, 2), [1, 2])
        assert model.latency(arch, fresh, cluster) == simulate_latency(
            model.graph(arch), fresh, cluster).total_s
        assert model._entry(arch, live)[1] is live_program
    assert len(model._programs) == bound
    gc.collect()
    assert alive() is None, "the least recently used entry went, plan and all"


def test_the_facade_keeps_a_program_per_cacheable_strategy(counted):
    """An RL engine hands out a fresh plan object per decision, so the
    facade may serve as many distinct plans as its strategy cache holds;
    revisiting them round-robin must not recompile any."""
    devs = devices(3)
    system = Murmuration(
        MBV3_SPACE, devs, NetworkCondition((150.0, 80.0), (10.0, 20.0)),
        SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=0),
        slo=SLO.latency_ms(300), cache=StrategyCache(capacity=100))
    model, arch = system._costs, min_arch(MBV3_SPACE)
    plans = [spatial_plan(model.graph(arch), Grid(1, 2), [1, 2])
             for _ in range(100)]
    for _ in range(3):
        for plan in plans:
            model.latency(arch, plan, system.cluster)
    assert counted["compile_plan"] == len(plans)


def test_single_device_plans_are_one_object_per_target(counted):
    model = PlanCostModel(MBV3_SPACE, devices(3))
    arch = max_arch(MBV3_SPACE)
    cluster = star_topology(model.devices, conditions(3)[0])
    for device in range(3):
        plan = model.single_device(arch, device)
        assert model.single_device(arch, device) is plan
        assert fields(Strategy(arch, plan, 0.0, 0.0)) == fields(Strategy(
            arch, single_device_plan(model.graph(arch), device), 0.0, 0.0))
        for _ in range(3):      # a target met again is a replay
            assert model.latency(arch, plan, cluster) == simulate_latency(
                model.graph(arch), plan, cluster).total_s
    assert model.single_device(arch) is model.single_device(arch, 0)
    assert counted["compile_plan"] == 3 and counted["build_graph"] == 1
    other = [a for a in lattice_archs(MBV3_SPACE) if a != arch]
    for a in other[:4 * cost_model._SPARE]:
        model.single_device(a, 1)
    assert len(model._single) == cost_model._SPARE * 3


def test_graphs_are_bounded(counted):
    model = PlanCostModel(MBV3_SPACE, devices(2))
    archs = lattice_archs(MBV3_SPACE)[:2 * cost_model._SPARE]
    for arch in archs:
        assert model.graph(arch) is model.graph(arch)
    assert len(model._graphs) == cost_model._SPARE
    assert counted["build_graph"] == len(archs)
    # enumerated archs are never dropped: the bound grows with them
    tuple(model.scan(archs))
    assert len(model._graphs) >= len(archs)


def test_no_route_surfaces_from_latency_as_from_the_oracle():
    mesh = ring_topology(devices(4), 150.0, 10.0, reroute=False)
    model = PlanCostModel(MBV3_SPACE, mesh.devices)
    arch = max_arch(MBV3_SPACE)
    plan = spatial_plan(model.graph(arch), Grid(1, 2), [1, 2])
    assert model.latency(arch, plan, mesh) \
        == simulate_latency(model.graph(arch), plan, mesh).total_s
    mesh.apply_link_faults(down=[(1, 2)])
    with pytest.raises(NoRouteError):
        simulate_latency(model.graph(arch), plan, mesh)
    with pytest.raises(NoRouteError):
        model.latency(arch, plan, mesh)
    mesh.apply_link_faults()
    assert model.latency(arch, plan, mesh) \
        == simulate_latency(model.graph(arch), plan, mesh).total_s


# -- the facade prices through its own model ------------------------------------

def test_a_cache_hit_is_a_replay(counted):
    devs = devices(3)
    system = Murmuration(
        MBV3_SPACE, devs, NetworkCondition((150.0, 80.0), (10.0, 20.0)),
        SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=2),
        slo=SLO.latency_ms(300), use_predictor=False, monitor_noise=0.0)
    first = system.infer()
    after_miss = dict(counted)
    records = [system.infer() for _ in range(5)]
    assert all(r.cache_hit for r in records)
    assert counted == after_miss, "a hit builds and compiles nothing"
    graph = system._costs.graph(first.strategy.arch)
    assert {r.latency_s for r in records} == {simulate_latency(
        graph, first.strategy.plan, system.cluster).total_s}


def test_failovers_and_reroutes_reuse_their_single_device_plans(counted):
    """Regression: every failover and every proactive reroute built a
    fresh single-device plan, which the id-keyed program memo could
    never hit — one compile and one dead entry per faulted request."""
    devs = devices(3)
    system = Murmuration(
        MBV3_SPACE, devs, NetworkCondition((150.0, 80.0), (10.0, 20.0)),
        SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=2),
        slo=SLO.latency_ms(300), use_predictor=False, monitor_noise=0.0,
        faults=FaultInjector(FaultSchedule(
            [DeviceCrash(0.0, 1e6, device=1)])))
    records = [system.infer() for _ in range(30)]
    assert sum(r.failovers for r in records) >= 2
    rerouted = [r for r in records if r.strategy.plan.devices_used() == (0, 2)]
    assert len(rerouted) >= 10 and all(r.outcome == "ok" for r in rerouted)
    assert len({id(r.strategy.plan) for r in rerouted}) == 1
    # every one of them was priced, on one program: the facade compiled
    # that and the engine its own candidates, nothing per request
    assert len(system._costs._programs) == 1
    assert counted["compile_plan"] == 1 + len(system.engine._costs._programs)


def test_min_strategy_is_priced_at_first_use():
    devs = devices(2)
    system = Murmuration(
        MBV3_SPACE, devs, NetworkCondition((100.0,), (10.0,)),
        SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=0),
        slo=SLO.latency_ms(300), use_predictor=False)
    system.update_condition(NetworkCondition((1.0,), (400.0,)))
    slow = system.min_strategy()
    graph = system._costs.graph(slow.arch)
    assert slow.expected_latency_s == simulate_latency(
        graph, slow.plan, system.cluster).total_s
    system.update_condition(NetworkCondition((100.0,), (10.0,)))
    assert system.min_strategy() is slow, "memoized, not re-priced"


# -- priced once per world state ------------------------------------------------

#: the model key of a graph drawn by ``priced_cases`` (not every one has
#: an arch: ViT and ResNet-50 are among them)
DRAWN = "drawn graph"


def outcome(fn):
    """A price, or the pair a typed ``NoRouteError`` named."""
    try:
        return fn()
    except NoRouteError as exc:
        return ("no route", exc.src, exc.dst)


def condition_of(data, n, nan=False):
    bws = data.draw(st.lists(st.floats(0.05, 2000.0), min_size=n - 1,
                             max_size=n - 1))
    if nan:
        bws[data.draw(st.integers(0, n - 2))] = NAN
    return NetworkCondition(tuple(bws), tuple(data.draw(st.lists(
        st.floats(0.0, 500.0), min_size=n - 1, max_size=n - 1))))


@settings(max_examples=40, deadline=None)
@given(priced_cases(), st.data())
def test_a_memoised_price_is_a_fresh_price_after_every_mutation(case, data):
    """A star and a ring, driven through every public mutation: after
    each step the model's (possibly memoised) price is the price of a
    fresh compile, which is ``simulate_latency``'s.  A mutation that
    forgot to bump ``version`` shows here as a stale price."""
    graph, plan, n, _ = case
    ring_n = max(n, 3)
    star_world = star(n, seed=data.draw(st.integers(0, 99)))
    ring = ring_topology(devices(ring_n), 120.0, 8.0,
                         reroute=data.draw(st.booleans()))
    star_faults = FaultInjector(FaultSchedule([
        LinkDegradation(2.0, 4.0, device=1, bw_factor=0.3,
                        extra_delay_ms=12.0)]))
    ring_faults = FaultInjector(FaultSchedule([
        LinkFailure(1.0, 3.0, a=0, b=1),
        LinkFlap(0.5, 6.0, a=ring_n - 1, b=0, step_s=0.4, seed=3)]))
    plans = [plan] + [single_device_plan(graph, device=d) for d in range(n)]
    models = {id(star_world): PlanCostModel(MBV3_SPACE, devices(n)),
              id(ring): PlanCostModel(MBV3_SPACE, devices(ring_n))}
    for model in models.values():
        model._graphs[DRAWN] = graph

    def check():
        for world in (star_world, ring):
            for p in plans:
                assert outcome(lambda: models[id(world)].latency(
                    DRAWN, p, world)) \
                    == outcome(lambda: price(compile_plan(
                        graph, p, world.devices), world)) \
                    == outcome(lambda: simulate_latency(
                        graph, p, world).total_s)

    check()
    for _ in range(data.draw(st.integers(1, 8))):
        step = data.draw(st.sampled_from(
            ["condition", "rejected", "faults", "none"]))
        if step == "condition":
            star_world.set_condition(condition_of(data, n))
        elif step == "rejected":
            with pytest.raises(ValueError):
                star_world.set_condition(condition_of(data, n, nan=True))
        elif step == "faults":
            star_faults.advance(data.draw(st.floats(0.0, 6.0)))
            star_faults.apply_to(star_world)
        step = data.draw(st.sampled_from(
            ["quality", "overlay", "degrade", "invalidate", "faults",
             "none"]))
        edge = data.draw(st.integers(0, ring_n - 1))
        a, b = edge, (edge + 1) % ring_n
        if step == "quality":
            ring.set_link_quality(a, b, data.draw(st.floats(0.05, 2000.0)),
                                  data.draw(st.floats(0.0, 100.0)))
        elif step == "overlay":
            ring.apply_link_faults(
                down=[(a, b)] if data.draw(st.booleans()) else [],
                degraded={(b, (b + 1) % ring_n): (
                    data.draw(st.floats(0.05, 1.0)),
                    data.draw(st.floats(0.0, 80.0)))})
        elif step == "degrade":
            ring.apply_link_faults(degraded={(1, 2): (0.25, 15.0)})
        elif step == "invalidate":
            ring.invalidate_routes()
        elif step == "faults":
            ring_faults.advance(data.draw(st.floats(0.0, 6.0)))
            ring_faults.apply_to(ring)
        check()


@settings(max_examples=KERNEL_N, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["price", "repeat", "condition"]),
    st.integers(0, 1), st.integers(0, 2), st.integers(0, 1),
    st.integers(0, 2 ** 16)), min_size=1, max_size=24))
def test_a_repeated_price_is_the_oracles_and_hashes_no_arch(steps):
    """``latency`` over 2 archs, 2 plans each plus an equal-content copy
    of the first, and 2 clusters that move under it: every price is
    ``simulate_latency``'s, and an immediate repeat on an unchanged
    cluster is answered without hashing its ``ArchConfig``."""
    model = PlanCostModel(MBV3_SPACE, devices(3))
    archs = [min_arch(MBV3_SPACE), max_arch(MBV3_SPACE)]
    plans = [[single_device_plan(model.graph(a), device=1),
              spatial_plan(model.graph(a), Grid(1, 2), [1, 2]),
              single_device_plan(model.graph(a), device=1)] for a in archs]
    for same in plans:    # equal content, another object
        assert (list(same[0]), same[0].output_device) \
            == (list(same[2]), same[2].output_device)
        assert same[0] is not same[2]
    worlds = [star(3, seed=1), star(3, seed=2)]
    hashes = []
    real_hash = ArchConfig.__hash__

    def counting(self):
        hashes.append(self)
        return real_hash(self)

    last, moved = None, False   # moved: the last call's cluster changed
    for kind, a, p, w, seed in steps:
        if kind == "condition":
            worlds[w].set_condition(star(3, seed=seed).condition)
            moved = moved or (last is not None and last[2] is worlds[w])
            continue
        call = last if kind == "repeat" and last else (
            archs[a], plans[a][p], worlds[w])
        del hashes[:]
        ArchConfig.__hash__ = counting
        try:
            got = model.latency(*call)
        finally:
            ArchConfig.__hash__ = real_hash
        arch, plan, world = call
        assert got == simulate_latency(model.graph(arch), plan,
                                       world).total_s
        if call is last and not moved:
            assert not hashes, "a repeat hashed its arch"
        last, moved = call, False


@pytest.fixture
def served(monkeypatch):
    """The clusters ``PlanCostModel.latency`` has really priced on."""
    clusters = []
    real = cost_model.price

    def counting(program, cluster):
        clusters.append(cluster)
        return real(program, cluster)
    monkeypatch.setattr(cost_model, "price", counting)
    return clusters


def static_facade(**kwargs):
    devs = devices(3)
    return Murmuration(
        MBV3_SPACE, devs, NetworkCondition((150.0, 80.0), (10.0, 20.0)),
        SearchDecisionEngine(MBV3_SPACE, devs, n_random_archs=2),
        slo=SLO.latency_ms(300), use_predictor=False, monitor_noise=0.0,
        **kwargs)


def test_hits_on_a_static_world_price_the_served_strategy_once(served):
    system = static_facade()
    records = [system.infer() for _ in range(20)]
    batches = [system.infer_batch(batch_size=5) for _ in range(3)]
    assert all(r.cache_hit for r in records[1:])
    assert all(b.cache_hit for b in batches)
    assert sum(c is system.cluster for c in served) == 1
    assert len({r.latency_s for r in records}) == 1


def test_a_stepped_world_prices_the_served_strategy_once_per_step(served):
    system = static_facade()
    steps = [NetworkCondition((150.0 + k, 80.0), (10.0, 20.0 - k))
             for k in range(5)]
    for cond in steps:
        system.update_condition(cond)
        for _ in range(4):
            system.infer()
        system.infer_batch(batch_size=3)
    assert sum(c is system.cluster for c in served) == len(steps)


@pytest.mark.parametrize("mesh", [False, True], ids=["star", "ring"])
def test_a_no_op_apply_to_between_transitions_keeps_the_version(mesh):
    """The injector re-applies only at a transition, so a faulted world
    is re-priced once per transition, not once per request."""
    if mesh:
        world = ring_topology(devices(4), 120.0, 8.0)
        schedule = [LinkFailure(1.0, 3.0, a=0, b=1)]
    else:
        world = star(3)
        schedule = [LinkDegradation(1.0, 3.0, device=1, bw_factor=0.5)]
    faults = FaultInjector(FaultSchedule(schedule))
    seen = []
    for now in (0.0, 0.5, 0.9, 1.0, 1.7, 2.9, 3.0, 4.0, 9.0):
        faults.advance(now)
        faults.apply_to(world)
        seen.append(world.version)
    # the first application, the onset at 1.0 and the recovery at 3.0;
    # the first one's empty overlay is the one the world already holds
    first, onset, recovery = seen[0], seen[3], seen[6]
    assert seen == [first] * 3 + [onset] * 3 + [recovery] * 3
    assert 0 == first < onset < recovery


def test_re_applying_the_held_condition_keeps_the_version(served):
    """Without an injector, the facade handed the condition its cluster
    already holds (a boundary-model trace inside one cell) changes
    nothing, so nothing is re-priced; a different condition still bumps."""
    system = static_facade()
    cond = NetworkCondition((120.0, 60.0), (12.0, 25.0))
    system.update_condition(cond)
    version = system.cluster.version
    system.infer()
    system.update_condition(cond)
    assert system.cluster.version == version
    system.infer()
    assert sum(c is system.cluster for c in served) == 1
    system.update_condition(NetworkCondition((90.0, 60.0), (12.0, 25.0)))
    assert system.cluster.version == version + 1


def test_decide_snaps_the_cache_key_once_on_a_miss_and_on_a_hit(monkeypatch):
    """``peek``, ``get`` and, on a miss, ``put`` share one snapped key."""
    snapped = []
    real = StrategyCache._key

    def counting(self, slo, condition):
        snapped.append(condition)
        return real(self, slo, condition)
    monkeypatch.setattr(StrategyCache, "_key", counting)
    system = static_facade()
    # a fresh (equal) condition object per decision
    assert system.decide(NetworkCondition(
        (150.0, 80.0), (10.0, 20.0))).engine == "search"
    assert len(snapped) == 1
    assert system.decide(NetworkCondition(
        (150.0, 80.0), (10.0, 20.0))).engine == "cache"
    assert len(snapped) == 2
