"""Self-tests of the benchmark harness.

Run explicitly (they sit outside tier-1 ``testpaths``)::

    python3 -m pytest benchmarks/perf/test_harness.py -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.perf import adapter, harness, loadgen
from benchmarks.perf.tracing import ROOT_LAYER, SpanTable, Tracer

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: small enough for seconds, large enough to reach every code path
TINY = {"drift_miss": 30, "static_hit": 70, "fluid_ring": 120,
        "tenant_mix": 40, "mesh_faults": 40, "strategy_eval": 100}


# -- span arithmetic ---------------------------------------------------------

def test_nested_span_self_time_arithmetic():
    layers = [ROOT_LAYER, "a", "b"]
    spans = [
        [0, 0.0, 10.0, -1, -1],   # root
        [1, 1.0, 5.0, 0, 0],      # a, child of root
        [2, 2.0, 3.0, 1, 0],      # b inside a
        [1, 3.5, 4.5, 1, 0],      # a nested in a: busy counts it once
        [2, 6.0, 9.0, 0, 1],      # b, child of root
    ]
    table = SpanTable(layers, spans)
    assert table.calls("a") == 2 and table.calls("b") == 2
    assert table.busy_s("a") == pytest.approx(4.0)     # outer span only
    assert table.self_s("a") == pytest.approx(2.0 + 1.0)
    assert table.busy_s("b") == pytest.approx(1.0 + 3.0)
    assert table.self_s("b") == pytest.approx(4.0)
    assert table.self_s(ROOT_LAYER) == pytest.approx(10.0 - 4.0 - 3.0)
    assert table.calls_under("b", "a") == 1
    total = sum(table.self_s(name) for name in layers)
    assert total == pytest.approx(table.busy_s(ROOT_LAYER))


def test_live_spans_nest_and_carry_the_op():
    tracer = Tracer(["outer", "inner"])
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    tracer.mark(7)
    assert tracer.root(outer)(1) == 3
    table = tracer.table()
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {7}
    assert table.calls_under("inner", "outer") == 2
    assert sum(table.self_s(n) for n in tracer.layers) == pytest.approx(
        table.busy_s(ROOT_LAYER))
    dumped = tracer.dump()
    assert dumped["layers"] == tracer.layers
    assert len(dumped["spans"]) == 4


# -- the percentile rule -----------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(np.arange(400.0), 95) == pytest.approx(379.05)
    assert harness.percentile(np.arange(200.0), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile(np.arange(199.0), 95)
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile([], 95)
    assert harness.percentile(np.arange(40.0), 95, min_beyond=2) == 37.05


# -- load generation ---------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("make", [
    lambda s: loadgen.poisson_arrivals(s, 4.0, 50),
    lambda s: loadgen.sweep(s, 2, (40.0, 400.0), (5.0, 60.0), 40, .01, .02),
    lambda s: loadgen.tenant_arrivals(
        s, (("a", 4.0, 8.0), ("b", 4.0, 1.0)), 60, (4.0, 8.0), 16.0),
    lambda s: loadgen.ring_transfers(s, 80, 6, 10.0, 20, 4.0, 3e5, 0.5),
    lambda s: loadgen.action_sequences(s, [3, 4, 2], 25),
    lambda s: loadgen.capacity_steps(s, (40.0, 20.0), 12),
])
def test_load_generators_are_pure_functions_of_the_seed(make):
    assert _same(make(3), make(3))
    assert not _same(make(3), make(4))


def test_tenant_arrivals_follow_the_piecewise_rate():
    times, tags = loadgen.tenant_arrivals(
        0, (("burst", 4.0, 8.0), ("steady", 4.0, 1.0)), 240, (4.0, 8.0),
        16.0)
    assert np.all(np.diff(times) >= 0) and len(tags) == 240
    in_burst = (times >= 4.0) & (times < 8.0)
    assert in_burst.sum() == 4 * (32 + 4)      # burst at 32 Hz + steady
    assert ((times < 4.0).sum()) == 4 * (4 + 4)


def test_workload_inputs_repeat_for_a_seed():
    for name, workload in adapter.WORKLOADS.items():
        a, b = workload.inputs(5, TINY[name]), workload.inputs(5, TINY[name])
        for key in a:
            if isinstance(a[key], (np.ndarray, list, int, float)):
                assert _same(a[key], b[key]), (name, key)


# -- wrapping ----------------------------------------------------------------

def _program_bindings():
    seen = {}
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == adapter.PROGRAM_PACKAGE
                                   or modname.startswith("repro.")):
            for attr, value in vars(module).items():
                seen[(modname, attr)] = id(value)
            for attr, value in vars(module).items():
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        seen[(modname, attr, name)] = id(member)
    return seen


def test_install_then_uninstall_leaves_the_program_untouched():
    before = _program_bindings()
    tracer = Tracer(harness.SPAN_LAYERS)
    tracer.install(adapter.TARGETS, adapter.PROGRAM_PACKAGE)
    during = _program_bindings()
    changed = {key for key in before if during[key] != before[key]}
    assert any(key[-1] == "simulate_latency" for key in changed)
    assert any(key[-2:] == ("SearchDecisionEngine", "decide")
               for key in changed)
    tracer.uninstall()
    assert _program_bindings() == before


def test_a_function_target_is_rebound_in_every_importing_module():
    import repro.core.decision
    import repro.partition.simulate
    original = repro.partition.simulate.simulate_latency
    tracer = Tracer(harness.SPAN_LAYERS)
    tracer.install({"partition.simulate": [original]},
                   adapter.PROGRAM_PACKAGE)
    try:
        assert repro.core.decision.simulate_latency is not original
        assert (repro.core.decision.simulate_latency
                is repro.partition.simulate.simulate_latency)
    finally:
        tracer.uninstall()
    assert repro.core.decision.simulate_latency is original


# -- names -------------------------------------------------------------------

def test_names_match_the_contract_and_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == harness.E2E_UNITS
    assert layers == harness.layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(adapter.WORKLOADS)
    names = list(e2e) + list(layers) + list(adapter.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in list(e2e.values()) + list(layers.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert len(layers) <= 128 and "setup_s" in e2e
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/perf"]


# -- every workload, end to end, at a tiny size ------------------------------

@pytest.fixture(scope="module")
def traced():
    return {name: harness.trace(name, seed=1, n=TINY[name])[0]
            for name in adapter.WORKLOADS}


@pytest.mark.parametrize("name", list(adapter.WORKLOADS))
def test_untraced_pass(name):
    report = harness.measure(name, seed=1, seconds=0.0, import_s=0.25,
                             n=TINY[name], min_beyond=0)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 4 * report["detail"]["ops"]
    assert set(report["metrics"]) == set(harness.E2E_UNITS)
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert len(report["detail"]["sim_digests"]) == harness.INPUT_SETS
    again = harness.measure(name, seed=1, seconds=0.0, import_s=0.25,
                            n=TINY[name], min_beyond=0)
    for key in ("sim_e2e_compliance", "sim_p95_ms", "ok_share"):
        assert again["metrics"][key] == report["metrics"][key]
    assert again["detail"]["sim_digest"] == report["detail"]["sim_digest"]


@pytest.mark.parametrize("name", list(adapter.WORKLOADS))
def test_traced_pass(name, traced):
    report = traced[name]
    value = {k: m["value"] for k, m in report["metrics"].items()}
    assert report["correct"] and report["failed"] == 0
    assert set(value) == set(harness.layer_units())
    assert all(np.isfinite(v) for v in value.values())
    # self times, with harness.other, add up to the traced wall
    total = sum(value[f"{layer}.self_s"] for layer in harness.SPAN_LAYERS)
    total += value[f"{ROOT_LAYER}.self_s"]
    assert total == pytest.approx(report["detail"]["traced_wall_s"],
                                  rel=0.02)
    assert value["host.py_calls_per_op"] > 0


def test_traced_shares_show_what_each_workload_stresses(traced):
    value = {name: {k: m["value"] for k, m in r["metrics"].items()}
             for name, r in traced.items()}
    assert value["drift_miss"]["core.decision.share"] >= 0.8
    assert value["drift_miss"]["nas.graph_builder.repeat_ratio"] >= 0.8
    assert value["static_hit"]["core.strategy_cache.misses"] == 2
    assert value["static_hit"]["runtime.batching.mean_batch"] > 1
    for name in ("fluid_ring", "strategy_eval"):
        assert value[name]["core.decision.calls"] == 0
    for name in ("drift_miss", "static_hit", "strategy_eval"):
        assert value[name]["netsim.fluid.admit.calls"] == 0
    fluid = value["fluid_ring"]
    assert sum(fluid[f"netsim.fluid.{op}.share"]
               for op in ("admit", "peek", "update_caps")) >= 0.8
    assert fluid["netsim.fluid.peek.calls"] == TINY["fluid_ring"] // 2
    assert value["strategy_eval"]["nas.graph_builder.repeat_ratio"] <= 0.05
    assert value["strategy_eval"]["rl.env.evaluate.calls"] == TINY[
        "strategy_eval"]
    mix = value["tenant_mix"]
    assert mix["netsim.fluid.admit.calls"] > 0 and mix["sim.events.fired"] > 0
    assert mix["control.loop.ticks"] > 0
    assert mix["telemetry.recorder.bytes"] > 0
    mesh = value["mesh_faults"]
    assert mesh["faults.injector.calls"] > 0 and mesh["netsim.mesh.calls"] > 0


def test_a_failed_check_fails_the_iterations_ops(monkeypatch):
    finish = adapter.FluidRing.finish

    def broken(self, raw):
        outcome = finish(self, raw)
        outcome.violations.append("injected")
        return outcome

    monkeypatch.setattr(adapter.FluidRing, "finish", broken)
    report = harness.measure("fluid_ring", seed=0, seconds=0.0, import_s=0.1,
                             n=60, min_beyond=0)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] > 0
    assert report["metrics"]["ok_share"]["value"] == 0.0


def test_a_changed_simulated_result_is_caught_on_the_revisit(monkeypatch):
    calls = []
    finish = adapter.StrategyEval.finish

    def drifting(self, raw):
        outcome = finish(self, raw)
        calls.append(1)
        if len(calls) == 2:          # the first revisit of input set 0
            outcome.digest = "0" * 64
        return outcome

    monkeypatch.setattr(adapter.StrategyEval, "finish", drifting)
    report = harness.measure("strategy_eval", seed=0, seconds=0.0,
                             import_s=0.1, n=60, min_beyond=0)
    assert not report["correct"]
    assert report["failed"] == report["detail"]["ops"]
