"""Measurement: fenced iterations, checks, aggregation, layer metrics.

Two passes over one workload and one seed, each in its own process:

* :func:`measure` -- the untraced pass behind the end-to-end metrics:
  one warm-up iteration, then timed iterations for the requested number
  of seconds (never fewer than :data:`INPUT_SETS`);
* :func:`trace` -- the traced pass behind the per-layer metrics: a
  warm-up, an untraced, the traced, another untraced and one
  call-counted iteration.

Every iteration builds a fresh cold world (empty strategy cache, empty
ledger -- CLI users pay that on every run), times only ``world.run``
under a GC fence, and checks the results afterwards.

A seed stands for :data:`INPUT_SETS` independent input sets.  The
untraced pass rotates through them, so one run's throughput is a median
over differently-seeded inputs and its simulated statistics pool all
the sets -- which is what keeps both steady from seed to seed.
Simulated statistics repeat bit for bit, and every revisit of an input
set must reproduce that set's ``sim_digest``.  The traced pass uses the
first set only.

Host times are noisy in phases longer than a run, so every timed window
is bracketed by :mod:`~benchmarks.perf.hostspeed` calibration samples
and ``ops_per_s`` and ``setup_s`` are reported in reference-host
seconds (the raw wall-clock figures stay in the report's ``detail``).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import resource
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import adapter
from .hostspeed import HostSpeed, slowdown
from .tracing import ROOT_LAYER, SpanTable, Tracer

#: independent input sets drawn from one seed (and the fewest timed
#: iterations of an untraced pass: each set is measured at least once)
INPUT_SETS = 3
#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10

#: end-to-end metric -> unit
E2E_UNITS = {
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_e2e_compliance": "ratio",
    "sim_p95_ms": "ms",
    "ok_share": "ratio",
}

SPAN_LAYERS = list(adapter.TARGETS)

#: per-layer metrics beyond calls/busy_s/self_s/share, with units
_EXTRA_UNITS = {
    "core.decision.ms_p50": "ms",
    "core.decision.ms_p90": "ms",
    "core.decision.found_ratio": "ratio",
    "partition.simulate.us_p50": "us",
    "partition.simulate.calls_per_decision": "count",
    "nas.graph_builder.repeat_ratio": "ratio",
    "core.strategy_cache.hits": "count",
    "core.strategy_cache.misses": "count",
    "core.strategy_cache.hit_rate": "ratio",
    "core.murmuration.infer.us_p50": "us",
    "core.murmuration.infer_batch.us_p50": "us",
    "runtime.server.mean_batch": "count",
    "runtime.batching.mean_batch": "count",
    "runtime.executor.retries": "count",
    "runtime.executor.failovers": "count",
    "runtime.executor.sim_failed": "count",
    "netsim.fluid.admit.ms_p50": "ms",
    "netsim.fluid.admit.ms_p99": "ms",
    "netsim.fluid.peek.ms_p50": "ms",
    "netsim.fluid.peek.ms_p99": "ms",
    "netsim.fluid.update_caps.ms_p50": "ms",
    "netsim.fluid.update_caps.ms_p99": "ms",
    "netsim.fluid.flows": "count",
    "netsim.fluid.segments": "count",
    "netsim.fluid.peak_share": "count",
    "netsim.fluid.peak_active": "count",
    "netsim.mesh.reroutes": "count",
    "sim.events.fired": "count",
    "control.loop.ticks": "count",
    "control.loop.shed": "count",
    "telemetry.recorder.bytes": "bytes",
    f"{ROOT_LAYER}.self_s": "s",
    f"{ROOT_LAYER}.share": "ratio",
    "trace.overhead_pct": "%",
    "host.py_calls_per_op": "count",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    units: Dict[str, str] = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(_EXTRA_UNITS)
    return units


# -- statistics --------------------------------------------------------------

def summary(values) -> dict:
    """Median, interquartile range and sample count of host timings."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1,
            "n": len(values)}


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile, refused unless at least ``min_beyond``
    samples rank beyond it -- a tail read off fewer is noise."""
    values = np.asarray(values, dtype=float)
    beyond = int(values.size * (100.0 - q) / 100.0)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {values.size} samples has only {beyond} beyond "
            f"it; need {min_beyond}")
    return float(np.percentile(values, q))


# -- one iteration -----------------------------------------------------------

def _noop(op: int) -> None:
    pass


def fenced(fn: Callable) -> Tuple[object, float]:
    """Run ``fn`` with the collector off behind a ``gc.collect()`` fence,
    so cycle collection lands on no timed window; returns (result, wall)."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
    finally:
        gc.enable()
    return result, wall


class Iteration:
    """One fresh world, run once: outcome, wall time, build time, and
    the host's slowdown around the timed window."""

    def __init__(self, workload, inputs: dict, host: HostSpeed,
                 mark: Callable[[int], None] = _noop,
                 around: Optional[Callable] = None):
        t0 = perf_counter()
        world = workload(inputs)
        self.build_s = perf_counter() - t0
        run = world.run if around is None else around(world.run)
        before = host.last
        raw, self.wall_s = fenced(lambda: run(mark))
        self._cal = (before, host.sample())
        self.outcome: adapter.Outcome = world.finish(raw)

    @property
    def ref_s(self) -> float:
        """Wall time in reference-host seconds."""
        return self.wall_s / slowdown(*self._cal)


def input_sets(workload, seed: int, n: int, count: int = INPUT_SETS):
    """The seed's input sets; seeds never share a set."""
    return [workload.inputs(seed * INPUT_SETS + k, n) for k in range(count)]


class _Ledger:
    """Counts attempted and failed ops over a process's iterations, and
    holds each input set's first outcome as the reference for revisits."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: Dict[int, adapter.Outcome] = {}
        self.violations: List[str] = []

    def check(self, label: str, k: int, outcome: adapter.Outcome) -> None:
        problems = list(outcome.violations)
        reference = self.first.setdefault(k, outcome)
        if outcome.digest != reference.digest:
            problems.append(
                f"sim_digest {outcome.digest[:12]} differs from input set "
                f"{k}'s first iteration's {reference.digest[:12]}")
        self.attempted += outcome.ops
        if problems:
            self.failed += outcome.ops
            self.violations += [f"{label}: {p}" for p in problems]

    def digests(self) -> List[str]:
        return [self.first[k].digest for k in sorted(self.first)]


def _sim_metrics(outcomes, min_beyond: int) -> Dict[str, float]:
    """Simulated statistics pooled over the given outcomes."""
    latencies = np.concatenate([o.latencies_ms for o in outcomes])
    return {
        "sim_e2e_compliance": (sum(o.met for o in outcomes)
                               / sum(o.ops for o in outcomes)),
        "sim_p95_ms": percentile(latencies, 95, min_beyond),
    }


def _report(name: str, seed: int, n: int, traced: bool, ledger: _Ledger,
            values: Dict[str, float], units: Dict[str, str],
            detail: dict) -> dict:
    digests = ledger.digests()
    return {
        "workload": name, "seed": seed, "n": n, "trace": int(traced),
        "correct": not ledger.violations,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
        "detail": dict(
            detail, sim_digests=digests,
            sim_digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
            violations=ledger.violations, numpy=np.__version__),
    }


# -- the untraced pass -------------------------------------------------------

def measure(name: str, seed: int, seconds: float, import_s: float,
            host: Optional[HostSpeed] = None, n: Optional[int] = None,
            min_beyond: int = MIN_BEYOND) -> dict:
    """End-to-end metrics of one workload on one seed.

    ``host`` is the calibration state sampled right after the import
    that took ``import_s`` (a fresh one is made otherwise).
    """
    host = HostSpeed() if host is None else host
    import_cal = host.last
    workload = adapter.WORKLOADS[name]
    n = workload.n if n is None else n
    sets = input_sets(workload, seed, n)
    ledger = _Ledger()
    ledger.check("warm-up", 0, Iteration(workload, sets[0], host).outcome)
    ref: List[List[float]] = [[] for _ in sets]
    walls, builds = [], []
    deadline = perf_counter() + seconds
    while len(walls) < INPUT_SETS or perf_counter() < deadline:
        k = len(walls) % INPUT_SETS
        it = Iteration(workload, sets[k], host)
        ledger.check(f"iteration {len(walls)}", k, it.outcome)
        ref[k].append(it.ref_s)
        walls.append(it.wall_s)
        builds.append(it.build_s)
    ops = sum(o.ops for o in ledger.first.values())
    build = summary(builds)
    values = _sim_metrics(list(ledger.first.values()), min_beyond)
    values.update({
        # every input set weighs in once, at its median time
        "ops_per_s": ops / sum(statistics.median(q) for q in ref),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s / slowdown(import_cal) + build["median"],
        "ok_share": 1.0 - ledger.failed / ledger.attempted,
    })
    detail = {"ops": ledger.first[0].ops, "iterations": len(walls),
              "ref_s": [summary(q) for q in ref],
              "wall_s": summary(walls),
              "ops_per_wall_s": ops / INPUT_SETS / statistics.median(walls),
              "build_s": build, "import_s": import_s,
              "import_cal_s": import_cal}
    return _report(name, seed, n, False, ledger, values, E2E_UNITS, detail)


# -- the traced pass ---------------------------------------------------------

class _Probes:
    """Counts only a call's arguments or result can give."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.found = 0
        self.graphs = 0
        self.repeats = 0
        self._seen = set()

    def hooks(self) -> Dict[str, dict]:
        return {
            "core.decision": {"leave": self._decided},
            "nas.graph_builder": {"enter": self._graph},
            "core.murmuration.infer": {"enter": self._request},
            "core.murmuration.infer_batch": {"enter": self._batch},
        }

    def _decided(self, record) -> None:
        self.found += record.strategy is not None

    def _graph(self, args, kwargs) -> None:
        arch = args[0] if args else kwargs["arch"]
        self.graphs += 1
        self.repeats += arch in self._seen
        self._seen.add(arch)

    def _request(self, args, kwargs) -> None:
        rid = kwargs.get("request_id")
        self.tracer.mark(-1 if rid is None else rid)

    def _batch(self, args, kwargs) -> None:
        rids = kwargs.get("request_ids")
        self.tracer.mark(rids[0] if rids else -1)


def _p(durations: np.ndarray, q: float, scale: float) -> float:
    if not durations.size:
        return 0.0
    return float(np.percentile(durations, q)) * scale


def layer_values(table: SpanTable, probes: _Probes,
                 counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (run-level ones aside)."""
    wall = table.busy_s(ROOT_LAYER)
    values: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        busy = table.busy_s(layer)
        values[f"{layer}.calls"] = table.calls(layer)
        values[f"{layer}.busy_s"] = busy
        values[f"{layer}.self_s"] = table.self_s(layer)
        values[f"{layer}.share"] = busy / wall
    other = table.self_s(ROOT_LAYER)
    values[f"{ROOT_LAYER}.self_s"] = other
    values[f"{ROOT_LAYER}.share"] = other / wall
    decisions = table.calls("core.decision")
    decide = table.durations("core.decision")
    values.update({
        "core.decision.ms_p50": _p(decide, 50, 1e3),
        "core.decision.ms_p90": _p(decide, 90, 1e3),
        "core.decision.found_ratio": probes.found / max(decisions, 1),
        "partition.simulate.us_p50": _p(
            table.durations("partition.simulate"), 50, 1e6),
        "partition.simulate.calls_per_decision": table.calls_under(
            "partition.simulate", "core.decision") / max(decisions, 1),
        "nas.graph_builder.repeat_ratio":
            probes.repeats / max(probes.graphs, 1),
        "core.murmuration.infer.us_p50": _p(
            table.durations("core.murmuration.infer"), 50, 1e6),
        "core.murmuration.infer_batch.us_p50": _p(
            table.durations("core.murmuration.infer_batch"), 50, 1e6),
    })
    for op in ("admit", "peek", "update_caps"):
        durations = table.durations(f"netsim.fluid.{op}")
        values[f"netsim.fluid.{op}.ms_p50"] = _p(durations, 50, 1e3)
        values[f"netsim.fluid.{op}.ms_p99"] = _p(durations, 99, 1e3)
    values.update(counters)
    return values


def trace(name: str, seed: int, host: Optional[HostSpeed] = None,
          n: Optional[int] = None) -> Tuple[dict, Tracer]:
    """Per-layer metrics of one workload on one seed, and the spans.

    The traced iteration runs between two untraced ones and the overhead
    compares it with the faster of them, in reference-host seconds:
    what contention is left after calibration only ever adds time, and
    it must not pass for tracing cost.
    """
    host = HostSpeed() if host is None else host
    workload = adapter.WORKLOADS[name]
    n = workload.n if n is None else n
    inputs, = input_sets(workload, seed, n, count=1)
    ledger = _Ledger()

    def plain(label: str) -> Iteration:
        it = Iteration(workload, inputs, host)
        ledger.check(label, 0, it.outcome)
        return it

    plain("warm-up")
    plains = [plain("untraced")]
    tracer = Tracer(SPAN_LAYERS)
    probes = _Probes(tracer)
    # wrappers exist only for this one iteration; uninstall() verifies,
    # by identity, that every original is back
    tracer.install(adapter.TARGETS, adapter.PROGRAM_PACKAGE, probes.hooks())
    try:
        traced = Iteration(workload, inputs, host, mark=tracer.mark,
                           around=tracer.root)
    finally:
        tracer.uninstall()
    ledger.check("traced", 0, traced.outcome)
    plains.append(plain("untraced"))
    plain_ref = min(it.ref_s for it in plains)

    profile = cProfile.Profile()
    counted = Iteration(workload, inputs, host, around=lambda run: (
        lambda mark: profile.runcall(run, mark)))
    ledger.check("counted", 0, counted.outcome)
    py_calls = sum(entry.callcount for entry in profile.getstats())

    outcome = traced.outcome
    units = layer_units()
    values = dict.fromkeys(units, 0.0)
    values.update(layer_values(tracer.table(), probes, outcome.counters))
    values["trace.overhead_pct"] = (
        traced.ref_s / plain_ref - 1.0) * 100
    values["host.py_calls_per_op"] = py_calls / outcome.ops
    detail = {"ops": outcome.ops, "untraced_ref_s": plain_ref,
              "traced_ref_s": traced.ref_s,
              "traced_wall_s": traced.wall_s, "spans": len(tracer.spans)}
    return _report(name, seed, n, True, ledger, values, units, detail), tracer
