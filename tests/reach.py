"""Every ``def`` under ``src/repro`` that no run reaches, and every
setting no run sets.

    PYTHONPATH=src python -m tests.reach

Runs the program's entry points in this process under a profile hook
(``sys.setprofile`` / ``threading.setprofile``): ``bench_claims.py
--smoke`` (the slow figures included), every example, every
``repro.cli`` command CI runs and the six perf-ledger workloads at
``n = 120``.  It then maps each ``def`` in ``src/repro`` to its
qualified name through :mod:`ast` and prints, by module, those whose
code object never ran.  It exits 1 when an unreached function has no
row in :data:`KEEP`, or when a :data:`KEEP` row names nothing that is
unreached (a stale row).  ``__repr__`` / ``__dir__`` and body-less
stubs (a docstring, ``pass``, ``...`` or ``raise NotImplementedError``)
are exempt by rule.

The same runs record, for each hand-written ``__init__`` under
:data:`SETTINGS_PACKAGES`, which of its keyword parameters (those with
a default) some call binds to a value other than that default.  It
exits 1 when a parameter of an ``__init__`` that ran is never so bound
and has no row in :data:`KEEP_PARAMS`, or on a stale row: a setting
every run leaves at one value is a constant.  A dataclass's generated
``__init__`` has no source file and is out of its reach (its fields are
``Checked`` or plain), and an ``__init__`` no run reaches is left to
the function check above.

It uses no ``coverage`` package: the hook only collects the code objects
that start running, and a ``def`` is reached when its code object is
among them (matched on file, first line and name; a decorated
function's code starts at its first decorator).
"""

import ast
import contextlib
import inspect
import io
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Set)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_CONTENDED = ("a contended wire's capacity step: the wire, route and fluid "
              "digests pin it; no run steps a cluster that has a tracker")
_FLUID = "fluid_price_digests pins it"
_ORACLE = "the oracle of test_simulate::test_matches_graph_time"
_NULL = ("a null twin: test_null_contract holds its surface equal to the "
         "real class's")
_RECONFIG = ("in-memory submodel switching, which ROADMAP 4A's exec_split "
             "reaches")
_MESH = ("a mesh inspector: the route / mesh-fault tests and digests read "
         "it to check routing")
_METRICS = ("registry / metric API: the telemetry tests and digests read "
            "instruments through it")
_TRACING = "tracer API: the tracing and timeline tests read spans through it"
_REPORT = ("a report term only tests read: test_reference_simulate and "
           "strategy_price_digests hold it equal to the frozen oracle's")

#: qualified name -> why it stays although no entry point reaches it
KEEP: Dict[str, str] = {
    "repro.netsim.mesh:MeshCluster.update_fluid_caps": _CONTENDED,
    "repro.netsim.fluid:FluidTracker.admit": _FLUID,
    "repro.netsim.fluid:solve_fluid": _FLUID,
    "repro.devices.latency:graph_time": _ORACLE,
    "repro.devices.latency:block_time": _ORACLE,
    "repro.devices.latency:block_mem_bytes": _ORACLE + " (via block_time)",
    "repro.runtime.reconfig:ModelReconfig.__init__": _RECONFIG,
    "repro.runtime.reconfig:ModelReconfig.switch": _RECONFIG,
    "repro.runtime.reconfig:ModelReconfig.active_units": _RECONFIG,
    "repro.faults.health:NullHealth.allow": _NULL,
    "repro.faults.health:NullHealth.allow_link": _NULL,
    "repro.faults.health:NullHealth.record_failure": _NULL,
    "repro.faults.health:NullHealth.record_link_failure": _NULL,
    "repro.telemetry.metrics:NullRegistry.get": _NULL,
    "repro.telemetry.tracing:NullTracer.active": _NULL,
    "repro.faults.schedule:crash_and_recover_schedule":
        "server_loop_digests builds its crash world with it",
    "repro.faults.resilience:NoRouteError.device":
        "route_digests records it for every unroutable pair",
    "repro.faults.health:DeviceHealth.state":
        "test_health / test_ladder read circuit states through it",
    "repro.faults.injector:FaultInjector.is_down":
        "test_injector / test_mesh_faults read device outages through it",
    "repro.netsim.mesh:RouteInfo.hops": _MESH,
    "repro.netsim.mesh:MeshCluster.set_link_quality": _MESH,
    "repro.netsim.mesh:MeshCluster.local": _MESH,
    "repro.netsim.mesh:MeshCluster.links": _MESH,
    "repro.netsim.mesh:MeshCluster.down_links": _MESH,
    "repro.netsim.mesh:MeshCluster.degraded_links": _MESH,
    "repro.netsim.mesh:MeshCluster.is_connected": _MESH,
    "repro.netsim.mesh:MeshCluster.hop_count": _MESH,
    "repro.netsim.mesh:MeshCluster.link_to":
        "the frozen price oracles and route_digests read a route as a Link",
    "repro.netsim.mesh:no_device":
        "the out-of-range device error; the topology and mesh tests raise it",
    "repro.netsim.fluid:FluidSegment.duration":
        "the fluid property tests integrate segment rates with it",
    "repro.netsim.fluid:FluidTracker._caps":
        "the fluid and contention tests read the capacity table through it",
    "repro.netsim.fluid:FluidTracker.solves_total":
        "test_fluid_kernel counts water-fills with it (a cost, not an answer)",
    "repro.netsim.fluid:FluidTracker.concurrency":
        "the fluid and contention tests read flows in flight through it",
    "repro.netsim.fluid:FluidTracker.share":
        "the contention tests read the fair-share divisor through it",
    "repro.netsim.fluid:FluidTracker.tenant_bytes":
        "the wire and fluid digests read per-tenant bytes through it",
    "repro.partition.simulate:LatencyReport.total_ms":
        "test_reference_simulate holds it equal to the frozen oracle's",
    "repro.partition.simulate:LatencyReport.busiest_device":
        "test_reference_simulate holds it equal to the frozen oracle's",
    "repro.partition.simulate:LatencyReport.comm_s": _REPORT,
    "repro.partition.simulate:LatencyReport.comm_bytes": _REPORT,
    "repro.partition.simulate:LatencyReport.num_transfers": _REPORT,
    "repro.partition.spatial:tile_shape":
        "test_spatial checks FDSP tile sizes through it",
    "repro.models.vit:vit_base_16":
        "test_vit anchors the ViT profiles' FLOPs on ViT-B/16",
    "repro.nas.accuracy_predictor:AccuracyPredictor.forward":
        "the predictor's Module interface (train_supernet fits its MLP)",
    "repro.nas.accuracy_predictor:AccuracyPredictor.backward":
        "the predictor's Module interface (train_supernet fits its MLP)",
    "repro.nas.accuracy_predictor:AccuracyPredictor.predict_batch":
        "test_accuracy_models holds it equal to predict per arch",
    "repro.nas.arch:ArchConfig.num_blocks":
        "the arch and graph-builder tests count blocks with it",
    "repro.nas.search_space:SearchSpace.max_blocks":
        "test_arch_space checks space shapes with it",
    "repro.nn.layers:Parameter.shape":
        "the nn tests check parameter shapes with it",
    "repro.nn.layers:Module.zero_grad":
        "test_layers / test_lstm reset gradients with it",
    "repro.nn.layers:Sequential.append":
        "Sequential's container protocol, which test_layers exercises",
    "repro.nn.layers:Sequential.__len__":
        "Sequential's container protocol, which test_layers exercises",
    "repro.nn.layers:Sequential.__getitem__":
        "Sequential's container protocol, which test_layers exercises",
    "repro.nn.lstm:LSTMCell.forward":
        "the cell's Module interface; test_lstm runs a sequence through it",
    "repro.rl.env:MurmurationEnv.episode_length":
        "test_env / test_trainers size action sequences with it",
    "repro.rl.env:MurmurationEnv.constraint_values":
        "test_env round-trips a task through the buffer's constraint vector",
    "repro.rl.supreme.buffer:BucketedReplayBuffer.best":
        "test_buffer reads a bucket's best entry through it",
    "repro.runtime.clock:SimulatedClock.advance":
        "test_runtime pins the clock's relative advance and its refusal",
    "repro.runtime.rpc:Transport.send_control":
        "control-plane message; test_runtime / test_instrumentation send it",
    "repro.core.murmuration:Murmuration.set_slo":
        "the paper's SLO API (Sec. 5); test_core retargets an SLO with it",
    "repro.telemetry.metrics:Metric._label_str":
        "the label text of Metric.__repr__ (exempt)",
    "repro.telemetry.metrics:Gauge.set": _METRICS,
    "repro.telemetry.metrics:Gauge.dec": _METRICS,
    "repro.telemetry.metrics:MetricsRegistry.get": _METRICS,
    "repro.telemetry.metrics:MetricsRegistry.__len__": _METRICS,
    "repro.telemetry.recorder:Recording.schema":
        "test_replay reads the recording's schema version with it",
    "repro.telemetry.timeline:RequestTimeline.phases": _TRACING,
    "repro.telemetry.tracing:Span.to_dict": _TRACING,
    "repro.telemetry.tracing:Tracer.active": _TRACING,
    "repro.telemetry.tracing:Tracer.clear": _TRACING,
}

#: the packages whose ``__init__`` keyword parameters are checked
SETTINGS_PACKAGES = ("repro.core", "repro.runtime", "repro.netsim",
                     "repro.faults", "repro.control", "repro.telemetry",
                     "repro.sim")

#: ``module:Class.__init__(parameter)`` -> why it stays a parameter
#: although every run leaves it at its default
_CONFIG = ("a scenario config field feeds it (every run keeps the field's "
           "default); --set changes it")
_EXECUTABLE = ("the executable data plane: no entry point serves through a "
               "supernet (ROADMAP item 4); the executor and ladder tests do")
_INSTRUMENTED_FAULTS = ("the facade hands its hub over; no entry point "
                        "instruments a world that can fail, the chaos and "
                        "mesh_chaos telemetry_snapshot_digests entries do")
KEEP_PARAMS: Dict[str, str] = {
    "repro.control.loop:ControlLoop.__init__(period_s)":
        _CONFIG + " (control_period_s)",
    "repro.core.decision:SearchDecisionEngine.__init__(seed)":
        _CONFIG + " (seed)",
    "repro.faults.injector:FaultInjector.__init__(seed)":
        "unread; only the frozen perf adapter passes it",
    "repro.core.decision:RLDecisionEngine.__init__(fallback)":
        "the raw policy, with no search fallback: test_decision_fallback "
        "measures it",
    "repro.core.murmuration:Murmuration.__init__(supernet)": _EXECUTABLE,
    "repro.runtime.executor:DistributedExecutor.__init__(faults)":
        _EXECUTABLE,
    "repro.runtime.executor:DistributedExecutor.__init__(health)":
        _EXECUTABLE,
    "repro.runtime.executor:DistributedExecutor.__init__(resilience)":
        _EXECUTABLE,
    "repro.faults.health:DeviceHealth.__init__(telemetry)":
        _INSTRUMENTED_FAULTS,
    "repro.faults.injector:FaultInjector.__init__(telemetry)":
        _INSTRUMENTED_FAULTS,
    "repro.telemetry.hub:Telemetry.__init__(registry)":
        "tests substitute the registry",
    "repro.telemetry.hub:Telemetry.__init__(tracer)":
        "tests substitute the tracer",
    "repro.telemetry.metrics:Gauge.__init__(labels)": _METRICS,
    "repro.telemetry.metrics:Histogram.__init__(growth)": _METRICS,
    "repro.netsim.fluid:FluidTracker.__init__(record_segments)":
        "the rate-segment audit trail test_fluid_reconvergence reads",
    "repro.netsim.mesh:MeshCluster.__init__(rpc_overhead_ms)":
        "every run's 1 ms; the fluid property suite and the declared-domain "
        "sweep price other overheads",
    "repro.runtime.batching:BatchingInferenceServer.__init__(events)":
        "the runner passes the world's loop, which no batched scenario has; "
        "server_loop_digests and test_batching drive one",
    "repro.runtime.clock:SimulatedClock.__init__(start)":
        "test_runtime pins a clock that starts late",
}

EXEMPT_NAMES = frozenset({"__repr__", "__dir__"})


class Def(NamedTuple):
    """One ``def``: where its code object starts, and what it is."""

    path: str
    line: int
    name: str
    qualname: str
    exempt: bool


def _is_stub(node: ast.AST) -> bool:
    """A body of a docstring, ``pass``, ``...`` or ``raise
    NotImplementedError``: an interface, with nothing to reach."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]                                # the docstring

    def empty(s):
        if isinstance(s, ast.Raise) and s.exc is not None:
            exc = s.exc.func if isinstance(s.exc, ast.Call) else s.exc
            return isinstance(exc, ast.Name) \
                and exc.id == "NotImplementedError"
        return isinstance(s, ast.Pass) or (
            isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
            and s.value.value is Ellipsis)

    return all(map(empty, body))


def defs(path: Path, module: str) -> List[Def]:
    """Every ``def`` in the file at ``path``, named ``module:qualname``
    (``Class.method``, ``outer.<locals>.inner`` as Python names them)."""
    found: List[Def] = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([node.lineno] + [d.lineno
                                            for d in node.decorator_list])
                found.append(Def(
                    str(path), line, node.name,
                    f"{module}:{prefix}{node.name}",
                    node.name in EXEMPT_NAMES or _is_stub(node)))
                walk(node.body, f"{prefix}{node.name}.<locals>.")
            else:
                # defs under if / try / with at this level
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, ()), prefix)

    walk(ast.parse(path.read_text(), str(path)).body, "")
    return found


def package_defs(root: Path, package: str) -> List[Def]:
    """:func:`defs` of every module of ``package`` (a directory under
    ``root``)."""
    found = []
    for path in sorted((root / package.replace(".", "/")).rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found += defs(path.resolve(), module)
    return found


_UNWATCHED = object()


def _same(value, default) -> bool:
    """``value`` is ``default``, or equal to it (an array, or anything
    whose ``==`` is not a truth value, is not)."""
    if value is default:
        return True
    try:
        return bool(value == default)
    except Exception:
        return False


class Bindings:
    """Which keyword parameters of the watched ``__init__`` defs some
    call binds to a value other than the parameter's default."""

    def __init__(self, inits: Iterable[Def]):
        self._defs = {(d.path, d.line): d for d in inits}
        #: code -> (qualname, {parameter: default} never yet set), or
        #: _UNWATCHED
        self._open: Dict = {}
        #: qualname -> its parameters with a default, for each that ran
        self.ran: Dict[str, tuple] = {}
        #: ``qualname(parameter)`` of every parameter some call set
        self.set: Set[str] = set()

    def note(self, frame) -> None:
        """Record what one ``__init__`` call (a frame just started)
        binds."""
        code = frame.f_code
        entry = self._open.get(code)
        if entry is None:
            d = self._defs.get((code.co_filename, code.co_firstlineno))
            entry = self._open[code] = (
                _UNWATCHED if d is None
                else (d.qualname, _defaults(frame)))
            if d is not None:
                self.ran[d.qualname] = tuple(entry[1])
        if entry is _UNWATCHED or not entry[1]:
            return
        qualname, todo = entry
        local = frame.f_locals
        for name in [n for n, default in todo.items()
                     if not _same(local[n], default)]:
            del todo[name]
            self.set.add(f"{qualname}({name})")

    def unset(self) -> List[str]:
        """``qualname(parameter)`` of every keyword parameter of an
        ``__init__`` that ran and that no call set."""
        return sorted(f"{q}({name})" for q, names in self.ran.items()
                      for name in names
                      if f"{q}({name})" not in self.set)


def _defaults(frame) -> Dict[str, object]:
    """``{parameter: default}`` of the ``__init__`` running in
    ``frame``, found on the class of the instance it initialises."""
    code = frame.f_code
    instance = frame.f_locals[code.co_varnames[0]]
    for cls in type(instance).__mro__:
        fn = cls.__dict__.get("__init__")
        if getattr(fn, "__code__", None) is code:
            return {p.name: p.default
                    for p in inspect.signature(fn).parameters.values()
                    if p.default is not p.empty}
    return {}


def settings_verdict(unset: Iterable[str], keep: Dict[str, str]
                     ) -> List[str]:
    """What fails the settings check: a parameter no run sets with no
    ``keep`` row, and a ``keep`` row that names no such parameter."""
    unset = set(unset)
    return ([f"keyword parameter no run sets, not in KEEP_PARAMS: {n}"
             for n in sorted(unset - set(keep))]
            + [f"stale KEEP_PARAMS row (some run sets it, or no such "
               f"parameter): {n}" for n in sorted(set(keep) - unset)])


@contextlib.contextmanager
def reaching(bindings: Optional[Bindings] = None):
    """Collect the code object of every Python frame that starts while
    the block runs, in this thread and in threads it starts; with
    ``bindings``, also what each ``__init__`` call binds."""
    codes: Set = set()
    add = codes.add
    note = bindings.note if bindings is not None else None

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            add(code)
            if note is not None and code.co_name == "__init__":
                note(frame)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield codes
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def unreached(candidates: Iterable[Def], codes: Iterable) -> List[Def]:
    """The non-exempt ``candidates`` none of whose code ran."""
    ran = {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}
    return [d for d in candidates if not d.exempt
            and (d.path, d.line, d.name) not in ran]


def verdict(missed: Iterable[Def], keep: Dict[str, str]) -> List[str]:
    """What fails the check: an unreached function with no ``keep`` row,
    and a ``keep`` row that names nothing unreached."""
    names = {d.qualname for d in missed}
    return ([f"unreached and not in KEEP: {n}"
             for n in sorted(names - set(keep))]
            + [f"stale KEEP row (reached, or no such def): {n}"
               for n in sorted(set(keep) - names)])


# -- the entry points -------------------------------------------------------

def _quiet(fn: Callable[[], object]) -> object:
    """``fn()`` with its output swallowed; a ``SystemExit`` is its code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return fn()
        except SystemExit as exc:
            return exc.code


def _cli(*argv: str, code: int = 0) -> None:
    from repro.cli import main
    got = _quiet(lambda: main(list(argv)))
    if (got or 0) != code:
        raise RuntimeError(f"repro.cli {' '.join(argv)} exited {got}, "
                           f"expected {code}")


def _example(name: str) -> None:
    _quiet(lambda: runpy.run_path(str(ROOT / "examples" / f"{name}.py"),
                                  run_name="__main__"))


def _bench_claims(*argv: str) -> None:
    from benchmarks.bench_claims import main
    got = _quiet(lambda: main(list(argv)))
    if got:
        raise RuntimeError(f"bench_claims.py {' '.join(argv)} exited {got}")


def _ledger(n: int = 120) -> None:
    from benchmarks.perf.adapter import WORKLOADS
    for name, workload in WORKLOADS.items():
        world = workload(workload.inputs(0, n))
        outcome = world.finish(world.run(lambda rid: None))
        if outcome.violations:
            raise RuntimeError(f"ledger workload {name}: "
                               f"{outcome.violations}")


def _ci_commands(tmp: Path) -> None:
    """Every ``repro.cli`` command ``.github/workflows/ci.yml`` runs."""
    from repro.eval.runner import SCENARIOS
    _cli("list")
    _cli("run", "mesh_chaos", "--set", "num_requests=24")
    _cli("run", "mesh_chaos", "--set", "num_requests=16",
         "--set", "topology=mesh")
    _cli("telemetry", "--requests", "12", "--out", str(tmp / "t.jsonl"),
         "--prom", str(tmp / "t.prom"))
    _cli("links", "--jsonl", str(tmp / "t.jsonl"))
    _cli("links")
    _cli("links", "--fluid")
    _cli("fig19")
    for s in SCENARIOS:
        _cli("run", s, "--set", "num_requests=16")
        _cli("run", s, "--set", "num_requests=16",
             "--record", str(tmp / f"{s}.jsonl"))
        _cli("replay", str(tmp / f"{s}.jsonl"), "--verify")
    _cli("run", "serving_load", "--record", str(tmp / "lean.jsonl"))
    _cli("replay", str(tmp / "lean.jsonl"), "--verify")
    _cli("run", "serving_load", "--set", "num_requests=16", "--timelines",
         "--record", str(tmp / "run.jsonl"))
    _cli("replay", str(tmp / "run.jsonl"), "--verify")
    for s in ("adaptive", "multi_tenant", "serving_load"):
        _cli("run", s, "--set", "num_requests=80", "--json")
        _cli("run", s, "--set", "num_requests=80", "--json", "--timelines",
             "--record", str(tmp / "t.jsonl"))
    _cli("run", "multi_tenant", "--set", "num_requests=40", "--json")
    _cli("run", "event_core", "--set", "num_requests=40",
         "--set", "ingress_trace_mbps=40,5,40")
    for argv in (
            ["run", "serving_load", "--record", "/nonexistent/dir/x.jsonl"],
            ["run", "serving_load", "--record", str(tmp)],
            ["run", "serving_load", "--set", "decision_time_s=-1",
             "--record", str(tmp / "rejected.jsonl")],
            ["telemetry", "--out", "/nonexistent/dir/t.jsonl"],
            ["telemetry", "--out", str(tmp / "t.jsonl"), "--prom", str(tmp)],
            ["telemetry", "--out", str(tmp / "t.jsonl"), "--rate", "0"],
            ["telemetry", "--out", str(tmp / "t.jsonl"), "--rate", "nan"],
            ["telemetry", "--out", str(tmp / "t.jsonl"), "--slo-ms", "nan"],
            ["run", "multi_tenant", "--set", "fluid=true"],
            ["run", "multi_tenant",
             "--set", 'tenants=[{"name":"a","rate_hz":Infinity}]'],
            ["run", "multi_tenant",
             "--set", 'tenants=[{"name":"a","rate_hz":4,"weight":NaN}]']):
        _cli(*argv, code=2)


def entry_points(tmp: Path) -> Dict[str, Callable[[], None]]:
    """label -> a run of one entry point, in the order they run."""
    examples = ("quickstart", "dynamic_network", "serving",
                "augmented_computing", "device_swarm", "train_policy",
                "train_supernet")
    return {
        "bench_claims.py --smoke": lambda: _bench_claims("--smoke"),
        "bench_claims.py --smoke <the slow figures>": lambda: _bench_claims(
            "--smoke", "fig11", "ablation_supreme", "rl_baselines"),
        **{f"examples/{e}.py": (lambda e=e: _example(e)) for e in examples},
        "repro.cli, as CI runs it": lambda: _ci_commands(tmp),
        "benchmarks.perf workloads, n = 120": _ledger,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT))          # benchmarks.*, examples' cwd
    t0 = perf_counter()
    candidates = package_defs(SRC, "repro")   # the lines the runs import
    bindings = Bindings(d for d in candidates if d.name == "__init__"
                        and d.qualname.startswith(
                            tuple(p + "." for p in SETTINGS_PACKAGES)))
    with tempfile.TemporaryDirectory() as tmp, \
            reaching(bindings) as codes:
        for label, run in entry_points(Path(tmp)).items():
            t = perf_counter()
            run()
            print(f"ran {label} ({perf_counter() - t:.0f} s)",
                  file=sys.stderr)
    missed = unreached(candidates, codes)
    module = None
    for d in missed:
        if d.qualname.split(":")[0] != module:
            module = d.qualname.split(":")[0]
            print(module)
        reason = KEEP.get(d.qualname)
        print(f"  {d.qualname.split(':')[1]}"
              + (f"  -- KEEP: {reason}" if reason else ""))
    unset = bindings.unset()
    if unset:
        print("keyword parameters no run sets")
    for name in unset:
        reason = KEEP_PARAMS.get(name)
        print(f"  {name}" + (f"  -- KEEP: {reason}" if reason else ""))
    problems = verdict(missed, KEEP) + settings_verdict(unset, KEEP_PARAMS)
    for problem in problems:
        print(problem)
    print(f"{len(missed)} of {len(candidates)} functions unreached "
          f"({sum(d.exempt for d in candidates)} exempt), "
          f"{len(unset)} of {sum(map(len, bindings.ran.values()))} "
          f"keyword parameters never set, "
          f"{len(problems)} problem(s), {perf_counter() - t0:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
