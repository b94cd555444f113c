"""The one scenario runner: registry, build step, run step, report, table,
claims.

``SCENARIOS`` maps a name to its :class:`~repro.eval.spec.Scenario`.
:func:`build_world` builds one variant's world — the scenario's own
parts, then the seeded search engine (decision cost pinned, optionally
frozen to one static strategy), the :class:`Murmuration` facade, the
FIFO or batching server and, with ``record=True``, a
:class:`~repro.telemetry.recorder.RunRecorder`; :func:`run_world`
serves the stream, closes the recording and returns a
:class:`ScenarioReport`; :func:`run_scenario` loops over the variants.
Every variant sees the identical world because each part is a pure
function of the config, and with a pinned ``decision_time_s`` (every
config's default) so is the recording, byte for byte.
:func:`check_claims` evaluates a scenario's declared acceptance.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import asdict, dataclass
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence)

from ..core.decision import SearchDecisionEngine
from ..core.murmuration import Murmuration
from ..core.slo import SLO
from ..faults.injector import NULL_FAULTS
from ..nas.search_space import MBV3_SPACE
from ..runtime.batching import BatchingInferenceServer
from ..runtime.server import InferenceServer, ServingStats
from ..telemetry.recorder import RunRecorder
from . import (adaptive, chaos, event_core, mesh_chaos, multi_tenant,
               serving_load)
from .spec import (Claim, ClaimResult, PinnedTimeEngine, Scenario,
                   StaticEngine, World, check_names, compare)

__all__ = ["COLUMNS", "Column", "SCENARIOS", "ScenarioReport", "build_world",
           "check_claims", "config_from_dict", "format_reports",
           "override_config", "report_values", "run_scenario", "run_world"]

SCENARIOS: Dict[str, Scenario] = {spec.name: spec for spec in (
    serving_load.SCENARIO, chaos.SCENARIO, mesh_chaos.SCENARIO,
    adaptive.SCENARIO, multi_tenant.SCENARIO, event_core.SCENARIO)}


def _spec(scenario: str) -> Scenario:
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario!r}; known: "
                         f"{', '.join(SCENARIOS)}") from None


# -- configs from recording headers and ``field=value`` strings ------------

def _dataclass_in(hint) -> Optional[type]:
    if dataclasses.is_dataclass(hint):
        return hint
    for arg in typing.get_args(hint):
        found = _dataclass_in(arg)
        if found is not None:
            return found
    return None


def _coerce(value, hint):
    """JSON shape -> field shape: lists are tuples, dicts are records."""
    if isinstance(value, list):
        return tuple(_coerce(v, hint) for v in value)
    if isinstance(value, dict):
        record = _dataclass_in(hint)
        if record is None:
            raise ValueError(f"unexpected mapping {value!r}")
        return config_from_dict(record, value)
    return value


def config_from_dict(cls: type, config: Mapping[str, Any]):
    """Rebuild a config dataclass from its ``asdict`` JSON round trip
    (a recording header): lists become tuples again, nested mappings
    become the dataclass the field's annotation names."""
    hints = typing.get_type_hints(cls)
    unknown = [k for k in config if k not in hints]
    if unknown:
        raise ValueError(
            f"{cls.__name__} has no field {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(hints)}")
    missing = [f.name for f in dataclasses.fields(cls)
               if f.name not in config and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{cls.__name__} needs {', '.join(missing)}")
    return cls(**{k: _coerce(v, hints[k]) for k, v in config.items()})


def _parse(text: str, hint):
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if text.lower() == "none":
            return None
        hint = next(a for a in args if a is not type(None))
    if hint in (int, float, str):
        return hint(text)
    # a tuple field: comma-separated numbers, or JSON for tuples of records
    if _dataclass_in(hint) is not None:
        return _coerce(json.loads(text), hint)
    return tuple(float(part) for part in text.split(","))


def override_config(cfg, assignments: Sequence[str]):
    """Apply ``field=value`` strings to a config dataclass.

    Values parse by the field's annotation: ``num_requests=40``,
    ``decision_time_s=none``, ``burst_window=2,4``.
    Raises ``ValueError`` naming the valid fields (or the expected
    type) on anything else.
    """
    hints = typing.get_type_hints(type(cfg))
    changes = {}
    for item in assignments:
        name, sep, text = item.partition("=")
        if not sep:
            raise ValueError(f"expected FIELD=VALUE, got {item!r}")
        if name not in hints:
            raise ValueError(
                f"{type(cfg).__name__} has no field {name!r}; "
                f"valid fields: {', '.join(hints)}")
        try:
            changes[name] = _parse(text, hints[name])
        except ValueError as exc:
            hint = hints[name]
            kind = hint.__name__ if isinstance(hint, type) else hint
            raise ValueError(
                f"{item!r} does not parse as {kind}: {exc}") from None
    return dataclasses.replace(cfg, **changes)


# -- build one variant's world, run it -------------------------------------

def build_world(scenario: str, cfg, variant: str, *, telemetry=None,
                record: bool = False, **knobs) -> World:
    """Build one variant of ``scenario``, ready to :func:`run_world`.

    ``cfg=None`` is the scenario's default config.  ``knobs`` are
    arguments of the scenario's ``world`` function; they override the
    variant's own for one-off ablations.
    """
    spec = _spec(scenario)
    cfg = spec.config() if cfg is None else cfg
    if variant not in spec.variants:
        raise ValueError(f"scenario {scenario!r} has no variant {variant!r}; "
                         f"known: {', '.join(spec.variants)}")
    world = spec.world(cfg, telemetry, **{**spec.variants[variant], **knobs})
    devices = list(world.devices)
    engine = SearchDecisionEngine(MBV3_SPACE, devices,
                                  n_random_archs=cfg.n_random_archs,
                                  seed=cfg.seed)
    if cfg.decision_time_s is not None:
        # Pin *before* the static wrapper: a static variant's one-off
        # nominal decision is free either way, so pinning only re-prices
        # the adaptive variants' cache misses.
        engine = PinnedTimeEngine(engine, cfg.decision_time_s)
    if world.static:
        engine = StaticEngine(engine, world.condition)
    world.recorder = recorder = (
        RunRecorder(scenario, variant=variant, config=asdict(cfg))
        if record else None)
    world.system = Murmuration(
        MBV3_SPACE, devices, world.condition, engine,
        slo=SLO.latency_ms(cfg.slo_ms), use_predictor=False,
        monitor_noise=0.02, seed=cfg.seed, telemetry=telemetry,
        faults=world.faults, resilience=world.resilience, recorder=recorder,
        control=world.control, cluster=world.cluster,
        clock=world.events.clock if world.events is not None else None)
    common = dict(seed=cfg.seed + 1, telemetry=telemetry, recorder=recorder,
                  control=world.control,
                  arrival_process=world.arrival_process, events=world.events)
    if world.policy is not None:
        world.server = BatchingInferenceServer(
            world.system, world.arrival_rate_hz, policy=world.policy,
            **common)
    else:
        world.server = InferenceServer(
            world.system, world.arrival_rate_hz, ingress=world.ingress,
            **common)
    world.scenario, world.variant, world.cfg = scenario, variant, cfg
    return world


@dataclass
class ScenarioReport:
    """One variant's outcome: the stats, the live handles, and the
    derived metrics the tables and claims read.

    Handles are None where the variant had no such part — and all of
    them are None on a report replayed from a recording.
    """

    scenario: str
    name: str
    stats: ServingStats
    slo_s: float
    control: Any = None
    tracker: Any = None
    events: Any = None
    system: Any = None
    #: populated when the run was captured (``record=True``)
    recorder: Optional[RunRecorder] = None

    @property
    def compliance(self) -> float:
        return self.stats.slo_compliance

    @property
    def completion(self) -> float:
        return self.stats.completion_rate

    @property
    def e2e_compliance(self) -> float:
        """Deployment-facing compliance: end-to-end, sheds counted."""
        return self.stats.e2e_compliance(self.slo_s)

    @property
    def worst_tenant_compliance(self) -> float:
        return self.stats.worst_tenant_e2e_compliance(self.slo_s)

    def tenant_compliance(self) -> Dict[str, float]:
        return {t: v.e2e_compliance(self.slo_s)
                for t, v in self.stats.per_tenant().items()}

    @property
    def throughput_rps(self) -> float:
        return self.stats.throughput_rps

    @property
    def outcomes(self) -> dict:
        return self.stats.outcome_counts()

    @property
    def shed(self) -> int:
        return self.stats.shed_count

    @property
    def degraded(self) -> int:
        return self.outcomes["degraded"]

    @property
    def recovery_s(self) -> Optional[float]:
        """Simulated seconds from the last fault clearing until the
        first clean ("ok" + SLO-satisfied) request finished; None if
        never (or if the world had no faults)."""
        schedule = getattr(self.system, "faults", NULL_FAULTS).schedule
        horizon = schedule.horizon
        for r in (self.stats.records if schedule else ()):
            if r.start >= horizon and r.outcome == "ok" and r.satisfied:
                return r.finish - horizon
        return None


def run_world(world: World) -> ScenarioReport:
    """Serve a built world's request stream; close its recording."""
    server, cfg = world.server, world.cfg
    stats = server.run(num_requests=cfg.num_requests,
                       condition_trace=world.trace,
                       trace_period_s=world.trace_period_s,
                       tenants=world.tenants)
    if world.recorder is not None:
        # the null hub's timelines are empty
        world.recorder.capture_timelines(server.telemetry.timelines)
        world.recorder.finish(stats)
    return ScenarioReport(
        scenario=world.scenario, name=world.variant, stats=stats,
        slo_s=cfg.slo_ms / 1e3, control=world.control,
        tracker=world.tracker, events=world.events, system=world.system,
        recorder=world.recorder)


def run_scenario(scenario: str, cfg=None, *, telemetry=None,
                 record: bool = False,
                 variants: Optional[Sequence[str]] = None,
                 ) -> Dict[str, ScenarioReport]:
    """Run ``variants`` (default: all) on the identical world; keyed by
    variant name.

    ``telemetry`` (optional) instruments only the scenario's one
    instrumented variant.  ``record=True`` captures each variant into a
    :class:`~repro.telemetry.recorder.RunRecorder` (on its report) that
    :mod:`repro.eval.replay` can re-derive statistics from.
    """
    spec = _spec(scenario)
    return {
        name: run_world(build_world(
            scenario, cfg, name, record=record,
            telemetry=telemetry if name == spec.instrumented else None))
        for name in (spec.variants if variants is None else variants)}


# -- one column-driven table ------------------------------------------------

class Column(NamedTuple):
    header: str
    value: Callable[[ScenarioReport], Any]
    fmt: Callable[[Any], str] = str


_pct = "{:.0%}".format
_f0 = "{:.0f}".format
_f1 = "{:.1f}".format


def _mean_ms(rep: ScenarioReport) -> float:
    served = [r for r in rep.stats.records if r.outcome != "shed"]
    if not served:
        return 0.0
    return sum(r.end_to_end_s for r in served) / len(served) * 1e3


#: every column a scenario may name, by header; None prints as "-"
COLUMNS: Dict[str, Column] = {col.header: col for col in (
    Column("rps", lambda r: r.throughput_rps, _f1),
    Column("p50ms", lambda r: r.stats.percentile_ms(50), _f0),
    Column("p95ms", lambda r: r.stats.percentile_ms(95), _f0),
    Column("mean-ms", _mean_ms, _f0),
    Column("queue", lambda r: r.stats.mean_queue_wait_ms, _f0),
    Column("comply", lambda r: r.compliance, _pct),
    Column("complete", lambda r: r.completion, _pct),
    Column("e2e", lambda r: r.e2e_compliance, _pct),
    Column("worst", lambda r: r.worst_tenant_compliance, _pct),
    Column("ok", lambda r: r.outcomes["ok"]),
    Column("retr", lambda r: r.outcomes["retried"]),
    Column("degr", lambda r: r.degraded),
    Column("fail", lambda r: r.outcomes["failed"]),
    Column("shed", lambda r: r.shed),
    Column("batch", lambda r: getattr(r.stats, "mean_batch_size", None), _f1),
    Column("saved", lambda r: getattr(r.stats, "overlap_saved_s", None),
           lambda v: f"{v * 1e3:.0f}ms"),
    Column("retries", lambda r: sum(x.retries for x in r.stats.records)),
    Column("failovers", lambda r: sum(x.failovers for x in r.stats.records)),
    Column("recovery", lambda r: r.recovery_s, "{:.2f}s".format),
    # requests served over a backup mesh path
    Column("reroute", lambda r: getattr(r.system, "path_reroutes", None)),
    Column("contended", lambda r: getattr(r.tracker, "contended_total", None)),
    Column("caps-upd",
           lambda r: getattr(r.tracker, "caps_updates_total", None)),
    Column("events", lambda r: getattr(r.events, "fired_total", None)),
)}


def _columns(reports: Sequence[ScenarioReport]) -> List[Column]:
    cols = []
    for key in _spec(reports[0].scenario).columns:
        if key == "tenants":  # one e2e-compliance column per tenant
            names = dict.fromkeys(t for rep in reports
                                  for t in rep.stats.tenants())
            cols += [Column(n, lambda r, n=n: r.tenant_compliance().get(n),
                            _pct) for n in names]
        else:
            cols.append(COLUMNS[key])
    return cols


def report_values(reports: Mapping[str, ScenarioReport],
                  ) -> Dict[str, Dict[str, Any]]:
    """The table's raw values: ``{variant: {column header: value}}``."""
    reps = list(reports.values())
    cols = _columns(reps)
    return {rep.name: {col.header: col.value(rep) for col in cols}
            for rep in reps}


def format_reports(reports: Mapping[str, ScenarioReport]) -> str:
    """One row per variant under the scenario's declared columns, plus
    a ``control:`` line under every variant a control loop steered."""
    reps = list(reports.values())
    cols = [Column("variant", lambda r: r.name)] + _columns(reps)
    rows = [[col.header for col in cols]]
    for rep in reps:
        values = [col.value(rep) for col in cols]
        rows.append(["-" if v is None else col.fmt(v)
                     for col, v in zip(cols, values)])
    widths = [max(len(row[i]) for row in rows) + 2
              for i in range(len(cols))]
    lines = []
    for rep, row in zip([None] + reps, rows):
        lines.append("".join(f"{cell:>{w}s}" for cell, w in zip(row, widths)))
        if rep is not None and rep.control is not None:
            lines.append(f"{'':>{widths[0]}s} control: "
                         f"{rep.control.summary()}")
    return "\n".join(lines)


# -- acceptance claims -------------------------------------------------------

def check_claims(scenario: str, cfg=None, reports=None,
                 claims: Optional[Sequence[Claim]] = None,
                 ) -> List[ClaimResult]:
    """Evaluate the scenario's claims (or ``claims``) at ``cfg``.

    ``reports`` are ``run_scenario(scenario, cfg)``'s when the caller
    already has them; a cell in another world is run here, each
    (world, variant) once.  A claim naming an unknown variant, column,
    operator or config field raises ``ValueError`` before anything runs.
    """
    spec = _spec(scenario)
    cfg = spec.config() if cfg is None else cfg
    claims = spec.claims if claims is None else claims
    worlds = {}
    for claim in claims:
        named = []
        for cell in (claim.left, claim.right):
            if isinstance(cell, tuple):
                variant, column, *world = cell
                named += [("variant", variant, spec.variants),
                          ("column", column, COLUMNS)]
                worlds[tuple(world), variant] = override_config(cfg, world)
        check_names(scenario, claim, named)
    ran = {((), name): rep for name, rep in (reports or {}).items()}
    for (world, variant), world_cfg in worlds.items():
        if (world, variant) not in ran:
            ran[world, variant] = run_scenario(
                scenario, world_cfg, variants=(variant,))[variant]

    def value(cell):
        if not isinstance(cell, tuple):
            return cell
        variant, column, *world = cell
        return COLUMNS[column].value(ran[tuple(world), variant])

    return compare(claims, value)
