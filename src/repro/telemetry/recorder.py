"""Record/replay capture: a serving run as a versioned JSONL stream.

Every evaluation figure in this repository used to be produced by
re-simulating the serving stack, so a clock or accounting regression
silently shifted results until someone eyeballed a plot.  The recorder
turns one serving run into a *recording* — request arrivals, condition
snapshots, decisions, per-segment spans, outcomes and batch groupings —
from which :mod:`repro.eval.replay` re-derives :class:`ServingStats`
and the figure-driver inputs without re-running anything.

Determinism is a design constraint, not a nicety: a recording of a
seeded scenario must be **byte-identical** across re-runs so golden
fixtures can be checked into the test suite and diffed.  Consequently:

* only *simulated*-clock quantities are recorded — wall-clock readings
  (host-dependent) never enter a record;
* values are coerced to plain Python scalars before serialization;
* records are emitted in a fixed order (header, conditions, decisions,
  batches, requests, timelines, summary) with sorted JSON keys and
  canonical separators.

The stream is versioned via ``SCHEMA_VERSION`` in the header record; a
reader refuses streams newer than it understands and tolerates unknown
record kinds within a supported version (forward-compatible additions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (IO, Any, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from .timeline import RequestTimeline

__all__ = ["SCHEMA_VERSION", "Recording", "RunRecorder", "NullRecorder",
           "NULL_RECORDER", "read_recordings", "write_recordings"]

#: bump when a record kind changes incompatibly; readers refuse newer
SCHEMA_VERSION = 1


def _json_default(obj):
    """Tolerate NumPy scalars (and anything else stringable) in attrs."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


def _dumps(rec: Dict[str, Any]) -> str:
    """Canonical one-line JSON: sorted keys, no whitespace."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Span attrs with values coerced to JSON-stable scalars."""
    out: Dict[str, Any] = {}
    for k, v in attrs.items():
        if isinstance(v, bool):
            out[k] = v
        elif isinstance(v, (int, float, str)) or v is None:
            out[k] = v
        else:
            item = getattr(v, "item", None)
            out[k] = item() if callable(item) else str(v)
    return out


class RunRecorder:
    """Captures one serving run; hand it to the server/runtime via
    their ``recorder=`` parameters.

    One recorder corresponds to one run of one variant — reuse across
    runs concatenates events and breaks replay invariants.
    """

    def __init__(self, scenario: str, variant: str = "",
                 config: Optional[Dict[str, Any]] = None):
        self.scenario = scenario
        self.variant = variant
        self.config = dict(config) if config else {}
        self.conditions: List[Dict[str, Any]] = []
        self.decisions: List[Dict[str, Any]] = []
        self.requests: List[Dict[str, Any]] = []
        self.batches: List[Dict[str, Any]] = []
        self.timelines: List[Dict[str, Any]] = []
        self.summary: Optional[Dict[str, Any]] = None

    @staticmethod
    def of(recorder: Optional["RunRecorder"]):
        """``recorder`` itself, or :data:`NULL_RECORDER` for ``None``."""
        return recorder if recorder is not None else NULL_RECORDER

    # -- event capture (called from instrumented code) ---------------------
    def on_condition(self, t: float, index: int, condition) -> None:
        """The true world switched to trace cell ``index`` at ``t``."""
        self.conditions.append({
            "record": "condition",
            "t": float(t),
            "index": int(index),
            "bandwidths_mbps": [float(b) for b in condition.bandwidths_mbps],
            "delays_ms": [float(d) for d in condition.delays_ms],
        })

    def on_decision(self, t: float, engine: str, decision_s: float,
                    cache_hit: bool) -> None:
        """One decision-engine consultation (cache hits included)."""
        self.decisions.append({
            "record": "decision",
            "t": float(t),
            "engine": str(engine),
            "decision_s": float(decision_s),
            "cache_hit": bool(cache_hit),
        })

    def on_request(self, request_id: int, rr,
                   batch: Optional[int] = None) -> None:
        """One finished request (a ``RequestRecord``-shaped object)."""
        rec = {
            "record": "request",
            "id": int(request_id),
            "arrival": float(rr.arrival),
            "start": float(rr.start),
            "finish": float(rr.finish),
            "inference_s": float(rr.inference_s),
            "decision_s": float(rr.decision_s),
            "switch_s": float(rr.switch_s),
            "satisfied": bool(rr.satisfied),
            "outcome": str(rr.outcome),
            "retries": int(rr.retries),
            "failovers": int(rr.failovers),
            "batch": (int(batch) if batch is not None else None),
        }
        # tenant tag only when present: single-tenant recordings (and
        # their golden fixtures) stay byte-identical
        tenant = getattr(rr, "tenant", None)
        if tenant is not None:
            rec["tenant"] = str(tenant)
        self.requests.append(rec)

    def on_requests(self, first_id: int, records: Sequence,
                    batch: Optional[int] = None) -> None:
        """:meth:`on_request` for each record, ids from ``first_id``."""
        for request_id, rr in enumerate(records, first_id):
            self.on_request(request_id, rr, batch=batch)

    def on_batch(self, br) -> None:
        """One dispatched batch (a ``BatchRecord``-shaped object)."""
        self.batches.append({
            "record": "batch",
            "index": int(br.index),
            "size": int(br.size),
            "close_s": float(br.close_s),
            "decision_start_s": float(br.decision_start_s),
            "decision_s": float(br.decision_s),
            "switch_s": float(br.switch_s),
            "exec_start_s": float(br.exec_start_s),
            "finish_s": float(br.finish_s),
            "cache_hit": bool(br.cache_hit),
            "overlap_saved_s": float(br.overlap_saved_s),
        })

    def capture_timelines(self,
                          timelines: Iterable[RequestTimeline]) -> None:
        """Snapshot per-request span timelines, simulated clock only.

        Wall-clock durations are host-dependent and deliberately
        dropped — a recording must be byte-stable across machines.
        """
        for tl in timelines:
            events = []
            for e in tl.events:
                ev: Dict[str, Any] = {
                    "name": e.name,
                    "sim_start": (float(e.sim_start)
                                  if e.sim_start is not None else None),
                    "sim_duration_s": float(e.sim_duration_s),
                    "depth": int(e.depth),
                }
                if e.attrs:
                    ev["attrs"] = _clean_attrs(e.attrs)
                events.append(ev)
            self.timelines.append({
                "record": "timeline",
                "request_id": tl.request_id,
                "attrs": _clean_attrs(tl.attrs),
                "events": events,
            })

    def finish(self, stats) -> None:
        """Summarize a finished run (a ``ServingStats``-shaped object).

        The summary is provenance *and* tripwire: replay recomputes the
        same aggregates from the request records and cross-checks.
        """
        summary: Dict[str, Any] = {
            "record": "summary",
            "num_requests": len(stats.records),
            "throughput_rps": float(stats.throughput_rps),
            "p50_ms": float(stats.percentile_ms(50)),
            "p95_ms": float(stats.percentile_ms(95)),
            "mean_queue_wait_ms": float(stats.mean_queue_wait_ms),
            "slo_compliance": float(stats.slo_compliance),
            "completion_rate": float(stats.completion_rate),
            "outcomes": {k: int(v)
                         for k, v in stats.outcome_counts().items()},
        }
        if hasattr(stats, "batches"):
            summary.update(
                num_batches=len(stats.batches),
                mean_batch_size=float(stats.mean_batch_size),
                amortized_decisions=int(stats.amortized_decisions),
                overlap_saved_s=float(stats.overlap_saved_s))
        # per-tenant request counts only when the run was tenant-tagged,
        # so single-tenant summaries keep their exact key set
        tenants = (stats.tenants() if hasattr(stats, "tenants") else [])
        if tenants:
            summary["tenants"] = {
                t: sum(1 for r in stats.records if r.tenant == t)
                for t in tenants}
        self.summary = summary

    # -- serialization -----------------------------------------------------
    def records(self) -> Iterator[Dict[str, Any]]:
        """All records in the canonical (deterministic) stream order."""
        yield {
            "record": "run-header",
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "variant": self.variant,
            "config": self.config,
        }
        for group in (self.conditions, self.decisions, self.batches,
                      self.requests, self.timelines):
            for rec in group:
                yield rec
        if self.summary is not None:
            yield self.summary

    def recording(self) -> "Recording":
        """Freeze the captured run into a readable :class:`Recording`."""
        return Recording(
            header=next(self.records()),
            conditions=list(self.conditions),
            decisions=list(self.decisions),
            requests=list(self.requests),
            batches=list(self.batches),
            timelines=list(self.timelines),
            summary=self.summary,
        )


class NullRecorder:
    """The recorder of a run nobody captures: :class:`RunRecorder`'s
    event-capture surface, every call a no-op that builds no record."""

    def on_request(self, *args, **kwargs) -> None:
        pass

    on_condition = on_decision = on_batch = on_requests = on_request
    capture_timelines = finish = on_request


NULL_RECORDER = NullRecorder()


@dataclass
class Recording:
    """One parsed run: the header plus its records, grouped by kind."""

    header: Dict[str, Any]
    conditions: List[Dict[str, Any]] = field(default_factory=list)
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    requests: List[Dict[str, Any]] = field(default_factory=list)
    batches: List[Dict[str, Any]] = field(default_factory=list)
    timelines: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None

    @property
    def schema(self) -> int:
        return int(self.header.get("schema", 0))

    @property
    def scenario(self) -> str:
        return str(self.header.get("scenario", ""))

    @property
    def variant(self) -> str:
        return str(self.header.get("variant", ""))

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self.header.get("config", {}))

    def records(self) -> Iterator[Dict[str, Any]]:
        """Re-emit in canonical stream order (round-trip safe)."""
        yield self.header
        for group in (self.conditions, self.decisions, self.batches,
                      self.requests, self.timelines):
            for rec in group:
                yield rec
        if self.summary is not None:
            yield self.summary


_GROUPS = {
    "condition": "conditions",
    "decision": "decisions",
    "request": "requests",
    "batch": "batches",
    "timeline": "timelines",
}


def write_recordings(dest: Union[str, IO[str]],
                     runs: Sequence) -> int:
    """Write recorders/recordings as one JSONL stream; returns lines.

    ``runs`` is a sequence of :class:`RunRecorder` or :class:`Recording`
    objects; each contributes its header-led block in order.
    """
    if hasattr(dest, "write"):
        n = 0
        for run in runs:
            for rec in run.records():
                dest.write(_dumps(rec) + "\n")  # type: ignore[union-attr]
                n += 1
        return n
    with open(dest, "w") as fh:  # type: ignore[arg-type]
        return write_recordings(fh, runs)


def read_recordings(src: Union[str, IO[str]]) -> List[Recording]:
    """Parse a JSONL recording stream into per-run :class:`Recording`\\ s.

    Raises ``ValueError`` on a stream that does not start with a run
    header or whose schema is newer than this reader.  Record kinds the
    reader does not know are skipped (forward-compatible additions
    within a supported schema version).
    """
    if not hasattr(src, "read"):
        with open(src) as fh:  # type: ignore[arg-type]
            return read_recordings(fh)
    runs: List[Recording] = []
    current: Optional[Recording] = None
    for lineno, line in enumerate(src, start=1):  # type: ignore[arg-type]
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        kind = rec.get("record")
        if kind == "run-header":
            schema = int(rec.get("schema", 0))
            if schema > SCHEMA_VERSION:
                raise ValueError(
                    f"recording schema {schema} is newer than supported "
                    f"schema {SCHEMA_VERSION} (line {lineno})")
            current = Recording(header=rec)
            runs.append(current)
            continue
        if current is None:
            raise ValueError(
                f"line {lineno}: record before any run-header")
        if kind == "summary":
            current.summary = rec
        else:
            group = _GROUPS.get(kind)
            if group is not None:
                getattr(current, group).append(rec)
            # unknown kinds: skipped for forward compatibility
    return runs
