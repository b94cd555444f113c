"""Re-derive evaluation outputs from a recorded serving run.

The inverse of :mod:`repro.telemetry.recorder`: given a recording (the
versioned JSONL stream a :class:`~repro.telemetry.recorder.RunRecorder`
captured), reconstruct :class:`~repro.runtime.server.ServingStats` /
:class:`~repro.runtime.batching.BatchedServingStats` — and therefore
every latency/compliance figure derived from them — **without
re-simulating anything**.

This is the regression-testing lever of the test archetype: a seeded
scenario becomes a golden recording checked into ``tests/fixtures/``,
and any clock or accounting drift in the serving stack shows up as

* a replay/live mismatch (``replay_stats`` no longer equals the stats
  the live run produced), or
* a broken invariant (``verify_invariants`` — arrival ≤ start ≤ finish,
  batch amortization sums, simulated-time conservation), or
* a byte diff against the golden fixture (``rerecord``).

All comparisons on the stats themselves are exact — JSON round-trips
floats losslessly, so replay equality is ``==``, not a tolerance.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from ..runtime.batching import BatchedServingStats, BatchRecord
from ..runtime.server import RequestRecord, ServingStats
from ..telemetry import Telemetry
from ..telemetry.recorder import Recording, RunRecorder, read_recordings

if TYPE_CHECKING:
    from .runner import ScenarioReport

__all__ = ["load_recordings", "replay_stats", "replay_reports",
           "verify_invariants", "rerecord", "format_replay"]

# re-exported so eval code can speak "recordings" without importing
# telemetry internals
load_recordings = read_recordings

_REL = 1e-9
_ABS = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=_ABS)


def replay_stats(rec: Recording) -> ServingStats:
    """Reconstruct the run's ServingStats from its request records.

    Returns :class:`BatchedServingStats` (records + batch timeline)
    when the recording contains batch records, else plain
    :class:`ServingStats`.  Field-for-field equal to what the live run
    returned — floats survive the JSON round trip exactly.
    """
    requests = sorted(rec.requests, key=lambda r: r["id"])
    records = [RequestRecord(
        arrival=r["arrival"], start=r["start"], finish=r["finish"],
        inference_s=r["inference_s"], decision_s=r["decision_s"],
        switch_s=r["switch_s"], satisfied=r["satisfied"],
        outcome=r["outcome"], retries=r["retries"],
        failovers=r["failovers"],
        tenant=r.get("tenant")) for r in requests]
    if not rec.batches:
        return ServingStats(records=records)
    batches = [BatchRecord(
        index=b["index"], size=b["size"], close_s=b["close_s"],
        decision_start_s=b["decision_start_s"], decision_s=b["decision_s"],
        switch_s=b["switch_s"], exec_start_s=b["exec_start_s"],
        finish_s=b["finish_s"], cache_hit=b["cache_hit"],
        overlap_saved_s=b["overlap_saved_s"])
        for b in sorted(rec.batches, key=lambda b: b["index"])]
    return BatchedServingStats(records=records, batches=batches)


def verify_invariants(rec: Recording) -> List[str]:
    """Check serving-accounting invariants; returns violations (empty
    = sound).

    * request ids are dense and arrivals non-decreasing;
    * every request obeys arrival ≤ service start ≤ finish;
    * un-batched requests conserve time exactly:
      ``finish == start + decision + switch + inference``;
    * per batch: member count matches the recorded size, the per-item
      amortized decision+switch costs sum back to the batch's full
      decision+switch cost, execution cannot start before the decision
      and switch are done, and simulated time is conserved across the
      batch (``finish == exec_start + Σ inference``, items back to
      back);
    * the stored summary (if any) agrees with the re-derived stats.
    """
    problems: List[str] = []
    requests = sorted(rec.requests, key=lambda r: r["id"])
    ids = [r["id"] for r in requests]
    if ids != list(range(len(ids))):
        problems.append(f"request ids not dense 0..{len(ids) - 1}: {ids}")
    arrivals = [r["arrival"] for r in requests]
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        problems.append("arrivals are not non-decreasing in request id")
    for r in requests:
        rid = r["id"]
        if not (r["arrival"] <= r["start"] <= r["finish"]):
            problems.append(
                f"request {rid}: arrival <= start <= finish violated "
                f"({r['arrival']} / {r['start']} / {r['finish']})")
        if r["batch"] is None:
            served = (r["start"] + r["decision_s"] + r["switch_s"]
                      + r["inference_s"])
            if not _close(served, r["finish"]):
                problems.append(
                    f"request {rid}: finish {r['finish']} != start + "
                    f"decision + switch + inference {served}")
    by_batch: Dict[int, List[dict]] = {}
    for r in requests:
        if r["batch"] is not None:
            by_batch.setdefault(r["batch"], []).append(r)
    for b in sorted(rec.batches, key=lambda b: b["index"]):
        k = b["index"]
        members = by_batch.pop(k, [])
        if len(members) != b["size"]:
            problems.append(
                f"batch {k}: {len(members)} member requests recorded "
                f"but size is {b['size']}")
            continue
        amortized = sum(m["decision_s"] + m["switch_s"] for m in members)
        full = b["decision_s"] + b["switch_s"]
        if not _close(amortized, full):
            problems.append(
                f"batch {k}: per-item amortized decision+switch sums to "
                f"{amortized}, batch paid {full}")
        earliest = b["decision_start_s"] + b["decision_s"] + b["switch_s"]
        if b["exec_start_s"] < earliest - _ABS:
            problems.append(
                f"batch {k}: execution starts at {b['exec_start_s']} "
                f"before decision+switch end at {earliest}")
        t = b["exec_start_s"]
        for m in members:
            t += m["inference_s"]
            if m["finish"] > b["finish_s"] + _ABS:
                problems.append(
                    f"batch {k}: request {m['id']} finishes at "
                    f"{m['finish']} after the batch at {b['finish_s']}")
        if not _close(t, b["finish_s"]):
            problems.append(
                f"batch {k}: exec start + item inference sums to {t}, "
                f"batch finishes at {b['finish_s']} — simulated time "
                f"not conserved")
    for k, members in by_batch.items():
        problems.append(
            f"batch {k}: {len(members)} requests reference it but no "
            f"batch record exists")
    if rec.summary is not None:
        problems.extend(_check_summary(rec))
    return problems


def _check_summary(rec: Recording) -> List[str]:
    """Cross-check the recorded summary against re-derived stats."""
    problems: List[str] = []
    stats = replay_stats(rec)
    summary = rec.summary or {}
    derived = {
        "num_requests": len(stats.records),
        "throughput_rps": stats.throughput_rps,
        "p50_ms": stats.percentile_ms(50),
        "p95_ms": stats.percentile_ms(95),
        "mean_queue_wait_ms": stats.mean_queue_wait_ms,
        "slo_compliance": stats.slo_compliance,
        "completion_rate": stats.completion_rate,
    }
    if isinstance(stats, BatchedServingStats):
        derived.update(num_batches=len(stats.batches),
                       mean_batch_size=stats.mean_batch_size,
                       amortized_decisions=stats.amortized_decisions,
                       overlap_saved_s=stats.overlap_saved_s)
    for key, want in derived.items():
        got = summary.get(key)
        if got is None:
            problems.append(f"summary missing {key}")
        elif isinstance(want, (int,)) and not isinstance(want, bool):
            if int(got) != want:
                problems.append(f"summary {key}: recorded {got}, "
                                f"replay derives {want}")
        elif not _close(float(got), float(want)):
            problems.append(f"summary {key}: recorded {got}, "
                            f"replay derives {want}")
    tenants = summary.get("tenants")
    if tenants is not None:
        derived_tenants: Dict[str, int] = {}
        for r in stats.records:
            if r.tenant is not None:
                derived_tenants[r.tenant] = (
                    derived_tenants.get(r.tenant, 0) + 1)
        if {k: int(v) for k, v in tenants.items()} != derived_tenants:
            problems.append(
                f"summary tenants {tenants} != replay-derived "
                f"{derived_tenants}")
    outcomes = summary.get("outcomes")
    if outcomes is not None:
        derived_outcomes = {k: v for k, v
                            in stats.outcome_counts().items()}
        if {k: int(v) for k, v in outcomes.items()} != derived_outcomes:
            problems.append(
                f"summary outcomes {outcomes} != replay-derived "
                f"{derived_outcomes}")
    return problems


def replay_reports(
        source: Union[str, Sequence[Recording]],
        ) -> Dict[str, ScenarioReport]:
    """Recordings of one scenario -> the dict ``run_scenario`` would
    return, minus the live handles.

    Accepts a path/file or already-parsed recordings; the result feeds
    :func:`repro.eval.runner.format_reports` directly, so any
    scenario's table derives from its recording alone.
    """
    from .runner import ScenarioReport

    recs = (source if isinstance(source, (list, tuple))
            else read_recordings(source))
    return {rec.variant: ScenarioReport(
                scenario=rec.scenario, name=rec.variant,
                stats=replay_stats(rec), slo_s=rec.config["slo_ms"] / 1e3)
            for rec in recs}


def rerecord(rec: Recording) -> RunRecorder:
    """Re-run the one recorded variant live, capturing a fresh recording.

    Byte-comparing the result against the original is the determinism
    guard: with pinned decision costs a seeded re-recording must be
    identical down to the last float.  A recording that carries
    timelines was captured with telemetry on, so the re-run gets a
    fresh :class:`~repro.telemetry.Telemetry` too.
    """
    from .runner import SCENARIOS, config_from_dict, run_scenario

    spec = SCENARIOS.get(rec.scenario)
    if spec is None:
        raise ValueError(
            f"cannot re-record unknown scenario {rec.scenario!r}; known: "
            f"{', '.join(SCENARIOS)}")
    cfg = config_from_dict(spec.config, rec.config)
    reports = run_scenario(rec.scenario, cfg, record=True,
                           telemetry=Telemetry() if rec.timelines else None,
                           variants=(rec.variant,))
    return reports[rec.variant].recorder


def format_replay(recs: Sequence[Recording]) -> str:
    """Human-readable digest of replayed runs (scenario-agnostic)."""
    lines: List[str] = []
    for rec in recs:
        stats = replay_stats(rec)
        label = rec.variant or "(unnamed)"
        lines.append(f"{rec.scenario}/{label}: {stats.summary()}")
    return "\n".join(lines)
