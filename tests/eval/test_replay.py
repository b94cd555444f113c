"""Record/replay: golden-run regression tests and serving invariants.

The golden fixture is a full ``serving_load`` recording (seed 7, 12
requests, timelines on) checked in under ``tests/fixtures/``.  It pins
the serving stack three ways:

* **replay** — stats re-derived from the recording must equal the
  recorded summary field for field (floats survive JSON round trips
  exactly, so equality is ``==``, not a tolerance);
* **re-record** — re-running the recorded config live must produce a
  byte-identical stream (any clock or accounting drift diffs): the
  ``serving_load_golden`` entry of ``tests/frozen.py``;
* **invariants** — every recording must satisfy the serving-time
  conservation laws that ``verify_invariants`` encodes.
"""

import copy
import functools
import io
import math
from pathlib import Path

import pytest

from repro.eval.replay import (format_replay, load_recordings,
                               replay_reports, replay_stats, rerecord,
                               verify_invariants)
from repro.eval.runner import SCENARIOS, format_reports, run_scenario
from repro.runtime.batching import BatchedServingStats
from repro.runtime.server import ServingStats
from repro.telemetry import Recording, Telemetry, write_recordings

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" \
    / "serving_load_golden.jsonl"

VARIANTS = ["fifo", "batched", "batched-serial"]


@pytest.fixture(scope="module")
def golden():
    return load_recordings(str(GOLDEN))


@functools.lru_cache(maxsize=None)
def fresh_reports():
    """``run serving_load --set num_requests=12 --set seed=7 --timelines
    --record``, the golden's command."""
    cfg = SCENARIOS["serving_load"].config(num_requests=12, seed=7)
    return run_scenario("serving_load", cfg, telemetry=Telemetry(),
                        record=True)


def fixture_content():
    buf = io.StringIO()
    write_recordings(buf, [fresh_reports()[name].recorder
                           for name in VARIANTS])
    return buf.getvalue()


@pytest.fixture(scope="module")
def fresh():
    return fresh_reports()


class TestGoldenFixture:
    def test_fixture_holds_all_three_variants(self, golden):
        assert [rec.variant for rec in golden] == VARIANTS
        assert all(rec.scenario == "serving_load" for rec in golden)
        assert all(rec.schema == 1 for rec in golden)

    def test_replay_types_follow_the_variant(self, golden):
        by_name = {rec.variant: replay_stats(rec) for rec in golden}
        assert type(by_name["fifo"]) is ServingStats
        assert type(by_name["batched"]) is BatchedServingStats
        assert type(by_name["batched-serial"]) is BatchedServingStats

    def test_replay_reproduces_summary_field_for_field(self, golden):
        """Aggregates re-derived from request records alone must equal
        the summary the live run wrote — exactly, no tolerance."""
        for rec in golden:
            stats = replay_stats(rec)
            s = rec.summary
            assert len(stats.records) == s["num_requests"]
            assert stats.throughput_rps == s["throughput_rps"]
            assert stats.percentile_ms(50) == s["p50_ms"]
            assert stats.percentile_ms(95) == s["p95_ms"]
            assert stats.mean_queue_wait_ms == s["mean_queue_wait_ms"]
            assert stats.slo_compliance == s["slo_compliance"]
            assert stats.completion_rate == s["completion_rate"]
            assert stats.outcome_counts() == s["outcomes"]
            if isinstance(stats, BatchedServingStats):
                assert len(stats.batches) == s["num_batches"]
                assert stats.mean_batch_size == s["mean_batch_size"]
                assert stats.amortized_decisions == s["amortized_decisions"]
                assert stats.overlap_saved_s == s["overlap_saved_s"]

    def test_golden_recordings_satisfy_all_invariants(self, golden):
        for rec in golden:
            assert verify_invariants(rec) == []

    def test_timelines_recorded_for_instrumented_variant(self, golden):
        by_name = {rec.variant: rec for rec in golden}
        assert len(by_name["batched"].timelines) > 0
        for tl in by_name["batched"].timelines:
            for ev in tl["events"]:
                assert "wall_duration_s" not in ev


class TestLiveEqualsReplay:
    def test_replay_equals_live_stats_exactly(self, fresh):
        """ServingStats rebuilt from a recording must ``==`` the stats
        object the live run returned, for every variant."""
        for name in VARIANTS:
            rep = fresh[name]
            assert replay_stats(rep.recorder.recording()) == rep.stats

    def test_equality_survives_the_byte_round_trip(self, fresh):
        buf = io.StringIO()
        write_recordings(buf, [fresh[name].recorder for name in VARIANTS])
        buf.seek(0)
        for rec in load_recordings(buf):
            assert replay_stats(rec) == fresh[rec.variant].stats

    def test_fresh_recordings_satisfy_all_invariants(self, fresh):
        for name in VARIANTS:
            assert verify_invariants(
                fresh[name].recorder.recording()) == []


class TestServingInvariants:
    """Property checks on the live runtime's own accounting."""

    def test_arrival_start_finish_ordering(self, fresh):
        for name in VARIANTS:
            for r in fresh[name].stats.records:
                assert r.arrival <= r.start <= r.finish

    def test_fifo_conserves_simulated_time_per_request(self, fresh):
        for r in fresh["fifo"].stats.records:
            assert math.isclose(
                r.finish,
                r.start + r.decision_s + r.switch_s + r.inference_s,
                rel_tol=1e-9, abs_tol=1e-12)

    def _members_by_batch(self, recorder):
        members = {}
        for req in recorder.requests:
            if req["batch"] is not None:
                members.setdefault(req["batch"], []).append(req)
        return members

    def test_batch_amortized_costs_sum_to_batch_cost(self, fresh):
        for name in ("batched", "batched-serial"):
            rec = fresh[name].recorder
            members = self._members_by_batch(rec)
            assert members, "expected batched requests"
            for b in fresh[name].stats.batches:
                group = members[b.index]
                assert len(group) == b.size
                amortized = sum(m["decision_s"] + m["switch_s"]
                                for m in group)
                assert math.isclose(amortized, b.decision_s + b.switch_s,
                                    rel_tol=1e-9, abs_tol=1e-12)

    def test_simulated_time_conserved_across_infer_batch(self, fresh):
        for name in ("batched", "batched-serial"):
            rec = fresh[name].recorder
            members = self._members_by_batch(rec)
            for b in fresh[name].stats.batches:
                assert (b.exec_start_s
                        >= b.decision_start_s + b.decision_s + b.switch_s
                        - 1e-12)
                span = sum(m["inference_s"] for m in members[b.index])
                assert math.isclose(b.exec_start_s + span, b.finish_s,
                                    rel_tol=1e-9, abs_tol=1e-12)
                for m in members[b.index]:
                    assert m["finish"] <= b.finish_s + 1e-12


def _tampered(rec, mutate):
    clone = copy.deepcopy(rec)
    mutate(clone)
    return verify_invariants(clone)


class TestInvariantDetection:
    """verify_invariants must actually catch corrupted recordings."""

    def _first(self, golden, variant):
        return next(r for r in golden if r.variant == variant)

    def test_detects_time_travel(self, golden):
        def mutate(rec):
            rec.requests[0]["start"] = rec.requests[0]["arrival"] - 1.0
        problems = _tampered(self._first(golden, "fifo"), mutate)
        assert any("arrival <= start <= finish" in p for p in problems)

    def test_detects_unbatched_time_leak(self, golden):
        def mutate(rec):
            rec.requests[0]["inference_s"] += 0.5
        problems = _tampered(self._first(golden, "fifo"), mutate)
        assert any("start + decision + switch + inference" in p
                   for p in problems)

    def test_detects_broken_amortization(self, golden):
        def mutate(rec):
            batched = [r for r in rec.requests if r["batch"] is not None]
            batched[0]["decision_s"] += 0.5
        problems = _tampered(self._first(golden, "batched"), mutate)
        assert any("amortized" in p for p in problems)

    def test_detects_batch_size_mismatch(self, golden):
        def mutate(rec):
            rec.batches[0]["size"] += 1
        problems = _tampered(self._first(golden, "batched"), mutate)
        assert any("size" in p for p in problems)

    def test_detects_orphan_batch_reference(self, golden):
        def mutate(rec):
            batched = [r for r in rec.requests if r["batch"] is not None]
            batched[0]["batch"] = 999
        problems = _tampered(self._first(golden, "batched"), mutate)
        assert any("no batch record exists" in p for p in problems)

    def test_detects_premature_execution(self, golden):
        def mutate(rec):
            rec.batches[0]["exec_start_s"] = (
                rec.batches[0]["decision_start_s"] - 1.0)
        problems = _tampered(self._first(golden, "batched"), mutate)
        assert any("execution starts" in p for p in problems)

    def test_detects_summary_drift(self, golden):
        def mutate(rec):
            rec.summary["p95_ms"] += 1.0
        problems = _tampered(self._first(golden, "fifo"), mutate)
        assert any("p95_ms" in p for p in problems)

    def test_detects_missing_request(self, golden):
        def mutate(rec):
            del rec.requests[3]
        problems = _tampered(self._first(golden, "fifo"), mutate)
        assert any("not dense" in p for p in problems)


class TestReplayDrivers:
    def test_replayed_reports_feed_the_formatter(self, golden, fresh):
        """The table derived from the recording alone is the live one."""
        reports = replay_reports(golden)
        assert list(reports) == VARIANTS
        assert format_reports(reports) == format_reports(fresh)

    def test_replay_reports_accepts_a_path(self):
        reports = replay_reports(str(GOLDEN))
        assert set(reports) == set(VARIANTS)

    def test_format_replay_digests_every_run(self, golden):
        text = format_replay(golden)
        assert text.count("serving_load/") == 3

    def test_rerecord_refuses_unknown_scenarios(self):
        bogus = Recording(header={"record": "run-header", "schema": 1,
                                  "scenario": "bogus", "variant": "x",
                                  "config": {}})
        with pytest.raises(ValueError, match="bogus"):
            rerecord(bogus)

    def test_rerecord_names_an_unknown_config_key(self, golden):
        header = dict(golden[0].header,
                      config=dict(golden[0].config, max_btach=4))
        with pytest.raises(ValueError, match="max_btach"):
            rerecord(Recording(header=header))

    def test_rerecord_matches_original(self, golden):
        recorder = rerecord(golden[0])
        assert replay_stats(recorder.recording()) == replay_stats(golden[0])

    def test_rerecord_is_byte_faithful_with_timelines(self, golden):
        """The golden was captured with telemetry on the batched
        variant; re-recording must bring its timeline records back."""
        buf = io.StringIO()
        write_recordings(buf, [rerecord(rec) for rec in golden])
        assert buf.getvalue() == GOLDEN.read_text()

    def test_rerecord_simulates_only_the_recorded_variant(self, monkeypatch):
        from repro.eval import runner
        built = []

        class CountingEngine(runner.SearchDecisionEngine):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "SearchDecisionEngine", CountingEngine)
        original = run_scenario(
            "chaos", runner.SCENARIOS["chaos"].config(num_requests=8),
            record=True, variants=("static",))["static"].recorder
        built.clear()
        rerecord(original.recording())
        assert len(built) == 1
