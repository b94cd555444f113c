"""Cross-suite invariants + the fluid-tracker golden fixture.

Two regression layers ride here:

* **every registered scenario obeys the serving conservation laws** —
  ``verify_invariants`` runs over fresh recordings of every entry in
  ``SCENARIOS``, not just the serving-load golden fixture the original
  replay suite pins.  Any clock or accounting drift anywhere in the
  serving stack turns one of these runs into a violation list; and at
  its ``smoke`` world every scenario re-records byte for byte and
  accounts for every submitted request;
* **the fluid-solver serving path is byte-stable** — a second golden
  fixture (``multi_tenant_fluid_golden.jsonl``: the multi-tenant
  scenario behind its fluid-priced ingress, seed 7, 18 requests) must
  replay, satisfy the invariants, and re-record byte-identically (its
  ``tests/frozen.py`` entry).
"""

import io
from dataclasses import replace
from pathlib import Path

import pytest

from repro.eval.replay import (load_recordings, replay_stats, rerecord,
                               verify_invariants)
from repro.eval.runner import (SCENARIOS, config_from_dict, override_config,
                               run_scenario)
from repro.telemetry import write_recordings

FLUID_GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" \
    / "multi_tenant_fluid_golden.jsonl"

VARIANTS = ["fifo", "admission", "fair"]


def fixture_content():
    """``run multi_tenant --set num_requests=18 --set seed=7
    --record``, the golden's command."""
    cfg = _golden_config()
    buf = io.StringIO()
    write_recordings(buf, [rep.recorder for rep in run_scenario(
        "multi_tenant", cfg, record=True).values()])
    return buf.getvalue()


def _golden_config():
    return SCENARIOS["multi_tenant"].config(num_requests=18, seed=7)


def _record_small(scenario):
    """Run one small seeded instance of ``scenario``, recording it."""
    cfg = replace(SCENARIOS[scenario].config(), num_requests=14)
    return run_scenario(scenario, cfg, record=True)


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def smoke(request):
    """``(cfg, reports)`` of a scenario's smoke world — sized so its
    sheds, faults and bursts all happen — recorded once for the laws."""
    spec = SCENARIOS[request.param]
    cfg = override_config(spec.config(), spec.smoke)
    return cfg, run_scenario(request.param, cfg, record=True)


class TestCrossSuiteInvariants:
    """Conservation laws hold for every recordable scenario."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_recordings_satisfy_all_invariants(self, scenario):
        reports = _record_small(scenario)
        assert list(reports) == list(SCENARIOS[scenario].variants)
        for name, rep in reports.items():
            assert rep.recorder is not None, f"{scenario}/{name} not recorded"
            rec = rep.recorder.recording()
            assert rec.scenario == scenario
            problems = verify_invariants(rec)
            assert problems == [], f"{scenario}/{name}: {problems}"

    def test_adaptive_recordings_roundtrip_through_the_stream(self):
        """A recorded adaptive run yields a parseable stream whose
        replayed stats match the live run."""
        reports = _record_small("adaptive")
        buf = io.StringIO()
        write_recordings(buf, [reports[n].recorder
                               for n in ("static", "controlled")])
        buf.seek(0)
        recs = load_recordings(buf)
        assert [r.variant for r in recs] == ["static", "controlled"]
        for rec in recs:
            name = rec.variant
            assert replay_stats(rec).records == \
                reports[name].stats.records

    def test_rerecord_is_exact(self, smoke):
        """record -> stream -> rerecord is byte-stable, every variant."""
        original = io.StringIO()
        write_recordings(original,
                         [rep.recorder for rep in smoke[1].values()])
        fresh = io.StringIO()
        write_recordings(fresh, [
            rerecord(rec)
            for rec in load_recordings(io.StringIO(original.getvalue()))])
        assert fresh.getvalue() == original.getvalue()

    def test_request_conservation(self, smoke):
        """shed + completed + failed == submitted, and the tenants
        served are the tenants declared, for every variant."""
        cfg, reports = smoke
        declared = {t.name for t in getattr(cfg, "tenants", ())}
        for rep in reports.values():
            counts = rep.stats.outcome_counts()
            completed = sum(v for k, v in counts.items()
                            if k not in ("failed", "shed"))
            total = completed + counts["failed"] + counts.get("shed", 0)
            assert total == len(rep.stats.records) == cfg.num_requests
            assert set(rep.stats.tenants()) == declared
            assert ({r.tenant for r in rep.stats.records}
                    == (declared or {None}))


@pytest.fixture(scope="module")
def fluid_golden():
    return load_recordings(str(FLUID_GOLDEN))


class TestFluidGoldenFixture:
    def test_fixture_holds_all_three_variants(self, fluid_golden):
        assert [rec.variant for rec in fluid_golden] == VARIANTS
        assert all(rec.scenario == "multi_tenant" for rec in fluid_golden)
        assert all(config_from_dict(type(_golden_config()), rec.config)
                   == _golden_config() for rec in fluid_golden)

    def test_golden_recordings_satisfy_all_invariants(self, fluid_golden):
        for rec in fluid_golden:
            problems = verify_invariants(rec)
            assert problems == [], f"{rec.variant}: {problems}"

    def test_fluid_pricing_left_its_mark(self, fluid_golden):
        """At least one request's upload was slowed by fluid sharing
        (its service start exceeds arrival plus the lone-upload time)."""
        fifo = next(r for r in fluid_golden if r.variant == "fifo")
        waits = [r["start"] - r["arrival"] for r in fifo.requests]
        assert max(waits) > 0.0

    def test_replay_matches_recorded_summary(self, fluid_golden):
        for rec in fluid_golden:
            stats = replay_stats(rec)
            assert len(stats.records) == rec.summary["num_requests"]
            assert stats.slo_compliance == rec.summary["slo_compliance"]
