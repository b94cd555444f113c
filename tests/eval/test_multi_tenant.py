"""Multi-tenant scenario: stream determinism, tenant threading, and
record/replay round trips (scenario name ``multi_tenant``)."""

import io
import math

import numpy as np
import pytest

from repro.eval.multi_tenant import (MultiTenantConfig, TenantSpec,
                                     default_tenants, tenant_arrivals)
from repro.eval.replay import replay_stats, rerecord, verify_invariants
from repro.eval.runner import config_from_dict, run_scenario
from repro.netsim import SharedIngress
from repro.telemetry.recorder import read_recordings, write_recordings

_CFG = MultiTenantConfig(num_requests=60, trace_steps=60)


@pytest.fixture(scope="module")
def reports():
    return run_scenario("multi_tenant", _CFG)


class TestTenantSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate_hz"):
            TenantSpec("a", rate_hz=0.0)
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("a", rate_hz=1.0, weight=-1.0)
        with pytest.raises(ValueError, match="burst_factor"):
            TenantSpec("a", rate_hz=1.0, burst_factor=0.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("rate_hz", {"rate_hz": math.inf}),
        ("rate_hz", {"rate_hz": math.nan}),
        ("weight", {"weight": math.nan}),
        ("weight", {"weight": math.inf}),
        ("burst_factor", {"burst_factor": math.inf}),
        ("burst_factor", {"burst_factor": math.nan}),
        ("payload_kb", {"payload_kb": math.inf}),
        ("payload_kb", {"payload_kb": math.nan}),
        ("payload_kb", {"payload_kb": -1.0}),
        ("burst_window", {"burst_window": (8.0, 4.0)}),
        ("burst_window", {"burst_window": (4.0, 4.0)}),
        ("burst_window", {"burst_window": (math.nan, 4.0)}),
        ("burst_window", {"burst_window": (4.0, math.inf)}),
        ("burst_window", {"burst_window": (-1.0, 4.0)}),
    ])
    def test_rejects_a_contract_that_would_silently_change_the_run(
            self, field, kwargs):
        """Regression: an infinite rate put every request at t = 0 on
        one tenant, a NaN or infinite weight was served and moved the
        fair variant's sheds, a reversed or NaN window meant no burst,
        and an infinite payload died mid-run."""
        kwargs = {"rate_hz": 4.0, **kwargs}
        with pytest.raises(ValueError, match=field):
            TenantSpec("a", **kwargs)

    def test_config_rejects_duplicate_tenant_names(self):
        with pytest.raises(ValueError, match="unique"):
            MultiTenantConfig(tenants=(TenantSpec("a", 1.0),
                                       TenantSpec("a", 2.0)))
        with pytest.raises(ValueError, match="at least one"):
            MultiTenantConfig(tenants=())

    def test_default_tenants_shape(self):
        specs = default_tenants(3)
        assert [s.name for s in specs] == ["burst", "steady-1", "steady-2"]
        assert specs[0].burst_factor > 1 and specs[0].burst_window
        with pytest.raises(ValueError):
            default_tenants(0)

    def test_from_dict_round_trips_the_config(self):
        import json
        from dataclasses import asdict
        cfg = MultiTenantConfig(num_requests=10)
        header = json.loads(json.dumps(asdict(cfg)))  # tuples -> lists
        assert config_from_dict(MultiTenantConfig, header) == cfg


class TestTenantArrivals:
    def test_stream_is_a_pure_function_of_the_config(self):
        t1, n1 = tenant_arrivals(_CFG)
        t2, n2 = tenant_arrivals(_CFG)
        assert np.array_equal(t1, t2) and n1 == n2

    def test_stream_is_sorted_and_fully_tagged(self):
        times, names = tenant_arrivals(_CFG)
        assert len(times) == len(names) == _CFG.num_requests
        assert np.all(np.diff(times) >= 0)
        assert set(names) <= {t.name for t in _CFG.tenants}

    def test_burst_concentrates_the_bursters_arrivals(self):
        times, names = tenant_arrivals(MultiTenantConfig(num_requests=200))
        t0, t1 = default_tenants()[0].burst_window
        in_window = sum(1 for t, n in zip(times, names)
                        if n == "burst" and t0 <= t < t1)
        before = sum(1 for t, n in zip(times, names)
                     if n == "burst" and t < t0)
        assert in_window > before   # 8x the rate inside the window


class TestScenario:
    def test_identical_stream_across_variants(self, reports):
        streams = [[(r.arrival, r.tenant) for r in rep.stats.records]
                   for rep in reports.values()]
        assert streams[0] == streams[1] == streams[2]

    def test_fifo_has_no_control_and_sheds_nothing(self, reports):
        assert reports["fifo"].control is None
        assert reports["fifo"].shed == 0

    def test_contention_is_observed(self, reports):
        for rep in reports.values():
            assert rep.tracker is not None
            assert rep.tracker.contended_total > 0

    def test_single_tenant_without_overlap_is_contention_free(
            self, monkeypatch):
        """Acceptance: one tenant whose uploads never overlap pays the
        base link model for every upload, peeked or admitted — the
        ledger on a quiet wire must not move a float."""
        priced = []

        def spy(price):
            def priced_as(ingress, arrival, tenant=None):
                seconds = price(ingress, arrival, tenant)
                nbytes = ingress.per_tenant_bytes[tenant]
                priced.append((seconds, ingress.link.transfer_time(nbytes)))
                return seconds
            return priced_as

        for name in ("upload_time", "admit"):
            monkeypatch.setattr(SharedIngress, name,
                                spy(getattr(SharedIngress, name)))
        lone = (TenantSpec("only", rate_hz=0.2),)
        cfg = MultiTenantConfig(tenants=lone, num_requests=15,
                                trace_steps=60)
        rep = run_scenario("multi_tenant", cfg, variants=("fifo",))["fifo"]
        assert rep.tracker.contended_total == 0   # genuinely no overlap
        assert len(priced) == 2 * cfg.num_requests
        for seconds, base in priced:
            assert seconds == base


class TestDefaultWorld:
    """What the full-size run shows through its live handles (the
    table's columns are claims on the scenario's spec)."""

    @pytest.fixture(scope="class")
    def reports(self):
        return run_scenario("multi_tenant")

    def test_fairness_is_tenant_aware_not_just_triage(self, reports):
        """Fair must not lose to FIFO for *any* tenant while sheds target
        the burster: the steady tenant keeps (most of) its compliance."""
        fifo = reports["fifo"].tenant_compliance()
        fair = reports["fair"].tenant_compliance()
        for tenant, base in fifo.items():
            assert fair[tenant] >= base, (
                f"tenant {tenant}: fair {fair[tenant]:.0%} < fifo {base:.0%}")
        ctrl = reports["fair"].control.controllers[0]
        sheds = dict(ctrl.shed_by_tenant)
        if sheds:
            assert max(sheds, key=sheds.get) == "burst"

    def test_contention_happened_and_was_priced(self, reports):
        """Concurrent uploads actually contended on the shared ingress."""
        for rep in reports.values():
            assert rep.tracker is not None
            assert rep.tracker.flows_total > 0
            assert rep.tracker.contended_total > 0
            assert max(rep.tracker.peak_share.values(), default=1) >= 2


class TestRecordReplay:
    @pytest.fixture(scope="class")
    def recorded(self):
        return run_scenario("multi_tenant", _CFG, record=True,
                            variants=("fifo", "fair"))

    def test_replay_reproduces_stats_exactly(self, recorded):
        for rep in recorded.values():
            stats = replay_stats(rep.recorder.recording())
            assert stats.records == rep.stats.records

    def test_recordings_satisfy_all_invariants(self, recorded):
        for rep in recorded.values():
            assert verify_invariants(rep.recorder.recording()) == []

    def test_summary_carries_per_tenant_counts(self, recorded):
        summary = recorded["fair"].recorder.summary
        assert sum(summary["tenants"].values()) == _CFG.num_requests
        assert set(summary["tenants"]) == {t.name for t in _CFG.tenants}

    def test_tenant_count_drift_is_detected(self, recorded):
        rec = recorded["fair"].recorder.recording()
        rec.summary = dict(rec.summary)
        rec.summary["tenants"] = dict(rec.summary["tenants"])
        key = next(iter(rec.summary["tenants"]))
        rec.summary["tenants"][key] += 1
        assert any("tenants" in p for p in verify_invariants(rec))

    def test_rerecord_dispatches_and_matches_byte_for_byte(self, recorded):
        first = io.StringIO()
        write_recordings(first, [recorded["fair"].recorder])
        rec = read_recordings(io.StringIO(first.getvalue()))[0]
        assert rec.scenario == "multi_tenant"
        second = io.StringIO()
        write_recordings(second, [rerecord(rec)])
        assert first.getvalue() == second.getvalue()

    def test_tenant_tag_survives_the_json_round_trip(self, recorded):
        buf = io.StringIO()
        write_recordings(buf, [recorded["fair"].recorder])
        rec = read_recordings(io.StringIO(buf.getvalue()))[0]
        stats = replay_stats(rec)
        assert stats.records == recorded["fair"].stats.records
        assert stats.tenants() == recorded["fair"].stats.tenants()
