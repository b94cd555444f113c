"""Serving loop: queueing behaviour and statistics."""

import io

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.eval.replay import replay_stats
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition, TraceConfig, step_trace
from repro.runtime import (BatchingInferenceServer, BatchRecord,
                           InferenceServer, RequestRecord, ServingStats)
from repro.telemetry.recorder import (RunRecorder, read_recordings,
                                      write_recordings)


def _system(slo_ms=200.0, seed=0):
    devices = [rpi4(), desktop_gtx1080()]
    return Murmuration(
        MBV3_SPACE, devices, NetworkCondition((300.0,), (10.0,)),
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4),
        slo=SLO.latency_ms(slo_ms), use_predictor=False,
        monitor_noise=0.0, seed=seed)


def _served_record(arrival, finish, start=None, tenant=None,
                   satisfied=True):
    start = arrival if start is None else start
    return RequestRecord(arrival=arrival, start=start, finish=finish,
                         inference_s=finish - start, decision_s=0.0,
                         switch_s=0.0, satisfied=satisfied, tenant=tenant)


def _shed_record(arrival, tenant=None):
    return RequestRecord(arrival=arrival, start=arrival, finish=arrival,
                         inference_s=0.0, decision_s=0.0, switch_s=0.0,
                         satisfied=False, outcome="shed", tenant=tenant)


class TestRequestRecord:
    def test_derived_times(self):
        r = RequestRecord(arrival=1.0, start=1.5, finish=2.0,
                          inference_s=0.4, decision_s=0.05, switch_s=0.05,
                          satisfied=True)
        assert r.queue_wait_s == pytest.approx(0.5)
        assert r.end_to_end_s == pytest.approx(1.0)

    def test_fields_keep_the_order_of_the_dataclasses_they_replaced(self):
        # the server-loop digests hash the fields in this order
        assert RequestRecord._fields == (
            "arrival", "start", "finish", "inference_s", "decision_s",
            "switch_s", "satisfied", "outcome", "retries", "failovers",
            "tenant")
        assert BatchRecord._fields == (
            "index", "size", "close_s", "decision_start_s", "decision_s",
            "switch_s", "exec_start_s", "finish_s", "cache_hit",
            "overlap_saved_s")

    def test_an_immutable_value_with_the_old_defaults(self):
        r = _served_record(1.0, 2.0)
        with pytest.raises(AttributeError):
            r.finish = 3.0
        assert (r.outcome, r.retries, r.failovers, r.tenant) \
            == ("ok", 0, 0, None)
        twin = _served_record(1.0, 2.0)
        assert r == twin and hash(r) == hash(twin)
        assert r != _served_record(1.0, 2.5)

    def test_records_round_trip_through_replay(self):
        recorder = RunRecorder("serving_load", variant="batched")
        stats = BatchingInferenceServer(
            _system(seed=3), arrival_rate_hz=60.0, seed=3,
            recorder=recorder).run(num_requests=24)
        recorder.finish(stats)
        buf = io.StringIO()
        write_recordings(buf, [recorder])
        replayed = replay_stats(read_recordings(io.StringIO(
            buf.getvalue()))[0])
        assert replayed.records == stats.records
        assert replayed.batches == stats.batches
        assert {type(r) for r in replayed.records} == {RequestRecord}
        assert {type(b) for b in replayed.batches} == {BatchRecord}


class TestShedAccounting:
    def test_trailing_shed_does_not_inflate_throughput(self):
        """Regression: throughput used ``records[-1].finish`` as the
        span's end.  A shed request has finish == arrival, so a shed
        arriving after the last served finish *shrank* the span and
        inflated throughput — shedding made the server look faster."""
        served = [_served_record(0.0, 10.0)]
        stats = ServingStats(records=served + [_shed_record(5.0)])
        assert stats.throughput_rps == pytest.approx(2 / 10.0)

    def test_percentiles_exclude_shed_zero_timelines(self):
        """Regression: sheds (zero end-to-end) were folded into the
        latency percentiles, so p50/p95 *improved* the more admission
        dropped — a reading that rewards shedding."""
        served = [_served_record(float(i), float(i) + 2.0)
                  for i in range(4)]
        clean = ServingStats(records=list(served))
        shedding = ServingStats(
            records=served + [_shed_record(float(i)) for i in range(4)])
        assert shedding.percentile_ms(50) == clean.percentile_ms(50)
        assert shedding.percentile_ms(95) == clean.percentile_ms(95)

    def test_queue_wait_excludes_sheds(self):
        served = [_served_record(0.0, 2.0, start=1.0)]
        stats = ServingStats(records=served + [_shed_record(0.5)])
        assert stats.mean_queue_wait_ms == pytest.approx(1000.0)

    def test_all_shed_run_degrades_to_zero(self):
        stats = ServingStats(records=[_shed_record(0.0), _shed_record(1.0)])
        assert stats.percentile_ms(95) == 0.0
        assert stats.mean_queue_wait_ms == 0.0
        assert stats.shed_count == 2

    def test_e2e_compliance_still_counts_sheds_against(self):
        """The deployment-facing number must not get the same pass: a
        shed request is an unanswered request."""
        stats = ServingStats(records=[_served_record(0.0, 0.1),
                                      _shed_record(1.0)])
        assert stats.e2e_compliance(1.0) == pytest.approx(0.5)


class TestTenantViews:
    def _stats(self):
        return ServingStats(records=[
            _served_record(0.0, 0.1, tenant="a"),
            _served_record(1.0, 3.0, tenant="b"),
            _shed_record(2.0, tenant="b"),
            _served_record(3.0, 3.1, tenant="a"),
        ])

    def test_tenants_first_seen_order(self):
        assert self._stats().tenants() == ["a", "b"]

    def test_per_tenant_partitions_records(self):
        views = self._stats().per_tenant()
        assert len(views["a"].records) == 2
        assert len(views["b"].records) == 2
        assert views["b"].shed_count == 1

    def test_worst_tenant_is_the_min(self):
        stats = self._stats()
        assert stats.worst_tenant_e2e_compliance(1.0) == 0.0  # tenant b
        assert stats.e2e_compliance(1.0) == pytest.approx(0.5)

    def test_untagged_records_fall_back_to_aggregate(self):
        stats = ServingStats(records=[_served_record(0.0, 0.1)])
        assert stats.per_tenant() == {}
        assert stats.worst_tenant_e2e_compliance(1.0) \
            == stats.e2e_compliance(1.0)

    def test_tenant_tags_ride_through_the_server(self):
        server = InferenceServer(_system(), arrival_rate_hz=2.0, seed=8)
        tags = ["a", "b"] * 5
        stats = server.run(num_requests=10, tenants=tags)
        assert [r.tenant for r in stats.records] == tags

    def test_tenant_length_mismatch_is_rejected(self):
        server = InferenceServer(_system(), arrival_rate_hz=2.0, seed=8)
        with pytest.raises(ValueError, match="tenants covers"):
            server.run(num_requests=10, tenants=["a"])

    def test_untagged_serving_is_bit_identical(self):
        """tenants=None must not move a single float (decision cost
        pinned: wall-clock decisions differ run to run by themselves)."""
        from repro.eval.spec import PinnedTimeEngine

        def pinned():
            system = _system(seed=9)
            system.engine = PinnedTimeEngine(system.engine, 0.01)
            return system

        a = InferenceServer(pinned(), arrival_rate_hz=2.0, seed=9).run(8)
        b = InferenceServer(pinned(), arrival_rate_hz=2.0,
                            seed=9).run(8, tenants=None)
        assert a.records == b.records


class TestServingStatsEmpty:
    def test_empty_stats_are_zero_not_crash(self):
        """Percentiles/means over zero records must degrade to 0.0."""
        stats = ServingStats()
        assert stats.percentile_ms(50) == 0.0
        assert stats.percentile_ms(95) == 0.0
        assert stats.mean_queue_wait_ms == 0.0
        assert stats.throughput_rps == 0.0
        assert stats.slo_compliance == 0.0
        assert "0 requests" in stats.summary()


class TestInferenceServer:
    def test_invalid_rate(self):
        # nan passed ``<= 0``, then "cannot advance the loop to nan"
        for rate in (0.0, float("nan")):
            with pytest.raises(ValueError, match="arrival_rate_hz must be"):
                InferenceServer(_system(), arrival_rate_hz=rate)

    def test_invalid_num_requests(self):
        server = InferenceServer(_system(), arrival_rate_hz=2.0)
        with pytest.raises(ValueError, match="num_requests"):
            server.run(num_requests=0)
        with pytest.raises(ValueError, match="num_requests"):
            server.run(num_requests=-3)

    def test_outcome_counts_and_completion(self):
        server = InferenceServer(_system(), arrival_rate_hz=2.0, seed=1)
        stats = server.run(num_requests=8)
        counts = stats.outcome_counts()
        assert counts["ok"] == 8  # no faults injected
        assert counts["failed"] == 0
        assert stats.completion_rate == 1.0
        assert all(r.outcome == "ok" and r.retries == 0 and r.failovers == 0
                   for r in stats.records)
        assert "outcomes" not in stats.summary()  # healthy run stays terse

    def test_serves_all_requests(self):
        server = InferenceServer(_system(), arrival_rate_hz=2.0, seed=1)
        stats = server.run(num_requests=12)
        assert len(stats.records) == 12
        # timeline is consistent
        for r in stats.records:
            assert r.finish >= r.start >= r.arrival

    def test_fifo_no_overlap(self):
        server = InferenceServer(_system(), arrival_rate_hz=50.0, seed=2)
        stats = server.run(num_requests=10)
        for a, b in zip(stats.records, stats.records[1:]):
            assert b.start >= a.finish - 1e-12

    def test_overload_builds_queue(self):
        """Arrivals far above service capacity inflate queue waits."""
        light = InferenceServer(_system(seed=3), arrival_rate_hz=0.5,
                                seed=3).run(10)
        heavy = InferenceServer(_system(seed=3), arrival_rate_hz=100.0,
                                seed=3).run(10)
        assert heavy.mean_queue_wait_ms > light.mean_queue_wait_ms

    def test_stats_summary(self):
        stats = InferenceServer(_system(), arrival_rate_hz=2.0,
                                seed=4).run(8)
        s = stats.summary()
        assert "requests" in s and "compliance" in s
        assert stats.throughput_rps > 0
        assert stats.percentile_ms(95) >= stats.percentile_ms(50)

    def test_condition_trace_applied(self):
        trace = step_trace(TraceConfig(num_remote=1, steps=5, seed=5,
                                       bw_range=(50.0, 400.0),
                                       delay_range=(5.0, 50.0)), period=1)
        server = InferenceServer(_system(seed=6), arrival_rate_hz=2.0,
                                 seed=6)
        stats = server.run(num_requests=10, condition_trace=trace,
                           trace_period_s=1.0)
        assert len(stats.records) == 10

    def test_trace_indexed_by_service_start_not_arrival(self):
        """Regression: the trace was indexed by arrival time, so queued
        requests executed against a stale snapshot of the world.  A
        burst that arrives in the first trace cell but drains past it
        must see the later cells."""
        cond_a = NetworkCondition((300.0,), (10.0,))
        cond_b = NetworkCondition((30.0,), (80.0,))
        system = _system(slo_ms=400.0, seed=7)
        server = InferenceServer(system, arrival_rate_hz=200.0, seed=7)
        stats = server.run(num_requests=12, condition_trace=[cond_a, cond_b],
                           trace_period_s=0.5)
        # the burst arrives well inside cell 0 but queues past it
        assert all(r.arrival < 0.5 for r in stats.records)
        assert stats.records[-1].start > 0.5
        # the world the last request executed in is cell 1, which an
        # arrival-indexed lookup would never have applied
        assert system.cluster.condition == cond_b


class TestInjectedArrivals:
    """An injected ``arrival_process`` is checked once, before anything
    is served.  Regression: a NaN or infinite arrival raised from
    ``EventLoop.advance_to`` after a request had already been served,
    and ``[0.5, 0.2, 0.9]`` was served silently — request 1 starting at
    0.57 under FIFO and at 0.50 batched."""

    @pytest.mark.parametrize("server_cls",
                             [InferenceServer, BatchingInferenceServer])
    @pytest.mark.parametrize("times,index", [
        ([0.1, float("nan"), 0.3], 1),
        ([0.1, 0.2, float("inf")], 2),
        ([float("-inf"), 0.2, 0.3], 0),
        ([0.5, 0.2, 0.9], 1),
        ([0.1, 0.4, 0.4, 0.3], 3),
    ])
    def test_bad_arrival_is_named_before_anything_is_served(
            self, server_cls, times, index):
        system = _system()
        server = server_cls(system, arrival_rate_hz=2.0,
                            arrival_process=lambda rng, n: times)
        with pytest.raises(ValueError, match=f"index {index}:.*finite and "
                                             f"non-decreasing"):
            server.run(num_requests=len(times))
        assert system.records == []          # nothing reached the facade
        assert system.clock.now == 0.0       # and no time passed

    @pytest.mark.parametrize("server_cls",
                             [InferenceServer, BatchingInferenceServer])
    @pytest.mark.parametrize("times", [
        np.zeros((3, 2)), [[0.1], [0.2], [0.3]], 0.5],
        ids=["pairs", "column", "scalar"])
    def test_an_arrival_array_not_one_time_per_request_is_refused(
            self, server_cls, times):
        """Regression: a 2-D result of the right length passed the
        length check and died in the first dispatch with a bare
        ``TypeError`` from ``float(arrivals[i])``."""
        system = _system()
        server = server_cls(system, arrival_rate_hz=2.0,
                            arrival_process=lambda rng, n: times)
        with pytest.raises(ValueError, match="one time per request"):
            server.run(num_requests=3)
        assert system.records == []
        assert system.clock.now == 0.0

    @pytest.mark.parametrize("server_cls",
                             [InferenceServer, BatchingInferenceServer])
    def test_ties_and_a_late_start_are_fine(self, server_cls):
        times = [3.0, 3.0, 3.5, 3.5, 9.0]
        server = server_cls(_system(), arrival_rate_hz=2.0,
                            arrival_process=lambda rng, n: times)
        stats = server.run(num_requests=5)
        assert [r.arrival for r in stats.records] == times


class TestEventIntegration:
    """Servers advance time only through the shared event loop."""

    def test_scheduled_events_fire_during_the_run(self):
        from repro.sim import EventLoop

        system = _system()
        loop = EventLoop(system.clock)
        fired = []
        loop.schedule(0.1, fired.append)
        loop.schedule(0.5, fired.append)
        server = InferenceServer(system, arrival_rate_hz=20.0, seed=3,
                                 events=loop)
        stats = server.run(num_requests=20)
        assert fired == [0.1, 0.5]
        assert loop.fired_total == 2
        assert len(stats.records) == 20

    def test_empty_loop_is_byte_identical_to_no_loop(self):
        """The no-events guarantee at the serving layer: attaching an
        empty EventLoop must not perturb a single float.  Decision time
        is pinned — the raw engine measures wall time, which no two
        runs share."""
        from repro.eval.spec import PinnedTimeEngine
        from repro.sim import EventLoop

        def _pinned():
            system = _system()
            system.engine = PinnedTimeEngine(system.engine, 0.01)
            return system

        plain = InferenceServer(_pinned(), arrival_rate_hz=20.0,
                                seed=3).run(num_requests=20)
        system = _pinned()
        looped = InferenceServer(system, arrival_rate_hz=20.0, seed=3,
                                 events=EventLoop(system.clock))
        stats = looped.run(num_requests=20)
        for a, b in zip(plain.records, stats.records):
            assert (a.arrival, a.start, a.finish) == \
                (b.arrival, b.start, b.finish)


@pytest.mark.parametrize("server", [InferenceServer, BatchingInferenceServer])
def test_an_slo_no_strategy_meets_fails_each_request_and_keeps_serving(
        server):
    """Regression: a 0.7 ms SLO died mid-run with "no strategy satisfies
    the SLO"; a serving loop now records the dispatch's requests as
    failed (zero service, SLO missed) and serves the rest."""
    system = _system(slo_ms=0.7)
    stats = server(system, arrival_rate_hz=20.0, seed=3).run(12)
    assert [r.outcome for r in stats.records] == ["failed"] * 12
    assert all(r.start == r.finish and not r.satisfied
               and r.inference_s == r.decision_s == r.switch_s == 0.0
               for r in stats.records)
    assert stats.slo_compliance == 0.0 and stats.completion_rate == 0.0
    with pytest.raises(RuntimeError, match="no strategy satisfies"):
        system.infer()
