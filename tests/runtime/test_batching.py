"""Batched serving: formation, amortization, overlap, and FIFO parity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.control import AdmissionController, ControlLoop
from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.eval.spec import PinnedTimeEngine
from repro.faults import (DeviceCrash, FaultInjector, FaultSchedule,
                          crash_and_recover_schedule)
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition, TraceConfig, step_trace
from repro.runtime import (BatchedServingStats, BatchingInferenceServer,
                           BatchPolicy, InferenceServer)
from repro.sim import EventLoop
from repro.telemetry import Telemetry
from repro.telemetry.recorder import RunRecorder
from tests.runtime.world_events import (schedule_condition_steps,
                                        schedule_ticks)

_DT = 0.02  # pinned per-miss decision cost: deterministic clocks


def _system(slo_ms=200.0, seed=0, faults=None, decision_s=_DT,
            telemetry=None, **facade_kw):
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    engine = SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4,
                                  seed=seed)
    if decision_s is not None:
        engine = PinnedTimeEngine(engine, decision_s)
    return Murmuration(
        MBV3_SPACE, devices, NetworkCondition((300.0, 150.0), (10.0, 20.0)),
        engine, slo=SLO.latency_ms(slo_ms), use_predictor=False,
        monitor_noise=0.0, seed=seed, faults=faults, telemetry=telemetry,
        **facade_kw)


class TestBatchPolicy:
    def test_invalid_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)

    @pytest.mark.parametrize("cap", [2.5, 8.0, float("nan"), float("inf"),
                                     True, -1])
    def test_a_cap_is_an_int_of_at_least_one(self, cap):
        # a float cap was accepted and died mid-run on ``arrivals[j - 1]``
        # with numpy's IndexError; inf meant "no cap" by accident
        with pytest.raises(ValueError, match="max_batch must be an int"):
            BatchPolicy(max_batch=cap)

    def test_invalid_max_wait(self):
        # nan passed ``< 0`` and served as if it were 0
        for wait in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_wait_s must be finite"):
                BatchPolicy(max_wait_s=wait)


class TestBatchFormation:
    def test_accumulates_under_load(self):
        server = BatchingInferenceServer(
            _system(), arrival_rate_hz=60.0,
            policy=BatchPolicy(max_batch=8), seed=1)
        stats = server.run(num_requests=32)
        assert isinstance(stats, BatchedServingStats)
        assert len(stats.records) == 32
        assert sum(b.size for b in stats.batches) == 32
        assert stats.mean_batch_size > 1.0
        assert all(b.size <= 8 for b in stats.batches)

    def test_timeout_grows_underfull_batches(self):
        """At a rate too low to queue, only the fill timer batches."""
        eager = BatchingInferenceServer(
            _system(seed=2), arrival_rate_hz=3.0,
            policy=BatchPolicy(max_batch=4, max_wait_s=0.0), seed=3)
        patient = BatchingInferenceServer(
            _system(seed=2), arrival_rate_hz=3.0,
            policy=BatchPolicy(max_batch=4, max_wait_s=1.0), seed=3)
        a = eager.run(num_requests=16)
        b = patient.run(num_requests=16)
        assert a.mean_batch_size == 1.0
        assert b.mean_batch_size > 1.0
        # an under-full batch that waited dispatches when its timer
        # fires: one fill-timeout from its oldest member's arrival
        waited = [r for r in b.batches if 1 < r.size < 4]
        assert any(
            rec.close_s == pytest.approx(
                min(r.arrival for r in b.records
                    if abs(r.start - rec.decision_start_s) < 1e-12) + 1.0)
            for rec in waited)

    def test_records_sorted_and_consistent(self):
        server = BatchingInferenceServer(
            _system(seed=4), arrival_rate_hz=40.0,
            policy=BatchPolicy(max_batch=6), seed=4)
        stats = server.run(num_requests=24)
        for r in stats.records:
            assert r.finish >= r.start >= r.arrival - 1e-12


class TestAmortizedAccounting:
    def test_items_share_one_decision(self):
        server = BatchingInferenceServer(
            _system(seed=5), arrival_rate_hz=80.0,
            policy=BatchPolicy(max_batch=8), seed=5)
        stats = server.run(num_requests=24)
        i = 0
        for b in stats.batches:
            members = stats.records[i:i + b.size]
            i += b.size
            # per-item share sums back to the batch's real cost
            assert sum(r.decision_s for r in members) == pytest.approx(
                b.decision_s)
            assert sum(r.switch_s for r in members) == pytest.approx(
                b.switch_s)
            assert all(r.decision_s == pytest.approx(b.decision_s / b.size)
                       for r in members)
        assert stats.amortized_decisions == sum(
            b.size - 1 for b in stats.batches)
        assert stats.amortized_decisions > 0

    def test_a_fault_free_plan_only_dispatch_prices_once(self, monkeypatch):
        """The served strategy's price is read once per dispatch, and
        every item of the dispatch carries that one float."""
        system = _system(seed=5)
        priced = []
        real = system._costs.latency

        def counting(*args):
            priced.append(args)
            return real(*args)
        monkeypatch.setattr(system._costs, "latency", counting)
        trace = step_trace(TraceConfig(num_remote=2, steps=20, seed=5,
                                       bw_range=(50.0, 400.0),
                                       delay_range=(5.0, 50.0)), period=1)
        stats = BatchingInferenceServer(
            system, arrival_rate_hz=80.0, policy=BatchPolicy(max_batch=8),
            seed=5).run(num_requests=40, condition_trace=trace,
                        trace_period_s=0.05)
        assert len(priced) == len(stats.batches) < len(stats.records)
        i = 0
        for b in stats.batches:
            members = stats.records[i:i + b.size]
            i += b.size
            assert len({r.inference_s.hex() for r in members}) == 1

    def test_batch_clock_is_sequential_within_batch(self):
        server = BatchingInferenceServer(
            _system(seed=6), arrival_rate_hz=80.0,
            policy=BatchPolicy(max_batch=8), seed=6)
        stats = server.run(num_requests=16)
        for b in stats.batches:
            assert b.exec_start_s >= (b.decision_start_s + b.decision_s
                                      + b.switch_s - 1e-12)
            assert b.finish_s >= b.exec_start_s
        members = {}
        for r in stats.records:
            members.setdefault(r.start, []).append(r)
        for group in members.values():
            # items execute back to back after the shared exec start
            finishes = sorted(r.finish for r in group)
            assert finishes == [r.finish for r in sorted(
                group, key=lambda r: r.finish)]


class TestOverlap:
    def _run(self, overlap, seed=7):
        # a condition changing every 50ms of simulated time guarantees
        # every batch's decision misses the cache — real decision cost
        # to hide on every batch
        trace = step_trace(TraceConfig(num_remote=2, steps=120, seed=seed,
                                       bw_range=(50.0, 400.0),
                                       delay_range=(5.0, 50.0)), period=1)
        server = BatchingInferenceServer(
            _system(seed=seed), arrival_rate_hz=80.0,
            policy=BatchPolicy(max_batch=8, overlap=overlap), seed=seed)
        return server.run(num_requests=32, condition_trace=trace,
                          trace_period_s=0.05)

    def test_decision_overlaps_previous_execution(self):
        stats = self._run(overlap=True)
        assert stats.overlap_saved_s > 0.0
        pipelined = [
            (prev, nxt) for prev, nxt in zip(stats.batches, stats.batches[1:])
            if nxt.decision_start_s < prev.finish_s - 1e-12]
        assert pipelined  # some decision ran under the previous batch
        for prev, nxt in zip(stats.batches, stats.batches[1:]):
            # executor is never double-booked ...
            assert nxt.exec_start_s >= prev.finish_s - 1e-12
            # ... and neither is the decision engine
            assert nxt.decision_start_s >= (prev.decision_start_s
                                            + prev.decision_s - 1e-12)

    def test_fully_hidden_decision_saves_its_whole_cost(self):
        stats = self._run(overlap=True)
        hidden = [
            nxt for prev, nxt in zip(stats.batches, stats.batches[1:])
            if not nxt.cache_hit
            and nxt.decision_start_s + nxt.decision_s <= prev.finish_s]
        assert hidden
        for b in hidden:
            assert b.overlap_saved_s == pytest.approx(_DT)

    def test_serial_mode_never_overlaps(self):
        stats = self._run(overlap=False)
        assert stats.overlap_saved_s == 0.0
        for prev, nxt in zip(stats.batches, stats.batches[1:]):
            assert nxt.decision_start_s >= prev.finish_s - 1e-12


class TestBatchedFaults:
    def test_per_item_outcomes_preserved(self):
        # both remotes die mid-run: the gateway must degrade, nothing
        # may fail, and every item keeps its own outcome
        schedule = FaultSchedule([DeviceCrash(0.5, 4.0, device=1),
                                  DeviceCrash(0.5, 4.0, device=2)])
        faults = FaultInjector(schedule, seed=8)
        server = BatchingInferenceServer(
            _system(seed=8, slo_ms=400.0, faults=faults),
            arrival_rate_hz=40.0, policy=BatchPolicy(max_batch=4), seed=8)
        stats = server.run(num_requests=20)
        assert len(stats.records) == 20
        counts = stats.outcome_counts()
        assert counts["failed"] == 0
        assert stats.completion_rate == 1.0
        assert counts["degraded"] + counts["retried"] > 0
        assert sum(counts.values()) == 20

    def test_batch_fails_over_as_a_unit(self):
        """Once an item in a batch degrades, the rest of the batch
        stays on the degraded plan instead of re-discovering the dead
        devices item by item."""
        schedule = FaultSchedule([DeviceCrash(0.0, 60.0, device=1),
                                  DeviceCrash(0.0, 60.0, device=2)])
        faults = FaultInjector(schedule, seed=9)
        server = BatchingInferenceServer(
            _system(seed=9, slo_ms=400.0, faults=faults),
            arrival_rate_hz=80.0, policy=BatchPolicy(max_batch=6), seed=9)
        stats = server.run(num_requests=18)
        big = [b for b in stats.batches if b.size > 1]
        assert big
        i = 0
        for b in stats.batches:
            members = stats.records[i:i + b.size]
            i += b.size
            degraded = [m for m in members if m.outcome == "degraded"]
            if degraded and b.size > 1:
                first = members.index(degraded[0])
                # everyone after the discovering item rides the carried
                # plan: degraded outcome, no fresh retries of its own
                for m in members[first + 1:]:
                    assert m.outcome == "degraded"
                    assert m.retries == 0


# -- FIFO parity: one law over a table of worlds --------------------------
class _Gate(AdmissionController):
    """Admission that also sheds everything while ``closed`` (a world
    event opens it), once there is a tick's worth of evidence."""

    closed = True

    def admit(self, arrival, start, slo_s, loop, tenant=None):
        if self.closed and loop.ticks:
            return "shed"
        return super().admit(arrival, start, slo_s, loop, tenant=tenant)


def _crash_faults():
    return FaultInjector(crash_and_recover_schedule(
        device=1, crash_at=0.3, recover_at=1.2), seed=15)


def _parity_trace(seed=12):
    return step_trace(TraceConfig(num_remote=2, steps=20, seed=seed,
                                  bw_range=(50.0, 400.0),
                                  delay_range=(5.0, 50.0)), period=2)


def _shedding_world(system, loop):
    """Admission that sheds in streaks, with its ticks, a condition
    trace and the gate's re-opening all scheduled on the event loop."""
    gate = _Gate()
    control = ControlLoop([gate], period_s=0.25)
    # world first, then the gate, then the ticks: at a shared instant
    # the tick observes the changed world
    schedule_condition_steps(loop, system, _parity_trace(), 0.5)
    loop.schedule(2.0, lambda t: setattr(gate, "closed", False))
    schedule_ticks(loop, control, horizon_s=12.0)
    return control


#: row -> seeds, rate, n, facade kwargs (factories are called per run),
#: ``run`` kwargs and the control-plane factory
PARITY_WORLDS = {
    "plain": dict(system_seed=10, seed=11, rate=20.0, n=25),
    "trace": dict(system_seed=12, seed=13, rate=30.0, n=20,
                  run=dict(condition_trace=_parity_trace(),
                           trace_period_s=0.5)),
    "crash_and_recover": dict(system_seed=15, seed=16, rate=20.0, n=40,
                              facade=dict(faults=_crash_faults)),
    "tenants": dict(system_seed=17, seed=18, rate=40.0, n=30, run=dict(
        tenants=[("a", "b", None)[i % 3] for i in range(30)])),
    "shedding_admission": dict(system_seed=19, seed=20, rate=12.0, n=60,
                               facade=dict(slo_ms=300.0),
                               world=_shedding_world),
}


def _facade_view(system):
    # ExecutionPlan compares by identity: unpack the strategy
    return [(replace(r, strategy=None), r.strategy.arch,
             tuple(r.strategy.plan), r.strategy.expected_latency_s)
            for r in system.records]


def _serve_parity_row(row, server_cls, **server_kw):
    spec = PARITY_WORLDS[row]
    facade_kw = {k: v() if callable(v) else v
                 for k, v in spec.get("facade", {}).items()}
    loop = EventLoop()
    recorder = RunRecorder("parity", variant=row)
    system = _system(seed=spec["system_seed"], recorder=recorder,
                     clock=loop.clock, **facade_kw)
    control = spec["world"](system, loop) if "world" in spec else None
    server = server_cls(system, spec["rate"], seed=spec["seed"],
                        recorder=recorder, control=control, events=loop,
                        **server_kw)
    stats = server.run(spec["n"], **spec.get("run", {}))
    requests = [{k: v for k, v in rec.items() if k != "batch"}
                for rec in recorder.requests]
    ticks = (control.ticks, control.actions) if control is not None else None
    return stats, system, ticks, requests, loop


def assert_max_batch_one_is_fifo(row):
    """The law: ``max_batch=1`` *is* the FIFO server — records, facade
    records, control ticks + action log, recorded request lines."""
    a, fifo_system, fifo_ticks, fifo_lines, fifo_loop = _serve_parity_row(
        row, InferenceServer)
    b, batched_system, ticks, lines, loop = _serve_parity_row(
        row, BatchingInferenceServer, policy=BatchPolicy(max_batch=1))
    assert a.records == b.records  # frozen dataclass: exact equality
    assert _facade_view(fifo_system) == _facade_view(batched_system)
    assert fifo_ticks == ticks
    assert fifo_lines == lines
    assert fifo_loop.fired_total == loop.fired_total
    assert [x.size for x in b.batches] == [1] * len(b.batches)
    return a, b


class TestFifoParity:
    def test_batch_size_one_is_bit_identical_to_fifo(self):
        """max_batch=1 must reproduce the FIFO server exactly — same
        floats, same flags, every field of every record."""
        assert_max_batch_one_is_fifo("plain")

    def test_batch_size_one_parity_with_trace(self):
        assert_max_batch_one_is_fifo("trace")

    def test_batch_size_one_parity_under_crash_and_recover(self):
        """Plan-only chaos: retries, failover and recovery come out the
        same from both servers, server-side and facade-side."""
        a, _ = assert_max_batch_one_is_fifo("crash_and_recover")
        assert a.outcome_counts()["retried"] > 0
        assert any(r.failovers for r in a.records)
        assert a.records[-1].outcome == "ok"  # device 1 came back

    @pytest.mark.parametrize("row", [
        r for r in PARITY_WORLDS
        if r not in ("plain", "trace", "crash_and_recover")])
    def test_batch_size_one_parity(self, row):
        """The rows with no legacy-named test of their own."""
        a, b = assert_max_batch_one_is_fifo(row)
        if row == "tenants":
            assert {r.tenant for r in a.records} == {"a", "b", None}
        if row == "shedding_admission":
            outcomes = [r.outcome for r in a.records]
            assert outcomes.count("shed") >= 6
            assert "shed, shed, shed" in ", ".join(outcomes)  # a streak
            assert outcomes[-1] != "shed"      # the gate re-opened
            assert len(b.batches) == len(a.records) - a.shed_count

    def test_summary_mentions_batches(self):
        server = BatchingInferenceServer(
            _system(seed=14), arrival_rate_hz=60.0,
            policy=BatchPolicy(max_batch=8), seed=14)
        stats = server.run(num_requests=16)
        assert "batches" in stats.summary()
        assert "amortized" in stats.summary()


class TestShedStreak:
    """Regression: inside a run of shed batch leaders the batched loop
    neither fired world events nor ticked control, so later leaders were
    judged against a stale world — a gate opened by an event at t = 1.0
    stayed shut for every request after the first shed."""

    ARRIVALS = [0.1, 0.6, 0.8, 1.05, 1.2, 1.4]

    def _run(self, server_cls, **server_kw):
        system = _system()
        loop = EventLoop(system.clock)
        gate = _Gate()
        control = ControlLoop([gate], period_s=0.25)
        loop.schedule(1.0, lambda t: setattr(gate, "closed", False))
        server = server_cls(system, 5.0, control=control, events=loop,
                            arrival_process=lambda rng, n: self.ARRIVALS,
                            **server_kw)
        stats = server.run(len(self.ARRIVALS))
        return [r.outcome for r in stats.records], control.ticks

    @pytest.mark.parametrize("server_kw", [
        None, dict(policy=BatchPolicy(max_batch=1)),
        dict(policy=BatchPolicy(max_batch=4)),
        dict(policy=BatchPolicy(max_batch=4, overlap=False))],
        ids=["fifo", "max1", "max4", "max4_serial"])
    def test_a_shed_leader_still_moves_the_world(self, server_kw):
        outcomes, ticks = (self._run(InferenceServer) if server_kw is None
                           else self._run(BatchingInferenceServer,
                                          **server_kw))
        assert outcomes == ["ok", "shed", "shed", "ok", "ok", "ok"]
        assert ticks == 4


class TestCloseBatch:
    def test_matches_the_member_by_member_scan(self):
        """``_close_batch`` answers by bisection; the scan it replaced
        is the oracle (ties, fill timeouts, early closes)."""
        def scan(policy, arrivals, i, exec_free, early):
            n, cap = len(arrivals), policy.max_batch
            natural = max(arrivals[i], exec_free)
            if early and i + cap - 1 < n and arrivals[i + cap - 1] <= natural:
                return i + cap, arrivals[i + cap - 1]
            j = i + 1
            while j < n and j - i < cap and arrivals[j] <= natural:
                j += 1
            deadline = arrivals[i] + policy.max_wait_s
            if j - i == cap or deadline <= natural:
                return j, natural
            while j < n and j - i < cap and arrivals[j] <= deadline:
                j += 1
            return j, (max(natural, arrivals[j - 1]) if j - i == cap
                       else deadline)

        rng = np.random.default_rng(0)
        server = BatchingInferenceServer(_system(), 5.0)
        for _ in range(3000):
            n = int(rng.integers(1, 24))
            arrivals = np.cumsum(rng.exponential(0.1, n)
                                 * (rng.random(n) > 0.3))
            i = int(rng.integers(n))
            exec_free = float(rng.choice([
                0.0, arrivals[i], arrivals[i] + rng.exponential(0.2),
                arrivals[min(i + 2, n - 1)]]))
            server.policy = BatchPolicy(
                max_batch=int(rng.integers(1, 9)),
                max_wait_s=float(rng.choice([0.0, 0.05, 0.3, 2.0])))
            for early in (False, True):
                assert server._close_batch(arrivals, i, exec_free, early) \
                    == scan(server.policy, arrivals.tolist(), i, exec_free,
                            early)


class TestBatchedTenants:
    def test_server_forwards_tenants_to_the_facade(self):
        """Regression: the batched loop never passed ``tenants`` on, so
        batched ``execute`` spans carried no tenant."""
        tel = Telemetry()
        server = BatchingInferenceServer(
            _system(telemetry=tel), arrival_rate_hz=60.0,
            policy=BatchPolicy(max_batch=4), seed=1, telemetry=tel)
        tenants = [("a", "b", None)[i % 3] for i in range(18)]
        server.run(num_requests=18, tenants=tenants)
        executes = [sp for root in tel.tracer.finished
                    if root.name == "batch"
                    for sp in root.children if sp.name == "execute"]
        assert len(executes) == 18
        assert any(root.attrs.get("size", 0) > 1
                   for root in tel.tracer.finished)  # real batches formed
        for sp in executes:
            assert sp.attrs.get("tenant") == tenants[sp.attrs["request"]]


class TestBatchedEvents:
    def test_events_fire_before_each_batch_decision(self):
        from repro.sim import EventLoop

        system = _system()
        loop = EventLoop(system.clock)
        fired = []
        loop.schedule(0.05, fired.append)
        loop.schedule(0.4, fired.append)
        server = BatchingInferenceServer(
            system, arrival_rate_hz=40.0,
            policy=BatchPolicy(max_batch=4, max_wait_s=0.05), seed=5,
            events=loop)
        stats = server.run(num_requests=24)
        assert fired == [0.05, 0.4]
        assert loop.fired_total == 2
        assert len(stats.records) == 24
