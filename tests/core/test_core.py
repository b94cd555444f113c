"""Core: SLO API, strategy cache, decision engines, the facade."""

import math

import numpy as np
import pytest

from repro.core import (SLO, Murmuration, RLDecisionEngine,
                        SearchDecisionEngine, Strategy, StrategyCache)
from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE, build_graph, max_arch
from repro.netsim import NetworkCondition
from repro.partition import single_device_plan
from repro.rl import EnvConfig, LSTMPolicy, MurmurationEnv


class TestSLO:
    def test_latency_constructors(self):
        assert SLO.latency(0.14).value == 0.14
        assert SLO.latency_ms(140).value == pytest.approx(0.14)

    def test_accuracy_constructor(self):
        assert SLO.accuracy(75.0).kind == "accuracy"

    @pytest.mark.parametrize("kind,value", [("latency", 0.0),
                                            ("latency", -1.0),
                                            ("accuracy", 0.0),
                                            ("accuracy", 101.0)])
    def test_invalid_values(self, kind, value):
        with pytest.raises(ValueError):
            SLO(kind, value)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_a_non_finite_latency_is_rejected_by_name(self, seconds):
        """Regression: ``nan <= 0`` is False, so NaN and infinity passed
        and surfaced later as an int conversion in the strategy cache."""
        with pytest.raises(ValueError, match=f"finite.*got {seconds!r}"):
            SLO.latency(seconds)
        with pytest.raises(ValueError, match="finite"):
            SLO.latency_ms(seconds)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            SLO("throughput", 5.0)

    def test_satisfied_by(self):
        lat = SLO.latency(0.1)
        assert lat.satisfied_by(0.09, 50.0)
        assert not lat.satisfied_by(0.11, 99.0)
        acc = SLO.accuracy(75.0)
        assert acc.satisfied_by(10.0, 75.0)
        assert not acc.satisfied_by(0.001, 74.9)


def _strategy():
    arch = max_arch(MBV3_SPACE)
    graph = build_graph(arch, MBV3_SPACE)
    return Strategy(arch, single_device_plan(graph), 0.1, 78.0)


class TestStrategyCache:
    def test_put_get_roundtrip(self):
        cache = StrategyCache()
        slo = SLO.latency(0.14)
        cond = NetworkCondition((100.0,), (10.0,))
        assert cache.get(slo, cond) is None
        s = _strategy()
        cache.put(slo, cond, s)
        assert cache.get(slo, cond) is s
        assert cache.hits == 1 and cache.misses == 1

    def test_nearby_conditions_share_cell(self):
        cache = StrategyCache(bw_step=25.0, delay_step=10.0)
        slo = SLO.latency(0.14)
        s = _strategy()
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), s)
        assert cache.get(slo, NetworkCondition((104.0,), (11.0,))) is s

    def test_distinct_slos_distinct_cells(self):
        cache = StrategyCache()
        cond = NetworkCondition((100.0,), (10.0,))
        cache.put(SLO.latency(0.1), cond, _strategy())
        assert cache.get(SLO.latency(0.3), cond) is None
        assert cache.get(SLO.accuracy(75.0), cond) is None

    def test_lru_eviction(self):
        cache = StrategyCache(capacity=2)
        s = _strategy()
        conds = [NetworkCondition((b,), (10.0,)) for b in (50.0, 150.0, 300.0)]
        for c in conds:
            cache.put(SLO.latency(0.1), c, s)
        assert len(cache) == 2
        assert cache.get(SLO.latency(0.1), conds[0]) is None  # evicted

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StrategyCache(capacity=0)

    @pytest.mark.parametrize("capacity", [float("nan"), 2.5, 3.0, True])
    def test_capacity_must_be_an_int(self, capacity):
        """Regression: ``capacity=nan`` never evicted and ``2.5`` was
        silently 2."""
        with pytest.raises(ValueError, match="capacity must be an int"):
            StrategyCache(capacity=capacity)

    @pytest.mark.parametrize("name", ["slo_step", "bw_step", "delay_step"])
    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_non_finite_steps_rejected(self, name, step):
        """Regression: a NaN step passed ``step <= 0`` and the first
        lookup raised a bare int-conversion error."""
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            StrategyCache(**{name: step})
        cache = StrategyCache()
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            cache.set_steps(**{name: step})
        assert getattr(cache, name) == getattr(StrategyCache(), name)

    def test_tiny_steps_stay_legal(self):
        """``examples/dynamic_network.py`` disables sharing this way."""
        cache = StrategyCache(capacity=1, bw_step=1e-9, delay_step=1e-9)
        cond = NetworkCondition((100.0,), (10.0,))
        cache.put(SLO.latency(0.1), cond, _strategy())
        assert cache.get(SLO.latency(0.1), cond) is not None

    def test_hit_rate(self):
        cache = StrategyCache()
        assert cache.hit_rate == 0.0
        cond = NetworkCondition((100.0,), (10.0,))
        cache.get(SLO.latency(0.1), cond)
        cache.put(SLO.latency(0.1), cond, _strategy())
        cache.get(SLO.latency(0.1), cond)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order_respects_recency(self):
        """A get() refreshes an entry, so the *other* one is evicted."""
        cache = StrategyCache(capacity=2)
        slo = SLO.latency(0.1)
        s = _strategy()
        c_a = NetworkCondition((50.0,), (10.0,))
        c_b = NetworkCondition((150.0,), (10.0,))
        c_c = NetworkCondition((300.0,), (10.0,))
        cache.put(slo, c_a, s)
        cache.put(slo, c_b, s)
        assert cache.get(slo, c_a) is s   # refresh A: B is now oldest
        cache.put(slo, c_c, s)            # evicts B
        assert cache.get(slo, c_b) is None
        assert cache.get(slo, c_a) is s
        assert cache.get(slo, c_c) is s
        assert cache.evictions == 1

    def test_key_snapping_same_cell_collides(self):
        """Conditions within half a step of each other share one cell."""
        cache = StrategyCache(bw_step=25.0, delay_step=10.0)
        slo = SLO.latency(0.14)
        s = _strategy()
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), s)
        # 100/25 = 4 and 110/25 = 4.4 both round to cell 4
        assert cache.get(slo, NetworkCondition((110.0,), (12.0,))) is s
        assert len(cache) == 1
        # overwriting through a colliding key is an overwrite, not insert
        cache.put(slo, NetworkCondition((110.0,), (12.0,)), s)
        assert cache.inserts == 1 and cache.overwrites == 1

    def test_key_snapping_adjacent_cells_do_not_collide(self):
        cache = StrategyCache(bw_step=25.0, delay_step=10.0)
        slo = SLO.latency(0.14)
        s = _strategy()
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), s)
        # 120/25 = 4.8 rounds to cell 5: one step over, distinct entry
        assert cache.get(slo, NetworkCondition((120.0,), (10.0,))) is None
        cache.put(slo, NetworkCondition((120.0,), (10.0,)), s)
        assert len(cache) == 2 and cache.inserts == 2

    def test_peek_does_not_touch_stats_or_lru(self):
        """Regression: probing lookups (precompute warm-up, blocked-plan
        checks) must not count as serving hits/misses or refresh LRU."""
        cache = StrategyCache(capacity=2)
        slo = SLO.latency(0.1)
        s = _strategy()
        c_a = NetworkCondition((50.0,), (10.0,))
        c_b = NetworkCondition((150.0,), (10.0,))
        c_c = NetworkCondition((300.0,), (10.0,))
        assert cache.peek(slo, c_a) is None
        cache.put(slo, c_a, s)
        assert cache.peek(slo, c_a) is s
        assert cache.hits == 0 and cache.misses == 0
        # peek() must not refresh recency: A stays oldest and is evicted
        cache.put(slo, c_b, s)
        cache.peek(slo, c_a)
        cache.put(slo, c_c, s)
        assert cache.peek(slo, c_a) is None
        assert cache.peek(slo, c_b) is s

    def test_stats_snapshot(self):
        cache = StrategyCache(capacity=8)
        slo = SLO.latency(0.1)
        cond = NetworkCondition((100.0,), (10.0,))
        cache.get(slo, cond)
        cache.put(slo, cond, _strategy())
        cache.get(slo, cond)
        st = cache.stats()
        assert st["entries"] == 1 and st["capacity"] == 8
        assert st["hits"] == 1 and st["misses"] == 1
        assert st["hit_rate"] == 0.5
        assert st["inserts"] == 1
        assert st["overwrites"] == 0 and st["evictions"] == 0


class TestSetSteps:
    """Runtime granularity retuning — the control plane's cache knob."""

    def test_rekey_preserves_entries_and_recent_wins_collisions(self):
        cache = StrategyCache(bw_step=25.0, delay_step=10.0)
        slo = SLO.latency(0.1)
        s_old, s_new = _strategy(), _strategy()
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), s_old)
        cache.put(slo, NetworkCondition((120.0,), (10.0,)), s_new)
        assert len(cache) == 2
        # coarsening to 50: cells 100/50=2 and 120/50=2.4 collide; the
        # more recently used entry must survive
        dropped = cache.set_steps(bw_step=50.0)
        assert dropped == 1 and len(cache) == 1
        assert cache.invalidations == 1
        assert cache.get(slo, NetworkCondition((110.0,), (10.0,))) is s_new

    def test_rekey_false_invalidates_everything(self):
        cache = StrategyCache(bw_step=25.0)
        slo = SLO.latency(0.1)
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), _strategy())
        cache.put(slo, NetworkCondition((300.0,), (10.0,)), _strategy())
        dropped = cache.set_steps(bw_step=50.0, rekey=False)
        assert dropped == 2 and len(cache) == 0
        assert cache.invalidations == 2
        assert cache.bw_step == 50.0

    def test_refine_separates_formerly_shared_cells(self):
        """After refining, peek() must see the new, finer snapping."""
        cache = StrategyCache(bw_step=50.0, delay_step=10.0)
        slo = SLO.latency(0.1)
        s = _strategy()
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), s)
        assert cache.peek(slo, NetworkCondition((120.0,), (10.0,))) is s
        assert cache.set_steps(bw_step=25.0) == 0  # refine drops nothing
        # entry re-snapped from its exact written condition (cell 4);
        # 120 now lands in cell 5, its own distinct cell
        assert cache.peek(slo, NetworkCondition((120.0,), (10.0,))) is None
        assert cache.peek(slo, NetworkCondition((104.0,), (10.0,))) is s

    def test_unchanged_steps_are_a_noop(self):
        cache = StrategyCache()
        slo = SLO.latency(0.1)
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), _strategy())
        assert cache.set_steps(bw_step=cache.bw_step) == 0
        assert cache.set_steps() == 0
        assert len(cache) == 1 and cache.invalidations == 0

    @pytest.mark.parametrize("kwargs", [dict(slo_step=0.0),
                                        dict(bw_step=-1.0),
                                        dict(delay_step=0.0)])
    def test_invalid_steps_rejected(self, kwargs):
        cache = StrategyCache()
        with pytest.raises(ValueError, match="must be positive"):
            cache.set_steps(**kwargs)

    def test_hit_miss_counters_survive_a_retune(self):
        """The control loop retunes from windowed hit/miss deltas, so a
        retune must not erase the evidence it acted on."""
        cache = StrategyCache()
        slo = SLO.latency(0.1)
        cond = NetworkCondition((100.0,), (10.0,))
        cache.get(slo, cond)                 # miss
        cache.put(slo, cond, _strategy())
        cache.get(slo, cond)                 # hit
        cache.set_steps(bw_step=50.0)
        st = cache.stats()
        assert st["hits"] == 1 and st["misses"] == 1
        assert st["bw_step"] == 50.0

    def test_rekey_preserves_lru_order(self):
        """Eviction order after a retune still reflects pre-retune use."""
        cache = StrategyCache(capacity=2, bw_step=25.0)
        slo = SLO.latency(0.1)
        s = _strategy()
        c_a = NetworkCondition((50.0,), (10.0,))
        c_b = NetworkCondition((300.0,), (10.0,))
        cache.put(slo, c_a, s)
        cache.put(slo, c_b, s)
        assert cache.get(slo, c_a) is s      # A is now most recent
        cache.set_steps(bw_step=30.0)
        cache.put(slo, NetworkCondition((150.0,), (10.0,)), s)
        assert cache.peek(slo, c_b) is None  # B was oldest: evicted
        assert cache.peek(slo, c_a) is s

    def test_a_collision_survivor_keeps_its_recency(self):
        """The entry that wins a collision is the most recently used of
        the cell: it takes the newer position, so a later eviction goes
        to an entry used before it."""
        cache = StrategyCache(capacity=3, bw_step=25.0)
        slo = SLO.latency(0.1)
        a, b, c = _strategy(), _strategy(), _strategy()
        cache.put(slo, NetworkCondition((100.0,), (10.0,)), a)  # cell 4
        cache.put(slo, NetworkCondition((200.0,), (10.0,)), c)  # cell 8
        cache.put(slo, NetworkCondition((120.0,), (10.0,)), b)  # cell 5
        # at 50: A and B collide in cell 2, and B, used last, survives
        assert cache.set_steps(bw_step=50.0) == 1
        assert [e[2] for e in cache._store.values()] == [c, b]
        cache.put(slo, NetworkCondition((400.0,), (10.0,)), _strategy())
        cache.put(slo, NetworkCondition((600.0,), (10.0,)), _strategy())
        assert cache.peek(slo, NetworkCondition((200.0,), (10.0,))) is None
        assert cache.peek(slo, NetworkCondition((120.0,), (10.0,))) is b


@pytest.fixture(scope="module")
def devices():
    return [rpi4(), desktop_gtx1080()]


class TestSearchDecisionEngine:
    def test_loose_latency_slo_satisfiable(self, devices):
        eng = SearchDecisionEngine(MBV3_SPACE, devices)
        rec = eng.decide(SLO.latency(1.0), NetworkCondition((200.0,), (20.0,)))
        assert rec.strategy is not None
        assert rec.strategy.expected_latency_s <= 1.0
        assert rec.decision_time_s > 0

    def test_impossible_slo_returns_none(self, devices):
        eng = SearchDecisionEngine(MBV3_SPACE, devices)
        rec = eng.decide(SLO.latency(0.0001),
                         NetworkCondition((200.0,), (20.0,)))
        assert rec.strategy is None

    def test_accuracy_slo_minimizes_latency(self, devices):
        eng = SearchDecisionEngine(MBV3_SPACE, devices)
        hi = eng.decide(SLO.accuracy(78.0), NetworkCondition((400.0,), (5.0,)))
        lo = eng.decide(SLO.accuracy(72.0), NetworkCondition((400.0,), (5.0,)))
        assert hi.strategy and lo.strategy
        assert lo.strategy.expected_latency_s <= hi.strategy.expected_latency_s


class TestRLDecisionEngine:
    def test_decide_runs_policy(self, devices):
        env = MurmurationEnv(MBV3_SPACE, devices, EnvConfig())
        policy = LSTMPolicy.for_env(env)
        eng = RLDecisionEngine(env, policy)
        rec = eng.decide(SLO.latency(0.5), NetworkCondition((200.0,), (20.0,)))
        assert rec.engine == "rl"
        assert rec.decision_time_s < 1.0  # milliseconds in practice

    def test_slo_kind_mismatch(self, devices):
        env = MurmurationEnv(MBV3_SPACE, devices,
                             EnvConfig(slo_kind="latency"))
        eng = RLDecisionEngine(env, LSTMPolicy.for_env(env))
        with pytest.raises(ValueError):
            eng.decide(SLO.accuracy(75.0), NetworkCondition((200.0,), (20.0,)))


class TestMurmurationFacade:
    def _system(self, devices, use_predictor=True):
        cond = NetworkCondition((200.0,), (20.0,))
        engine = SearchDecisionEngine(MBV3_SPACE, devices)
        return Murmuration(MBV3_SPACE, devices, cond, engine,
                           slo=SLO.latency(0.3), use_predictor=use_predictor,
                           seed=1)

    def test_infer_plan_only(self, devices):
        sys = self._system(devices)
        rec = sys.infer()
        assert rec.satisfied
        assert rec.latency_s <= 0.3
        assert rec.strategy is not None

    def test_cache_hit_on_second_request(self, devices):
        sys = self._system(devices, use_predictor=False)
        r1 = sys.infer()
        r2 = sys.infer()
        assert not r1.cache_hit
        assert r2.cache_hit
        assert r2.decision_time_s == 0.0

    def test_infer_advances_clock_by_full_service_time(self, devices):
        """Regression: the clock drifted by decision+switch time per
        request — it must advance by the *whole* service time, or fault
        schedules and condition traces slip out of alignment."""
        sys = self._system(devices, use_predictor=False)
        rec = sys.infer(now=0.0)
        assert rec.decision_time_s > 0.0  # first request really decides
        assert sys.clock.now == pytest.approx(
            rec.decision_time_s + rec.switch_time_s + rec.latency_s)
        before = sys.clock.now
        rec2 = sys.infer()
        assert sys.clock.now == pytest.approx(
            before + rec2.decision_time_s + rec2.switch_time_s
            + rec2.latency_s)

    def test_infer_rejects_rewinding_now(self, devices):
        """Serving time is monotone: an infer(now=...) earlier than the
        facade's clock is a causality bug, not a clamp."""
        sys = self._system(devices, use_predictor=False)
        sys.infer(now=2.0)
        with pytest.raises(ValueError, match="rewind"):
            sys.infer(now=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("front", ["infer", "infer_batch"])
    def test_a_non_finite_now_is_refused_before_anything_is_served(
            self, devices, front, bad):
        """``nan`` passes the rewind guard (``nan < x`` is false): the
        clock became NaN and every later request inherited it."""
        sys = self._system(devices, use_predictor=False)
        sys.infer(now=1.0)
        before = (sys.clock.now, sys.cache.hits, sys.cache.misses)
        with pytest.raises(ValueError, match=str(bad)):
            getattr(sys, front)(now=bad)
        assert (sys.clock.now, sys.cache.hits, sys.cache.misses) == before
        sys.infer()
        assert before[0] < sys.clock.now < math.inf

    def test_infer_tolerates_float_noise_rewinds(self, devices):
        """Servers sum service segments in a different association order
        than the clock accumulates them; a few-ulp 'rewind' is float
        noise and must be absorbed like the historical assignment."""
        sys = self._system(devices, use_predictor=False)
        sys.infer(now=1.0)
        t = sys.clock.now
        noise = t - t * 1e-12  # well inside tolerance, below t
        rec = sys.infer(now=noise)
        assert rec is not None

    def test_facade_shares_an_injected_clock(self, devices):
        """The event core hands the facade a clock shared with an
        EventLoop; both sides must see each other's advances."""
        from repro.runtime.clock import SimulatedClock

        clock = SimulatedClock()
        cond = NetworkCondition((200.0,), (20.0,))
        engine = SearchDecisionEngine(MBV3_SPACE, devices)
        sys = Murmuration(MBV3_SPACE, devices, cond, engine,
                          slo=SLO.latency(0.3), use_predictor=False,
                          seed=1, clock=clock)
        assert sys.clock is clock
        clock.advance_to(5.0)
        assert sys.clock.now == 5.0
        sys.infer(now=6.0)
        assert clock.now > 6.0  # service time accrued on the shared clock

    def test_precompute_does_not_poison_cache_stats(self, devices):
        """Regression: warm-up probes counted as serving misses, so
        core_cache_hit_rate underreported after every precompute."""
        sys = self._system(devices, use_predictor=False)
        conds = [NetworkCondition((bw,), (20.0,)) for bw in (50.0, 200.0)]
        assert sys.precompute(conds) == 2
        assert sys.cache.misses == 0 and sys.cache.hits == 0
        # precompute again: already warm, still no stat movement
        assert sys.precompute(conds) == 0
        assert sys.cache.misses == 0 and sys.cache.hits == 0

    def test_requires_slo(self, devices):
        sys = self._system(devices)
        sys.slo = None
        with pytest.raises(RuntimeError, match="SLO"):
            sys.infer()

    def test_set_slo_changes_strategy_quality(self, devices):
        sys = self._system(devices)
        sys.set_slo(SLO.latency(1.0))
        loose = sys.infer()
        sys.set_slo(SLO.latency(0.12))
        tight = sys.infer()
        assert tight.latency_s <= 0.12 + 1e-9
        assert loose.accuracy >= tight.accuracy - 1e-9

    def test_adapts_to_condition_change(self, devices):
        sys = self._system(devices)
        good = sys.infer()
        sys.update_condition(NetworkCondition((20.0,), (95.0,)))
        # burn a few probes so the EWMA catches up
        for _ in range(6):
            sys.observed_condition()
        degraded = sys.infer()
        assert degraded.satisfied
        # under a bad network the system trades accuracy for latency
        assert degraded.accuracy <= good.accuracy + 1e-9

    def test_precompute_warms_cache(self, devices):
        sys = self._system(devices, use_predictor=False)
        conds = [NetworkCondition((b,), (20.0,)) for b in (100.0, 300.0)]
        n = sys.precompute(conds)
        assert n == 2
        assert sys.cache.get(sys.slo, conds[0]) is not None

    def test_compliance_rate_tracks_records(self, devices):
        sys = self._system(devices)
        assert sys.compliance_rate() == 0.0
        sys.infer()
        assert sys.compliance_rate() == 1.0
