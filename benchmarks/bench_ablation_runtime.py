"""Ablation — runtime fast-adaptation machinery (Sec. 5.1).

Measures the decision path with and without the strategy cache and the
monitoring predictor while replaying a dynamic network trace: the cache
collapses repeated decisions to microseconds, and precomputation against
predicted conditions hides the decision latency entirely.
"""

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine, StrategyCache
from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE
from repro.netsim import NetworkCondition, TraceConfig, random_walk_trace


def _system(use_cache: bool, use_predictor: bool, seed: int = 0):
    devices = [rpi4(), desktop_gtx1080()]
    cache = StrategyCache(capacity=256) if use_cache else StrategyCache(
        capacity=1, bw_step=1e-6, delay_step=1e-6)  # effectively disabled
    return Murmuration(
        MBV3_SPACE, devices, NetworkCondition((200.0,), (20.0,)),
        SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=8),
        slo=SLO.latency(0.3), cache=cache, use_predictor=use_predictor,
        monitor_noise=0.02, seed=seed)


TRACE = random_walk_trace(TraceConfig(num_remote=1, bw_range=(80.0, 400.0),
                                      delay_range=(5.0, 60.0), steps=40,
                                      seed=3))


def _replay(system):
    times = []
    for cond in TRACE:
        system.update_condition(cond)
        rec = system.infer()
        times.append(rec.decision_time_s)
    return times


def _warm(system):
    """One engine decision before the timed replay: an engine's first
    miss enumerates its candidates once (~7 ms against ~0.03 ms per warm
    decision), which would swamp the mean of 40 steps in either arm.
    The strategy cache is not touched."""
    system.engine.decide(system.slo, TRACE[0])
    return system


@pytest.mark.benchmark(group="ablation")
def test_strategy_cache_cuts_decision_time(benchmark):
    def run():
        with_cache = _replay(_warm(_system(use_cache=True,
                                           use_predictor=False)))
        without = _replay(_warm(_system(use_cache=False,
                                        use_predictor=False)))
        return with_cache, without

    with_cache, without = benchmark.pedantic(run, rounds=1, iterations=1)
    mean_with = float(np.mean(with_cache))
    mean_without = float(np.mean(without))
    hits = sum(1 for t in with_cache if t == 0.0)
    print(f"\nmean decision time with cache: {mean_with * 1e3:.2f} ms "
          f"({hits}/{len(with_cache)} hits); without: "
          f"{mean_without * 1e3:.2f} ms")
    assert hits > 5
    assert mean_with < mean_without


@pytest.mark.benchmark(group="ablation")
def test_precompute_hides_decision_latency(benchmark):
    def run():
        system = _system(use_cache=True, use_predictor=True, seed=1)
        # Warm the cache against the *forecast* conditions, then serve.
        system.precompute([system.observed_condition()
                           for _ in range(5)])
        return _replay(system)

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nfirst-request decision time after precompute: "
          f"{times[0] * 1e3:.3f} ms")
    assert times[0] < 0.5
