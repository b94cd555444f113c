"""A price-once batch serves its items at batch cost.

In a world that cannot fail, a plan-only dispatch prices its strategy
once, shares one frozen ``InferenceRecord`` among its items, and hands
each observer the whole dispatch in one call.  Under null telemetry that
makes the observer cost of a dispatch independent of its size: the law
below counts calls into the null forms' methods at ``n = 1`` and
``n = 8`` and requires the same count, so per-item observer work cannot
creep back one convenient loop at a time.  The same law holds for the
records a cache hit repeats: after the first hit, a dispatch that
changes nothing builds no ``DecisionRecord`` and no ``InferenceRecord``.
Two null forms cost a fixed amount: a probe round under null telemetry
makes one no-op metric call per remote, and a hit dispatch in a world
that cannot fail makes no call into the null breakers at all.
"""

import collections
import dataclasses
import inspect

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine
from repro.core.decision import DecisionRecord
from repro.core.murmuration import InferenceRecord
from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.eval.spec import PinnedTimeEngine
from repro.faults.health import NULL_HEALTH, NullHealth
from repro.nas.search_space import MBV3_SPACE
from repro.netsim import NetworkCondition, NetworkMonitor, star_topology
from repro.runtime import (BatchingInferenceServer, BatchPolicy,
                           InferenceServer)
from repro.telemetry import metrics, recorder, tracing

#: the null observers a serving run calls
NULL_OBSERVERS = (tracing.NullTracer, tracing._NullSpan, metrics._NullMetric,
                  metrics.NullRegistry, recorder.NullRecorder)


def _system():
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    engine = PinnedTimeEngine(SearchDecisionEngine(
        MBV3_SPACE, devices, n_random_archs=4, seed=0), 0.02)
    return Murmuration(MBV3_SPACE, devices,
                       NetworkCondition((300.0, 150.0), (10.0, 20.0)), engine,
                       slo=SLO.latency_ms(250.0), use_predictor=False,
                       monitor_noise=0.0, seed=0)


def _count_calls(monkeypatch, classes) -> collections.Counter:
    """From here on, every call into a method of ``classes`` (dunders
    aside, but for a context manager's) counts as ``Class.method``."""
    calls: collections.Counter = collections.Counter()

    def counting(cls, name, fn):
        def wrapped(*args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return fn(*args, **kwargs)
        return wrapped

    for cls in classes:
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            if not name.startswith("__") or name in ("__enter__",
                                                     "__exit__"):
                monkeypatch.setattr(cls, name, counting(cls, name, fn))
    return calls


def _null_calls(monkeypatch, cap: int) -> collections.Counter:
    """Calls into the null observers while a batched server serves two
    full dispatches of ``cap`` requests each (a miss, then a hit)."""
    calls = _count_calls(monkeypatch, NULL_OBSERVERS)
    server = BatchingInferenceServer(
        _system(), 10.0, policy=BatchPolicy(max_batch=cap),
        arrival_process=lambda rng, n: np.zeros(n))
    calls.clear()   # construction is not per dispatch
    stats = server.run(2 * cap)
    assert [b.size for b in stats.batches] == [cap, cap]
    monkeypatch.undo()
    return calls


def test_null_observer_calls_per_dispatch_do_not_grow_with_its_size(
        monkeypatch):
    one, eight = _null_calls(monkeypatch, 1), _null_calls(monkeypatch, 8)
    assert one and one == eight, (
        "per-item observer calls in a price-once dispatch: "
        + str({k: (one[k], eight[k]) for k in set(one) | set(eight)
               if one[k] != eight[k]}))


def test_a_price_once_batch_shares_one_frozen_record():
    system = _system()
    res = system.infer_batch(batch_size=5, request_ids=list(range(5)))
    first = res.items[0]
    assert all(item is first for item in res.items)
    assert system.records == res.items
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.latency_s = 0.0
    moved = dataclasses.replace(first, outcome="degraded")
    assert moved.outcome == "degraded" and first.outcome == "ok"
    # finishes are the left-to-right adds the per-item loop made
    sim_t = res.exec_start_s
    for finish in res.item_finish_s:
        sim_t = sim_t + first.latency_s
        assert finish == sim_t
    assert res.finish_s == sim_t == system.clock.now


def _records_built(monkeypatch, batched: bool,
                   hits: int) -> collections.Counter:
    """Decision and item records constructed while a server serves one
    miss dispatch, then ``hits`` cache-hit dispatches."""
    built: collections.Counter = collections.Counter()

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)
        return wrapped

    for cls in (DecisionRecord, InferenceRecord):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    cap = 8 if batched else 1

    def arrivals(rng, n):   # a dispatch's members together, one a second
        return np.repeat(np.arange(n // cap, dtype=float), cap)

    server = (BatchingInferenceServer(_system(), 10.0,
                                      policy=BatchPolicy(max_batch=cap),
                                      arrival_process=arrivals)
              if batched else
              InferenceServer(_system(), 10.0, arrival_process=arrivals))
    stats = server.run(cap * (1 + hits))
    assert server.system.cache.hits == hits
    assert len(stats.records) == cap * (1 + hits)
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("batched", [False, True], ids=["fifo", "batched"])
def test_a_hit_dispatch_builds_no_record_it_repeats(monkeypatch, batched):
    short = _records_built(monkeypatch, batched, 4)
    long = _records_built(monkeypatch, batched, 32)
    assert short and short == long, (short, long)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_a_null_probe_round_makes_one_call_per_remote(monkeypatch, n):
    """The counter and both error histograms of a probe are one
    ``registry.observer`` call: under null telemetry, one no-op each."""
    calls = _count_calls(monkeypatch, NULL_OBSERVERS)
    monitor = NetworkMonitor(star_topology([rpi4()] * n, NetworkCondition(
        (100.0,) * (n - 1), (10.0,) * (n - 1))), seed=0)
    calls.clear()   # construction is not per probe
    assert len(monitor.probe_all()) == n - 1
    assert calls == {"_NullMetric.inc": n - 1}


@pytest.mark.parametrize("batched", [False, True], ids=["fifo", "batched"])
def test_a_hit_in_a_world_that_cannot_fail_calls_no_null_breaker(
        monkeypatch, batched):
    system = _system()
    assert system.health is NULL_HEALTH
    # warm the cache for the (noiseless) observed cell: every dispatch hits
    assert system.precompute([system.cluster.condition]) == 1
    calls = _count_calls(monkeypatch, [NullHealth])
    cap = 8 if batched else 1
    server = (BatchingInferenceServer(system, 10.0,
                                      policy=BatchPolicy(max_batch=cap),
                                      arrival_process=lambda rng, n:
                                      np.zeros(n))
              if batched else InferenceServer(system, 10.0))
    stats = server.run(4 * cap)
    assert len(stats.records) == 4 * cap
    assert system.cache.hits == 4 and system.cache.misses == 0
    assert not calls, dict(calls)
