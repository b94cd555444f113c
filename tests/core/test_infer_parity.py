"""Facade parity: every float of ``infer`` / ``infer_batch`` is pinned,
plus what the single path guarantees by construction (clock, tenants).

``tests/fixtures/facade_parity_golden.json`` was frozen at the commit
*before* the two facade paths were folded into one; it holds the
``float.hex`` of every :class:`InferenceRecord` field (logits and the
strategy as sha256 digests) for seeded facade-only runs in all four
modes — plan-only and executable, each with and without fault injection
— with ``degraded`` off and on.  A refactor of the serving path must
leave the file untouched.
"""

import functools

import numpy as np
import pytest

from repro.core import SLO, Murmuration, SearchDecisionEngine, Strategy
from repro.core.decision import DecisionRecord
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.eval.spec import PinnedTimeEngine
from repro.faults import (DeviceCrash, FaultInjector, FaultSchedule,
                          MessageLoss)
from repro.nas import (MBV3_SPACE, Supernet, build_graph, max_arch, min_arch,
                       tiny_space)
from repro.nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from repro.netsim import Cluster, NetworkCondition
from repro.netsim.fluid import FluidTracker
from repro.partition import layerwise_split_plan
from repro.partition.simulate import simulate_latency
from tests.frozen import sha256

MODES = ("plan", "plan_faults", "exec", "exec_faults")
_TINY = tiny_space()


def _faults(mode: str, crash1: tuple, crash2: tuple) -> FaultInjector:
    """Overlapping crash-and-recover windows on both remotes (failover,
    then gateway degradation) plus lossy links throughout."""
    if not mode.endswith("_faults"):
        return None
    schedule = FaultSchedule([DeviceCrash(*crash1, device=1),
                              DeviceCrash(*crash2, device=2),
                              MessageLoss(0.0, 1e9, prob=0.15)])
    return FaultInjector(schedule, seed=5)


def _half_split(graph):
    return layerwise_split_plan(graph, len(graph) // 2, remote=1)


class _SplitEngine:
    """Always serves one plan of the max submodel: ``place(graph)``, by
    default its back half offloaded to device 1.

    The search engine keeps the tiny executable model on the gateway
    (RPC overhead dwarfs its compute), which would leave the executable
    fault modes with no wire to fail on.
    """

    def __init__(self, devices, condition, place=_half_split):
        arch = max_arch(_TINY)
        graph = build_graph(arch, _TINY)
        plan = place(graph)
        expected = simulate_latency(
            graph, plan, Cluster(list(devices), condition)).total_s
        self._strategy = Strategy(
            arch, plan, expected,
            arch_accuracy(arch, _TINY) - plan_accuracy_penalty(plan))

    def decide(self, slo, condition) -> DecisionRecord:
        return DecisionRecord(self._strategy, 0.002, "search")


def _system(mode: str, place=_half_split) -> Murmuration:
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    condition = NetworkCondition((300.0, 150.0), (10.0, 20.0))
    if mode.startswith("plan"):
        # seeded monitor noise moves the observed condition across
        # cache cells, so hits and misses interleave
        engine = SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=4,
                                      seed=3)
        return Murmuration(
            MBV3_SPACE, devices, condition, PinnedTimeEngine(engine, 0.02),
            slo=SLO.latency_ms(250.0), use_predictor=False,
            monitor_noise=0.05, seed=3,
            faults=_faults(mode, (0.3, 1.4), (0.6, 1.0)))
    return Murmuration(
        _TINY, devices, condition, _SplitEngine(devices, condition, place),
        slo=SLO.latency_ms(100.0), supernet=Supernet(_TINY, seed=2).eval(),
        use_predictor=False, monitor_noise=0.0, seed=3,
        faults=_faults(mode, (0.05, 0.4), (0.0, 0.3)))


def _input(mode: str, degraded: bool, i: int):
    """Request ``i``'s input tensor (None in plan-only mode)."""
    if mode.startswith("plan"):
        return None
    res = (min_arch if degraded else max_arch)(_TINY).resolution
    return np.random.default_rng(100 + i).normal(size=(1, 3, res, res))


def _dump(record) -> dict:
    s = record.strategy
    return {
        "latency_s": record.latency_s.hex(),
        "accuracy": float(record.accuracy).hex(),
        "satisfied": bool(record.satisfied),
        "strategy": sha256(repr((s.arch, tuple(s.plan),
                                 s.plan.output_device,
                                 float(s.expected_latency_s).hex(),
                                 float(s.expected_accuracy).hex())))[:16],
        "cache_hit": record.cache_hit,
        "decision_time_s": float(record.decision_time_s).hex(),
        "switch_time_s": float(record.switch_time_s).hex(),
        "logits": (None if record.logits is None else sha256(
            np.ascontiguousarray(record.logits).tobytes())[:16]),
        "outcome": record.outcome,
        "retries": record.retries,
        "failovers": record.failovers,
    }


def _run_single(mode: str, degraded: bool) -> list:
    system = _system(mode)
    return [_dump(system.infer(_input(mode, degraded, i), request_id=i,
                               degraded=degraded))
            for i in range(12)]


def _run_batched(mode: str, degraded: bool) -> list:
    system = _system(mode)
    out = []
    for b in range(4):
        ids = list(range(3 * b, 3 * b + 3))
        xs = (None if mode.startswith("plan")
              else [_input(mode, degraded, i) for i in ids])
        res = system.infer_batch(xs=xs, batch_size=3, request_ids=ids,
                                 degraded=degraded)
        out.extend(_dump(r) for r in res.items)
    return out


def _case(kind: str, mode: str, degraded: bool) -> list:
    return (_run_single if kind == "infer" else _run_batched)(mode, degraded)


CASES = [(kind, mode, degraded) for kind in ("infer", "infer_batch")
         for mode in MODES for degraded in (False, True)]


def _key(kind: str, mode: str, degraded: bool) -> str:
    return f"{kind}/{mode}/{'degraded' if degraded else 'normal'}"


@functools.lru_cache(maxsize=None)
def fixture_content():
    return {_key(*c): _case(*c) for c in CASES}


@pytest.mark.parametrize("kind,mode,degraded", CASES)
def test_records_match_the_frozen_fixture(moved, kind, mode, degraded):
    assert _key(kind, mode, degraded) not in moved("facade_parity_golden")


def test_fixture_exercises_every_outcome():
    """The fixture is only worth freezing if the fault modes really
    retried, failed over and degraded, and the cache both hit and
    missed."""
    records = [r for case in fixture_content().values() for r in case]
    assert {r["outcome"] for r in records} >= {"ok", "retried", "degraded"}
    assert {r["cache_hit"] for r in records} == {True, False}
    assert any(r["failovers"] for r in records)
    assert any(r["logits"] for r in records)
    assert any(r["switch_time_s"] != (0.0).hex() for r in records)


def test_clock_lands_on_the_servers_finish_float():
    """After ``infer(now=start)`` the clock is ``((start + d) + s) + l``
    exactly — the float :meth:`InferenceServer.run` calls ``finish`` —
    not ``start + (d + s + l)``."""
    system = _system("exec")
    start = 0.7
    rec = system.infer(_input("exec", False, 0), now=start)
    assert rec.decision_time_s > 0.0 and rec.switch_time_s > 0.0
    assert system.clock.now == (
        ((start + rec.decision_time_s) + rec.switch_time_s) + rec.latency_s)


def test_batched_transfers_bill_their_own_tenant():
    """Regression: ``infer_batch`` never set the transport's tenant, so
    after one ``infer(tenant="a")`` every later batched transfer was
    billed to "a"."""
    system = _system("exec")
    tracker = system.cluster.contention = FluidTracker()
    x = _input("exec", False, 0)
    system.infer(x, tenant="a")
    per_request = tracker.tenant_bytes()["a"]
    assert per_request > 0
    system.infer_batch(xs=[x, x])
    assert tracker.tenant_bytes() == {"a": per_request}
    system.infer_batch(xs=[x, x, x], tenants=["b", None, "b"])
    assert tracker.tenant_bytes() == {"a": per_request,
                                      "b": 2 * per_request}

