"""The failover ladder, seen through both data planes.

Plan-only and executable serving answer a failure with one policy:
retry, open a breaker, fail over to the fastest surviving remote, else
degrade to the min submodel on the gateway.  In a world of crashes only
(``MessageLoss`` is priced per transfer in one mode and per send in the
other, by design) the two modes must agree item by item.
"""

import numpy as np
import pytest

from repro.core import SLO, Murmuration, Strategy
from repro.core.decision import DecisionRecord
from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.faults import (CircuitState, DeviceCrash, ExecutionFailedError,
                          FaultInjector, FaultSchedule, ResilienceConfig)
from repro.faults.resilience import FailoverLadder
from repro.nas import Supernet, build_graph, max_arch, tiny_space
from repro.nas.accuracy_model import arch_accuracy, plan_accuracy_penalty
from repro.netsim import Cluster, NetworkCondition
from repro.partition import layerwise_split_plan, single_device_plan
from repro.partition.simulate import simulate_latency

SPACE = tiny_space()
DEVICES = (rpi4, desktop_gtx1080, jetson_class)
CONDITION = NetworkCondition((300.0, 150.0), (10.0, 20.0))


class _Split:
    """Always offloads the back half of the max submodel to device 1."""

    def __init__(self, devices, bits):
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1,
                                    bits=bits)
        expected = simulate_latency(
            graph, plan, Cluster(list(devices), CONDITION)).total_s
        self.strategy = Strategy(
            arch, plan, expected,
            arch_accuracy(arch, SPACE) - plan_accuracy_penalty(plan))

    def decide(self, slo, condition) -> DecisionRecord:
        return DecisionRecord(self.strategy, 0.002, "search")


def _system(executable: bool, crashed, bits=32, **resilience):
    devices = [make() for make in DEVICES]
    schedule = FaultSchedule([DeviceCrash(0.0, 100.0, device=d)
                              for d in crashed])
    return Murmuration(
        SPACE, devices, CONDITION, _Split(devices, bits),
        slo=SLO.latency_ms(100.0),
        supernet=Supernet(SPACE, seed=2).eval() if executable else None,
        use_predictor=False, monitor_noise=0.0, seed=3,
        faults=FaultInjector(schedule, seed=5),
        resilience=ResilienceConfig(**resilience))


def _inputs(n, executable):
    if not executable:
        return None
    res = max_arch(SPACE).resolution
    return [np.random.default_rng(i).normal(size=(1, 3, res, res))
            for i in range(n)]


@pytest.mark.parametrize("executable", [False, True])
def test_a_failover_reports_the_accuracy_it_ran(executable):
    """Regression: an executable item that failed over reported the
    planned split's accuracy (78.5503) although it ran the single-device
    plan its batch-mate and plan-only mode report (78.6628)."""
    system = _system(executable, crashed=[1], bits=8)
    items = system.infer_batch(xs=_inputs(2, executable), batch_size=2).items
    assert [(r.outcome, r.failovers) for r in items] == [("retried", 1),
                                                         ("ok", 0)]
    arch = max_arch(SPACE)
    ran = single_device_plan(build_graph(arch, SPACE), 2)  # the survivor
    assert items[0].accuracy == items[1].accuracy == (
        arch_accuracy(arch, SPACE) - plan_accuracy_penalty(ran))
    assert items[0].accuracy != items[0].strategy.expected_accuracy


def test_executable_sends_are_stamped_when_they_go_out():
    """Regression: executable sends were stamped at t = 0, so a circuit
    they opened half-opened as soon as the clock passed ``cooldown_s``
    and every later dispatch re-paid its retries.  With both remotes
    down, three dispatches open both circuits; the fourth serves on the
    gateway with no retry, as plan-only mode does."""
    system = _system(True, crashed=[1, 2])
    for _ in range(3):
        system.infer_batch(xs=_inputs(2, True), batch_size=2)
    now = system.clock.now
    assert [system.health.state(d, now) for d in (1, 2)] == [
        CircuitState.OPEN] * 2
    items = system.infer_batch(xs=_inputs(2, True), batch_size=2).items
    assert [(r.outcome, r.retries) for r in items] == [("ok", 0)] * 2


def _serve(executable, failover, batch, monkeypatch):
    """Five dispatches with both remotes down; per item, what was served
    and the (arch, plan) the ladder ended on (None when it failed)."""
    ran = []
    climb = FailoverLadder.climb

    def spy(self, *args):
        try:
            done = climb(self, *args)
        except ExecutionFailedError:
            ran.append(None)
            raise
        plan = done.executed_plan
        ran.append((done.executed_arch, tuple(plan), plan.output_device))
        return done

    monkeypatch.setattr(FailoverLadder, "climb", spy)
    system = _system(executable, crashed=[1, 2], failover=failover)
    items = []
    for _ in range(5):
        if batch == 1:
            items.append(system.infer(_inputs(1, executable)[0]
                                      if executable else None))
        else:
            items += system.infer_batch(xs=_inputs(batch, executable),
                                        batch_size=batch).items
    monkeypatch.undo()
    return [(r.outcome, r.retries, r.failovers, r.latency_s, r.accuracy)
            for r in items], ran


@pytest.mark.parametrize("batch", [1, 2], ids=["fifo", "batch2"])
@pytest.mark.parametrize("failover", [True, False],
                         ids=["failover", "no_failover"])
def test_both_data_planes_serve_a_crash_alike(failover, batch, monkeypatch):
    """Item by item, both modes agree on outcome, retries, failovers,
    latency, accuracy and the plan the ladder ended on — also once the
    breakers opened (the fourth and fifth dispatches)."""
    plan_only = _serve(False, failover, batch, monkeypatch)
    executable = _serve(True, failover, batch, monkeypatch)
    assert executable[0] == plan_only[0]
    assert executable[1] == plan_only[1]
    outcomes = {outcome for outcome, *_ in plan_only[0]}
    assert outcomes == ({"degraded", "ok"} if failover else {"failed"})
