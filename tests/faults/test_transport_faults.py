"""Transport + executor under injected faults.

Covers the sender-side failure semantics (loss retries, unreachable
give-up, wasted-time accounting), request-id threading, and the
executor's failover/degradation ladder.
"""

import numpy as np
import pytest

from repro.faults import (DeviceCrash, DeviceUnreachableError,
                          ExecutionFailedError, FaultInjector, FaultSchedule,
                          MessageLoss, ResilienceConfig, RetryPolicy)
from repro.devices import rpi4
from repro.nas import Supernet, build_graph, max_arch, min_arch, tiny_space
from repro.netsim import Cluster, NetworkCondition, ring_topology
from repro.partition import layerwise_split_plan, single_device_plan
from repro.runtime import DistributedExecutor
from repro.runtime.rpc import Transport
from repro.telemetry import Telemetry

SPACE = tiny_space()
POLICY = RetryPolicy(timeout_s=0.05, max_retries=2, backoff=2.0)


def _cluster(n=3):
    return Cluster([rpi4() for _ in range(n)],
                   NetworkCondition((100.0,) * (n - 1), (10.0,) * (n - 1)))


def _injector(events, now=1.0, seed=0):
    inj = FaultInjector(FaultSchedule(events), seed=seed)
    inj.advance(now)
    return inj


class TestTransportFaults:
    def test_unreachable_peer_exhausts_retries(self):
        inj = _injector([DeviceCrash(0.0, 2.0, device=1)])
        tr = Transport(_cluster(), faults=inj, retry=POLICY)
        x = np.ones((1, 4))
        with pytest.raises(DeviceUnreachableError) as ei:
            tr.send_tensor(x, 0, 1, 32, now=0.0)
        assert ei.value.device == 1
        assert ei.value.retries == POLICY.max_retries
        assert ei.value.wasted_s == pytest.approx(POLICY.give_up_cost())
        # nothing was delivered: no message logged
        assert tr.num_messages == 0 and tr.log == []

    def test_blames_remote_sender_when_dst_is_gateway(self):
        inj = _injector([DeviceCrash(0.0, 2.0, device=2)])
        tr = Transport(_cluster(), faults=inj, retry=POLICY)
        with pytest.raises(DeviceUnreachableError) as ei:
            tr.send_control(2, 0, "result", now=0.0)
        assert ei.value.device == 2

    def test_loss_retries_show_up_in_latency(self):
        inj = _injector([MessageLoss(0.0, 10.0, prob=0.7)], seed=4)
        tr = Transport(_cluster(), faults=inj, retry=POLICY)
        x = np.ones((1, 64))
        clean = Transport(_cluster()).send_tensor(x, 0, 1, 32, now=0.0)
        # draw until a delivery needed at least one retransmission
        msg = None
        for _ in range(30):
            m = tr.send_tensor(x, 0, 1, 32, now=0.0)
            if m.retries:
                msg = m
                break
        assert msg is not None, "p=0.7 never cost a retry in 30 sends"
        waited = sum(POLICY.timeout_of(i) for i in range(msg.retries))
        assert msg.delivered_at == pytest.approx(
            clean.delivered_at + waited)
        assert tr.num_retries >= msg.retries
        assert tr.wasted_s > 0.0

    def test_request_id_threads_through_messages(self):
        tr = Transport(_cluster())
        tr.request_id = 42
        msg = tr.send_control(0, 1, "probe", now=0.0)
        assert msg.request_id == 42
        tr.request_id = None
        assert tr.send_control(0, 1, "probe", now=0.0).request_id is None

    def test_health_records_delivery_outcomes(self):
        from repro.faults import DeviceHealth
        inj = _injector([DeviceCrash(0.0, 2.0, device=1)])
        health = DeviceHealth(3, failure_threshold=1)
        tr = Transport(_cluster(), faults=inj, health=health, retry=POLICY)
        with pytest.raises(DeviceUnreachableError):
            tr.send_control(0, 1, "x", now=0.0)
        assert not health.allow(1, 0.0)
        tr.send_control(0, 2, "x", now=0.0)
        assert health.allow(2, 0.0)

    def test_reset_log_clears_fault_aggregates(self):
        inj = _injector([MessageLoss(0.0, 10.0, prob=0.6)], seed=1)
        tr = Transport(_cluster(), faults=inj, retry=POLICY)
        x = np.ones((1, 64))
        delivered = 0
        for _ in range(20):
            try:
                tr.send_tensor(x, 0, 1, 32, now=0.0)
                delivered += 1
            except DeviceUnreachableError:
                pass  # give-ups also leave retry residue to reset
        assert tr.num_messages == delivered
        assert tr.num_retries > 0
        tr.reset_log()
        assert (tr.total_bytes, tr.num_messages, tr.num_retries,
                tr.wasted_s) == (0, 0, 0, 0.0)

    def test_unreachable_telemetry(self):
        tel = Telemetry()
        inj = _injector([DeviceCrash(0.0, 2.0, device=1)])
        tr = Transport(_cluster(), telemetry=tel, faults=inj, retry=POLICY)
        with pytest.raises(DeviceUnreachableError):
            tr.send_control(0, 1, "x", now=0.0)
        assert tel.registry.get("transport_unreachable_total").value == 1
        assert (tel.registry.get("transport_retries_total").value
                == POLICY.max_retries)


@pytest.fixture(scope="module")
def net():
    return Supernet(SPACE, seed=2).eval()


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).normal(size=(1, 3, 32, 32))


class TestExecutorFailover:
    def _executor(self, net, events, telemetry=None, **res_kw):
        cluster = _cluster(3)
        inj = _injector(events)
        res = ResilienceConfig(retry=POLICY, **res_kw)
        return DistributedExecutor(net, cluster, telemetry=telemetry,
                                   faults=inj, resilience=res), cluster

    def test_failover_to_surviving_remote(self, net, x):
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        ex, _ = self._executor(net, [DeviceCrash(0.0, 9.0, device=1)])
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        res = ex.execute(x, arch, plan)
        assert res.outcome == "retried"
        assert res.failovers == 1
        assert res.retries == POLICY.max_retries
        assert res.executed_arch == arch  # same model, different device
        assert res.penalty_s == pytest.approx(POLICY.give_up_cost())
        # the wasted discovery time is charged to the reported latency
        direct = net.forward_arch(x, arch)
        assert (res.logits.argmax(1) == direct.argmax(1)).all()

    def test_degrades_to_gateway_when_no_remote_survives(self, net, x):
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        ex, _ = self._executor(net, [DeviceCrash(0.0, 9.0, device=1),
                                     DeviceCrash(0.0, 9.0, device=2)])
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        res = ex.execute(x, arch, plan)
        assert res.outcome == "degraded"
        assert res.executed_arch != arch
        assert res.executed_arch.resolution == arch.resolution
        assert res.logits.shape == (1, SPACE.num_classes)
        # two give-ups: original target, then the failover target
        assert res.penalty_s == pytest.approx(2 * POLICY.give_up_cost())

    def test_failover_disabled_raises(self, net, x):
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        ex, _ = self._executor(net, [DeviceCrash(0.0, 9.0, device=1)],
                               failover=False)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        with pytest.raises(ExecutionFailedError) as ei:
            ex.execute(x, arch, plan)
        assert ei.value.device == 1
        assert ei.value.wasted_s == pytest.approx(POLICY.give_up_cost())

    def test_healthy_world_is_plain_execution(self, net, x):
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        ex, cluster = self._executor(net, [])
        plain = DistributedExecutor(net, cluster)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        res = ex.execute(x, arch, plan)
        ref = plain.execute(x, arch, plan)
        assert res.outcome == "ok"
        assert res.report.total_s == ref.report.total_s  # bit-identical
        np.testing.assert_allclose(res.logits, ref.logits, atol=0)

    def test_request_id_reaches_segment_spans(self, net, x):
        tel = Telemetry()
        arch = min_arch(SPACE)
        graph = build_graph(arch, SPACE)
        ex = DistributedExecutor(net, _cluster(3), telemetry=tel)
        x16 = np.random.default_rng(3).normal(size=(1, 3, 16, 16))
        ex.execute(x16, arch, single_device_plan(graph), request_id=7)
        assert tel.tracer.finished
        assert all(sp.attrs.get("request") == 7
                   for sp in tel.tracer.finished)

    def test_failover_telemetry(self, net, x):
        tel = Telemetry()
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        ex, _ = self._executor(net, [DeviceCrash(0.0, 9.0, device=1),
                                     DeviceCrash(0.0, 9.0, device=2)],
                               telemetry=tel)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        ex.execute(x, arch, plan)
        assert tel.registry.get("executor_failovers_total").value == 2
        assert tel.registry.get("executor_degraded_total").value == 1

    def test_no_route_without_an_injector_fails_over(self, net, x):
        """Regression: with no injector the executor ran the plan bare,
        so a mesh with no route to the plan's remote raised
        ``NoRouteError`` mid-run.  It now takes the same ladder as a
        faulty world: charge the give-up schedule, fail over."""
        mesh = ring_topology([rpi4() for _ in range(3)], 100.0, 10.0)
        mesh.apply_link_faults(down=[(0, 1), (1, 2)])  # device 1 cut off
        arch = max_arch(SPACE)
        graph = build_graph(arch, SPACE)
        plan = layerwise_split_plan(graph, len(graph) // 2, remote=1)
        res = DistributedExecutor(net, mesh).execute(x, arch, plan)
        assert (res.outcome, res.retries, res.failovers) == ("retried", 2, 1)
        assert set(res.executed_plan.devices_used()) == {0, 2}
        assert res.penalty_s == RetryPolicy().give_up_cost()
