"""FluidTracker behind the tracker protocol.

Covers the integration contract the fluid solver ships under: clusters
and the shared ingress hand it the wire through the tracker protocol,
lone flows and ``tracker=None`` builds stay bit-identical to the
contention-free floats, peeks never move the ledger, and two
overlapping equal flows finish *simultaneously* — no admission-order
bias.
"""

import math
import signal
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.netsim import (Cluster, FluidTracker, Link, NetworkCondition,
                          SharedIngress, ring_topology, solve_fluid)
from repro.netsim.fluid import FlowSpec
from repro.telemetry import Telemetry

CAPS = {(0, 1): 100.0}  # 100 bits/s: 12.5 bytes drain in 1 s alone


@contextmanager
def hard_timeout(seconds=5.0):
    """Fail instead of hanging: a NaN in the ledger used to spin
    ``while self._active`` forever."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _devices():
    return [rpi4(), desktop_gtx1080(), jetson_class()]


def _condition():
    return NetworkCondition((100.0, 50.0), (10.0, 20.0))


class TestSnapshotBiasRegression:
    """Overlapping flows share the wire for as long as they overlap:
    neither keeps the rate it was admitted at."""

    def test_fluid_finishes_equal_overlapping_flows_simultaneously(self):
        fin, _ = solve_fluid([FlowSpec(((0, 1),), 0.0, 12.5),
                              FlowSpec(((0, 1),), 0.0, 12.5)], CAPS)
        assert fin[0] == fin[1] == 2.0

    def test_fluid_ledger_reconverges_after_late_arrival(self):
        # A at t=0, B at t=0.5, both 100 bits on a 100 b/s edge:
        # A alone 0.5 s (50 bits), shared 1.0 s (50 bits) -> 1.5;
        # B shared 1.0 s (50 bits), alone 0.5 s -> 2.0.
        tracker = FluidTracker()
        a = tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        b = tracker.admit(((0, 1),), CAPS, 0.5, 12.5)
        times = tracker.finish_times()
        assert times[a] == 1.5
        assert times[b] == 2.0


class TestDropInBitIdentity:
    def test_star_lone_transfer_bit_identical(self):
        plain = Cluster(_devices(), _condition())
        fluid = Cluster(_devices(), _condition(),
                        contention=FluidTracker())
        for src, dst in ((0, 1), (0, 2), (1, 2)):
            want = plain.transfer_time(src, dst, 1e6)
            # fresh tracker per pair: each transfer must be lone
            fluid.contention = FluidTracker()
            assert fluid.timed_transfer(src, dst, 1e6, 0.0) == want

    def test_mesh_lone_transfer_bit_identical(self):
        devs = _devices() + [rpi4()]
        plain = ring_topology(devs, 100.0, 5.0)
        fluid = ring_topology(devs, 100.0, 5.0)
        fluid.contention = FluidTracker()
        assert (fluid.timed_transfer(0, 2, 1e6, 0.0)
                == plain.transfer_time(0, 2, 1e6))

    def test_ingress_lone_upload_bit_identical(self):
        link = Link(bandwidth_mbps=40.0, delay_ms=5.0)
        ingress = SharedIngress(link, FluidTracker(),
                                payload_bytes=256 * 1024)
        assert ingress.upload_time(0.0) == link.transfer_time(256 * 1024)
        assert ingress.admit(0.0) == link.transfer_time(256 * 1024)

    def test_contended_transfers_price_higher_than_base(self):
        fluid = Cluster(_devices(), _condition(),
                        contention=FluidTracker())
        base = fluid.transfer_time(0, 1, 1e6)
        first = fluid.timed_transfer(0, 1, 1e6, 0.0)
        second = fluid.timed_transfer(0, 1, 1e6, 1e-3)
        assert first == base  # lone at admission
        assert second > base  # shares the spoke with the first


class TestPeekNeverMoves:
    def test_peek_equals_subsequent_admit(self):
        tracker = FluidTracker()
        tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        peek = tracker.peek_transfer(((0, 1),), CAPS, 0.0, 12.5, 0.5)
        admit = tracker.admit_transfer(((0, 1),), CAPS, 0.0, 12.5, 0.5)
        assert peek == admit

    def test_peek_leaves_the_ledger_untouched(self):
        tracker = FluidTracker()
        fid = tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        before = tracker.finish_time(fid)
        tracker.peek_transfer(((0, 1),), CAPS, 0.0, 12.5, 0.1)
        assert tracker.finish_time(fid) == before
        assert tracker.flows_total == 1
        assert tracker.stats()["active"] == 1

    def test_pricing_cost_does_not_grow_with_history(self):
        # two flows in flight throughout; the clone-and-drain ledger
        # copied every finish time and spec ever recorded per transfer
        # (tens of times more transient memory after 20 000 flows than
        # after 200)
        edge, caps = ((0, 1),), {(0, 1): 1e9}

        def peak_after(completed):
            tracker = FluidTracker()
            tracker.admit(edge, caps, 0.0, 1e12)
            tracker.admit(edge, caps, 0.0, 1e12)
            for i in range(completed):
                tracker.admit(edge, caps, i * 1e-3, 1e3)
            now = completed * 1e-3
            assert tracker.stats()["active"] == 3  # the last one lingers
            tracemalloc.start()
            try:
                peek = tracker.peek_transfer(edge, caps, 0.0, 1e3, now)
                assert tracker.admit_transfer(edge, caps, 0.0, 1e3,
                                              now) == peek
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_after(20_000) < 2 * peak_after(200)

    def test_concurrency_and_share_are_non_mutating(self):
        tracker = FluidTracker()
        tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        assert tracker.concurrency((0, 1), 0.5) == 1
        assert tracker.share((0, 1), 0.5) == 2
        assert tracker.concurrency((0, 1), 10.0) == 0  # drained by then
        # the queries walked the timeline; the ledger did not move
        assert tracker.stats()["active"] == 1


class TestLedgerMechanics:
    def test_out_of_order_admission_clamps_to_ledger_time(self):
        # demo drivers (links CLI) re-run executions from now=0; the
        # ledger clock must never run backwards
        tracker = FluidTracker()
        tracker.admit(((0, 1),), CAPS, 5.0, 12.5)
        fid = tracker.admit(((0, 1),), CAPS, 1.0, 12.5)
        assert tracker.flow_spec(fid).start == 5.0

    def test_zero_byte_flow_completes_instantly(self):
        tracker = FluidTracker()
        fid = tracker.admit(((0, 1),), CAPS, 1.0, 0.0)
        assert tracker.finish_time(fid) == 1.0
        assert tracker.stats()["active"] == 0

    def test_rejects_flow_with_no_edges(self):
        with pytest.raises(ValueError):
            FluidTracker().admit((), CAPS, 0.0, 1.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FluidTracker().admit(((0, 1),), {(0, 1): 0.0}, 0.0, 1.0)

    def test_caps_accept_either_edge_spelling(self):
        # update_caps canonicalises its keys; admit used to look the
        # canonical key up twice and raise KeyError: (0, 1)
        tracker = FluidTracker()
        tracker.admit(((1, 0),), {(1, 0): 100.0}, 0.0, 12.5)
        peek = tracker.peek_transfer(((1, 0),), {(1, 0): 100.0}, 0.0, 12.5,
                                     0.5)
        assert tracker.admit_transfer(((0, 1),), {(1, 0): 100.0}, 0.0, 12.5,
                                      0.5) == peek
        assert tracker.finish_times() == {0: 1.5, 1: 2.0}
        with pytest.raises(KeyError):
            tracker.admit(((0, 1),), {(1, 2): 100.0}, 0.6, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda t, bad: t.update_caps(0.5, {(0, 1): bad}),
        lambda t, bad: t.admit(((0, 1),), {(0, 1): bad}, 0.5, 1.0),
        lambda t, bad: t.admit_transfer(((0, 1),), {(0, 1): bad}, 0.0, 1.0,
                                        0.5),
        lambda t, bad: t.peek_transfer(((0, 1),), {(0, 1): bad}, 0.0, 1.0,
                                       0.5),
        # a payload may be zero: that case stands in for a second NaN
        lambda t, bad: t.admit_transfer(((0, 1),), CAPS, 0.0,
                                        bad or math.nan, 0.5),
        lambda t, bad: t.peek_transfer(((0, 1),), CAPS, 0.0,
                                       bad or math.nan, 0.5)],
        ids=["update_caps", "admit-cap", "admit_transfer-cap",
             "peek_transfer-cap", "admit_transfer-nbytes",
             "peek_transfer-nbytes"])
    def test_nan_and_nonpositive_inputs_raise_before_the_ledger_moves(
            self, call, bad):
        # with a flow in flight a NaN capacity or payload made every dt
        # NaN: nothing completed and the call never returned
        tracker = FluidTracker(record_segments=True)
        fid = tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        with hard_timeout():
            with pytest.raises(ValueError, match="capacity|nbytes"):
                call(tracker, bad)
            assert tracker.stats() == {"flows": 1, "contended": 0,
                                       "peak_share": 1, "segments": 0,
                                       "active": 1}
            assert tracker._caps == CAPS
            assert tracker.finish_time(fid) == 1.0

    @pytest.mark.parametrize("call", ["admit_transfer", "peek_transfer"])
    @pytest.mark.parametrize("times", [
        {"latency_s": math.nan}, {"latency_s": -1.0},
        {"latency_s": math.inf}, {"base_s": math.nan},
        {"base_s": -1.0}, {"base_s": math.inf}],
        ids=["latency-nan", "latency-negative", "latency-inf", "base-nan",
             "base-negative", "base-inf"])
    def test_a_hostile_price_time_raises_before_the_ledger_moves(
            self, call, times):
        # contended, a NaN latency priced NaN and -1 priced a negative
        # duration; lone, a NaN base_s came back verbatim
        tracker = FluidTracker(record_segments=True)
        fid = tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        kwargs = {"latency_s": 0.0, "base_s": 0.5, **times}
        name = next(iter(times))
        with pytest.raises(ValueError, match=name):
            getattr(tracker, call)(((0, 1),), CAPS, nbytes=1.0, now=0.5,
                                   **kwargs)
        assert tracker.stats() == {"flows": 1, "contended": 0,
                                   "peak_share": 1, "segments": 0,
                                   "active": 1}
        assert tracker.finish_time(fid) == 1.0
        lone = FluidTracker()
        with pytest.raises(ValueError, match=name):
            getattr(lone, call)(((0, 1),), CAPS, nbytes=1.0, now=0.5,
                                **kwargs)
        assert lone.stats()["flows"] == 0

    def test_ingress_rejects_a_nan_payload(self):
        link = Link(bandwidth_mbps=40.0, delay_ms=5.0)
        with pytest.raises(ValueError, match="payload_bytes"):
            SharedIngress(link, FluidTracker(), payload_bytes=math.nan)
        with pytest.raises(ValueError, match=r"per_tenant_bytes\['a'\]"):
            SharedIngress(link, FluidTracker(), payload_bytes=1.0,
                          per_tenant_bytes={"a": math.nan})

    def test_unknown_flow_id_raises(self):
        with pytest.raises(KeyError):
            FluidTracker().finish_time(7)

    def test_edges_canonicalized_like_the_snapshot_tracker(self):
        tracker = FluidTracker()
        a = tracker.admit(((1, 0),), {(0, 1): 100.0}, 0.0, 12.5)
        b = tracker.admit(((0, 1),), {(0, 1): 100.0}, 0.0, 12.5)
        # both on the same canonical edge: they share it
        times = tracker.finish_times()
        assert times[a] == times[b] == 2.0

    def test_drain_completes_everything(self):
        tracker = FluidTracker()
        tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        tracker.admit(((0, 1),), CAPS, 0.5, 12.5)
        tracker.drain()
        assert tracker.stats()["active"] == 0
        assert sorted(tracker.finish_times().values()) == [1.5, 2.0]


class TestAccountingParity:
    """The ledger's accounting: flows, contention, peaks, tenants."""

    def test_counts_flows_contention_and_peak_share(self):
        tracker = FluidTracker()
        tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        tracker.admit(((0, 1),), CAPS, 0.1, 12.5)
        assert tracker.flows_total == 2
        assert tracker.contended_total == 1
        assert tracker.peak_share[(0, 1)] == 2

    def test_tenant_bytes_accumulate(self):
        tracker = FluidTracker()
        tracker.admit(((0, 1),), CAPS, 0.0, 10.0, tenant="a")
        tracker.admit(((0, 1),), CAPS, 0.1, 15.0, tenant="a")
        tracker.admit(((0, 1),), CAPS, 0.2, 7.0, tenant="b")
        assert tracker.tenant_bytes() == {"a": 25.0, "b": 7.0}

    def test_telemetry_exports_fluid_metrics(self):
        tel = Telemetry()
        tracker = FluidTracker(telemetry=tel)
        tracker.admit(((0, 1),), CAPS, 0.0, 12.5, tenant="a")
        tracker.admit(((0, 1),), CAPS, 0.5, 12.5, tenant="b")
        tracker.drain()
        reg = tel.registry
        assert reg.get("fluid_flows_total").value == 2
        assert reg.get("fluid_contended_flows_total").value == 1
        assert reg.get("fluid_segments_total").value > 0
        assert reg.get("fluid_flow_reconvergences").count == 2
        assert reg.get("fluid_tenant_bytes_total", tenant="a").value == 12.5

    def test_peeks_never_touch_telemetry_or_accounting(self):
        tel = Telemetry()
        tracker = FluidTracker(telemetry=tel)
        tracker.admit(((0, 1),), CAPS, 0.0, 12.5)
        tracker.peek_transfer(((0, 1),), CAPS, 0.0, 12.5, 0.1)
        assert tracker.flows_total == 1
        assert tel.registry.get("fluid_flows_total").value == 1

    def test_segment_trail_only_when_asked(self):
        plain = FluidTracker()
        trail = FluidTracker(record_segments=True)
        for t in (plain, trail):
            t.admit(((0, 1),), CAPS, 0.0, 12.5)
            t.admit(((0, 1),), CAPS, 0.5, 12.5)
            t.drain()
        assert plain.segments == []
        assert plain.segments_total > 0  # the counter still meters
        assert [
            (s.t0, s.t1) for s in trail.segments
        ] == [(0.0, 0.5), (0.5, 1.5), (1.5, 2.0)]


class TestMeshFluidContention:
    def test_two_routed_paths_contend_on_their_shared_edge(self):
        devs = [rpi4(), desktop_gtx1080(), jetson_class(), rpi4()]
        mesh = ring_topology(devs, 100.0, 5.0)
        mesh.contention = FluidTracker()
        base = mesh.transfer_time(0, 1, 1e6)
        first = mesh.timed_transfer(0, 1, 1e6, 0.0)
        second = mesh.timed_transfer(0, 1, 1e6, 1e-4)
        assert first == base
        assert second > base
        assert mesh.contention.contended_total == 1
