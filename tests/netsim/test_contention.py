"""Shared-link contention: fair-share invariants and bit-identity.

Pins the two contracts every owner of a wire — a star spoke, a star
relay across two spokes, a routed mesh path, the shared ingress — stands
on when it hands the wire to the fluid ledger:

* a lone flow (or no tracker attached) is priced **bit-identically** to
  the contention-free link model — the serving stack's floats cannot
  drift just because a tracker is attached;
* two simultaneous flows each get at least half the link (max-min: the
  first is priced lone at admission, the second shares the wire until
  both finish together).
"""

import math

import pytest

from repro.devices import rpi4
from repro.netsim import (FluidTracker, Link, MeshCluster, MeshLink,
                          NetworkCondition, SharedIngress, star_topology)
from repro.netsim.ingress import INGRESS_EDGE, NULL_INGRESS


MB = 1_000_000.0


def _cluster(tracker=None, n_remote=2, bw=100.0, delay=10.0):
    devices = [rpi4() for _ in range(n_remote + 1)]
    condition = NetworkCondition.uniform(n_remote, bw, delay)
    star = star_topology(devices, condition)
    star.contention = tracker
    return star


class TestStarContention:
    def test_no_tracker_is_bit_identical(self):
        plain = _cluster()
        timed = _cluster(tracker=None)
        assert timed.timed_transfer(0, 1, MB, now=0.0) \
            == plain.transfer_time(0, 1, MB)

    def test_lone_flow_is_bit_identical(self):
        """Zero concurrency must delegate to transfer_time — not even a
        float representation change."""
        cluster = _cluster(tracker=FluidTracker())
        expected = cluster.transfer_time(0, 1, MB)
        assert cluster.timed_transfer(0, 1, MB, now=0.0) == expected

    def test_two_simultaneous_flows_each_get_at_least_half(self):
        """The first is priced lone at admission; the second shares the
        spoke with it until both finish, at half bandwidth — neither
        below half."""
        cluster = _cluster(tracker=FluidTracker())
        solo = cluster.transfer_time(0, 1, MB)
        first = cluster.timed_transfer(0, 1, MB, now=0.0)
        second = cluster.timed_transfer(0, 1, MB, now=0.0)
        assert first == solo
        link = cluster.link_to(1)
        latency = (link.delay_ms + link.rpc_overhead_ms) / 1e3
        half_bw_wire = MB * 8.0 / (link.bandwidth_bps / 2)
        assert second == pytest.approx(latency + half_bw_wire)
        # wire time no worse than half the link for either flow
        assert (first - latency) <= half_bw_wire + 1e-12
        assert (second - latency) <= half_bw_wire + 1e-12

    def test_disjoint_spokes_do_not_contend(self):
        cluster = _cluster(tracker=FluidTracker())
        cluster.timed_transfer(0, 1, MB, now=0.0)
        assert cluster.timed_transfer(0, 2, MB, now=0.0) \
            == cluster.transfer_time(0, 2, MB)

    def test_relay_transfer_contends_on_either_spoke(self):
        """A remote<->remote relay occupies both spokes: traffic already
        on the destination spoke slows it down."""
        cluster = _cluster(tracker=FluidTracker())
        base = cluster.transfer_time(1, 2, MB)
        cluster.timed_transfer(0, 2, MB, now=0.0)   # busy spoke 0-2
        relayed = cluster.timed_transfer(1, 2, MB, now=0.0)
        assert relayed > base

    def test_flow_expiry_restores_full_bandwidth(self):
        cluster = _cluster(tracker=FluidTracker())
        t = cluster.timed_transfer(0, 1, MB, now=0.0)
        later = t + 1.0
        assert cluster.timed_transfer(0, 1, MB, now=later) \
            == cluster.transfer_time(0, 1, MB)

    def test_same_device_transfer_is_free(self):
        cluster = _cluster(tracker=FluidTracker())
        assert cluster.timed_transfer(1, 1, MB, now=0.0) == 0.0


class TestMeshContention:
    def _mesh(self, tracker):
        # 0 -1- 1 -1- 2 relay chain plus a slow direct 0-2 edge: both
        # routed paths 0->2 and 1->2 share the 1-2 bottleneck edge
        devices = [rpi4() for _ in range(3)]
        links = [MeshLink(0, 1, 100.0, 5.0), MeshLink(1, 2, 100.0, 5.0)]
        mesh = MeshCluster(devices, links)
        mesh.contention = tracker
        return mesh

    def test_lone_mesh_flow_is_bit_identical(self):
        mesh = self._mesh(FluidTracker())
        expected = mesh.transfer_time(0, 2, MB)
        assert mesh.timed_transfer(0, 2, MB, now=0.0) == expected

    def test_paths_sharing_a_bottleneck_edge_contend_there(self):
        """0->2 routes 0-1-2 and 1->2 routes 1-2: different endpoint
        pairs, same bottleneck edge — the second flow must pay for the
        first one's occupancy of 1-2."""
        tracker = FluidTracker()
        mesh = self._mesh(tracker)
        base = mesh.transfer_time(1, 2, MB)
        mesh.timed_transfer(0, 2, MB, now=0.0)      # occupies 0-1 and 1-2
        shared = mesh.timed_transfer(1, 2, MB, now=0.0)
        assert shared > base
        assert tracker.contended_total == 1
        assert tracker.peak_share[(1, 2)] == 2

    def test_disjoint_mesh_paths_do_not_contend(self):
        tracker = FluidTracker()
        mesh = self._mesh(tracker)
        mesh.timed_transfer(0, 1, MB, now=0.0)      # occupies only 0-1
        assert mesh.timed_transfer(1, 2, MB, now=0.0) \
            == mesh.transfer_time(1, 2, MB)


class TestSharedIngress:
    def _ingress(self, tracker, bw=40.0, delay=5.0, payload=256 * 1024.0):
        return SharedIngress(Link(bandwidth_mbps=bw, delay_ms=delay),
                             tracker, payload_bytes=payload)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError, match="payload_bytes"):
            self._ingress(FluidTracker(), payload=-1.0)

    def test_lone_upload_matches_the_link_model(self):
        ingress = self._ingress(FluidTracker())
        assert ingress.upload_time(0.0) \
            == ingress.link.transfer_time(ingress.payload_bytes)

    def test_upload_time_does_not_commit_the_flow(self):
        """upload_time is a peek; only admit() occupies the wire."""
        tracker = FluidTracker()
        ingress = self._ingress(tracker)
        t = ingress.upload_time(0.0)
        assert ingress.upload_time(0.0) == t      # still uncontended
        ingress.admit(0.0)
        assert ingress.upload_time(0.0) > t       # now it shares

    def test_concurrent_uploads_each_get_at_least_half(self):
        ingress = self._ingress(FluidTracker())
        solo = ingress.admit(0.0, tenant="a")
        second = ingress.admit(0.0, tenant="b")
        link = ingress.link
        latency = (link.delay_ms + link.rpc_overhead_ms) / 1e3
        half_wire = ingress.payload_bytes * 8.0 / (link.bandwidth_bps / 2)
        assert solo < second <= latency + half_wire + 1e-12

    def test_per_tenant_payloads(self):
        ingress = SharedIngress(
            Link(bandwidth_mbps=40.0, delay_ms=5.0), FluidTracker(),
            payload_bytes=1024.0,
            per_tenant_bytes={"big": 4096.0})
        assert ingress.upload_time(0.0, tenant="big") \
            > ingress.upload_time(0.0, tenant="small-unknown")

    def test_each_tenant_is_billed_its_own_bytes(self):
        tracker = FluidTracker()
        ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0),
                                tracker, payload_bytes=1024.0,
                                per_tenant_bytes={"big": 4096.0})
        ingress.admit(0.0, tenant="big")
        ingress.admit(0.0, tenant="small")
        ingress.upload_time(0.1, tenant="big")    # a peek bills nothing
        ingress.admit(0.2, tenant="big")
        ingress.admit(0.3)                        # untagged: not billed
        assert tracker.tenant_bytes() == {"big": 8192.0, "small": 1024.0}

    def test_ingress_edge_cannot_collide_with_devices(self):
        tracker = FluidTracker()
        ingress = self._ingress(tracker)
        ingress.admit(0.0, tenant="a")
        assert tracker.concurrency(INGRESS_EDGE, 0.0) == 1
        assert tracker.concurrency((0, 1), 0.0) == 0
        assert INGRESS_EDGE[0] < 0


class TestTrackerProtocol:
    """``admit_transfer`` / ``peek_transfer`` on the fluid ledger, as an
    owner calls them (its mechanics are pinned in
    ``test_fluid_tracker.py`` and ``test_fluid_kernel.py``)."""

    WIRE = (((0, 1), (0, 2)), {(0, 1): 80e6, (0, 2): 20e6}, 0.015)

    def test_a_peek_prices_what_the_admit_then_charges(self):
        tracker = FluidTracker()
        edges, caps, latency_s = self.WIRE
        tracker.admit([(0, 1)], {(0, 1): 80e6}, 0.0, 1e12)
        tracker.admit([(0, 1)], {(0, 1): 80e6}, 0.0, 1e12)
        peek = tracker.peek_transfer(edges, caps, latency_s, MB, 1.0,
                                     base_s=0.415)
        assert tracker.flows_total == 2           # a peek commits nothing
        # (0, 1) is shared three ways: 80/3 Mbps is still above the
        # unshared 20 Mbps of (0, 2), so that edge stays the bottleneck
        assert peek == pytest.approx(latency_s + MB * 8.0 / 20e6)
        caps = {**caps, (0, 1): 30e6}             # now 10 Mbps each
        peek = tracker.peek_transfer(edges, caps, latency_s, MB, 1.0)
        assert peek == pytest.approx(latency_s + MB * 8.0 / (30e6 / 3))
        assert tracker.admit_transfer(edges, caps, latency_s, MB, 1.0,
                                      tenant="t") == peek
        assert tracker.flows_total == 3 and tracker.contended_total == 2
        assert tracker.peak_share[(0, 1)] == 3
        assert tracker.tenant_bytes() == {"t": MB}
        assert tracker.concurrency((0, 2), 1.0 + peek / 2) == 1

    def test_a_lone_flow_gets_the_callers_float_itself(self):
        edges, caps, latency_s = self.WIRE
        base_s = 0.4150000000000001   # not what the formula would give
        tracker = FluidTracker()
        assert tracker.peek_transfer(edges, caps, latency_s, MB, 0.0,
                                     base_s=base_s) is base_s
        assert tracker.admit_transfer(edges, caps, latency_s, MB, 0.0,
                                      base_s=base_s) is base_s
        # left out, the ledger prices the wire alone at its bottleneck
        assert tracker.peek_transfer(edges, caps, latency_s, MB, 9.0) \
            == pytest.approx(latency_s + MB * 8.0 / 20e6)

    def test_a_server_without_an_uplink_waits_for_nothing(self):
        assert NULL_INGRESS.upload_time(3.0, "a") == 0.0
        assert NULL_INGRESS.admit(3.0, tenant="a") == 0.0


_E, _CAPS = (0, 1), {(0, 1): 10e6}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteNow:
    """``NaN > until`` is false, so the ledger fired every pending
    completion; ``inf`` left a clock nothing can follow.  Every entry
    point refuses the instant before it moves."""

    CALLS = {
        "admit": lambda t, now: t.admit((_E,), _CAPS, now, MB),
        "admit_transfer": lambda t, now: t.admit_transfer(
            (_E,), _CAPS, 0.001, MB, now),
        "peek_transfer": lambda t, now: t.peek_transfer(
            (_E,), _CAPS, 0.001, MB, now, base_s=0.5),
        "update_caps": lambda t, now: t.update_caps(now, {(0, 1): 5e6}),
        "concurrency": lambda t, now: t.concurrency(_E, now),
        "share": lambda t, now: t.share(_E, now),
    }

    @pytest.mark.parametrize("make", [FluidTracker])
    def test_every_entry_point_raises_before_anything_moves(self, make, bad):
        tracker, twin = make(), make()
        for ledger in (tracker, twin):  # two flows in flight
            ledger.admit_transfer((_E,), _CAPS, 0.001, MB, 0.0)
            ledger.admit_transfer((_E,), _CAPS, 0.001, MB / 2, 0.1)
        for call in self.CALLS.values():
            with pytest.raises(ValueError, match="finite time, got"):
                call(tracker, bad)
        # an overlapping transfer is priced as if nothing had been tried
        after = ((_E,), _CAPS, 0.001, MB, 0.2)
        assert tracker.admit_transfer(*after) == twin.admit_transfer(*after)
        assert tracker.stats() == twin.stats()
        assert tracker.concurrency(_E, 0.3) == 3
        assert tracker.finish_times() == twin.finish_times()
        assert tracker._caps == _CAPS

    @pytest.mark.parametrize("make", [FluidTracker])
    def test_the_shared_ingress_inherits_the_check(self, make, bad):
        ingress, twin = (SharedIngress(Link(40.0, 5.0), make(),
                                       payload_bytes=MB) for _ in range(2))
        ingress.admit(0.0, "a"), twin.admit(0.0, "a")
        for call in (ingress.upload_time, ingress.admit):
            with pytest.raises(ValueError, match="finite time, got"):
                call(bad, "a")
        with pytest.raises(ValueError, match="finite time, got"):
            ingress.set_capacity(bad, 20.0)
        assert ingress.link == twin.link  # refused whole, not half applied
        assert ingress.admit(0.1, "b") == twin.admit(0.1, "b")
