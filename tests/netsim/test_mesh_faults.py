"""Fault-aware mesh routing: failover, the fault overlay, and the
injector's link-level application.

Covers the mesh side of the chaos stack: down/degraded overlays feed
routing (multi-path failover with honest latency), ``reroute=False``
pins the ablation to static tables, the path cache can never serve a
stale route across a link mutation, and a crashed device keeps mesh
semantics (all incident edges sever) instead of silently collapsing to
the star's per-remote view.
"""

import pytest

from repro.devices import rpi4
from repro.faults import (CorrelatedFailure, DeviceCrash, FaultInjector,
                          FaultSchedule, LinkDegradation, LinkFailure,
                          LinkFlap)
from repro.faults.resilience import NoRouteError, TransportError
from repro.netsim import MeshCluster, MeshLink, line_topology, \
    partial_mesh_topology, ring_topology


def _ring(n=4, bw=100.0, delay=10.0, reroute=True):
    return ring_topology([rpi4() for _ in range(n)], bw, delay,
                         reroute=reroute)


class TestFailoverRouting:
    def test_reroute_pays_honest_latency(self):
        """Killing the direct edge fails traffic over to the long way
        round the ring — 3 hops of real delay, not the dead link's 1."""
        mesh = _ring()
        direct = mesh.route_info(0, 1)
        assert direct.path == (0, 1) and not direct.rerouted

        mesh.apply_link_faults(down=[(0, 1)])
        rerouted = mesh.route_info(0, 1)
        assert rerouted.path == (0, 3, 2, 1)
        assert rerouted.rerouted
        assert rerouted.delay_ms == pytest.approx(3 * 10.0)
        assert mesh.hop_count(0, 1) == 3
        assert mesh.transfer_time(0, 1, 0) == pytest.approx(
            3 * mesh.transfer_time(0, 3, 0) - 2e-3)  # 3 hops, 1 rpc

    def test_untouched_pairs_keep_base_path(self):
        mesh = _ring()
        mesh.apply_link_faults(down=[(0, 1)])
        info = mesh.route_info(0, 3)
        assert info.path == (0, 3)
        assert not info.rerouted

    def test_recovery_restores_base_path(self):
        mesh = _ring()
        mesh.apply_link_faults(down=[(0, 1)])
        assert mesh.route_info(0, 1).rerouted
        mesh.apply_link_faults(down=[])
        info = mesh.route_info(0, 1)
        assert info.path == (0, 1)
        assert not info.rerouted

    def test_no_surviving_path_raises_typed_error(self):
        """Cutting both of a node's edges disconnects it: the transfer
        must fail with the typed NoRouteError, not a generic exception."""
        mesh = _ring()
        mesh.apply_link_faults(down=[(0, 1), (1, 2)])
        assert not mesh.has_route(0, 1)
        with pytest.raises(NoRouteError) as exc:
            mesh.transfer_time(0, 1, 1000)
        assert isinstance(exc.value, TransportError)
        assert (exc.value.src, exc.value.dst) == (0, 1)
        # the rest of the mesh still routes
        assert mesh.has_route(0, 2) and mesh.has_route(0, 3)

    def test_degraded_link_is_repriced_not_removed(self):
        mesh = _ring()
        base = mesh.transfer_time(0, 1, 1_000_000)
        mesh.apply_link_faults(degraded={(0, 1): (0.5, 20.0)})
        info = mesh.route_info(0, 1)
        assert info.path == (0, 1)          # still routable
        assert info.bandwidth_mbps == pytest.approx(50.0)
        assert info.delay_ms == pytest.approx(30.0)
        assert mesh.transfer_time(0, 1, 1_000_000) > base

    def test_routing_avoids_degraded_edge_when_cheaper(self):
        """Degradation feeds Dijkstra: a heavily delayed edge loses to
        a clean two-hop detour."""
        mesh = partial_mesh_topology([rpi4() for _ in range(4)],
                                     100.0, 10.0, chords=())
        mesh.apply_link_faults(degraded={(0, 1): (1.0, 50.0)})
        info = mesh.route_info(0, 1)
        assert info.path == (0, 3, 2, 1)
        assert info.delay_ms == pytest.approx(30.0)

    def test_degradation_induced_path_change_counts_as_reroute(self):
        """Regression: ``rerouted`` was derived from ``bool(self._down)``
        alone, so a path moved off its base route by a *degraded* (not
        down) link reported ``rerouted=False`` — reroute counters and
        the chaos benchmark's reroute accounting silently missed every
        degradation-induced failover."""
        mesh = _ring()
        mesh.apply_link_faults(degraded={(0, 1): (1.0, 50.0)})
        info = mesh.route_info(0, 1)
        assert info.path == (0, 3, 2, 1)   # Dijkstra avoided the edge
        assert info.rerouted               # ...and must say so

    def test_degraded_but_still_cheapest_path_is_not_a_reroute(self):
        """A degradation that does not move the path must not flag it."""
        mesh = _ring()
        mesh.apply_link_faults(degraded={(0, 1): (1.0, 5.0)})
        info = mesh.route_info(0, 1)
        assert info.path == (0, 1)
        assert not info.rerouted

    def test_apply_link_faults_change_detection(self):
        mesh = _ring()
        assert mesh.apply_link_faults(down=[(0, 1)]) is True
        assert mesh.apply_link_faults(down=[(1, 0)]) is False  # same edge
        assert mesh.apply_link_faults(down=[]) is True
        # unknown edges are ignored (schedule for a larger topology)
        assert mesh.apply_link_faults(down=[(7, 9)]) is False


class TestNoRerouteAblation:
    def test_static_tables_fail_on_dead_base_path(self):
        """With reroute=False the alternative path exists but is never
        taken: the base path crosses the dead link, so the pair fails."""
        mesh = _ring(reroute=False)
        mesh.apply_link_faults(down=[(0, 1)])
        with pytest.raises(NoRouteError):
            mesh.route_info(0, 1)
        # dynamic routing on the identical overlay survives
        dyn = _ring(reroute=True)
        dyn.apply_link_faults(down=[(0, 1)])
        assert dyn.has_route(0, 1)

    def test_static_tables_still_price_degradations(self):
        mesh = _ring(reroute=False)
        mesh.apply_link_faults(degraded={(0, 1): (0.25, 5.0)})
        info = mesh.route_info(0, 1)
        assert info.path == (0, 1) and not info.rerouted
        assert info.bandwidth_mbps == pytest.approx(25.0)


class TestRouteCacheInvalidation:
    def test_set_link_quality_drops_cached_route(self):
        """Regression: the path cache must not survive a base-link
        mutation.  Before the epoch/invalidate fix, the second
        ``route_info`` returned the stale pre-mutation path."""
        mesh = _ring()
        assert mesh.route_info(0, 1).path == (0, 1)  # warm the cache
        epoch = mesh.route_epoch
        mesh.set_link_quality(0, 1, delay_ms=100.0)
        assert mesh.route_epoch > epoch
        info = mesh.route_info(0, 1)
        assert info.path == (0, 3, 2, 1)  # detour is now cheaper
        assert info.delay_ms == pytest.approx(30.0)

    def test_fault_overlay_drops_cached_route(self):
        mesh = _ring()
        assert mesh.route_info(0, 1).hops == 1  # warm the cache
        mesh.apply_link_faults(down=[(0, 1)])
        assert mesh.route_info(0, 1).hops == 3

    def test_invalidate_routes_is_idempotent_on_epoch(self):
        mesh = _ring()
        e0 = mesh.route_epoch
        mesh.invalidate_routes()
        mesh.invalidate_routes()
        assert mesh.route_epoch == e0 + 2

    def test_condition_view_tracks_overlay(self):
        """The monitor's star-equivalent view reprices on reroute."""
        mesh = _ring()
        assert mesh.condition.delays_ms[0] == pytest.approx(10.0)
        mesh.apply_link_faults(down=[(0, 1)])
        cond = mesh.condition
        assert cond.delays_ms[0] == pytest.approx(30.0)  # via 0-3-2-1
        assert cond.delays_ms[2] == pytest.approx(10.0)  # 0-3 untouched
        # an unreachable remote keeps its fault-free base view
        mesh.apply_link_faults(down=[(0, 1), (1, 2)])
        assert mesh.condition.delays_ms[0] == pytest.approx(10.0)

    def test_set_condition_is_rejected(self):
        with pytest.raises(NotImplementedError):
            _ring().set_condition(None)


class TestLinkLevelPartitions:
    def test_partition_severs_every_incident_edge(self):
        """A crashed relay loses *all* its mesh edges — the schedule
        must not collapse to the star's 'remote k is gone' semantics."""
        sched = FaultSchedule([DeviceCrash(1.0, 5.0, device=2)])
        mesh = _ring()
        down = sched.down_links(2.0, edges=mesh.base_edges)
        assert down == frozenset({(1, 2), (2, 3)})
        # without the mesh's edge list there is nothing to sever
        assert sched.down_links(2.0) == frozenset()

    def test_partitioned_relay_blocks_transit(self):
        """Traffic relaying *through* the crashed device reroutes, even
        though neither endpoint is down."""
        sched = FaultSchedule([DeviceCrash(1.0, 5.0, device=2)])
        mesh = _ring()
        mesh.apply_link_faults(down=sched.down_links(2.0, mesh.base_edges))
        info = mesh.route_info(1, 3)
        assert 2 not in info.path  # forced around the dead relay
        assert info.path == (1, 0, 3)

    def test_star_addressed_degradation_hits_all_incident_edges(self):
        sched = FaultSchedule([
            LinkDegradation(0.0, 10.0, device=2, bw_factor=0.5,
                            extra_delay_ms=3.0),
            LinkDegradation(0.0, 10.0, device=3, bw_factor=0.5)])
        mesh = _ring()
        deg = sched.link_degradations(1.0, mesh.base_edges)
        assert set(deg) == {(1, 2), (2, 3), (0, 3)}
        assert deg[(1, 2)] == (0.5, 3.0)
        # both radios degrade the edge they share: the factors compound
        assert deg[(2, 3)] == (0.25, 3.0)


class TestInjectorOnMesh:
    def _schedule(self):
        return FaultSchedule([
            LinkFailure(1.0, 5.0, a=0, b=1),
            CorrelatedFailure(6.0, 8.0, devices=(2,), links=((2, 3),),
                              domain="relay"),
        ])

    def test_apply_to_installs_overlay(self):
        mesh = _ring()
        inj = FaultInjector(self._schedule())
        inj.advance(2.0)
        inj.apply_to(mesh)
        assert mesh.down_links == frozenset({(0, 1)})
        assert mesh.route_info(0, 1).rerouted
        inj.advance(5.5)
        inj.apply_to(mesh)
        assert mesh.down_links == frozenset()
        assert not mesh.route_info(0, 1).rerouted

    def test_blast_radius_is_atomic(self):
        """Device 2 and its incident links go down and come back on the
        same clock edges."""
        mesh = _ring()
        inj = FaultInjector(self._schedule())
        inj.advance(7.0)
        inj.apply_to(mesh)
        assert inj.is_down(2)
        # (2,3) explicit + (1,2) incident to the crashed device
        assert mesh.down_links == frozenset({(1, 2), (2, 3)})
        inj.advance(8.0)
        inj.apply_to(mesh)
        assert not inj.is_down(2)
        assert mesh.down_links == frozenset()

    def test_reachable_answers_path_level(self):
        """Once bound to a mesh, reachable() consults routing: a pair
        with every path severed is unreachable even though both devices
        are alive."""
        mesh = _ring()
        sched = FaultSchedule([LinkFailure(1.0, 5.0, a=0, b=1),
                               LinkFailure(1.0, 5.0, a=1, b=2)])
        inj = FaultInjector(sched)
        inj.advance(2.0)
        inj.apply_to(mesh)
        assert not inj.reachable(0, 1)
        assert inj.reachable(0, 3)

    def test_flap_transitions_reapply_within_one_window(self):
        """A LinkFlap changes the overlay *inside* one active window;
        the injector's idempotence key must track the computed overlay,
        not the active event set."""
        flap = LinkFlap(0.0, 100.0, a=0, b=1, p_fail=0.5, p_recover=0.5,
                        step_s=1.0, seed=3)
        mesh = _ring()
        inj = FaultInjector(FaultSchedule([flap]))
        seen = set()
        for t in range(40):
            inj.advance(float(t) + 0.5)
            inj.apply_to(mesh)
            seen.add(mesh.down_links)
        assert frozenset() in seen
        assert frozenset({(0, 1)}) in seen


class TestLineTopology:
    def test_no_alternative_path_means_no_route(self):
        """On a line the failover has nowhere to go: routing correctly
        reports the pair dead instead of inventing a path."""
        mesh = line_topology([rpi4() for _ in range(4)], 100.0, 10.0)
        mesh.apply_link_faults(down=[(1, 2)])
        assert mesh.has_route(0, 1)
        assert not mesh.has_route(0, 2)
        assert not mesh.has_route(0, 3)
        with pytest.raises(NoRouteError):
            mesh.transfer_time(0, 3, 10)


class TestFluidCapOverlay:
    def test_zero_bandwidth_degradation_skips_the_edge(self):
        """A fault overlay that degrades a surviving link's bandwidth
        to 0 must not crash the fluid re-convergence (the ledger
        rejects non-positive caps): the dead-but-present edge keeps its
        last-seen capacity, like a fully severed edge."""
        from repro.netsim.fluid import FluidTracker
        mesh = MeshCluster([rpi4() for _ in range(4)],
                           [MeshLink(i, (i + 1) % 4, 100.0, 10.0)
                            for i in range(4)])
        mesh.contention = FluidTracker()
        mesh.apply_link_faults(degraded={(0, 1): (0.0, 0.0)})
        assert mesh.update_fluid_caps(1.0)
        caps = mesh.contention._caps
        assert (0, 1) not in caps
        assert caps[(1, 2)] == pytest.approx(100e6)


class TestZeroBandwidthOverlay:
    """A link degraded to no bandwidth carries nothing: it leaves the
    routing graph like a down edge instead of staying in it at 0 Mbps
    (``ZeroDivisionError`` in pricing, 0.0 Mbps in ``condition``)."""

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_the_edge_reroutes_like_a_down_one(self, factor):
        mesh = _ring()
        assert mesh.apply_link_faults(degraded={(1, 0): (factor, 0.0)})
        assert mesh.down_links == {(0, 1)}
        assert mesh.degraded_links == {}
        info = mesh.route_info(0, 1)
        assert info.path == (0, 3, 2, 1) and info.rerouted
        assert mesh.transfer_time(0, 1, 1000) == pytest.approx(
            (30.0 + 1.0) / 1e3 + 8000 / 100e6)
        assert all(bw > 0 for bw in mesh.condition.bandwidths_mbps)
        # the same overlay again changes nothing; clearing it does
        assert not mesh.apply_link_faults(degraded={(0, 1): (factor, 0.0)})
        assert mesh.apply_link_faults()
        assert mesh.route_info(0, 1).path == (0, 1)

    def test_without_an_alternative_the_error_is_typed(self):
        mesh = line_topology([rpi4() for _ in range(3)], 100.0, 10.0)
        mesh.apply_link_faults(degraded={(1, 2): (0.0, 5.0)})
        with pytest.raises(NoRouteError):
            mesh.transfer_time(0, 2, 1000)
        with pytest.raises(NoRouteError):
            mesh.timed_transfer(0, 2, 1000, now=0.0)
        # the monitor's view falls back to the fault-free path
        assert mesh.condition.bandwidths_mbps == (100.0, 100.0)

    def test_static_routing_fails_instead_of_dividing_by_zero(self):
        mesh = _ring(reroute=False)
        mesh.apply_link_faults(degraded={(0, 1): (0.0, 0.0)})
        with pytest.raises(NoRouteError):
            mesh.transfer_time(0, 1, 1000)

    @pytest.mark.parametrize("extra", [float("nan"), float("inf"), -25.0])
    def test_an_extra_delay_routing_cannot_price_is_rejected(self, extra):
        """A NaN extra delay used to be installed (``transfer_time`` and
        ``condition`` then answered NaN) and one below minus the link's
        own 10 ms made a negative weight the first search tripped over
        mid-run; both are refused, naming the edge, with the overlay
        as it was."""
        mesh = _ring()
        mesh.apply_link_faults(down=[(2, 3)])
        epoch = mesh.route_epoch
        with pytest.raises(ValueError, match=r"link \(0, 1\)"):
            mesh.apply_link_faults(degraded={(1, 0): (0.5, extra)})
        assert mesh.down_links == {(2, 3)} and mesh.degraded_links == {}
        assert mesh.route_epoch == epoch
        assert mesh.transfer_time(0, 1, 1000) == pytest.approx(
            (10.0 + 1.0) / 1e3 + 8000 / 100e6)
        # taking a link's delay to exactly zero is a price, not an error
        assert mesh.apply_link_faults(degraded={(0, 1): (0.5, -10.0)})
        assert mesh.route_info(0, 1).delay_ms == 0.0
        assert mesh.condition.delays_ms[0] == 0.0

    def test_the_facade_serves_through_the_reroute(self):
        """A strategy placed on device 1 before the overlay keeps being
        served — over the backup path — after (0, 1) lost its
        bandwidth."""
        from repro.core import SLO, Murmuration, SearchDecisionEngine
        from repro.devices import desktop_gtx1080
        from repro.eval.spec import StaticEngine
        from repro.nas import MBV3_SPACE
        devices = [rpi4(), desktop_gtx1080(), rpi4(), rpi4()]
        mesh = ring_topology(devices, 100.0, 10.0)
        engine = StaticEngine(
            SearchDecisionEngine(MBV3_SPACE, devices, n_random_archs=2),
            mesh.condition)
        system = Murmuration(MBV3_SPACE, devices, None, engine,
                             slo=SLO.latency_ms(300.0), cluster=mesh)
        before = system.infer()
        assert before.strategy.plan.devices_used() == (0, 1)
        mesh.apply_link_faults(degraded={(0, 1): (0.0, 0.0)})
        after = system.infer()
        assert after.strategy.plan.devices_used() == (0, 1)
        assert after.latency_s > before.latency_s


class TestLinkBreakers:
    def test_link_breaker_opens_and_recovers(self):
        from repro.faults.health import CircuitState, DeviceHealth
        h = DeviceHealth(num_devices=4)
        assert h.allow_link(0, 1, now=0.0)
        assert not h.record_link_failure(0, 1, now=0.05)
        assert not h.record_link_failure(0, 1, now=0.1)
        assert h.record_link_failure(1, 0, now=0.2)  # unordered pair
        assert h.link_state(0, 1, 0.3) is CircuitState.OPEN
        assert not h.allow_link(0, 1, 0.3)
        assert h.drain_opened_links() == [(0, 1)]
        assert h.drain_opened_links() == []
        # cooldown -> probe -> closed
        assert h.link_state(0, 1, 2.5) is CircuitState.HALF_OPEN
        assert h.allow_link(0, 1, 2.5)
        h.record_link_success(0, 1, 2.6)
        assert h.link_state(0, 1, 2.7) is CircuitState.CLOSED
        # other links were never affected
        assert h.allow_link(0, 3, 0.3)
