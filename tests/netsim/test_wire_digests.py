"""Frozen digests of what a shared wire prices, with and without a ledger.

``fluid_price_digests.json`` pins the fluid ledger and
``scenario_digests.json`` the ingress through the serving stack.  This
file pins the pricing surface of the wire itself:
``tests/fixtures/wire_price_digests.json`` holds, per seeded world and
per contention mode (no tracker on a cluster, :class:`FluidTracker`),
the sha256 over ``float.hex`` of

* every ``timed_transfer`` / ``upload_time`` / ``admit`` return, in
  call order;
* the ledger's ``stats()``, ``peak_share``, ``tenant_bytes()``,
  ``caps_updates_total`` and drained finish times (what
  ``update_fluid_caps`` moved).

The worlds: a star with overlapping spoke and relay flows, same-instant
arrivals and one condition step; a ring mesh where two routes share one
bottleneck edge, before and after a fault overlay reroutes one of them;
a :class:`SharedIngress` burst with per-tenant payloads and one
``set_capacity`` step; and an executable-mode facade run with
``cluster.contention`` set, its front tiled over both remotes, with and
without a crash + loss schedule (every delivery's ``delivered_at``
beside the served records).

The file was generated *before* the contention modes became one
tracker protocol and must keep passing untouched: a priced float that
moves by one ulp changes a digest.  The two facade worlds were frozen
again, tiled, when executable sends stopped going out at t = 0: served
back to back with honest send times, a half-split plan's flows never
meet.  An ingress always has a ledger, so it has no "none" mode.
"""

import functools
import json

import numpy as np
import pytest

from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.netsim import (Cluster, FluidTracker, Link, NetworkCondition,
                          SharedIngress, ring_topology)
from repro.partition import Grid, spatial_front_plan
from tests.core.test_infer_parity import _dump, _input, _system
from tests.frozen import digest

#: contention mode -> tracker factory
MODES = {"none": lambda: None, "fluid": FluidTracker}
_TENANTS = ("a", "b", None)


def _devices(n):
    return [(rpi4, desktop_gtx1080, jetson_class)[i % 3]() for i in range(n)]


# -- worlds: ``world(tracker) -> [every priced float, in call order]`` -----
# (the facade worlds interleave each served record, as a JSON string)
def star_world(tracker, seed=1, n=90):
    """Spoke and relay transfers on a 4-device star: arrivals dense
    enough to overlap, every fifth one at the previous instant, and the
    links step once mid-run."""
    rng = np.random.default_rng((seed, 19))
    star = Cluster(_devices(4),
                   NetworkCondition((120.0, 60.0, 25.0), (4.0, 9.0, 15.0)),
                   contention=tracker)
    out, t = [], 0.0
    for i in range(n):
        if i % 5:
            t += float(rng.exponential(0.1))
        if i == n // 2:
            star.set_condition(
                NetworkCondition((40.0, 90.0, 25.0), (6.0, 9.0, 12.0)))
            star.update_fluid_caps(t)
        src, dst = (int(v) for v in rng.choice(4, size=2, replace=False))
        out.append(star.timed_transfer(
            src, dst, float(rng.uniform(2e4, 4e5)), t,
            tenant=_TENANTS[i % 3]))
    out.append(star.timed_transfer(2, 2, 1e5, t))  # free, never a flow
    return out


def mesh_world(tracker, seed=2, n=80):
    """A 6-ring where 0->2 and 1->3 share the slow edge (1, 2); a third
    in, (0, 1) goes down and (2, 3) degrades, so 0->2 reroutes the long
    way round and now meets 1->3 on (2, 3); two thirds in, the overlay
    clears."""
    rng = np.random.default_rng((seed, 19))
    mesh = ring_topology(_devices(6), 80.0, 3.0)
    mesh.set_link_quality(1, 2, bandwidth_mbps=30.0)
    mesh.contention = tracker
    pairs = [(0, 2), (1, 3), (2, 0), (3, 1), (0, 3), (4, 1)]
    out, t = [], 0.0
    for i in range(n):
        if i % 4:
            t += float(rng.exponential(0.2))
        if i == n // 3:
            mesh.apply_link_faults(down=[(0, 1)],
                                   degraded={(2, 3): (0.5, 1.5)})
            mesh.update_fluid_caps(t)
        if i == 2 * n // 3:
            mesh.apply_link_faults()
            mesh.update_fluid_caps(t)
        src, dst = pairs[int(rng.integers(len(pairs)))]
        out.append(mesh.timed_transfer(
            src, dst, float(rng.uniform(3e4, 5e5)), t,
            tenant=_TENANTS[i % 3]))
        out.append(float(mesh.route_info(src, dst).rerouted))
    return out


def ingress_world(tracker, seed=3, n=120):
    """Uploads from three tenants over one uplink, in bursts; the peek
    is followed by an admit when it is short; capacity steps once."""
    rng = np.random.default_rng((seed, 19))
    ingress = SharedIngress(Link(bandwidth_mbps=30.0, delay_ms=4.0), tracker,
                            payload_bytes=64 * 1024,
                            per_tenant_bytes={"bulk": 384 * 1024})
    out, t = [], 0.0
    for i in range(n):
        t += float(rng.exponential(0.01 if (i // 30) % 2 else 0.06))
        if i == n // 2:
            ingress.set_capacity(t, 10.0)
        tenant = ("bulk", "chat", None)[int(rng.integers(3))]
        peek = ingress.upload_time(t, tenant)
        out.append(peek)
        if peek <= 0.5:
            out.append(ingress.admit(t, tenant))
    return out


def _tiled(graph):
    """The max submodel's front tiled 2x2 over both remotes, two tiles
    each: sibling tiles share a spoke on the way out and on the way to
    the merger."""
    return spatial_front_plan(graph, Grid(2, 2), (1, 2, 1, 2), min_hw=8)


def _facade_world(mode):
    def world(tracker):
        """Twelve executable-mode requests with ``cluster.contention``
        set after construction: the served records, and every delivery
        the transport priced."""
        system = _system(mode, _tiled)
        system.cluster.contention = tracker
        out = []
        for i in range(12):
            rec = system.infer(_input(mode, False, i), request_id=i,
                               tenant=_TENANTS[i % 3])
            out.append(json.dumps(_dump(rec), sort_keys=True))
            out.extend(m.delivered_at
                       for m in system.executor.transport.log)
        return out
    return world


WORLDS = {
    "star": star_world,
    "ring_mesh": mesh_world,
    "ingress": ingress_world,
    "facade_exec": _facade_world("exec"),
    "facade_exec_faults": _facade_world("exec_faults"),
}


def play(world, mode):
    """Run one world under one contention mode; everything the wire
    answered, floats as ``float.hex``."""
    tracker = MODES[mode]()
    answer = {"priced": [v if isinstance(v, str) else float(v).hex()
                         for v in world(tracker)]}
    if tracker is not None:
        answer.update(
            stats=tracker.stats(),
            peak_share={str(k): v
                        for k, v in sorted(tracker.peak_share.items())},
            tenant_bytes={k: v.hex() for k, v
                          in sorted(tracker.tenant_bytes().items())})
        tracker.drain()
        answer.update(
            caps_updates=tracker.caps_updates_total,
            finish=[v.hex() for _, v
                    in sorted(tracker.finish_times().items())])
    return answer


def _counts(answer):
    stats = answer.get("stats", {})
    return {"priced": len(answer["priced"]),
            "flows": stats.get("flows"),
            "contended": stats.get("contended")}


CASES = [(name, mode) for name in WORLDS for mode in MODES
         if (name, mode) != ("ingress", "none")]


@functools.lru_cache(maxsize=None)
def answers():
    return {f"{name}/{mode}": play(WORLDS[name], mode)
            for name, mode in CASES}


def fixture_content():
    # the cheap counts beside each digest say *what* moved
    return {key: {"digest": digest(a), "counts": _counts(a)}
            for key, a in answers().items()}


@pytest.mark.parametrize("name,mode", CASES)
def test_wire_prices_what_it_priced_when_frozen(moved, name, mode):
    assert f"{name}/{mode}" not in moved("wire_price_digests")


def test_worlds_reach_the_cases_they_name():
    """The fixture would pin nothing if every flow were lone."""
    live = answers()
    star = live["star/fluid"]
    assert star["stats"]["contended"] >= 30
    assert star["stats"]["peak_share"] >= 4
    # a relay flow occupies two spokes, and each one was shared
    assert all(star["peak_share"][f"(0, {i})"] >= 3 for i in (1, 2, 3))
    mesh = live["ring_mesh/fluid"]
    assert mesh["stats"]["contended"] >= 30
    assert mesh["peak_share"]["(1, 2)"] >= 3      # the shared edge
    assert mesh["peak_share"]["(4, 5)"] >= 2      # only while rerouted
    assert live["ingress/fluid"]["stats"]["peak_share"] >= 4
    assert set(live["ingress/fluid"]["tenant_bytes"]) == {"bulk", "chat"}
    for run in ("facade_exec", "facade_exec_faults"):
        assert live[f"{run}/fluid"]["stats"]["contended"] >= 6
        assert live[f"{run}/fluid"]["tenant_bytes"]
    assert live["star/fluid"]["caps_updates"] == 1
    assert live["ring_mesh/fluid"]["caps_updates"] == 2
    assert live["ingress/fluid"]["caps_updates"] == 1
    rerouted = live["ring_mesh/none"]["priced"][1::2]
    assert {(0.0).hex(), (1.0).hex()} == set(rerouted)
    # a ledger changes what a shared wire costs, never whether it is
    # priced: both modes answer the same calls
    for name in WORLDS:
        if name != "ingress":
            assert len({len(live[f"{name}/{m}"]["priced"])
                        for m in MODES}) == 1


def _lone(owner, tracker):
    """One transfer on ``owner``'s idle wire, priced through ``tracker``
    (a peek first, where the owner has one), and the contention-free
    float of the same transfer."""
    if owner == "ingress":
        ingress = SharedIngress(Link(20.0, 3.0), tracker, payload_bytes=1e5)
        base = ingress.link.transfer_time(1e5)
        return [ingress.upload_time(0.5), ingress.admit(0.5)], base
    if owner == "mesh route":   # two hops round the ring
        wire = ring_topology(_devices(6), 80.0, 3.0)
        wire.contention = tracker
        src, dst = 0, 2
    else:
        wire = Cluster(_devices(3),
                       NetworkCondition((50.0, 20.0), (5.0, 8.0)),
                       contention=tracker)
        src, dst = (0, 1) if owner == "star spoke" else (1, 2)
    return ([wire.timed_transfer(src, dst, 3e5, 1.0)],
            wire.transfer_time(src, dst, 3e5))


@pytest.mark.parametrize("owner", ["star spoke", "star relay", "mesh route",
                                   "ingress"])
def test_a_lone_flow_costs_the_base_price_on_every_owner(owner):
    """One transfer on an idle wire: the ledger returns the owner's
    contention-free float itself."""
    priced, base = _lone(owner, FluidTracker())
    assert priced == [base] * len(priced)
