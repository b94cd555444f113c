"""Frozen digests of what the fluid ledger prices.

``scenario_digests.json`` (fluid rows), ``telemetry_snapshot_digests.json``
and ``multi_tenant_fluid_golden.jsonl`` pin the fluid ledger through the
serving stack, where admission control keeps the ingress short of flows.
This file pins the *ledger itself*: ``tests/fixtures/fluid_price_digests.json``
holds, per seeded world, the sha256 over ``float.hex`` of

* every ``admit_transfer`` / ``peek_transfer`` return, in call order;
* ``finish_times()`` read mid-run (active flows predicted) and at the end;
* every recorded segment (``record_segments=True``): ``t0``, ``t1`` and
  each flow's rate;
* ``stats()``, ``tenant_bytes()``, ``peak_share``, ``caps_updates_total``
  and the ``fluid_flow_reconvergences`` histogram.

The worlds: one shared edge behind a :class:`SharedIngress` (peek, then
admit when the upload is short enough), a 6-ring with 1-3 hop paths,
bursts and ``update_caps`` steps, a routed mesh with a mid-flight
capacity change, same-instant arrivals, a zero-byte flow, an
out-of-order (clamped) admission, and :func:`solve_fluid` under
permutation.

The file was generated *before* the ledger stopped cloning itself to
price a transfer and must keep passing untouched: a rate, a finish time
or a returned float that moves by one ulp changes a digest.
"""

import functools

import numpy as np
import pytest

from repro.devices.profiles import desktop_gtx1080, jetson_class, rpi4
from repro.netsim import (FluidTracker, Link, SharedIngress, ring_topology,
                          solve_fluid)
from repro.netsim.fluid import FlowSpec
from repro.telemetry import Telemetry
from tests.frozen import digest

RING = 6
RING_CAPS = {tuple(sorted((i, (i + 1) % RING))): 100e6 for i in range(RING)}


def _ring_path(src, hops, step):
    nodes = [(src + step * k) % RING for k in range(hops + 1)]
    return tuple(tuple(sorted(e)) for e in zip(nodes, nodes[1:]))


# -- worlds: ``world(tracker) -> [every priced float, in call order]`` -----
def ingress_world(tracker, seed=1, n=160):
    """The ingress shape: every tenant's upload crosses one edge; the
    admission peek is followed by an admit only when it is short."""
    rng = np.random.default_rng((seed, 18))
    ingress = SharedIngress(Link(bandwidth_mbps=40.0, delay_ms=5.0), tracker,
                            payload_bytes=96 * 1024,
                            per_tenant_bytes={"bulk": 512 * 1024})
    out, t = [], 0.0
    for i in range(n):
        t += float(rng.exponential(0.012 if (i // 40) % 2 else 0.05))
        if i in (60, 120):
            ingress.set_capacity(t, 12.0 if i == 60 else 40.0)
        tenant = ("bulk", "chat", None)[int(rng.integers(3))]
        peek = ingress.upload_time(t, tenant)
        out.append(peek)
        if peek <= 0.6:
            out.append(ingress.admit(t, tenant))
    return out


def ring_world(tracker, seed=2, n=150):
    """1-3 hop paths on a 6-ring, a burst every 50 transfers, a peek
    beside every other admit, one edge stepping its capacity."""
    rng = np.random.default_rng((seed, 18))
    caps = dict(RING_CAPS)
    out, t, next_step, slow = [], 0.0, 0.5, False
    for i in range(n):
        t += float(rng.exponential(0.002 if i % 50 < 20 else 0.08))
        while next_step <= t:
            slow = not slow
            caps[(0, 1)] = 25e6 if slow else 100e6
            tracker.update_caps(next_step, {(0, 1): caps[(0, 1)]})
            next_step += 0.5
        path = _ring_path(int(rng.integers(RING)), int(rng.integers(1, 4)),
                          1 if rng.random() < 0.5 else -1)
        nbytes = float(rng.lognormal(np.log(300e3), 0.5))
        path_caps = {e: caps[e] for e in path}
        latency = 0.005 * len(path) + 0.001
        base = latency + nbytes * 8.0 / min(path_caps.values())
        if i % 2:
            out.append(tracker.peek_transfer(path, path_caps, latency,
                                             nbytes, t, base_s=base))
        out.append(tracker.admit_transfer(path, path_caps, latency, nbytes,
                                          t, base_s=base))
        if i == n // 2:
            out.extend(v for _, v in sorted(tracker.finish_times().items()))
    return out


def mesh_world(tracker, seed=3, n=40):
    """Routed transfers on a ring mesh; one link degrades mid-flight and
    the surviving capacities are pushed into the ledger."""
    rng = np.random.default_rng((seed, 18))
    devs = [(rpi4, desktop_gtx1080, jetson_class)[i % 3]() for i in range(5)]
    mesh = ring_topology(devs, 80.0, 4.0)
    mesh.contention = tracker
    out, t = [], 0.0
    for i in range(n):
        t += float(rng.exponential(0.01))
        if i == n // 3:
            mesh.set_link_quality(0, 1, bandwidth_mbps=15.0)
            mesh.update_fluid_caps(t)
        if i == 2 * n // 3:
            mesh.set_link_quality(0, 1, bandwidth_mbps=80.0)
            mesh.update_fluid_caps(t)
        src, dst = (int(v) for v in rng.choice(5, size=2, replace=False))
        out.append(mesh.timed_transfer(
            src, dst, float(rng.uniform(2e4, 6e5)), t,
            tenant=("a", "b")[i % 2]))
    return out


def same_instant_world(tracker):
    """Five arrivals at one instant on overlapping paths, a peek between
    them, then a second wave exactly when the first flow completes."""
    caps = {(0, 1): 8e6, (1, 2): 4e6, (2, 3): 8e6}
    paths = [((0, 1),), ((0, 1), (1, 2)), ((1, 2),), ((1, 2), (2, 3)),
             ((0, 1), (1, 2), (2, 3))]
    out = []
    for k, path in enumerate(paths):
        args = (path, {e: caps[e] for e in path}, 0.002, 1e5 * (k + 1), 1.0)
        if k == 2:
            out.append(tracker.peek_transfer(*args, tenant="t"))
        out.append(tracker.admit_transfer(*args, tenant="t"))
    first_done = min(tracker.finish_times().values())
    for path in paths[:3]:
        out.append(tracker.admit_transfer(
            path, {e: caps[e] for e in path}, 0.002, 2e5, first_done))
    return out


def zero_byte_world(tracker):
    """A zero-byte flow admitted beside two in-flight flows completes on
    the spot and changes nobody's rate."""
    caps = {(0, 1): 1e6}
    out = [tracker.admit_transfer(((0, 1),), caps, 0.001, 5e4, 0.0,
                                  base_s=0.401),
           tracker.admit_transfer(((0, 1),), caps, 0.001, 5e4, 0.1)]
    out.append(tracker.peek_transfer(((0, 1),), caps, 0.001, 0.0, 0.2))
    out.append(tracker.admit_transfer(((0, 1),), caps, 0.001, 0.0, 0.2,
                                      tenant="z"))
    out.append(tracker.admit_transfer(((0, 1),), caps, 0.001, 5e4, 0.3))
    return out


def out_of_order_world(tracker):
    """An admission in the ledger's past is clamped to the ledger time."""
    caps = {(0, 1): 2e6, (1, 2): 1e6}
    out = [tracker.admit_transfer(((0, 1),), caps, 0.0, 3e5, 5.0),
           tracker.admit_transfer(((0, 1), (1, 2)), caps, 0.0, 2e5, 5.25)]
    out.append(tracker.peek_transfer(((1, 2),), caps, 0.0, 1e5, 1.0))
    out.append(tracker.admit_transfer(((1, 2),), caps, 0.0, 1e5, 1.0))
    out.append(float(tracker.flow_spec(2).start))
    tracker.update_caps(2.0, {(1, 2): 3e6})  # in the past too
    out.append(tracker.admit_transfer(((0, 1),), caps, 0.0, 1e5, 5.5))
    return out


WORLDS = {
    "ingress": ingress_world,
    "ring6": ring_world,
    "mesh_route": mesh_world,
    "same_instant": same_instant_world,
    "zero_byte": zero_byte_world,
    "out_of_order": out_of_order_world,
}


def play(world, tracker_cls=FluidTracker):
    """Run one world on a fresh instrumented tracker; everything the
    ledger answered, floats as ``float.hex``."""
    tel = Telemetry()
    tracker = tracker_cls(telemetry=tel, record_segments=True)
    priced = world(tracker)
    predicted = tracker.finish_times()
    tracker.drain()
    hist = tel.registry.get("fluid_flow_reconvergences")
    return {
        "priced": [float(v).hex() for v in priced],
        "predicted": {str(k): v.hex() for k, v in sorted(predicted.items())},
        "finish": {str(k): v.hex()
                   for k, v in sorted(tracker.finish_times().items())},
        "segments": [[s.t0.hex(), s.t1.hex(),
                      {str(k): v.hex() for k, v in sorted(s.rates.items())}]
                     for s in tracker.segments],
        "stats": tracker.stats(),
        "peak_share": {str(k): v
                       for k, v in sorted(tracker.peak_share.items())},
        "caps_updates": tracker.caps_updates_total,
        "tenant_bytes": {k: v.hex()
                         for k, v in sorted(tracker.tenant_bytes().items())},
        "reconvergences": [hist.count, float(hist.sum).hex(),
                           float(hist.min).hex(), float(hist.max).hex(),
                           hist.quantile(0.5).hex(),
                           hist.quantile(0.99).hex()],
    }


def solve_fluid_answers():
    """The offline solver on one flow set under four submission orders:
    finish times re-aligned to the canonical order, plus the trail."""
    rng = np.random.default_rng((4, 18))
    edges = list(RING_CAPS)
    flows = []
    for _ in range(14):
        k = int(rng.integers(1, 4))
        idx = sorted(int(i) for i in rng.choice(len(edges), k, replace=False))
        flows.append(FlowSpec(tuple(edges[i] for i in idx),
                              float(rng.choice([0.0, 0.1, 0.1, 0.35])),
                              float(rng.uniform(1e4, 2e6)),
                              tenant=(None, "a", "b")[int(rng.integers(3))]))
    orders = [list(range(len(flows))), list(reversed(range(len(flows))))]
    orders += [[int(i) for i in rng.permutation(len(flows))]
               for _ in range(2)]
    answers = []
    for order in orders:
        fin, tracker = solve_fluid([flows[i] for i in order], RING_CAPS)
        aligned = [None] * len(flows)
        for pos, i in enumerate(order):
            aligned[i] = fin[pos].hex()
        answers.append({
            "finish": aligned,
            "segments": [[s.t0.hex(), s.t1.hex(),
                          sorted(v.hex() for v in s.rates.values())]
                         for s in tracker.segments],
            "stats": tracker.stats()})
    return answers


@functools.lru_cache(maxsize=None)
def answers():
    out = {name: play(world) for name, world in WORLDS.items()}
    out["solve_fluid"] = solve_fluid_answers()
    return out


def fixture_content():
    # the cheap counts beside each digest say *what* moved
    return {name: {"digest": digest(a), "counts": _counts(a)}
            for name, a in answers().items()}


@pytest.mark.parametrize("name", [*WORLDS, "solve_fluid"])
def test_world_prices_what_it_priced_when_frozen(moved, name):
    assert name not in moved("fluid_price_digests")


def test_solve_fluid_is_permutation_invariant():
    first = answers()["solve_fluid"][0]
    for other in answers()["solve_fluid"][1:]:
        assert other["finish"] == first["finish"]


def test_worlds_reach_the_cases_they_name():
    """The fixture would pin nothing if the worlds were all lone flows."""
    live = answers()
    assert live["ingress"]["stats"]["peak_share"] >= 4
    assert live["ingress"]["caps_updates"] == 2
    assert live["ring6"]["stats"]["peak_share"] >= 6
    assert live["ring6"]["caps_updates"] >= 10
    assert live["mesh_route"]["caps_updates"] == 2
    assert live["mesh_route"]["stats"]["contended"] >= 10
    assert live["zero_byte"]["priced"][3] == (0.001).hex()
    assert live["out_of_order"]["priced"][4] == (5.25).hex()


def _counts(answer):
    if isinstance(answer, list):
        return {"orders": len(answer),
                "segments": len(answer[0]["segments"])}
    return {"priced": len(answer["priced"]),
            "flows": answer["stats"]["flows"],
            "segments": len(answer["segments"])}
