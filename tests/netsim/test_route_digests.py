"""Frozen digests of what a mesh routes, tie-breaks included.

``wire_price_digests.json`` pins what a routed wire *costs* on one ring;
nothing pinned which path the mesh picks when several tie, and a
min-delay search is free to break a tie either way.
``tests/fixtures/route_digests.json`` holds, per seeded world, the
sha256 over everything routing answers (floats as ``float.hex``):

* ``route_info`` for every ordered pair — path, ``delay_ms``,
  ``bandwidth_mbps``, ``rerouted`` — asked in ascending order, then, the
  cache dropped, in descending order (the cache stores a route's mirror
  image, so who is asked first decides which pairs are searched), with
  ``hop_count`` and ``transfer_time``; a pair without a route answers
  the typed :class:`NoRouteError` and its endpoints;
* ``condition``, ``is_connected()``, ``route_epoch``, the overlay as the
  mesh reports it;
* what the mesh hands its tracker: the caps dict of
  ``update_fluid_caps`` (key order and values) and the edges / caps /
  latency of every ``timed_transfer`` from the gateway.

The worlds: line / ring / partial-mesh clusters of 2–9 devices, with
one delay on every link (every equal-hop route ties) and with seeded
unequal ones (half small integers, so sums tie too), ``reroute`` on and
off; each walks four seeded ``down`` / ``degraded`` overlays (edges the
mesh lacks and links degraded to nothing included), one
``set_link_quality`` under the last overlay, and the cleared overlay.

The file was generated *before* the mesh stopped routing through
networkx and must keep passing untouched: one path that breaks a tie
the other way changes a digest.
"""

import functools

import numpy as np
import pytest

from repro.devices import rpi4
from repro.faults.resilience import NoRouteError
from repro.netsim import MeshCluster, MeshLink
from tests.frozen import digest

SHAPES = ("line", "ring", "partial")
SIZES = range(2, 10)
DELAYS = ("equal", "seeded")


class _Tape:
    """A tracker that writes down what the mesh hands it."""

    def __init__(self):
        self.caps, self.admits = [], []

    def update_caps(self, now, caps):
        self.caps.append([[list(e), c.hex()] for e, c in caps.items()])

    def admit_transfer(self, edges, caps, latency_s, nbytes, now,
                       tenant=None, base_s=None):
        self.admits.append([[list(e) for e in edges],
                            [[list(e), c.hex()] for e, c in caps.items()],
                            latency_s.hex(), base_s.hex()])
        return base_s


def _edges(shape, n, rng):
    edges = [(i, i + 1) for i in range(n - 1)]
    if shape != "line":
        edges.append((n - 1, 0))
    if shape == "partial" and n >= 4:
        chords = [(a, b) for a in range(n) for b in range(a + 2, n)
                  if (a, b) != (0, n - 1)]
        picks = rng.choice(len(chords), size=min(len(chords), 1 + n // 3),
                           replace=False)
        # a chord is written from either end
        edges += [chords[i] if i % 2 else chords[i][::-1] for i in picks]
    return edges


def build(shape, n, delays, reroute, rng):
    links = []
    for a, b in _edges(shape, n, rng):
        if delays == "equal":
            bw, delay = 100.0, 10.0
        else:
            bw = float(rng.choice([25.0, 50.0, 100.0]))
            delay = (float(rng.integers(1, 5)) if rng.random() < 0.5
                     else float(rng.uniform(1.0, 6.0)))
        links.append(MeshLink(a, b, bw, delay))
    mesh = MeshCluster([rpi4() for _ in range(n)], links, reroute=reroute)
    mesh.contention = _Tape()
    return mesh


def _overlay(mesh, rng):
    base = sorted(mesh.base_edges)
    n = mesh.num_devices

    def pick(k):
        return [base[i] for i in rng.choice(len(base), replace=False,
                                            size=min(k, len(base)))]
    down = pick(int(rng.integers(0, 3)))
    degraded = {e[::-1]: (float(rng.choice([0.5, 0.25, 0.0])),
                          float(rng.choice([0.0, 1.0, 2.5, 10.0])))
                for e in pick(int(rng.integers(0, 3)))}
    # edges this mesh does not have are ignored, not an error
    down.append((0, n + 1))
    degraded[(n, n + 2)] = (0.5, 1.0)
    return down, degraded


def _ask(mesh, src, dst):
    try:
        info = mesh.route_info(src, dst)
    except NoRouteError as err:
        assert not mesh.has_route(src, dst)
        return [src, dst, "NoRouteError", err.src, err.dst, err.device]
    return [src, dst, list(info.path), info.delay_ms.hex(),
            info.bandwidth_mbps.hex(), info.rerouted,
            mesh.hop_count(src, dst),
            mesh.transfer_time(src, dst, 1e5).hex()]


def _state(mesh, now):
    n = mesh.num_devices
    pairs = [(s, d) for s in range(n) for d in range(n)]
    answer = {"ascending": [_ask(mesh, s, d) for s, d in pairs]}
    mesh.invalidate_routes()
    answer["descending"] = [_ask(mesh, s, d) for s, d in reversed(pairs)]
    cond = mesh.condition
    tape = mesh.contention
    told = mesh.update_fluid_caps(now)
    for dst in range(1, n):
        if mesh.has_route(0, dst):
            mesh.timed_transfer(0, dst, 2e5, now, tenant="t")
    answer.update(
        condition=[[v.hex() for v in cond.bandwidths_mbps],
                   [v.hex() for v in cond.delays_ms]],
        link_to=[[mesh.link_to(i).bandwidth_mbps.hex(),
                  mesh.link_to(i).delay_ms.hex()] for i in range(1, n)],
        connected=mesh.is_connected(), epoch=mesh.route_epoch,
        down=sorted(map(list, mesh.down_links)),
        degraded=[[list(e), f.hex(), x.hex()] for e, (f, x)
                  in sorted(mesh.degraded_links.items())],
        told=told, caps=tape.caps[-1] if told else None,
        admits=tape.admits[:])
    tape.admits.clear()
    return answer


def play(shape, n, delays, reroute):
    """One world: its fault-free routes, four seeded overlays, a base
    link that changes under the last one, and the overlay cleared."""
    rng = np.random.default_rng(
        (SHAPES.index(shape), n, DELAYS.index(delays), 22))
    mesh = build(shape, n, delays, reroute, rng)
    states = [_state(mesh, 0.0)]
    for step in range(4):
        down, degraded = _overlay(mesh, rng)
        changed = mesh.apply_link_faults(down=down, degraded=degraded)
        states.append({"changed": changed, **_state(mesh, 1.0 + step)})
    base = sorted(mesh.base_edges)
    a, b = base[int(rng.integers(len(base)))]
    mesh.set_link_quality(b, a, bandwidth_mbps=40.0,
                          delay_ms=float(rng.choice([1.0, 10.0, 30.0])))
    states.append(_state(mesh, 6.0))
    mesh.apply_link_faults()
    states.append(_state(mesh, 7.0))
    return states


def _counts(states):
    asked = [r for s in states for r in s["ascending"] + s["descending"]]
    return {"asked": len(asked),
            "no_route": sum(r[2] == "NoRouteError" for r in asked),
            "rerouted": sum(r[2] != "NoRouteError" and r[5] for r in asked),
            "multi_hop": sum(r[2] != "NoRouteError" and len(r[2]) > 2
                             for r in asked),
            "disconnected": sum(not s["connected"] for s in states)}


CASES = [(shape, n, delays, reroute) for shape in SHAPES for n in SIZES
         for delays in DELAYS for reroute in (True, False)]


def _key(shape, n, delays, reroute):
    return f"{shape}/{n}/{delays}/{'reroute' if reroute else 'static'}"


@functools.lru_cache(maxsize=None)
def answers():
    return {_key(*case): play(*case) for case in CASES}


def fixture_content():
    # the cheap counts beside each digest say *what* moved
    return {key: {"digest": digest(s), "counts": _counts(s)}
            for key, s in answers().items()}


@pytest.mark.parametrize("case", CASES, ids=lambda c: _key(*c))
def test_mesh_routes_what_it_routed_when_frozen(moved, case):
    assert _key(*case) not in moved("route_digests")


def test_worlds_reach_the_cases_they_name():
    """The fixture would pin nothing if no route ever tied, failed or
    moved."""
    live = answers()
    total = {k: sum(_counts(s)[k] for s in live.values())
             for k in ("asked", "no_route", "rerouted", "multi_hop",
                       "disconnected")}
    assert total["asked"] > 40_000
    assert total["no_route"] > 2_000
    assert total["rerouted"] > 1_000
    assert total["multi_hop"] > 15_000
    assert total["disconnected"] > 50
    # an equal-delay even ring has two min-delay routes to the far side:
    # the frozen answer is one of them, the same in both call orders
    ring = live["ring/6/equal/reroute"][0]
    far = {tuple(r[:2]): r[2] for r in ring["ascending"]}
    assert far[(0, 3)] in ([0, 1, 2, 3], [0, 5, 4, 3])
    assert far[(3, 0)] == far[(0, 3)][::-1]     # the cached mirror image
    # static routing never reroutes, and fails where rerouting would not
    static = sum(_counts(live[_key(*c)])["no_route"]
                 for c in CASES if not c[3])
    assert static > total["no_route"] - static
    assert all(_counts(live[_key(*c)])["rerouted"] == 0
               for c in CASES if not c[3])
    # a severed edge is absent from the caps the tracker is told
    for states in live.values():
        for s in states:
            if s["told"]:
                told = {tuple(e) for e, _ in s["caps"]}
                assert not told & {tuple(e) for e in s["down"]}

