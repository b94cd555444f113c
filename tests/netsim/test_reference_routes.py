"""The mesh's own search against the networkx calls it replaced.

``tests/netsim/reference_routes.py`` is how ``MeshCluster`` built its
two graphs and asked networkx for a route and for connectivity.
Everything here gives it and a live mesh the same links and the same
fault overlay and requires ``==`` on the path of every ordered pair
(each searched on a dropped cache, so none is a cached mirror image),
on which pairs have no route, on ``rerouted``, on connectivity and on
the capacities a tracker is told, key order included.  The graphs are
random with small-integer delays, zero included, so that several
min-delay paths is the common case and the tie-break is what is tested;
sparse ones leave nodes isolated and pairs disconnected.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import rpi4
from repro.faults.resilience import NoRouteError
from repro.netsim import MeshCluster, MeshLink
from repro.netsim.link import canonical_edge
from tests.netsim import reference_routes as reference


class _Caps:
    def update_caps(self, now, caps):
        self.told = caps


def _live_path(mesh, src, dst):
    mesh.invalidate_routes()
    try:
        return mesh.route_info(src, dst).path
    except NoRouteError:
        return None


def _base_path(asked, base_graph, src, dst):
    """A fault-free path is searched once and remembered with its
    mirror image (it outlives ``invalidate_routes``), as it always was."""
    if (src, dst) not in asked:
        path = reference.shortest_path(base_graph, src, dst)
        asked[(src, dst)] = path
        asked[(dst, src)] = path and path[::-1]
    return asked[(src, dst)]


def check(n, links, down=(), degraded=None):
    """Ask both about every ordered pair; how many had no route."""
    mesh = MeshCluster([rpi4() for _ in range(n)],
                       [MeshLink(*link) for link in links])
    mesh.contention = _Caps()
    static = MeshCluster(mesh.devices, mesh.links, reroute=False)
    for m in (mesh, static):
        m.apply_link_faults(down=down, degraded=degraded)
    base_graph, graph = reference.rebuild_graphs(
        n, {link.edge: link for link in mesh.links}, mesh.down_links,
        mesh.degraded_links)
    assert mesh.is_connected() == reference.is_connected(graph)
    want_caps = reference.caps(graph)
    assert mesh.update_fluid_caps(0.0) == bool(want_caps)
    if want_caps:
        assert list(mesh.contention.told.items()) == list(want_caps.items())
    faulted = bool(mesh.down_links or mesh.degraded_links)
    asked, asked_static = {}, {}
    no_route = 0
    for src in range(n):
        for dst in range(n):
            want = reference.shortest_path(graph, src, dst)
            assert _live_path(mesh, src, dst) == want, (src, dst)
            if want is None:
                no_route += 1
            elif faulted and src != dst:
                assert mesh.route_info(src, dst).rerouted \
                    == (want != _base_path(asked, base_graph, src, dst))
            else:
                assert not mesh.route_info(src, dst).rerouted
            # static routing answers the fault-free path or nothing
            base = (src,) if src == dst else _base_path(
                asked_static, base_graph, src, dst)
            cut = base is None or any(
                canonical_edge(a, b) in mesh.down_links
                for a, b in zip(base, base[1:]))
            assert _live_path(static, src, dst) == (None if cut else base)
    return no_route


def _random_world(rng):
    n = int(rng.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = rng.random(len(pairs)) < rng.choice([0.15, 0.35, 0.7])
    links = [(*(p if rng.random() < 0.5 else p[::-1]),
              float(rng.choice([10.0, 40.0, 100.0])),
              float(rng.integers(0, 4)))
             for p, k in zip(pairs, keep) if k]
    links = [links[i] for i in rng.permutation(len(links))]
    down = [link[:2] for link in links if rng.random() < 0.2]
    degraded = {link[:2][::-1]: (float(rng.choice([0.5, 0.0])),
                                 float(rng.choice([-link[3], 0.0, 1.0, 2.0])))
                for link in links if rng.random() < 0.2}
    return n, links, down, degraded


def test_seeded_random_meshes_route_as_networkx_did():
    rng = np.random.default_rng(22)
    no_route = sum(check(*_random_world(rng)) for _ in range(400))
    assert no_route > 2_000     # the sparse worlds really are disconnected


def test_isolated_nodes_and_the_lone_device():
    assert check(1, []) == 0
    assert check(4, []) == 12
    assert check(5, [(3, 1, 50.0, 2.0)]) == 18
    # the same edge given twice keeps its first place and its last value
    assert check(3, [(0, 1, 50.0, 1.0), (1, 2, 50.0, 1.0),
                     (1, 0, 80.0, 3.0), (0, 2, 50.0, 4.0)]) == 0


_LINKS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7),
              st.sampled_from([10.0, 40.0, 100.0]),
              st.integers(0, 3).map(float)).filter(lambda t: t[0] != t[1]),
    max_size=16)


@settings(max_examples=150, deadline=None)
@given(links=_LINKS, data=st.data())
def test_any_small_mesh_routes_as_networkx_did(links, data):
    edges = sorted({(min(a, b), max(a, b)) for a, b, _, _ in links})
    down = data.draw(st.lists(st.sampled_from(edges), max_size=4)
                     if edges else st.just([]))
    degraded = data.draw(st.dictionaries(
        st.sampled_from(edges),
        st.tuples(st.sampled_from([1.0, 0.5, 0.0]),
                  st.sampled_from([0.0, 1.0, 3.0])),
        max_size=4) if edges else st.just({}))
    check(8, links, down, degraded)
