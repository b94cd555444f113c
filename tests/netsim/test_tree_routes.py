"""A tree's routes come from its path table, not from a search.

Every star and every line is a tree: ``n - 1`` links joining all ``n``
devices, so each pair has exactly one path whatever the weights, and
:class:`~repro.netsim.mesh.MeshCluster` takes it from the module-level
table (``_tree_paths``) instead of running ``_min_delay_path``.  Here
the table's answer must equal the search's and the networkx oracle's
(``tests/netsim/reference_routes.py``) for every ordered pair of
``hypothesis`` trees — stars, lines and random trees, relabelled, with
links in any order — under random down and degraded edges: the same
path, the same missing routes, the same delay and bandwidth floats, the
same transfer price and the same gateway view (``condition``,
``delay_to``, ``link_to``), with rerouting on and off.  A count law pins
that the table is what answers: a star prices with no search at all, a
ring with at least one.  ``PRICE_KERNEL_N`` sets the example count; CI
multiplies it by ten.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.faults.resilience import NoRouteError
from repro.models import get_model
from repro.netsim import (MeshCluster, MeshLink, NetworkCondition,
                          RouteInfo, line_topology, ring_topology,
                          star_topology)
from repro.netsim import mesh as mesh_module
from repro.partition import Grid, simulate_latency, spatial_plan
from tests.netsim import reference_routes as reference

KERNEL_N = int(os.environ.get("PRICE_KERNEL_N", "100"))


@st.composite
def trees(draw):
    """``(n, links)``: a star, a line or a random tree on ``n`` devices,
    its labels permuted (the gateway need not be a hub or an end), each
    link in either orientation, the links in any order."""
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["star", "line", "random"]))
    if shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif shape == "line":
        pairs = [(i - 1, i) for i in range(1, n)]
    else:
        pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if shape != "star":
        label = draw(st.permutations(range(n)))
        pairs = [(label[a], label[b]) for a, b in pairs]
    # delays whose sums depend on their order, so a path summed the
    # wrong way round shows
    links = [(*(p if draw(st.booleans()) else p[::-1]),
              draw(st.sampled_from([10.0, 40.0, 100.0])),
              draw(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 3.0])))
             for p in pairs]
    return n, draw(st.permutations(links))


def _route(mesh, src, dst):
    mesh.invalidate_routes()
    try:
        return mesh.route_info(src, dst)
    except NoRouteError:
        return None


def _searched(mesh, src, dst):
    """What the search answers on the same overlay, priced the way a
    searched route is."""
    try:
        path = mesh_module._min_delay_path(mesh._adj, src, dst)
    except NoRouteError:
        return None
    return RouteInfo(*mesh_module._walk(mesh._adj, path), path, False)


@settings(max_examples=KERNEL_N, deadline=None)
@given(tree=trees(), data=st.data())
def test_a_tree_routes_as_the_search_and_networkx_do(tree, data):
    n, links = tree
    edges = sorted({(min(a, b), max(a, b)) for a, b, _, _ in links})
    down = data.draw(st.lists(st.sampled_from(edges), max_size=3)
                     if edges else st.just([]))
    degraded = data.draw(st.dictionaries(
        st.sampled_from(edges),
        st.tuples(st.sampled_from([1.0, 0.5, 0.25, 0.0]),
                  st.sampled_from([0.0, 1.0, 3.0])),
        max_size=3) if edges else st.just({}))
    devices = [rpi4() for _ in range(n)]
    live = MeshCluster(devices, [MeshLink(*link) for link in links])
    static = MeshCluster(devices, live.links, reroute=False)
    assert live._tree is not None
    for mesh in (live, static):
        mesh.apply_link_faults(down=down, degraded=degraded)
    _, graph = reference.rebuild_graphs(
        n, {link.edge: link for link in live.links}, live.down_links,
        live.degraded_links)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            want = _searched(live, src, dst)
            assert (want and want.path) \
                == reference.shortest_path(graph, src, dst), (src, dst)
            for mesh in (live, static):
                assert _route(mesh, src, dst) == want, (src, dst)
                mesh.invalidate_routes()
                if want is None:
                    with pytest.raises(NoRouteError):
                        mesh.transfer_time(src, dst, 1e5)
                else:
                    price = ((want.delay_ms + mesh.rpc_overhead_ms) / 1e3
                             + 1e5 * 8.0 / (want.bandwidth_mbps * 1e6))
                    assert mesh.transfer_time(src, dst, 1e5) == price
                    # the way back shares the floats of the way asked
                    # first, as the cached route does
                    mesh.invalidate_routes()
                    mesh.route_info(src, dst)
                    assert mesh.transfer_time(dst, src, 1e5) == price
    # the gateway's view: the route, or the base path where none survives
    for mesh in (live, static):
        mesh.invalidate_routes()
        for i in range(1, n):
            base = mesh._base_path(0, i)
            want = (_searched(mesh, 0, i)
                    or RouteInfo(*mesh_module._walk(mesh._base_adj, base),
                                 base, False))
            assert mesh.delay_to(i) == mesh.link_to(i).delay_ms \
                == mesh.condition.delays_ms[i - 1] == want.delay_ms
            assert mesh.link_to(i).bandwidth_mbps \
                == mesh.condition.bandwidths_mbps[i - 1] == want.bandwidth_mbps


def test_only_a_tree_has_a_path_table():
    table = mesh_module._tree_paths
    assert table(1, frozenset()) == {}
    assert table(3, frozenset({(0, 1), (0, 2)}))[1, 2] == (1, 0, 2)
    assert table(3, frozenset({(0, 1), (1, 2), (0, 2)})) is None   # a ring
    # n - 1 links that close a cycle and leave a device out
    assert table(4, frozenset({(0, 1), (1, 2), (0, 2)})) is None


def _count_searches(monkeypatch):
    calls = []
    search = mesh_module._min_delay_path

    def counted(adj, src, dst):
        calls.append((src, dst))
        return search(adj, src, dst)

    monkeypatch.setattr(mesh_module, "_min_delay_path", counted)
    return calls


def _price_everything(cluster):
    g = get_model("mobilenet_v3_large")
    plan = spatial_plan(g, Grid(2, 2), [0, 1, 2, 1])
    simulate_latency(g, plan, cluster)
    cluster.condition
    for src in range(cluster.num_devices):
        for dst in range(cluster.num_devices):
            cluster.transfer_time(src, dst, 1e5)
            cluster.route_info(src, dst)


def test_a_star_prices_without_a_search_and_a_ring_with_one(monkeypatch):
    calls = _count_searches(monkeypatch)
    devices = [rpi4(), desktop_gtx1080(), jetson_class()]
    star = star_topology(devices, NetworkCondition((80.0, 40.0), (5.0, 9.0)))
    _price_everything(star)
    star.set_condition(NetworkCondition((20.0, 90.0), (7.0, 2.0)))
    _price_everything(star)
    star.apply_link_faults(down=[(0, 2)], degraded={(0, 1): (0.5, 3.0)})
    with pytest.raises(NoRouteError):
        _price_everything(star)
    _price_everything(line_topology(devices, 50.0, 4.0))
    assert calls == []
    _price_everything(ring_topology(devices + [rpi4()], 50.0, 4.0))
    assert calls
