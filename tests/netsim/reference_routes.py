"""How the mesh routed through networkx, kept verbatim as the test oracle.

These are the graph construction and the three networkx calls of
``src/repro/netsim/mesh.py`` as they stood before the mesh grew its own
adjacency dicts and its own search (PR 22): two ``nx.Graph``s holding
every node, edges added in link order with ``delay`` / ``bandwidth``
attributes, ``nx.shortest_path(..., weight="delay")`` (networkx's
``bidirectional_dijkstra``) for a route, ``nx.is_connected`` for
connectivity and the edge view for the capacities a tracker is told.
``tests/netsim/test_reference_routes.py`` asks it and a live
:class:`repro.netsim.mesh.MeshCluster` about the same links and overlay
and requires ``==`` on every path, ties included.  Do not optimise or tidy
this file.
"""

import pytest

from repro.netsim.link import canonical_edge

nx = pytest.importorskip("networkx")


def rebuild_graphs(num_devices, base, down, degraded):
    """``MeshCluster._rebuild_graphs``: the fault-free graph and the one
    under the overlay, from ``base`` (edge -> ``MeshLink``, link order),
    the ``down`` edge set and ``degraded`` (edge -> (factor, extra))."""
    base_graph, graph = nx.Graph(), nx.Graph()
    for g, overlay in ((base_graph, False), (graph, True)):
        g.clear()
        g.add_nodes_from(range(num_devices))
        for edge, link in base.items():
            bw, delay = link.bandwidth_mbps, link.delay_ms
            if overlay:
                if edge in down:
                    continue
                factor, extra = degraded.get(edge, (1.0, 0.0))
                bw, delay = bw * factor, delay + extra
            g.add_edge(*edge, delay=delay, bandwidth=bw)
    return base_graph, graph


def shortest_path(g, src, dst):
    """The routed path as a tuple, or None when no path survives."""
    try:
        return tuple(nx.shortest_path(g, src, dst, weight="delay"))
    except nx.NetworkXNoPath:
        return None


def is_connected(g):
    return nx.is_connected(g)


def caps(g):
    """What ``update_fluid_caps`` handed the tracker, key order included."""
    return {canonical_edge(a, b): data["bandwidth"] * 1e6
            for a, b, data in g.edges(data=True)}
