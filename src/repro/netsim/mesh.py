"""Arbitrary mesh topologies (extension).

The paper's deployments are stars (one switch); real edge swarms —
drones relaying for each other, multi-hop sensor fields — are not.  This
module generalizes :class:`~repro.netsim.topology.Cluster` to an
arbitrary link graph: transfers route along the minimum-latency path,
paying every hop's delay and the bottleneck hop's bandwidth.

The link graph is two plain adjacency dicts, ``node -> {neighbour:
(delay_ms, bandwidth_mbps)}`` — the base links and the base links under
the fault overlay — each filled in the order the links were given.  The
path search (:func:`_min_delay_path`) is a bidirectional Dijkstra on
delay.  Among equal-delay paths the winner is decided by that search's
own order, which is part of the contract (frozen in
``tests/fixtures/route_digests.json``): the two directions take turns
starting from the source, a heap entry is ``(distance, push number,
node)`` so the earlier push wins a distance tie, neighbours are relaxed
in link order, only a strictly shorter distance replaces a known one,
and the path returned runs through the meeting node of the first
strictly better total seen when a node is settled from both sides.

A :class:`MeshCluster` is a drop-in replacement wherever a ``Cluster``
is consumed (the latency simulator, the executor's transport) because it
exposes the same ``devices`` / ``device()`` / ``transfer_time()``
surface.

Fault-aware routing
-------------------
The mesh carries a *fault overlay* on top of its base link set: links
can be **down** (removed from routing) or **degraded** (bandwidth
scaled, delay added).  Routing always runs on the overlaid graph, so
when a link dies transfers automatically fail over to the next-best
surviving path — paying that path's honest delay and bottleneck
bandwidth — and :meth:`MeshCluster.transfer_time` raises a typed
:class:`~repro.faults.resilience.NoRouteError` when no path survives.
The routing model is link-state: the local runtime's routing table
converges instantly when the overlay changes (a documented
simplification — real protocols converge in seconds, not never).

Only the :class:`~repro.faults.injector.FaultInjector` mutates the
overlay (via :meth:`MeshCluster.apply_link_faults`); the decision layer
still observes the mesh exclusively through the monitor's noisy
end-to-end view (:attr:`MeshCluster.condition`) and its own delivery
outcomes.

Every mutation of the link set — fault overlay *or* base parameters
(:meth:`MeshCluster.set_link_quality`) — bumps ``route_epoch`` and the
world ``version`` and drops the path cache, so neither a cached route
nor a memoised price can go stale.

``reroute=False`` pins routing to the fault-free base paths (static
routing tables): a transfer whose base path crosses a down link fails
even when an alternative exists.  This is the ablation the mesh chaos
benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Annotated, Dict, FrozenSet, Iterable, List, Mapping, \
    Optional, Sequence, Tuple

from .. import Finite, IntAtLeast, Positive, check_fields
from ..devices.profiles import DeviceProfile
from ..faults.resilience import NoRouteError
from .link import Delay, Edge, Link, canonical_edge
from .topology import NetworkCondition, VersionedWorld, no_device

__all__ = ["MeshLink", "RouteInfo", "MeshCluster", "line_topology",
           "ring_topology", "partial_mesh_topology"]


@dataclass(frozen=True)
class MeshLink:
    """One bidirectional edge of the mesh."""

    a: Annotated[int, IntAtLeast(0)]
    b: Annotated[int, IntAtLeast(0)]
    bandwidth_mbps: Annotated[float, Finite, Positive]
    delay_ms: Delay

    def __post_init__(self):
        check_fields(self)
        if self.a == self.b:
            raise ValueError("self-loops are not links")

    @property
    def edge(self) -> Edge:
        return canonical_edge(self.a, self.b)


@dataclass(frozen=True)
class RouteInfo:
    """One resolved route under the current fault overlay."""

    #: total path propagation delay, milliseconds
    delay_ms: float
    #: bottleneck bandwidth along the path, Mbps
    bandwidth_mbps: float
    #: device sequence, endpoints included
    path: Tuple[int, ...]
    #: True when the path differs from the fault-free base path
    rerouted: bool

    @property
    def hops(self) -> int:
        return len(self.path) - 1


#: ``node -> {neighbour: (delay_ms, bandwidth_mbps)}``, both directions
Adjacency = Dict[int, Dict[int, Tuple[float, float]]]


def _min_delay_path(adj: Adjacency, src: int, dst: int) -> Tuple[int, ...]:
    """The min-delay path between two distinct nodes: bidirectional
    Dijkstra.

    The order of every step decides which of several equal-delay paths
    is returned (see the module docstring); delays are non-negative, so
    a settled node is never reached again by a shorter way.  Raises
    :class:`NoRouteError` when the two searches never meet.
    """
    dists = ({}, {})                        # settled, per direction
    seen = ({src: 0}, {dst: 0})             # best known, per direction
    preds = ({src: None}, {dst: None})
    fringe = ([(0, 0, src)], [(0, 1, dst)])
    pushes = 2
    best = meet = None
    side = 1
    while fringe[0] and fringe[1]:
        side = 1 - side
        dist, _, v = heappop(fringe[side])
        if v in dists[side]:
            continue
        dists[side][v] = dist
        if v in dists[1 - side]:
            path, node = [], meet
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meet]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return tuple(path)
        try:
            neighbours = adj[v]
        except KeyError:  # an endpoint the mesh does not have
            raise no_device(v, len(adj)) from None
        for w, (delay, _) in neighbours.items():
            if w in dists[side]:
                continue
            reach = dist + delay
            if w not in seen[side] or reach < seen[side][w]:
                seen[side][w] = reach
                heappush(fringe[side], (reach, pushes, w))
                pushes += 1
                preds[side][w] = v
                if w in seen[1 - side]:
                    total = reach + seen[1 - side][w]
                    if best is None or best > total:
                        best, meet = total, w
    raise NoRouteError(src, dst)


class MeshCluster(VersionedWorld):
    """Devices connected by an arbitrary set of links.

    Routing: min-delay path (Dijkstra on delay over the fault overlay);
    a transfer pays the sum of hop delays, one RPC overhead, and wire
    time at the bottleneck bandwidth along the path (store-and-forward
    pipelining collapses the per-hop serialization to the slowest hop
    for large payloads).
    """

    rpc_overhead_ms: Delay

    def __init__(self, devices: Sequence[DeviceProfile],
                 links: Sequence[MeshLink], rpc_overhead_ms: float = 1.0,
                 reroute: bool = True, contention=None):
        if not devices:
            raise ValueError("need at least one device")
        self.devices: List[DeviceProfile] = list(devices)
        self.rpc_overhead_ms = rpc_overhead_ms
        check_fields(self)
        #: the tracker pricing shared edges; same contract as
        #: Cluster.contention
        self.contention = contention
        #: False pins routing to the fault-free base paths (ablation)
        self.reroute = reroute
        self._base: Dict[Edge, MeshLink] = {}
        n = len(self.devices)
        for link in links:
            if not (0 <= link.a < n and 0 <= link.b < n):
                raise ValueError(f"link {link} references unknown device")
            self._base[link.edge] = link
        # fault overlay: links removed from / degraded in the routing graph
        self._down: FrozenSet[Edge] = frozenset()
        self._degraded: Dict[Edge, Tuple[float, float]] = {}
        #: bumped on every link-set mutation; cached routes from an older
        #: epoch are unreachable because the cache is dropped at the bump
        self.route_epoch = 0
        self._base_adj = self._adj = self._adjacency(overlay=False)
        self._path_cache: Dict[Tuple[int, int], RouteInfo] = {}
        self._base_paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._cond_cache: Optional[NetworkCondition] = None

    # -- link-set mutation -------------------------------------------------
    def _adjacency(self, overlay: bool) -> Adjacency:
        """The base links, or the base links under the fault overlay, as
        a fresh adjacency dict (never mutated once built)."""
        adj: Adjacency = {i: {} for i in range(len(self.devices))}
        for edge, link in self._base.items():
            bw, delay = link.bandwidth_mbps, link.delay_ms
            if overlay:
                if edge in self._down:
                    continue
                factor, extra = self._degraded.get(edge, (1.0, 0.0))
                bw, delay = bw * factor, delay + extra
            a, b = edge
            adj[a][b] = adj[b][a] = (delay, bw)
        return adj

    def _rebuild_overlay(self) -> None:
        """While nothing is faulted the overlaid graph *is* the base
        graph (the same dict), so a fault-free mesh builds one."""
        faulted = bool(self._down or self._degraded)
        self._adj = (self._adjacency(overlay=True) if faulted
                     else self._base_adj)
        self.invalidate_routes()

    def invalidate_routes(self) -> None:
        """Drop every cached route and advance the routing epoch and the
        world version.

        Called automatically by every link-set mutation; exposed for
        callers that mutate the graph through other means.
        """
        self.route_epoch += 1
        self.version += 1
        self._path_cache.clear()
        self._cond_cache = None

    def set_link_quality(self, a: int, b: int,
                         bandwidth_mbps: Optional[float] = None,
                         delay_ms: Optional[float] = None) -> None:
        """Change one base link's parameters (mobility, interference).

        Routes are invalidated: a cached path picked under the old
        parameters may no longer be the minimum-delay one.
        """
        edge = canonical_edge(a, b)
        link = self._base.get(edge)
        if link is None:
            raise ValueError(f"no link between {a} and {b}")
        self._base[edge] = MeshLink(
            link.a, link.b,
            link.bandwidth_mbps if bandwidth_mbps is None else bandwidth_mbps,
            link.delay_ms if delay_ms is None else delay_ms)
        self._base_paths.clear()
        self._base_adj = self._adjacency(overlay=False)
        self._rebuild_overlay()

    def apply_link_faults(
            self, down: Iterable[Edge] = (),
            degraded: Optional[Mapping[Edge, Tuple[float, float]]] = None,
            ) -> bool:
        """Install the fault overlay: ``down`` links leave the routing
        graph, ``degraded`` maps edges to ``(bw_factor, extra_delay_ms)``.

        A link degraded to no bandwidth at all (a factor that is not
        ``> 0``, NaN included) carries nothing, so it is down: transfers
        reroute around it or raise :class:`NoRouteError`, and nothing
        downstream ever divides by its bandwidth.  Edges the mesh does
        not have are ignored (a schedule written for a larger topology,
        mirroring the star's out-of-range tolerance).  An extra delay
        that is not finite, or that takes its link's delay below zero,
        is a ``ValueError`` naming the edge, raised before the overlay
        changes: routing has no answer on such a graph.  Returns True
        when the overlay actually changed (and therefore the path cache
        was invalidated).
        """
        deg = {canonical_edge(*e): (float(f), float(x))
               for e, (f, x) in (degraded or {}).items()
               if canonical_edge(*e) in self._base}
        for e, (_, extra) in deg.items():
            delay = self._base[e].delay_ms
            # negated so that NaN, which fails every comparison, is rejected
            if not (math.isfinite(extra) and delay + extra >= 0):
                raise ValueError(
                    f"link {e}: extra delay {extra} ms on a {delay} ms link "
                    "must be finite and leave the delay non-negative")
        dead = {e for e, (f, _) in deg.items()
                if not self._base[e].bandwidth_mbps * f > 0}
        deg = {e: fx for e, fx in deg.items() if e not in dead}
        down_set = (frozenset(canonical_edge(*e) for e in down)
                    & set(self._base)) | dead
        if down_set == self._down and deg == self._degraded:
            return False
        self._down = down_set
        self._degraded = deg
        self._rebuild_overlay()
        return True

    # -- Cluster-compatible surface ----------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def local(self) -> DeviceProfile:
        return self.devices[0]

    def device(self, i: int) -> DeviceProfile:
        return self.devices[i]

    @property
    def links(self) -> Tuple[MeshLink, ...]:
        """The base (fault-free) link set."""
        return tuple(self._base.values())

    @property
    def base_edges(self) -> FrozenSet[Edge]:
        return frozenset(self._base)

    @property
    def down_links(self) -> FrozenSet[Edge]:
        """Links currently removed from routing by the fault overlay."""
        return self._down

    @property
    def degraded_links(self) -> Dict[Edge, Tuple[float, float]]:
        return dict(self._degraded)

    def link_to(self, i: int) -> Link:
        """Equivalent single link local<->i (for delay introspection)."""
        info = self._route_or_base(0, i)
        return Link(bandwidth_mbps=info.bandwidth_mbps,
                    delay_ms=info.delay_ms,
                    rpc_overhead_ms=self.rpc_overhead_ms)

    def is_connected(self) -> bool:
        """Connectivity of the *current* (fault-overlaid) graph."""
        seen, stack = {0}, [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.devices)

    @property
    def condition(self) -> NetworkCondition:
        """Star-equivalent end-to-end view: the routed (bottleneck bw,
        total delay) from the gateway to every remote device.

        This is what the network monitor samples — the decision layer
        sees path *quality* (a rerouted path shows up as a slower link),
        never the link graph itself.  Remotes with no surviving route
        keep their fault-free base-path view: the monitor's probes to
        them would simply time out, which the transport prices
        separately.
        """
        if self._cond_cache is None:
            bws, delays = [], []
            for i in range(1, len(self.devices)):
                info = self._route_or_base(0, i)
                bws.append(info.bandwidth_mbps)
                delays.append(info.delay_ms)
            self._cond_cache = NetworkCondition(tuple(bws), tuple(delays))
        return self._cond_cache

    def set_condition(self, condition: NetworkCondition) -> None:
        raise NotImplementedError(
            "a mesh has per-link state, not a per-remote condition vector; "
            "use set_link_quality() / apply_link_faults() instead")

    def update_fluid_caps(self, now: float) -> bool:
        """Hand the *surviving* edges' current (fault-overlaid)
        capacities to the tracker.

        Same contract as :meth:`Cluster.update_fluid_caps`: call after
        a link mutation (degradation event, flap transition) changed
        the overlay.  Down edges are simply absent — their capacities
        stay whatever a ledger last saw, which only matters if a flow
        is still riding a severed edge (the transport layer, not the
        ledger, decides that flow's fate); with every edge down there
        is nothing to tell.
        """
        if self.contention is None:
            return False
        # each edge once, from its lower endpoint, in link order
        caps = {(a, b): bw * 1e6 for a, nbrs in self._adj.items()
                for b, (_, bw) in nbrs.items() if a < b}
        if caps:
            self.contention.update_caps(float(now), caps)
        return bool(caps)

    # -- routing -----------------------------------------------------------
    def _base_path(self, src: int, dst: int) -> Tuple[int, ...]:
        key = (src, dst)
        cached = self._base_paths.get(key)
        if cached is not None:
            return cached
        path = _min_delay_path(self._base_adj, src, dst)
        self._base_paths[key] = path
        self._base_paths[(dst, src)] = tuple(reversed(path))
        return path

    @staticmethod
    def _price_path(adj: Adjacency, path: Tuple[int, ...],
                    rerouted: bool) -> RouteInfo:
        delay = 0.0
        bw = float("inf")
        for a, b in zip(path, path[1:]):
            hop_delay, hop_bw = adj[a][b]
            delay += hop_delay
            bw = min(bw, hop_bw)
        return RouteInfo(delay, bw, path, rerouted)

    def route_info(self, src: int, dst: int) -> RouteInfo:
        """Resolve the current route ``src -> dst``.

        With rerouting enabled this is the min-delay path on the
        fault-overlaid graph (``rerouted=True`` when it differs from the
        fault-free base path); with ``reroute=False`` it is always the
        base path, priced under the overlay's degradations, and raises
        :class:`NoRouteError` if any base-path link is down.
        """
        if src == dst:
            return RouteInfo(0.0, float("inf"), (src,), False)
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if not self.reroute:
            path = self._base_path(src, dst)
            if any(canonical_edge(a, b) in self._down
                   for a, b in zip(path, path[1:])):
                raise NoRouteError(src, dst)
            info = self._price_path(self._adj, path, False)
        else:
            path = _min_delay_path(self._adj, src, dst)
            # Any overlay (down *or* degraded links) can move the
            # min-delay path off the fault-free one; comparing against
            # the base path whenever an overlay is active is what makes
            # degradation-induced reroutes visible to the counters.
            rerouted = (bool(self._down or self._degraded)
                        and path != self._base_path(src, dst))
            info = self._price_path(self._adj, path, rerouted)
        self._path_cache[key] = info
        self._path_cache[(dst, src)] = RouteInfo(
            info.delay_ms, info.bandwidth_mbps,
            tuple(reversed(info.path)), info.rerouted)
        return info

    def _route_or_base(self, src: int, dst: int) -> RouteInfo:
        """Current route, falling back to the fault-free base path when
        no route survives (monitor-view helper)."""
        try:
            return self.route_info(src, dst)
        except NoRouteError:
            try:
                path = self._base_path(src, dst)
            except NoRouteError:
                # never connected, even fault-free: an effectively dead
                # pair (sentinel values; nothing routes work through it)
                return RouteInfo(1e6, 1e-6, (src, dst), False)
            return self._price_path(self._base_adj, path, False)

    def has_route(self, src: int, dst: int) -> bool:
        """Does a path survive the current fault overlay?"""
        try:
            self.route_info(src, dst)
            return True
        except NoRouteError:
            return False

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        if src == dst:
            return 0.0
        info = self.route_info(src, dst)
        return ((info.delay_ms + self.rpc_overhead_ms) / 1e3
                + nbytes * 8.0 / (info.bandwidth_mbps * 1e6))

    def timed_transfer(self, src: int, dst: int, nbytes: float,
                       now: float, tenant: Optional[str] = None) -> float:
        """Routed transfer pricing at simulated time ``now``.

        The mesh describes the wire — every edge of the current route
        with its overlaid capacity — and its tracker prices it: two
        routed paths that only overlap on one bottleneck edge contend
        exactly there.  Without a tracker this is :meth:`transfer_time`.
        """
        base_s = self.transfer_time(src, dst, nbytes)
        if self.contention is None or src == dst:
            return base_s
        info = self.route_info(src, dst)
        edges = tuple(canonical_edge(a, b)
                      for a, b in zip(info.path, info.path[1:]))
        caps = {(a, b): self._adj[a][b][1] * 1e6 for a, b in edges}
        return self.contention.admit_transfer(
            edges, caps, (info.delay_ms + self.rpc_overhead_ms) / 1e3,
            nbytes, now, tenant=tenant, base_s=base_s)

    def hop_count(self, src: int, dst: int) -> int:
        """Hops on the *current* route (a reroute may lengthen it)."""
        if src == dst:
            return 0
        return self.route_info(src, dst).hops

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MeshCluster({len(self.devices)} devices, "
                f"{len(self._base)} links, {len(self._down)} down, "
                f"epoch={self.route_epoch})")


def line_topology(devices: Sequence[DeviceProfile], bandwidth_mbps: float,
                  delay_ms: float, reroute: bool = True) -> MeshCluster:
    """A relay chain: 0 - 1 - 2 - ... (drone daisy-chains)."""
    links = [MeshLink(i, i + 1, bandwidth_mbps, delay_ms)
             for i in range(len(devices) - 1)]
    return MeshCluster(devices, links, reroute=reroute)


def ring_topology(devices: Sequence[DeviceProfile], bandwidth_mbps: float,
                  delay_ms: float, reroute: bool = True) -> MeshCluster:
    """A ring: the chain plus a closing edge (two disjoint routes)."""
    n = len(devices)
    links = [MeshLink(i, (i + 1) % n, bandwidth_mbps, delay_ms)
             for i in range(n)]
    return MeshCluster(devices, links, reroute=reroute)


def partial_mesh_topology(devices: Sequence[DeviceProfile],
                          bandwidth_mbps: float, delay_ms: float,
                          chords: Sequence[Edge] = (),
                          reroute: bool = True) -> MeshCluster:
    """A ring plus chord links (partial mesh): more disjoint routes than
    a ring, fewer than a clique — the realistic edge-swarm shape."""
    n = len(devices)
    links = [MeshLink(i, (i + 1) % n, bandwidth_mbps, delay_ms)
             for i in range(n)]
    for a, b in chords:
        links.append(MeshLink(a, b, bandwidth_mbps, delay_ms))
    return MeshCluster(devices, links, reroute=reroute)
