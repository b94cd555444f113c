"""Cluster topologies: devices joined by a link graph.

A cluster is a set of devices and the links between them; device 0 is
the gateway, which holds the input and receives the result.  The
paper's deployment is a *star* (:func:`star_topology`): every remote
device reaches the gateway over its own (bandwidth, delay) link and
remote-to-remote traffic relays through the switch.  Real edge swarms —
drones relaying for each other, multi-hop sensor fields — are other
shapes of the same graph (:func:`line_topology`, :func:`ring_topology`,
:func:`partial_mesh_topology`).  A transfer routes along the
minimum-delay path, paying every hop's delay, one RPC overhead and the
bottleneck hop's bandwidth.

The link graph is two plain adjacency dicts, ``node -> {neighbour:
(delay_ms, bandwidth_mbps)}`` — the base links and the base links under
the fault overlay — each filled in the order the links were given.

Routes
------
In a tree (``n - 1`` links joining all ``n`` devices: every star, every
line) each pair has exactly one path, whatever the weights.  Its paths
come from a module-level table keyed by the device count and the base
edge set (:func:`_tree_paths`); a route is that path priced on the
current overlay, and a down edge on it leaves no route.  A graph with a
cycle routes with :func:`_min_delay_path`, a bidirectional Dijkstra on
delay.  Among equal-delay paths the winner is decided by that search's
own order, which is part of the contract (frozen in
``tests/fixtures/route_digests.json``): the two directions take turns
starting from the source, a heap entry is ``(distance, push number,
node)`` so the earlier push wins a distance tie, neighbours are relaxed
in link order, only a strictly shorter distance replaces a known one,
and the path returned runs through the meeting node of the first
strictly better total seen when a node is settled from both sides.

Fault-aware routing
-------------------
The cluster carries a *fault overlay* on top of its base link set:
links can be **down** (removed from routing) or **degraded** (bandwidth
scaled, delay added).  Routing always runs on the overlaid graph, so
when a link dies transfers fail over to the next-best surviving path —
paying that path's honest delay and bottleneck bandwidth — and
:meth:`MeshCluster.transfer_time` raises a typed
:class:`~repro.faults.resilience.NoRouteError` when no path survives
(on a star, when the remote's spoke is down).  The routing model is
link-state: the local runtime's routing table converges instantly when
the overlay changes (a documented simplification — real protocols
converge in seconds, not never).

Only the :class:`~repro.faults.injector.FaultInjector` mutates the
overlay (via :meth:`MeshCluster.apply_link_faults`); the decision layer
still observes the cluster exclusively through the monitor's noisy
end-to-end view (:attr:`MeshCluster.condition`) and its own delivery
outcomes.

Every mutation of the link set — fault overlay, base parameters
(:meth:`MeshCluster.set_link_quality`) or a star's spokes
(:meth:`MeshCluster.set_condition`) — bumps ``route_epoch`` and the
world ``version`` and drops the route cache, so neither a cached route
nor a memoised price can go stale.

``reroute=False`` pins routing to the fault-free base paths (static
routing tables): a transfer whose base path crosses a down link fails
even when an alternative exists.  This is the ablation the mesh chaos
benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Annotated, Dict, FrozenSet, Iterable, List, Mapping, \
    NamedTuple, Optional, Sequence, Tuple

from .. import Finite, IntAtLeast, Positive, check_fields
from ..devices.profiles import DeviceProfile
from ..faults.resilience import NoRouteError
from .link import Delay, Edge, Link, canonical_edge
from .topology import NetworkCondition

__all__ = ["MeshLink", "RouteInfo", "MeshCluster", "star_topology",
           "line_topology", "ring_topology", "partial_mesh_topology"]


def no_device(i, num_devices: int) -> ValueError:
    """What a cluster raises for a device id it does not have."""
    return ValueError(f"no device {i}: the cluster has {num_devices} "
                      f"devices (ids 0..{num_devices - 1})")


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


class RouteInfo(NamedTuple):
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
#: ``(src, dst) -> path``, endpoints included, for every ordered pair
Paths = Dict[Tuple[int, int], Tuple[int, ...]]


def _walk(adj: Adjacency, path: Tuple[int, ...]) -> Tuple[float, float]:
    """``path``'s total delay and bottleneck bandwidth on ``adj``; a hop
    ``adj`` lacks (down under the overlay) leaves no route."""
    delay = 0.0
    bw = math.inf
    try:
        for a, b in zip(path, path[1:]):
            hop_delay, hop_bw = adj[a][b]
            delay += hop_delay
            if hop_bw < bw:
                bw = hop_bw
    except KeyError:
        raise NoRouteError(path[0], path[-1]) from None
    return delay, bw


@lru_cache(maxsize=256)
def _tree_paths(n: int, edges: FrozenSet[Edge]) -> Optional[Paths]:
    """Every ordered pair's one path when ``edges`` join all ``n``
    devices with ``n - 1`` links (a tree), else None.

    A tree's paths do not depend on its weights, so they are computed
    once per edge set and shared by every cluster of that shape (the
    table is never mutated).  Each path is the unique simple path, the
    one :func:`_min_delay_path` finds on any weights.
    """
    if len(edges) != n - 1:
        return None
    nbrs: Dict[int, List[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    paths: Paths = {}
    for src in range(n):
        # a depth-first walk: each device's path is its parent's plus it
        found = {src: (src,)}
        stack = [src]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if w not in found:
                    found[w] = found[v] + (w,)
                    stack.append(w)
        if len(found) < n:      # n - 1 links that leave a device out
            return None         # close a cycle elsewhere
        for dst, path in found.items():
            if dst != src:
                paths[src, dst] = path
    return paths


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


class MeshCluster:
    """Devices joined by a set of links.

    Routing: the tree's one path, or the min-delay path over the fault
    overlay (module docstring); a transfer pays the sum of hop delays,
    one RPC overhead, and wire time at the bottleneck bandwidth along
    the path (store-and-forward pipelining collapses the per-hop
    serialization to the slowest hop for large payloads).
    """

    rpc_overhead_ms: Delay
    #: bumped by every mutation that can move a plan's price and by
    #: nothing else (``PlanCostModel.latency`` memoises one price per
    #: ``(cluster, version)``)
    version = 0

    def __init__(self, devices: Sequence[DeviceProfile],
                 links: Sequence[MeshLink], rpc_overhead_ms: float = 1.0,
                 reroute: bool = True):
        if not devices:
            raise ValueError("need at least one device")
        self.devices: List[DeviceProfile] = list(devices)
        self.rpc_overhead_ms = rpc_overhead_ms
        check_fields(self)
        #: the tracker pricing shared edges (``netsim.fluid``, "The
        #: tracker protocol"); None = nobody shares.  The one way in:
        #: callers attach a tracker after construction.
        self.contention = None
        #: False pins routing to the fault-free base paths (ablation)
        self.reroute = reroute
        #: edge -> its base ``(delay_ms, bandwidth_mbps)``, in link order
        self._base: Dict[Edge, Tuple[float, float]] = {}
        n = len(self.devices)
        for link in links:
            if not (0 <= link.a < n and 0 <= link.b < n):
                raise ValueError(f"link {link} references unknown device")
            self._base[link.edge] = (link.delay_ms, link.bandwidth_mbps)
        #: every pair's path when the graph is a tree, else None
        self._tree = _tree_paths(n, frozenset(self._base))
        #: every link a spoke from the gateway: a per-remote condition
        #: vector describes it (set_condition)
        self._star = (self._tree is not None
                      and all(a == 0 for a, _ in self._base))
        # fault overlay: links removed from / degraded in the routing graph
        self._down: FrozenSet[Edge] = frozenset()
        self._degraded: Dict[Edge, Tuple[float, float]] = {}
        #: bumped on every link-set mutation; cached routes from an older
        #: epoch are unreachable because the cache is dropped at the bump
        self.route_epoch = 0
        self._base_adj = self._adj = self._adjacency(overlay=False)
        self._path_cache: Dict[Tuple[int, int], RouteInfo] = {}
        #: ``(src, dst) -> (fixed latency s, bottleneck bit/s)`` of the
        #: current route: what a transfer pays besides its bytes
        self._wires: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._base_paths: Paths = {}
        self._cond_cache: Optional[NetworkCondition] = None

    # -- link-set mutation -------------------------------------------------
    def _adjacency(self, overlay: bool) -> Adjacency:
        """The base links, or the base links under the fault overlay, as
        a fresh adjacency dict (never mutated once built)."""
        adj: Adjacency = {i: {} for i in range(len(self.devices))}
        for edge, hop in self._base.items():
            if overlay:
                if edge in self._down:
                    continue
                factor, extra = self._degraded.get(edge, (1.0, 0.0))
                hop = (hop[0] + extra, hop[1] * factor)
            a, b = edge
            adj[a][b] = adj[b][a] = hop
        return adj

    def _rebuild_overlay(self) -> None:
        """While nothing is faulted the overlaid graph *is* the base
        graph (the same dict), so a fault-free cluster builds one."""
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
        self._wires.clear()
        self._cond_cache = None

    def set_condition(self, condition: NetworkCondition) -> None:
        """Give a star's spokes ``condition``: remote ``i``'s link to
        the gateway takes the bandwidth and delay at index ``i - 1``.

        While no fault overlays the spokes, the star keeps the
        ``condition`` object itself as its :attr:`condition`, and
        re-applying the object it holds changes nothing (its ``version``
        and memoised prices stay).  A rejected condition raises before
        anything changes.  Any other shape has per-link state, not a
        per-remote vector.
        """
        if not self._star:
            raise NotImplementedError(
                "only a star has a per-remote condition vector; use "
                "set_link_quality() / apply_link_faults() instead")
        faulted = bool(self._down or self._degraded)
        if condition is self._cond_cache and not faulted:
            return
        n = len(self.devices)
        bws, delays = condition.bandwidths_mbps, condition.delays_ms
        if len(bws) != n - 1:
            raise ValueError("condition dimensionality changed")
        # the base links and their adjacency (_adjacency's, in one pass)
        base, hub = {}, {}
        adj = {0: hub}
        for i, (bw, delay) in enumerate(zip(bws, delays), 1):
            # MeshLink's domains, tested inline; one it rejects raises
            # naming the field and the value
            if not (0.0 < bw < math.inf and 0.0 <= delay <= 1e9):
                MeshLink(0, i, bw, delay)
            base[0, i] = hub[i] = hop = (delay, bw)
            adj[i] = {0: hop}
        self._base, self._base_adj = base, adj
        self._rebuild_overlay()
        if not faulted:
            self._cond_cache = condition
            # each spoke's wire, the floats _wire would compute (one
            # hop: the same sum either way)
            rpc, wires = self.rpc_overhead_ms, self._wires
            for i, (delay, bw) in enumerate(zip(delays, bws), 1):
                wires[0, i] = wires[i, 0] = ((0.0 + delay + rpc) / 1e3,
                                             bw * 1e6)

    def set_link_quality(self, a: int, b: int,
                         bandwidth_mbps: Optional[float] = None,
                         delay_ms: Optional[float] = None) -> None:
        """Change one base link's parameters (mobility, interference).

        Routes are invalidated: a cached path picked under the old
        parameters may no longer be the minimum-delay one.
        """
        edge = canonical_edge(a, b)
        hop = self._base.get(edge)
        if hop is None:
            raise ValueError(f"no link between {a} and {b}")
        link = MeshLink(*edge, hop[1] if bandwidth_mbps is None
                        else bandwidth_mbps,
                        hop[0] if delay_ms is None else delay_ms)
        self._base[edge] = (link.delay_ms, link.bandwidth_mbps)
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
        downstream ever divides by its bandwidth.  Edges the cluster
        does not have are ignored (a schedule written for a larger
        topology).  An extra delay that is not finite, or that takes its
        link's delay below zero, is a ``ValueError`` naming the edge,
        raised before the overlay changes: routing has no answer on such
        a graph.  Returns True when the overlay actually changed (and
        therefore the route cache was invalidated).
        """
        deg = {canonical_edge(*e): (float(f), float(x))
               for e, (f, x) in (degraded or {}).items()
               if canonical_edge(*e) in self._base}
        for e, (_, extra) in deg.items():
            delay = self._base[e][0]
            # negated so that NaN, which fails every comparison, is rejected
            if not (math.isfinite(extra) and delay + extra >= 0):
                raise ValueError(
                    f"link {e}: extra delay {extra} ms on a {delay} ms link "
                    "must be finite and leave the delay non-negative")
        dead = {e for e, (f, _) in deg.items()
                if not self._base[e][1] * f > 0}
        deg = {e: fx for e, fx in deg.items() if e not in dead}
        down_set = (frozenset(canonical_edge(*e) for e in down)
                    & set(self._base)) | dead
        if down_set == self._down and deg == self._degraded:
            return False
        self._down = down_set
        self._degraded = deg
        self._rebuild_overlay()
        return True

    # -- queries -----------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def local(self) -> DeviceProfile:
        return self.devices[0]

    def device(self, i: int) -> DeviceProfile:
        if not 0 <= i < len(self.devices):
            raise no_device(i, len(self.devices))
        return self.devices[i]

    @property
    def links(self) -> Tuple[MeshLink, ...]:
        """The base (fault-free) link set."""
        return tuple(MeshLink(a, b, bw, delay)
                     for (a, b), (delay, bw) in self._base.items())

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

    def delay_to(self, i: int) -> float:
        """One-way delay (ms) of the gateway's route to ``i``: what the
        price walkers read of :meth:`link_to`, without building it."""
        return self._view(i)[0]

    def link_to(self, i: int) -> Link:
        """Equivalent single link local<->i (for delay introspection)."""
        delay, bw = self._view(i)
        return Link(bandwidth_mbps=bw, delay_ms=delay,
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
        total delay) from the gateway to every remote device — on a
        star under no fault, the condition it was given.

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
                delay, bw = self._view(i)
                bws.append(bw)
                delays.append(delay)
            self._cond_cache = NetworkCondition(tuple(bws), tuple(delays))
        return self._cond_cache

    def update_fluid_caps(self, now: float) -> bool:
        """Hand the *surviving* edges' current (fault-overlaid)
        capacities to the tracker, so the ledger re-converges the
        transfers in flight at ``now``.

        Call after a link mutation (a condition step, a degradation
        event, a flap transition) changed the links.  Down edges are
        simply absent — their capacities stay whatever a ledger last
        saw, which only matters if a flow is still riding a severed edge
        (the transport layer, not the ledger, decides that flow's fate);
        with every edge down there is nothing to tell.  Returns True
        when there was a tracker told something.
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
        """The fault-free path: the tree's one path, or Dijkstra's on
        the base graph (cached until a base link changes)."""
        tree = self._tree
        if tree is not None:
            try:
                return tree[src, dst]
            except KeyError:
                n = len(self.devices)
                raise no_device(dst if 0 <= src < n else src, n) from None
        key = (src, dst)
        cached = self._base_paths.get(key)
        if cached is not None:
            return cached
        path = _min_delay_path(self._base_adj, src, dst)
        self._base_paths[key] = path
        self._base_paths[(dst, src)] = tuple(reversed(path))
        return path

    def route_info(self, src: int, dst: int) -> RouteInfo:
        """Resolve the current route ``src -> dst``.

        On a tree, or with ``reroute=False``, this is the fault-free
        base path priced under the overlay's degradations, and it raises
        :class:`NoRouteError` if any of its links is down.  Otherwise it
        is the min-delay path on the fault-overlaid graph
        (``rerouted=True`` when it differs from the base path).
        """
        if src == dst:
            return RouteInfo(0.0, math.inf, (src,), False)
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if self._tree is not None or not self.reroute:
            path = self._base_path(src, dst)
            info = RouteInfo(*_walk(self._adj, path), path, False)
        else:
            path = _min_delay_path(self._adj, src, dst)
            # Any overlay (down *or* degraded links) can move the
            # min-delay path off the fault-free one; comparing against
            # the base path whenever an overlay is active is what makes
            # degradation-induced reroutes visible to the counters.
            rerouted = (bool(self._down or self._degraded)
                        and path != self._base_path(src, dst))
            info = RouteInfo(*_walk(self._adj, path), path, rerouted)
        self._path_cache[key] = info
        self._path_cache[(dst, src)] = RouteInfo(
            info.delay_ms, info.bandwidth_mbps, info.path[::-1],
            info.rerouted)
        return info

    def _view(self, i: int) -> Tuple[float, float]:
        """``(delay_ms, bandwidth_mbps)`` from the gateway to ``i`` on the
        current route, or on the fault-free base path when no route
        survives (the monitor's view).  A star's is its spoke, read
        without resolving a route: one hop sums the same either way."""
        if self._star and i:
            hop = self._adj[0].get(i) or self._base_adj[0].get(i)
            if hop is None:
                raise no_device(i, len(self.devices))
            return 0.0 + hop[0], hop[1]
        try:
            delay, bw, _, _ = self.route_info(0, i)
            return delay, bw
        except NoRouteError:
            try:
                return _walk(self._base_adj, self._base_path(0, i))
            except NoRouteError:
                # never connected, even fault-free: an effectively dead
                # pair (sentinel values; nothing routes work through it)
                return 1e6, 1e-6

    def has_route(self, src: int, dst: int) -> bool:
        """Does a path survive the current fault overlay?"""
        try:
            self.route_info(src, dst)
            return True
        except NoRouteError:
            return False

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over the current route: its delay
        and one RPC overhead, plus wire time at its bottleneck."""
        if src == dst:
            return 0.0
        wire = self._wires.get((src, dst)) or self._wire(src, dst)
        return wire[0] + nbytes * 8.0 / wire[1]

    def _wire(self, src: int, dst: int) -> Tuple[float, float]:
        """The current route's ``(fixed latency s, bottleneck bit/s)``,
        remembered both ways until the link set changes.  It reads the
        route, whose cached floats both directions share: a path of
        three or more hops sums its delays in the order first asked."""
        delay, bw, _, _ = self.route_info(src, dst)
        wire = self._wires[src, dst] = self._wires[dst, src] = (
            (delay + self.rpc_overhead_ms) / 1e3, bw * 1e6)
        return wire

    def timed_transfer(self, src: int, dst: int, nbytes: float,
                       now: float, tenant: Optional[str] = None) -> float:
        """Routed transfer pricing at simulated time ``now``.

        The cluster describes the wire — every edge of the current route
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


def star_topology(devices: Sequence[DeviceProfile],
                  condition: NetworkCondition,
                  rpc_overhead_ms: float = 1.0) -> MeshCluster:
    """The paper's deployment: every remote reaches the gateway (device
    0) over its own link through one switch, remote ``i``'s at
    ``condition``'s index ``i - 1``; remote-to-remote traffic relays
    through the switch (both spokes' delays, the slower one's
    bandwidth).  The star holds ``condition`` as its :attr:`condition`
    until a fault overlays it; :meth:`MeshCluster.set_condition` moves
    it."""
    if condition.num_remote != max(len(devices) - 1, 0):
        raise ValueError(
            f"condition covers {condition.num_remote} remote devices but "
            f"cluster has {len(devices) - 1}")
    spokes = [MeshLink(0, i, bw, delay) for i, (bw, delay) in enumerate(
        zip(condition.bandwidths_mbps, condition.delays_ms), 1)]
    star = MeshCluster(devices, spokes, rpc_overhead_ms)
    star._cond_cache = condition
    return star


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
