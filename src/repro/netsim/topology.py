"""Device cluster topology.

Murmuration's deployment is a *star*: one local device (the one holding
the input and receiving the result — device id 0) plus N remote devices,
each reachable over its own (bandwidth, delay) link.  Remote-to-remote
traffic relays through the switch, modelled as the composition of the two
links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import check_fields
from ..devices.profiles import DeviceProfile
from .link import LOOPBACK, Delay, Link

__all__ = ["Cluster", "NetworkCondition", "VersionedWorld"]


@dataclass(frozen=True)
class NetworkCondition:
    """Bandwidths/delays for every remote device (index 0 = remote #1).

    This is the "task" of the multi-task RL formulation: a point in the
    joint (bandwidth, delay) space of all remote links.
    """

    bandwidths_mbps: Tuple[float, ...]
    delays_ms: Tuple[float, ...]

    def __post_init__(self):
        if len(self.bandwidths_mbps) != len(self.delays_ms):
            raise ValueError("bandwidths and delays must have equal length")

    @property
    def num_remote(self) -> int:
        return len(self.bandwidths_mbps)

    @staticmethod
    def uniform(num_remote: int, bandwidth_mbps: float,
                delay_ms: float) -> "NetworkCondition":
        return NetworkCondition((bandwidth_mbps,) * num_remote,
                                (delay_ms,) * num_remote)

    def as_vector(self) -> List[float]:
        """Flat [bw..., delay...] vector for state encodings."""
        return list(self.bandwidths_mbps) + list(self.delays_ms)


def no_device(i, num_devices: int) -> ValueError:
    """What a cluster raises for a device id it does not have."""
    return ValueError(f"no device {i}: the cluster has {num_devices} "
                      f"devices (ids 0..{num_devices - 1})")


class VersionedWorld:
    """A cluster's ``version``, bumped by every mutation that can move a
    plan's price and by nothing else (``PlanCostModel.latency`` memoises
    one price per ``(cluster, version)``)."""

    version = 0


class Cluster(VersionedWorld):
    """A local device + remote devices + the links between them."""

    rpc_overhead_ms: Delay

    def __init__(self, devices: Sequence[DeviceProfile],
                 condition: NetworkCondition,
                 rpc_overhead_ms: float = 1.0,
                 contention=None):
        if len(devices) < 1:
            raise ValueError("need at least the local device")
        if condition.num_remote != len(devices) - 1:
            raise ValueError(
                f"condition covers {condition.num_remote} remote devices but "
                f"cluster has {len(devices) - 1}")
        self.devices: List[DeviceProfile] = list(devices)
        self.rpc_overhead_ms = rpc_overhead_ms
        check_fields(self)
        #: the tracker pricing shared wires (netsim.contention, "The
        #: tracker protocol"); None = nobody shares.  Plain attribute:
        #: callers attach one after construction too.
        self.contention = contention
        self.condition = condition
        self._links = self._build_links(condition)

    def _build_links(self, condition: NetworkCondition) -> Dict[int, Link]:
        links = {0: LOOPBACK}
        for i in range(1, len(self.devices)):
            links[i] = Link(bandwidth_mbps=condition.bandwidths_mbps[i - 1],
                            delay_ms=condition.delays_ms[i - 1],
                            rpc_overhead_ms=self.rpc_overhead_ms)
        return links

    # -- queries ---------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def local(self) -> DeviceProfile:
        return self.devices[0]

    def device(self, i: int) -> DeviceProfile:
        try:
            return self.devices[i]
        except IndexError:
            raise no_device(i, self.num_devices) from None

    def link_to(self, i: int) -> Link:
        """Link between the local device and device ``i``."""
        try:
            return self._links[i]
        except KeyError:
            raise no_device(i, self.num_devices) from None

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Transfer time between any two devices.

        Local<->remote uses that remote's link; remote<->remote relays
        through the switch (sum of wire times, max of the two delays once
        each — the star's switch forwards as it receives).
        """
        if src == dst:
            return 0.0
        try:
            if src == 0 or dst == 0:
                other = dst if src == 0 else src
                return self._links[other].transfer_time(nbytes)
            a, b = self._links[src], self._links[dst]
        except KeyError as exc:
            raise no_device(exc.args[0], self.num_devices) from None
        wire = nbytes * 8.0 / min(a.bandwidth_bps, b.bandwidth_bps)
        latency = (a.delay_ms + b.delay_ms + a.rpc_overhead_ms) / 1e3
        return wire + latency

    def _wire(self, src: int, dst: int) -> tuple:
        """The wire a transfer occupies — one spoke, or both on a relay
        — as ``(edges, capacities in bit/s, fixed latency in s)``."""
        if src == 0 or dst == 0:
            other = dst if src == 0 else src
            link = self._links[other]
            return (((0, other),), {(0, other): link.bandwidth_bps},
                    (link.delay_ms + link.rpc_overhead_ms) / 1e3)
        a, b = self._links[src], self._links[dst]
        return (((0, src), (0, dst)),
                {(0, src): a.bandwidth_bps, (0, dst): b.bandwidth_bps},
                (a.delay_ms + b.delay_ms + a.rpc_overhead_ms) / 1e3)

    def timed_transfer(self, src: int, dst: int, nbytes: float,
                       now: float, tenant: Optional[str] = None) -> float:
        """Transfer pricing at simulated time ``now``: the cluster
        describes the wire, its tracker (:attr:`contention`) prices it
        against the flows in flight and remembers the new one.  Without
        a tracker this is :meth:`transfer_time`."""
        base_s = self.transfer_time(src, dst, nbytes)
        if self.contention is None or src == dst:
            return base_s
        edges, caps, latency_s = self._wire(src, dst)
        return self.contention.admit_transfer(
            edges, caps, latency_s, nbytes, now, tenant=tenant,
            base_s=base_s)

    # -- dynamics ----------------------------------------------------------
    def set_condition(self, condition: NetworkCondition) -> None:
        """Apply new network conditions (mobility / contention events);
        a rejected one raises before anything changes."""
        if condition.num_remote != self.num_devices - 1:
            raise ValueError("condition dimensionality changed")
        links = self._build_links(condition)
        self.condition, self._links = condition, links
        self.version += 1

    def update_fluid_caps(self, now: float) -> bool:
        """Hand the cluster's *current* per-spoke capacities to its
        tracker, so the ledger re-converges the transfers in flight at
        ``now``.

        Call after :meth:`set_condition` (or a fault overlay) changed
        the links — the event core does this at each condition step.
        Returns True when there was a tracker to tell.
        """
        if self.contention is None:
            return False
        self.contention.update_caps(
            float(now), {(0, i): self._links[i].bandwidth_bps
                         for i in range(1, self.num_devices)})
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = [d.name for d in self.devices]
        return f"Cluster(devices={names}, condition={self.condition})"
