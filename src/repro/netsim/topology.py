"""The network condition: one (bandwidth, delay) pair per remote.

Murmuration's deployment is a *star*: one local device (the one holding
the input and receiving the result — device id 0) plus N remote devices,
each reachable over its own (bandwidth, delay) link.  A
:class:`NetworkCondition` is that star's link vector, and the end-to-end
view the monitor samples of any cluster
(:attr:`~repro.netsim.mesh.MeshCluster.condition`); the star itself is
:func:`~repro.netsim.mesh.star_topology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["NetworkCondition"]


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
