"""Point-to-point links.

The paper shapes a 1 Gbps wired testbed with ``tc`` into (bandwidth,
delay) pairs; a :class:`Link` models exactly those two parameters plus a
fixed per-message RPC overhead (serialization + gRPC framing).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated, Tuple

from .. import Checked, Domain, Positive

__all__ = ["Delay", "Edge", "Link", "LOOPBACK", "canonical_edge"]

Edge = Tuple[int, int]
#: a delay in milliseconds: at most 1e9, so a path or a retry chain
#: summing many of them stays finite
Delay = Annotated[float, Domain("finite, non-negative and at most 1e9 ms",
                                lambda v: 0.0 <= v <= 1e9)]


def canonical_edge(a: int, b: int) -> Edge:
    """Canonical (sorted) form of an undirected link or device pair."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Link(Checked):
    """One direction of a network path between two devices.

    Attributes
    ----------
    bandwidth_mbps : usable bandwidth in megabits/second.
    delay_ms : one-way propagation delay in milliseconds.
    rpc_overhead_ms : fixed per-message cost (serialization, framing).
    """

    bandwidth_mbps: Annotated[float, Positive]
    delay_ms: Delay
    rpc_overhead_ms: Delay = 1.0

    @property
    def bandwidth_bps(self) -> float:
        return self.bandwidth_mbps * 1e6

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to deliver ``nbytes``: delay + serialization + wire time."""
        return ((self.delay_ms + self.rpc_overhead_ms) / 1e3
                + nbytes * 8.0 / self.bandwidth_bps)

    def with_conditions(self, bandwidth_mbps: float = None,
                        delay_ms: float = None) -> "Link":
        """Copy with updated conditions (dynamic-environment updates)."""
        kw = {}
        if bandwidth_mbps is not None:
            kw["bandwidth_mbps"] = bandwidth_mbps
        if delay_ms is not None:
            kw["delay_ms"] = delay_ms
        return replace(self, **kw)


#: Zero-cost link a device has to itself.
LOOPBACK = Link(bandwidth_mbps=1e9, delay_ms=0.0, rpc_overhead_ms=0.0)
