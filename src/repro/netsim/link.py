"""Point-to-point links.

The paper shapes a 1 Gbps wired testbed with ``tc`` into (bandwidth,
delay) pairs; a :class:`Link` models exactly those two parameters plus a
fixed per-message RPC overhead (serialization + gRPC framing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["Edge", "Link", "LOOPBACK", "canonical_edge", "check_delay",
           "check_rpc_overhead"]

Edge = Tuple[int, int]


def canonical_edge(a: int, b: int) -> Edge:
    """Canonical (sorted) form of an undirected link or device pair."""
    return (a, b) if a <= b else (b, a)


def check_delay(delay_ms: float) -> float:
    """A link delay must be finite and non-negative (negated test: NaN
    fails every comparison); an infinite one prices every transfer at
    ``inf`` seconds, which no simulated clock can reach."""
    if not 0 <= delay_ms < math.inf:
        raise ValueError(f"delay_ms must be finite and non-negative, "
                         f"got {delay_ms}")
    return delay_ms


def check_rpc_overhead(rpc_overhead_ms: float) -> float:
    """A per-message overhead must be finite and non-negative (negated
    test: NaN fails every comparison); a negative one prices a transfer
    below zero seconds, a NaN one at NaN."""
    if not 0 <= rpc_overhead_ms < math.inf:
        raise ValueError(f"rpc overhead must be finite and non-negative, "
                         f"got {rpc_overhead_ms}")
    return rpc_overhead_ms


@dataclass(frozen=True)
class Link:
    """One direction of a network path between two devices.

    Attributes
    ----------
    bandwidth_mbps : usable bandwidth in megabits/second.
    delay_ms : one-way propagation delay in milliseconds.
    rpc_overhead_ms : fixed per-message cost (serialization, framing).
    """

    bandwidth_mbps: float
    delay_ms: float
    rpc_overhead_ms: float = 1.0

    def __post_init__(self):
        # Negated comparisons: NaN fails every ordering test, so the
        # plain ``<= 0`` / ``< 0`` forms would let it through to price
        # transfers at NaN seconds (which ``max`` then ignores).
        if not self.bandwidth_mbps > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_mbps}")
        check_delay(self.delay_ms)
        check_rpc_overhead(self.rpc_overhead_ms)

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
