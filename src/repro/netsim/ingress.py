"""The shared ingress uplink every tenant's request payload crosses.

The star abstracts away the client side; on a multi-tenant edge cluster
every request first uploads its input over one last-mile link, and
concurrent uploads fair-share it.  :class:`SharedIngress` describes
that wire to a tracker (``repro.netsim.fluid``, "The tracker
protocol"); :data:`NULL_INGRESS` is a server's uplink when none is
modelled.
"""

from __future__ import annotations

from typing import Annotated, Dict, Optional

from .. import NonNegative, check_fields
from .link import Edge, Link

__all__ = ["SharedIngress", "INGRESS_EDGE", "NULL_INGRESS"]

#: sentinel edge for the client-side ingress uplink (requests enter the
#: gateway over it; device ids are never negative, so it cannot collide)
INGRESS_EDGE: Edge = (-1, 0)


class SharedIngress:
    """A shared last-mile uplink every tenant's request payload crosses.

    Models the one wire the paper's star abstracts away: requests from
    *all* tenants upload their input over the same client-side link
    before the gateway can start serving them.  Concurrent uploads
    fair-share it through ``tracker`` (the ledger pricing it), which is
    where an asymmetric tenant burst physically slows the other tenants
    down.

    :meth:`upload_time` prices an upload without committing it (the
    admission controller peeks at it); :meth:`admit` prices *and*
    registers the flow — only admitted requests occupy the wire.
    """

    payload_bytes: Annotated[float, NonNegative]
    per_tenant_bytes: Annotated[Dict[str, float], NonNegative]

    def __init__(self, link: Link, tracker, payload_bytes: float = 0.0,
                 per_tenant_bytes: Optional[Dict[str, float]] = None):
        self.link = link
        self.tracker = tracker
        self.payload_bytes = float(payload_bytes)
        self.per_tenant_bytes = {tenant: float(nbytes) for tenant, nbytes
                                 in (per_tenant_bytes or {}).items()}
        check_fields(self)

    def _price(self, transfer, arrival: float,
               tenant: Optional[str]) -> float:
        """Describe one tenant's upload to the tracker's ``transfer``
        (its peek or its admit)."""
        link = self.link
        nbytes = self.per_tenant_bytes.get(tenant, self.payload_bytes)
        return transfer(
            (INGRESS_EDGE,), {INGRESS_EDGE: link.bandwidth_bps},
            (link.delay_ms + link.rpc_overhead_ms) / 1e3, nbytes, arrival,
            tenant=tenant, base_s=link.transfer_time(nbytes))

    def set_capacity(self, now: float, bandwidth_mbps: float) -> None:
        """Step the uplink's true bandwidth at simulated time ``now``.

        Replaces the link (delay and RPC overhead preserved) so every
        later admission prices against the new capacity, and tells the
        tracker, which re-converges every *in-flight* upload at ``now``
        (:meth:`FluidTracker.update_caps`) — the mid-flight semantics
        the event core schedules.
        """
        link = self.link.with_conditions(bandwidth_mbps=bandwidth_mbps)
        self.tracker.update_caps(now, {INGRESS_EDGE: link.bandwidth_bps})
        self.link = link

    def upload_time(self, arrival: float,
                    tenant: Optional[str] = None) -> float:
        """Seconds to upload one request payload arriving at ``arrival``."""
        return self._price(self.tracker.peek_transfer, arrival, tenant)

    def admit(self, arrival: float, tenant: Optional[str] = None) -> float:
        """Price the upload and put the flow on the wire."""
        return self._price(self.tracker.admit_transfer, arrival, tenant)


class NullIngress:
    """The ingress of a server with no uplink model: requests are at
    the gateway the instant they arrive."""

    def upload_time(self, arrival, tenant=None) -> float:
        return 0.0

    admit = upload_time


NULL_INGRESS = NullIngress()
