"""In-process RPC substitute for gRPC.

The paper's devices exchange activation tensors over gRPC; here the
"wire" is a function call whose cost is charged to the simulated clock
via the cluster's link model — and whose payload really is the
(optionally quantized) tensor, so precision loss is physically incurred,
not just priced.

Failure semantics (``faults=``, the null injector when absent): a
cross-device send is delivered on its first attempt, or its peer is
unreachable.  The fault state moves only between dispatches, so every
attempt of one send meets the same peer and a retry never helps.  The
sender learns of a dead peer only when its ack timeouts expire, after
the whole exponential backoff schedule of
:mod:`~repro.faults.resilience`;
:class:`~repro.faults.resilience.DeviceUnreachableError` carries that
wasted time and the retries for the caller to charge to the request.

On a mesh cluster the wire is a *path*: a pair whose route differs
from the fault-free one rides its backup path at that path's honest
latency, and :class:`Reroutes` counts it.  Health observations are
recorded per endpoint *and* per endpoint pair, at the send's time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from ..faults.health import DeviceHealth
from ..faults.injector import FaultInjector
from ..faults.resilience import (MAX_RETRIES, DeviceUnreachableError,
                                 NoRouteError)
from ..netsim.mesh import MeshCluster
from ..nn.quantize import QuantizedTensor, dequantize, quantize
from ..telemetry import Telemetry

__all__ = ["Message", "Transport", "Reroutes"]


@dataclass
class Message:
    """One delivered payload with accounting metadata.

    ``request_id`` stitches cross-device messages back to the serving
    request that caused them.
    """

    src: int
    dst: int
    payload: Any
    nbytes: int
    sent_at: float
    delivered_at: float
    request_id: Optional[int] = None


class Reroutes:
    """Counts deliveries that rode a backup mesh path.

    A pair is rerouted when its current route differs from the
    fault-free base path; the extra latency was already paid in
    ``transfer_time``, this makes it visible as
    ``transport_reroute_total`` and per-pair
    ``transport_link_reroutes_total``.  The transport notes each
    delivery; plan-only serving, which sends nothing, notes each
    (request, remote).  A tree (a star) has one path per pair and never
    counts.
    """

    def __init__(self, cluster: MeshCluster, telemetry: Telemetry):
        self._route_info = cluster.route_info
        reg = telemetry.registry.child("transport")
        self._count = reg.counters(
            "reroute_total", "deliveries that travelled a non-base path")
        self._count_link = reg.counters(
            "link_reroutes_total", "rerouted deliveries per device pair",
            "link")

    def note(self, src: int, dst: int) -> bool:
        """Count one delivery between the pair if it rode a backup path
        (a pair with no route at all did not); True if it did."""
        try:
            if not self._route_info(src, dst).rerouted:
                return False
        except NoRouteError:
            return False
        self._count()
        self._count_link(f"{src}-{dst}")
        return True


class Transport:
    """Message channel between cluster devices with full accounting.

    ``total_bytes``/``num_messages`` are O(1) running
    aggregates over the current log window; :meth:`reset_log` clears the
    log *and* these aggregates together, so they always agree with
    ``self.log``.  Telemetry counters (``transport_bytes_total``,
    ``transport_retries_total``, ...) are monotonic by design — they
    survive resets, tracking the unbounded-horizon totals.
    """

    def __init__(self, cluster: MeshCluster,
                 telemetry: Optional[Telemetry] = None,
                 faults=None, health=None):
        self.cluster = cluster
        self.log: List[Message] = []
        self.telemetry = Telemetry.of(telemetry)
        self.faults = FaultInjector.of(faults)
        self.health = DeviceHealth.of(health)
        #: request id stamped onto every message until changed
        self.request_id: Optional[int] = None
        #: tenant tag attributed to every transfer until changed
        #: (feeds the contention tracker's per-tenant accounting)
        self.tenant: Optional[str] = None
        self._total_bytes = 0
        self._num_messages = 0
        self._reg = self.telemetry.registry.child("transport")
        self._m_bytes = self._reg.counter(
            "bytes_total", help="payload bytes on the wire")
        self._m_messages = self._reg.counter(
            "messages_total", help="cross-device messages")
        self._m_transfer = self._reg.histogram(
            "transfer_s", help="simulated per-message transfer time")
        self._m_retries = self._reg.counter(
            "retries_total", help="message re-transmissions")
        self._m_unreachable = self._reg.counter(
            "unreachable_total", help="sends that exhausted every retry")
        # exported even at zero, unlike plan-only serving's
        self._reg.counter("reroute_total",
                          help="deliveries that travelled a non-base path")
        self._reroutes = Reroutes(cluster, self.telemetry)

    def _account(self, msg: Message, bits: Optional[int] = None) -> None:
        """Record one cross-device delivery in the telemetry registry."""
        self._m_bytes.inc(msg.nbytes)
        self._m_messages.inc()
        self._m_transfer.observe(msg.delivered_at - msg.sent_at)
        link = f"{msg.src}-{msg.dst}"
        self._reg.counter("link_bytes_total",
                          help="payload bytes per link", link=link,
                          ).inc(msg.nbytes)
        self._reg.histogram("link_transfer_s",
                            help="simulated transfer time per link",
                            link=link).observe(msg.delivered_at - msg.sent_at)
        if bits is not None:
            self._reg.counter("quantized_messages_total",
                              help="tensor messages by wire precision",
                              bits=bits).inc()

    def _reach(self, src: int, dst: int, now: float) -> None:
        """Check that ``dst`` can hear ``src`` for one delivery, and
        teach the breakers the outcome.

        Raises :class:`DeviceUnreachableError` when it cannot: every
        attempt would time out.  The blamed device is the remote
        endpoint (the peer we cannot reach — never the gateway, which is
        the caller itself).
        """
        if self.faults.reachable(src, dst):
            for d in (src, dst):  # the gateway's is a no-op
                self.health.record_success(d, now)
            self.health.record_link_success(src, dst, now)
            return
        device = dst if dst != 0 else src
        self.health.record_failure(device, now)
        self.health.record_link_failure(src, dst, now)
        self._m_retries.inc(MAX_RETRIES)
        self._m_unreachable.inc()
        raise DeviceUnreachableError(device)

    def _send(self, src: int, dst: int, payload: Any, nbytes: int,
              now: float, bits: Optional[int] = None) -> Message:
        """Price, log and account one message (free when ``src == dst``)."""
        delivered = now
        if src != dst:
            self._reach(src, dst, now)
            # the cluster's tracker, if it has one, prices the wire
            # against the flows in flight when the send goes out
            delivered = now + self.cluster.timed_transfer(
                src, dst, nbytes, now, tenant=self.tenant)
        msg = Message(src, dst, payload, nbytes, now, delivered,
                      request_id=self.request_id)
        self.log.append(msg)
        if src != dst:
            self._total_bytes += nbytes
            self._num_messages += 1
            self._reroutes.note(src, dst)
            self._account(msg, bits=bits)
        return msg

    def send_tensor(self, x: np.ndarray, src: int, dst: int, bits: int,
                    now: float) -> Message:
        """Quantize, 'transmit', dequantize.

        Returns the delivered message; ``payload`` is the tensor as seen
        by the receiver (with real quantization error for bits < 32).
        """
        qt = quantize(x, bits)
        msg = self._send(src, dst, x, qt.nbytes, now, bits=bits)
        if src != dst:
            msg.payload = dequantize(qt)
        return msg

    def send_control(self, src: int, dst: int, payload: Any, now: float,
                     nbytes: int = 256) -> Message:
        """Small control-plane message (strategy updates, probes)."""
        return self._send(src, dst, payload, nbytes, now)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def num_messages(self) -> int:
        return self._num_messages

    def reset_log(self) -> None:
        """Clear the message log and its derived aggregates together.

        ``total_bytes``/``num_messages`` always describe the current ``log`` window; telemetry counters
        are monotonic by design and deliberately unaffected.
        """
        self.log.clear()
        self._total_bytes = 0
        self._num_messages = 0
