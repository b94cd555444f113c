"""In-process RPC substitute for gRPC.

The paper's devices exchange activation tensors over gRPC; here the
"wire" is a function call whose cost is charged to the simulated clock
via the cluster's link model — and whose payload really is the
(optionally quantized) tensor, so precision loss is physically incurred,
not just priced.

Failure semantics (``faults=``, the null injector when absent): each
cross-device send may be lost or the peer unreachable.  The sender
learns this only when its ack timeout expires, so every failed attempt
costs the attempt's timeout (exponential backoff across attempts), and
the successful retry re-pays the full transfer time — retries show up
in delivered-at timestamps, latency, and telemetry.  When every attempt
times out, :class:`~repro.faults.resilience.DeviceUnreachableError`
carries the wasted time for the caller to charge to the request.

On a mesh cluster the wire is a *path*: a pair whose route differs
from the fault-free one rides its backup path at that path's honest
latency, and :class:`Reroutes` counts it.  Health observations are
recorded per endpoint *and* per endpoint pair, at the send's time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..faults.health import DeviceHealth
from ..faults.injector import FaultInjector
from ..faults.resilience import (DeviceUnreachableError, NoRouteError,
                                 RetryPolicy)
from ..netsim.topology import Cluster
from ..nn.quantize import QuantizedTensor, dequantize, quantize
from ..telemetry import Telemetry

__all__ = ["Message", "Transport", "Reroutes"]


@dataclass
class Message:
    """One delivered payload with accounting metadata.

    ``request_id`` stitches cross-device messages back to the serving
    request that caused them; ``retries`` counts the re-transmissions
    this delivery needed (0 on a clean first attempt).
    """

    src: int
    dst: int
    payload: Any
    nbytes: int
    sent_at: float
    delivered_at: float
    request_id: Optional[int] = None
    retries: int = 0


class Reroutes:
    """Counts deliveries that rode a backup mesh path.

    A pair is rerouted when its current route differs from the
    fault-free base path; the extra latency was already paid in
    ``transfer_time``, this makes it visible as
    ``transport_reroute_total`` and per-pair
    ``transport_link_reroutes_total``.  The transport notes each
    delivery; plan-only serving, which sends nothing, notes each
    (request, remote).  A star has no routes and counts nothing.
    """

    def __init__(self, cluster: Cluster, telemetry: Telemetry):
        self._route_info = getattr(cluster, "route_info", None)
        reg = telemetry.registry.child("transport")
        self._count = reg.counters(
            "reroute_total", "deliveries that travelled a non-base path")
        self._count_link = reg.counters(
            "link_reroutes_total", "rerouted deliveries per device pair",
            "link")

    def note(self, src: int, dst: int) -> bool:
        """Count one delivery between the pair if it rode a backup path
        (a pair with no route at all did not); True if it did."""
        if self._route_info is None:
            return False
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

    ``total_bytes``/``num_messages``/``num_retries`` are O(1) running
    aggregates over the current log window; :meth:`reset_log` clears the
    log *and* these aggregates together, so they always agree with
    ``self.log``.  Telemetry counters (``transport_bytes_total``,
    ``transport_retries_total``, ...) are monotonic by design — they
    survive resets, tracking the unbounded-horizon totals.
    """

    def __init__(self, cluster: Cluster,
                 telemetry: Optional[Telemetry] = None,
                 faults=None, health=None,
                 retry: Optional[RetryPolicy] = None):
        self.cluster = cluster
        self.log: List[Message] = []
        self.telemetry = Telemetry.of(telemetry)
        self.faults = FaultInjector.of(faults)
        self.health = DeviceHealth.of(health)
        self.retry = retry if retry is not None else RetryPolicy()
        #: request id stamped onto every message until changed
        self.request_id: Optional[int] = None
        #: tenant tag attributed to every transfer until changed
        #: (feeds the contention tracker's per-tenant accounting)
        self.tenant: Optional[str] = None
        self._total_bytes = 0
        self._num_messages = 0
        self._num_retries = 0
        self._wasted_s = 0.0
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
        if msg.retries:
            self._m_retries.inc(msg.retries)

    def _contend(self, src: int, dst: int, now: float) -> Tuple[float, int]:
        """Fight the injected faults for one delivery.

        Returns ``(wasted_s, retries)`` on eventual success; raises
        :class:`DeviceUnreachableError` when every attempt times out.
        The blamed device is the remote endpoint (the peer we cannot
        reach — never the gateway, which is the caller itself).
        """
        faults = self.faults
        policy = self.retry
        wasted = 0.0
        for attempt in range(policy.attempts):
            delivered = (faults.reachable(src, dst)
                         and not faults.message_lost(src, dst))
            if delivered:
                for d in (src, dst):  # the gateway's is a no-op
                    self.health.record_success(d, now)
                self.health.record_link_success(src, dst, now)
                return wasted, attempt
            wasted += policy.timeout_of(attempt)
        device = dst if dst != 0 else src
        self._num_retries += policy.max_retries
        self.health.record_failure(device, now)
        self.health.record_link_failure(src, dst, now)
        self._m_retries.inc(policy.max_retries)
        self._m_unreachable.inc()
        raise DeviceUnreachableError(device, wasted, policy.max_retries)

    def _send(self, src: int, dst: int, payload: Any, nbytes: int,
              now: float, bits: Optional[int] = None) -> Message:
        """Price, log and account one message (free when ``src == dst``)."""
        wasted, retries, delivered = 0.0, 0, now
        if src != dst:
            wasted, retries = self._contend(src, dst, now)
            # the cluster's tracker, if it has one, prices the wire
            # against the flows in flight when the send goes out
            delivered = (now + wasted + self.cluster.timed_transfer(
                src, dst, nbytes, now + wasted, tenant=self.tenant))
        msg = Message(src, dst, payload, nbytes, now, delivered,
                      request_id=self.request_id, retries=retries)
        self.log.append(msg)
        if src != dst:
            self._total_bytes += nbytes
            self._num_messages += 1
            self._num_retries += retries
            if retries:
                self._wasted_s += wasted
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

    @property
    def num_retries(self) -> int:
        return self._num_retries

    @property
    def wasted_s(self) -> float:
        """Simulated seconds burned on timeouts by *successful* sends in
        the current log window (give-up waste travels in the raised
        :class:`DeviceUnreachableError` instead)."""
        return self._wasted_s

    def reset_log(self) -> None:
        """Clear the message log and its derived aggregates together.

        ``total_bytes``/``num_messages``/``num_retries``/``wasted_s``
        always describe the current ``log`` window; telemetry counters
        are monotonic by design and deliberately unaffected.
        """
        self.log.clear()
        self._total_bytes = 0
        self._num_messages = 0
        self._num_retries = 0
        self._wasted_s = 0.0
