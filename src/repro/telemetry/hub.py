"""The :class:`Telemetry` hub — one object to thread through the stack.

Instrumented components accept ``telemetry: Optional[Telemetry]`` and
normalise it once, in their constructor, with :meth:`Telemetry.of`:

* ``None`` (the default everywhere) becomes :data:`NULL_TELEMETRY`, so
  components call their metrics and spans unconditionally; against the
  null hub each call is a no-op on a shared object and an
  un-instrumented run allocates nothing.
* one shared :class:`Telemetry` instance — every component scopes its
  own metric names (``server_*``, ``transport_*``, ...) via
  ``registry.child(scope)`` but shares the hub's store and tracer, so
  a single export captures the whole system.
"""

from __future__ import annotations

from typing import List, Optional

from .metrics import NULL_REGISTRY, MetricsRegistry
from .timeline import RequestTimeline
from .tracing import NULL_TRACER, Tracer

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


class Telemetry:
    """Bundles a metrics registry, a tracer, and the request timelines.

    Timelines are materialized *lazily*: the serving hot path only
    finishes root spans on the tracer; :attr:`timelines` flattens them
    into :class:`RequestTimeline` objects when read — at export/report
    time, for free per request.

    The tracer's :data:`~repro.telemetry.tracing.MAX_FINISHED` roots
    are the one retention bound: past it the oldest root is dropped,
    whether or not its request met the SLO (the metrics registry, not
    the trace buffer, is the unbounded-horizon view).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    @property
    def timelines(self) -> List[RequestTimeline]:
        """One timeline per root span the tracer holds, oldest first,
        built on each read (a root with no ``request`` attribute is
        numbered by its place among every root ever finished)."""
        tracer = self.tracer
        return [RequestTimeline.from_span(
                    root, request_id=root.attrs.get("request", i))
                for i, root in enumerate(tracer.finished, tracer.dropped)]

    @staticmethod
    def of(telemetry: Optional["Telemetry"]):
        """``telemetry`` itself, or :data:`NULL_TELEMETRY` for ``None``."""
        return telemetry if telemetry is not None else NULL_TELEMETRY


class NullTelemetry:
    """The hub of a component built without telemetry: a null registry,
    the null tracer, never a timeline."""

    registry = NULL_REGISTRY
    tracer = NULL_TRACER
    timelines: tuple = ()


NULL_TELEMETRY = NullTelemetry()
