"""The :class:`Telemetry` hub — one object to thread through the stack.

Instrumented components accept ``telemetry: Optional[Telemetry]`` and
normalise it once, in their constructor, with :meth:`Telemetry.of`:

* ``None`` (the default everywhere) becomes :data:`NULL_TELEMETRY`, so
  components call their metrics and spans unconditionally; against the
  null hub each call is a no-op on a shared object and an
  un-instrumented run allocates nothing.
* one shared :class:`Telemetry` instance — every component scopes its
  own metric names (``server_*``, ``transport_*``, ...) via
  ``registry.child(scope)`` but shares the hub's store, tracer and
  timeline buffer, so a single export captures the whole system.
"""

from __future__ import annotations

from typing import Annotated, List, Optional

from .. import IntAtLeast, check_fields
from .metrics import NULL_REGISTRY, MetricsRegistry
from .timeline import RequestTimeline
from .tracing import NULL_TRACER, Tracer

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


def _is_violation(timeline: RequestTimeline) -> bool:
    """True for a timeline whose request missed its SLO.

    Serving code annotates the request root span with ``satisfied``;
    absent the annotation, the timeline is treated as ordinary (it will
    be subject to sampling and eviction like any other).
    """
    sat = timeline.attrs.get("satisfied")
    return sat is not None and not sat


class Telemetry:
    """Bundles a metrics registry, a tracer, and collected timelines.

    Timelines are materialized *lazily*: the serving hot path only
    finishes root spans on the tracer; the flatten into
    :class:`RequestTimeline` objects happens on first access to
    :attr:`timelines` — i.e. at export/report time, for free per
    request.

    Retention is SLO-aware.  ``sample_every`` keeps one timeline in N
    under sustained load (1 = keep all), and eviction beyond
    ``max_timelines`` drops the *oldest SLO-satisfying* timelines first
    — a timeline whose root span carries ``satisfied=False`` is never
    sampled out and never evicted, so tail behaviour survives any load
    level (violators may push the buffer past ``max_timelines``; the
    cap yields rather than hide the tail).
    """

    max_timelines: Annotated[int, IntAtLeast(0)]
    sample_every: Annotated[int, IntAtLeast(1)]

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 max_timelines: int = 10000,
                 sample_every: int = 1):
        self.max_timelines = max_timelines
        self.sample_every = sample_every
        check_fields(self)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._timelines: List[RequestTimeline] = []
        # total roots already materialized (including truncated ones),
        # held in a one-element list so child views share the cursor
        self._consumed = [0]

    def child(self, scope: str) -> "Telemetry":
        """A view with a scoped registry, sharing tracer + timelines."""
        view = Telemetry.__new__(Telemetry)
        view.registry = self.registry.child(scope)
        view.tracer = self.tracer
        view.max_timelines = self.max_timelines
        view.sample_every = self.sample_every
        view._timelines = self._timelines
        view._consumed = self._consumed
        return view

    def _evict(self) -> None:
        """Trim to ``max_timelines``, oldest satisfying timelines first."""
        excess = len(self._timelines) - self.max_timelines
        if excess <= 0:
            return
        kept: List[RequestTimeline] = []
        for tl in self._timelines:
            if excess > 0 and not _is_violation(tl):
                excess -= 1
                continue
            kept.append(tl)
        self._timelines[:] = kept

    @property
    def timelines(self) -> List[RequestTimeline]:
        """Retained request timelines, materializing new finished roots."""
        tracer = self.tracer
        finished = tracer.finished
        if finished:
            dropped = getattr(tracer, "dropped", 0)
            start = min(max(self._consumed[0] - dropped, 0), len(finished))
            step = self.sample_every
            for i, root in enumerate(finished[start:], start=dropped + start):
                tl = RequestTimeline.from_span(
                    root, request_id=root.attrs.get("request", i))
                if step > 1 and i % step and not _is_violation(tl):
                    continue
                self._timelines.append(tl)
            self._consumed[0] = dropped + len(finished)
            self._evict()
        return self._timelines

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
