"""Dual-clock tracing: nested spans over simulated *and* wall time.

Everything in this repository runs on two clocks at once: the
*simulated* clock (what a five-Pi swarm would have measured — the number
the paper's figures plot) and the *wall* clock (what this process
actually spends — the number profiling cares about).  A :class:`Span`
stamps both, so one trace answers "where did the request's SLO budget
go?" and "where does my laptop's time go?" simultaneously.

Spans nest through a context-manager API::

    with tracer.span("request", sim_time=arrival) as root:
        with tracer.span("decision", sim_time=start) as sp:
            record = engine.decide(...)
            sp.add_sim(record.decision_time_s)
        root.set_sim_end(finish)

When telemetry is disabled, instrumented code paths use the module-level
:data:`NULL_TRACER`: its :meth:`~NullTracer.span` hands back one shared,
immutable no-op span, so the disabled hot path performs no per-request
allocation and no bookkeeping.
"""

from __future__ import annotations

import time
from typing import Annotated, Any, Dict, List, Optional, Sequence

from .. import IntAtLeast, check_fields

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

_wall = time.perf_counter


class Span:
    """One timed operation; may contain child spans."""

    __slots__ = ("name", "attrs", "sim_start", "sim_end",
                 "wall_start", "wall_end", "children", "_tracer", "_root")

    def __init__(self, name: str, sim_time: Optional[float] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 tracer: Optional["Tracer"] = None, root: bool = True,
                 sim_end: Optional[float] = None):
        """A given ``sim_end`` closes the span at once (no wall time)."""
        self.name = name
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.sim_start = sim_time
        self.sim_end = sim_end
        self.wall_start = _wall()
        self.wall_end = None if sim_end is None else self.wall_start
        self.children: List["Span"] = []
        self._tracer = tracer
        self._root = root

    # -- annotation -------------------------------------------------------
    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def set_sim_end(self, sim_time: float) -> None:
        self.sim_end = float(sim_time)

    def add_sim(self, duration_s: float) -> None:
        """Extend the span's simulated interval by ``duration_s``."""
        base = self.sim_end if self.sim_end is not None else (
            self.sim_start if self.sim_start is not None else 0.0)
        if self.sim_start is None:
            self.sim_start = 0.0
        self.sim_end = base + float(duration_s)

    # -- durations --------------------------------------------------------
    @property
    def sim_duration_s(self) -> float:
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start

    @property
    def wall_duration_s(self) -> float:
        end = self.wall_end if self.wall_end is not None else _wall()
        return end - self.wall_start

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_end = _wall()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._finish(self)
        return False

    # -- export ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "name": self.name,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_duration_s": self.sim_duration_s,
            "wall_duration_s": self.wall_duration_s,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, sim={self.sim_duration_s:.6f}s, "
                f"children={len(self.children)})")


class Tracer:
    """Builds span trees; completed root spans land in ``finished``.

    ``max_finished`` bounds memory under sustained load: the oldest
    roots are dropped once the buffer is full (the metrics registry,
    not the trace buffer, is the unbounded-horizon view).
    """

    enabled = True
    max_finished: Annotated[int, IntAtLeast(1)]

    def __init__(self, max_finished: int = 10000):
        self.max_finished = max_finished
        check_fields(self)
        self.finished: List[Span] = []
        self.dropped = 0  # roots truncated off the front of `finished`
        self._stack: List[Span] = []

    def span(self, name: str, sim_time: Optional[float] = None,
             **attrs: Any) -> Span:
        stack = self._stack
        sp = Span(name, sim_time=sim_time, attrs=attrs, tracer=self,
                  root=not stack)
        if stack:
            stack[-1].children.append(sp)
        stack.append(sp)
        return sp

    def _finish(self, span: Span) -> None:
        # Tolerate exception-unwound inner spans: pop through `span`.
        while self._stack:
            if self._stack.pop() is span:
                break
        if span._root:
            self._closed([span])

    def _closed(self, spans: List[Span]) -> None:
        """File closed spans under the active span, else as roots."""
        if self._stack:
            self._stack[-1].children.extend(spans)
            return
        self.finished.extend(spans)
        excess = len(self.finished) - self.max_finished
        if excess > 0:
            del self.finished[:excess]
            self.dropped += excess

    def spans(self, name: str, start: float, ends: Sequence[float],
              **columns: Optional[Sequence[Any]]) -> None:
        """Back-to-back spans, ``ends[k - 1]`` (``start`` first) to
        ``ends[k]``, each with ``key=values[k]`` per column (a ``None``
        column or value left off): one annotated ``span()`` per item."""
        out: List[Span] = []
        for k, end in enumerate(ends):
            out.append(Span(name, start, {
                key: col[k] for key, col in columns.items()
                if col is not None and col[k] is not None},
                sim_end=float(end)))
            start = end
        self._closed(out)

    def requests(self, first: int, records: Sequence[Any],
                 **attrs: Any) -> None:
        """A ``request`` span around a ``queue`` child per served
        ``RequestRecord`` (ids from ``first``), annotated as the FIFO
        server annotates its live one."""
        out: List[Span] = []
        for rid, rr in enumerate(records, first):
            sp = Span("request", rr.arrival, {"request": rid, "satisfied":
                                              rr.satisfied, **attrs},
                      sim_end=float(rr.finish))
            sp.children.append(Span("queue", rr.arrival,
                                    sim_end=float(rr.start)))
            if rr.tenant is not None:
                sp.attrs["tenant"] = rr.tenant
            if rr.outcome != "ok":
                sp.attrs["outcome"] = rr.outcome
            out.append(sp)
        self._closed(out)

    @property
    def active(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        self.finished.clear()
        self.dropped = 0
        self._stack.clear()


class _NullSpan:
    """Shared immutable stand-in; every method is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def set_sim_end(self, sim_time: float) -> None:
        pass

    def add_sim(self, duration_s: float) -> None:
        pass

    sim_duration_s = 0.0
    wall_duration_s = 0.0
    name = ""
    children: List[Span] = []
    attrs: Dict[str, Any] = {}


_SHARED_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: one shared span, no state, no allocation."""

    enabled = False
    finished: List[Span] = []

    def span(self, name: str, sim_time: Optional[float] = None,
             **attrs: Any) -> _NullSpan:
        return _SHARED_NULL_SPAN

    def spans(self, *args: Any, **kwargs: Any) -> None:
        pass

    requests = spans

    @property
    def active(self) -> None:
        return None

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
