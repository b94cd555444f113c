"""Per-request timelines assembled from span trees.

A :class:`RequestTimeline` is the flattened, ordered story of one served
request on the simulated clock — queue wait, decision, cache outcome,
reconfiguration/switch, per-segment execution, transfers — the exact
decomposition the paper's evaluation reasons about (decision time in
Fig. 18, switch time in Fig. 19, compliance in Fig. 16 are all slices
of this record).

Timelines are built *from* the tracing layer (one root span per
request) rather than collected separately, so instrumented code never
has to report the same interval twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .tracing import Span

__all__ = ["TimelineEvent", "RequestTimeline"]


class TimelineEvent:
    """One phase of a request, on the simulated clock.

    A plain ``__slots__`` class, not a dataclass: one is built per span
    per request, so construction must stay at attribute-store cost.
    """

    __slots__ = ("name", "sim_start", "sim_duration_s",
                 "wall_duration_s", "depth", "attrs")

    def __init__(self, name: str, sim_start: Optional[float],
                 sim_duration_s: float, wall_duration_s: float,
                 depth: int, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.sim_start = sim_start
        self.sim_duration_s = sim_duration_s
        self.wall_duration_s = wall_duration_s
        self.depth = depth
        self.attrs = attrs if attrs is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimelineEvent({self.name!r}, "
                f"sim={self.sim_duration_s:.6f}s, depth={self.depth})")

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "name": self.name,
            "sim_start": self.sim_start,
            "sim_duration_s": self.sim_duration_s,
            "wall_duration_s": self.wall_duration_s,
            "depth": self.depth,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d


@dataclass
class RequestTimeline:
    """Ordered phases of one request plus its end-to-end envelope."""

    request_id: int
    events: List[TimelineEvent] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_span(cls, root: Span, request_id: int = 0) -> "RequestTimeline":
        """Flatten a root span (and descendants) into event order.

        Events *share* the finished spans' attr dicts rather than
        copying them — timeline assembly runs once per request, so it
        must stay cheap.
        """
        events: List[TimelineEvent] = []
        stack = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            events.append(TimelineEvent(
                span.name, span.sim_start, span.sim_duration_s,
                span.wall_duration_s, depth, span.attrs))
            children = span.children
            if children:
                for child in reversed(children):
                    stack.append((child, depth + 1))
        return cls(request_id=request_id, events=events, attrs=root.attrs)

    # -- queries ----------------------------------------------------------
    @property
    def root(self) -> Optional[TimelineEvent]:
        return self.events[0] if self.events else None

    @property
    def total_s(self) -> float:
        """End-to-end simulated duration (the root span's envelope)."""
        return self.root.sim_duration_s if self.root else 0.0

    @property
    def arrival_s(self) -> Optional[float]:
        return self.root.sim_start if self.root else None

    def duration_of(self, name: str) -> float:
        """Total simulated seconds spent in phases called ``name``."""
        return sum(e.sim_duration_s for e in self.events if e.name == name)

    def phases(self) -> List[str]:
        return [e.name for e in self.events]

    # -- export ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "total_s": self.total_s,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events],
        }

    def render(self, width: int = 48) -> str:
        """ASCII Gantt chart of this request on the simulated clock."""
        lines = [f"request {self.request_id}: {self.total_s * 1e3:.2f} ms"]
        origin = self.arrival_s
        total = self.total_s
        for e in self.events:
            label = "  " * e.depth + e.name
            dur_ms = e.sim_duration_s * 1e3
            if (origin is None or total <= 0 or e.sim_start is None):
                lines.append(f"  {label:<24s} {dur_ms:9.3f} ms")
                continue
            off = max(0.0, min(1.0, (e.sim_start - origin) / total))
            frac = max(0.0, min(1.0 - off, e.sim_duration_s / total))
            start_col = int(off * width)
            ncols = max(1, int(round(frac * width))) if dur_ms > 0 else 0
            bar = " " * start_col + "#" * ncols
            lines.append(f"  {label:<24s} {dur_ms:9.3f} ms |{bar:<{width}s}|")
        return "\n".join(lines)

