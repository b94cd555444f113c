"""Spans around the program's public callables, recorded from outside.

A :class:`Tracer` rebinds each target (a class method, or every module
global bound to a function) to a wrapper that records one span per call
-- layer, start, end, parent span, op id -- in memory.  ``uninstall``
puts the original objects back and checks, by identity, that it did.

Nothing here imports the program: targets are handed in.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: the root span that covers the whole timed call; its self time is the
#: wall time no wrapped layer accounts for
ROOT_LAYER = "harness.other"


class Tracer:
    """In-memory span recorder.

    ``spans[i]`` is ``[layer_index, start, end, parent_index, op]``;
    a parent always has a smaller index than its children.  Calls are
    recorded only while a root span is open.  ``op`` is whatever
    :attr:`op` held when the span opened: the harness marks it per op
    on the loops it drives itself, and ``enter`` hooks mark it from the
    program's own request ids elsewhere.
    """

    def __init__(self, layers: Sequence[str]):
        self.layers = [ROOT_LAYER] + [n for n in layers if n != ROOT_LAYER]
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def mark(self, op: int) -> None:
        """Spans opened from now on belong to op ``op``."""
        self.op = op

    # -- wrapping ------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable,
             enter: Optional[Callable] = None,
             leave: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``enter(args, kwargs)`` runs before the span opens and
        ``leave(result)`` after it closes (not on an exception), both
        outside the span's interval.
        """
        index = self.layers.index(layer)
        spans, stack = self.spans, self._stack
        is_root = layer == ROOT_LAYER

        def traced(*args, **kwargs):
            if not stack and not is_root:
                # outside the timed call (world build, result checks):
                # not this trace's business
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if leave is not None:
                leave(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Dict[str, list], package: str,
                hooks: Optional[Dict[str, dict]] = None) -> None:
        """Wrap every target in place.

        ``targets`` maps layer -> ``[(cls, "method") | function]``; a
        function is rebound in every loaded module of ``package`` whose
        globals hold it.  ``hooks`` maps layer -> ``wrap`` keyword
        arguments.
        """
        hooks = hooks or {}
        for layer, items in targets.items():
            for item in items:
                kw = hooks.get(layer, {})
                if isinstance(item, tuple):
                    owner, name = item
                    original = owner.__dict__[name]
                    setattr(owner, name, self.wrap(layer, original, **kw))
                    self._patched.append((owner, name, original))
                    continue
                wrapper = self.wrap(layer, item, **kw)
                for modname, module in list(sys.modules.items()):
                    if module is None or not (
                            modname == package
                            or modname.startswith(package + ".")):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is item:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, item))

    def uninstall(self) -> None:
        """Restore every original; raise if any binding is not the
        original object afterwards."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        stale = [f"{getattr(o, '__name__', o)}.{n}"
                 for o, n, orig in self._patched
                 if vars(o)[n] is not orig]
        self._patched.clear()
        if stale:
            raise RuntimeError(f"wrappers left behind: {stale}")

    def root(self, fn: Callable) -> Callable:
        """``fn`` under the root span (one per traced iteration)."""
        return self.wrap(ROOT_LAYER, fn)

    # -- analysis ------------------------------------------------------------
    def table(self) -> "SpanTable":
        return SpanTable(self.layers, self.spans)

    def dump(self) -> dict:
        """JSON-ready form: times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "layers": self.layers,
            "columns": ["layer", "start_us", "end_us", "parent", "op"],
            "spans": [[s[0], round((s[1] - t0) * 1e6, 1),
                       round((s[2] - t0) * 1e6, 1), s[3], s[4]]
                      for s in self.spans],
        }


class SpanTable:
    """Column view of recorded spans with per-layer arithmetic."""

    def __init__(self, layers: Sequence[str], spans: Sequence[Sequence]):
        self.layers = list(layers)
        n = len(spans)
        self.layer = np.fromiter((s[0] for s in spans), np.int64, n)
        self.dur = np.fromiter((s[2] - s[1] for s in spans), np.float64, n)
        self.parent = np.fromiter((s[3] for s in spans), np.int64, n)
        has_parent = self.parent >= 0
        children = np.zeros(n)
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        #: duration minus the time covered by direct children
        self.self_time = self.dur - children
        # ancestors[i, L]: some ancestor of span i belongs to layer L;
        # filled level by level because a parent precedes its children
        depth = np.zeros(n, np.int64)
        for i in np.flatnonzero(has_parent):
            depth[i] = depth[self.parent[i]] + 1
        self.ancestors = np.zeros((n, len(self.layers)), bool)
        for d in range(1, int(depth.max()) + 1 if n else 0):
            idx = np.flatnonzero(depth == d)
            par = self.parent[idx]
            self.ancestors[idx] = self.ancestors[par]
            self.ancestors[idx, self.layer[par]] = True

    def index(self, layer: str) -> int:
        return self.layers.index(layer)

    def of(self, layer: str) -> np.ndarray:
        """Indices of the layer's spans."""
        return np.flatnonzero(self.layer == self.index(layer))

    def calls(self, layer: str) -> int:
        return int(len(self.of(layer)))

    def busy_s(self, layer: str) -> float:
        """Inclusive time; a span nested in one of its own layer is
        already counted by that ancestor."""
        idx = self.of(layer)
        outer = ~self.ancestors[idx, self.index(layer)]
        return float(self.dur[idx][outer].sum())

    def self_s(self, layer: str) -> float:
        return float(self.self_time[self.of(layer)].sum())

    def durations(self, layer: str) -> np.ndarray:
        return self.dur[self.of(layer)]

    def calls_under(self, layer: str, ancestor: str) -> int:
        """Calls of ``layer`` made somewhere below a span of ``ancestor``."""
        return int(self.ancestors[self.of(layer), self.index(ancestor)].sum())
