"""Label-aware metrics: counters, gauges and fixed-memory histograms.

The registry is the single source of truth for every instrument in the
process.  Components never hold references into each other's metrics —
they ask their (child-scoped) registry for an instrument by name, and
identical ``(name, labels)`` requests return the *same* object, so a
counter incremented by the transport and read by an exporter is one
value, not two.

Design points:

* **Labels** follow the Prometheus model: a metric *family* shares a
  name, each label-set is a separate time series.  Labels are plain
  keyword strings (``reg.counter("bytes_total", link="0-1")``).
* **Histograms are fixed-memory.**  Observations land in log-spaced
  buckets (relative width ``growth - 1``), so streaming p50/p95/p99
  queries cost O(buckets) and memory never grows with request count —
  a requirement for the "serve heavy traffic" north star.
* **Child scoping** gives each subsystem its own name prefix while
  sharing the parent's store, so a single export sees everything.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullRegistry", "NULL_REGISTRY"]

LabelItems = Tuple[Tuple[str, str], ...]


class Metric:
    """Common identity for every instrument: name + labels + help."""

    kind = "untyped"
    __slots__ = ("name", "labels", "help")

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def _label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name}{self._label_str()})"


class Counter(Metric):
    """Monotonically increasing count (requests, bytes, cache hits)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems = (), help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:
            raise ValueError(f"counter {self.name!r}: counters only go up "
                             f"(got {amount!r}); use a Gauge")
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down (queue depth, hit rate)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems = (), help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(Metric):
    """Streaming distribution sketch with log-spaced buckets.

    Covers ``[lo, hi)`` with buckets whose upper edge grows by
    ``growth`` per step; values below ``lo`` (including 0.0 — common
    for queue waits under light load) land in an underflow bucket read
    back as 0.0, values at or above ``hi`` in an overflow bucket read
    back as the observed maximum.  Quantile answers are exact to one
    bucket's relative width (default 10 %), using the exact running
    min/max as clamps.
    """

    kind = "histogram"
    __slots__ = ("lo", "hi", "_log_growth", "_counts", "_nb",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, labels: LabelItems = (), help: str = "",
                 lo: float = 1e-6, hi: float = 1e5, growth: float = 1.1):
        super().__init__(name, labels, help)
        if not (0 < lo < hi < math.inf and 1.0 < growth < math.inf):
            raise ValueError(f"histogram {name!r}: need 0 < lo < hi < inf "
                             f"and 1 < growth < inf, got lo={lo!r}, "
                             f"hi={hi!r}, growth={growth!r}")
        self.lo = lo
        self.hi = hi
        self._log_growth = math.log(growth)
        nb = int(math.ceil(math.log(hi / lo) / self._log_growth))
        # [underflow] [b_0 .. b_{nb-1}] [overflow]
        self._counts = [0] * (nb + 2)
        self._nb = nb
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        lo = self.lo
        if v < lo:
            idx = 0
        elif v < self.hi:
            idx = 1 + int(math.log(v / lo) / self._log_growth)
            if idx > self._nb:  # guard float edge cases
                idx = self._nb
        elif v >= self.hi:
            idx = self._nb + 1
        else:
            raise ValueError(f"histogram {self.name!r} observed NaN")
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self._counts[idx] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """:meth:`observe` each value, in order."""
        for v in values:
            self.observe(v)

    def observe_rel_error(self, estimate: float, truth: float) -> None:
        """Observe ``|estimate - truth| / truth``; a non-positive
        ``truth`` has no relative error and is skipped."""
        if truth > 0:
            self.observe(abs(estimate - truth) / truth)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _bucket_upper(self, i: int) -> float:
        """Upper edge of data bucket ``i`` (0-based within [lo, hi))."""
        return self.lo * math.exp((i + 1) * self._log_growth)

    def quantile(self, q: float) -> float:
        """Streaming quantile estimate, ``q`` in [0, 1]."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1) + 1  # 1-based rank, nearest-rank style
        cum = self._counts[0]
        if cum >= rank:
            return max(0.0, min(self.min, self.lo))
        for i in range(self._nb):
            cum += self._counts[1 + i]
            if cum >= rank:
                est = self._bucket_upper(i)
                return min(max(est, self.min), self.max)
        return self.max

    def quantiles(self, qs: Iterable[float] = (0.5, 0.95, 0.99),
                  ) -> Dict[float, float]:
        return {q: self.quantile(q) for q in qs}


class MetricsRegistry:
    """Creates, dedupes and enumerates instruments.

    ``child(scope)`` returns a registry that prefixes names with
    ``scope_`` but shares this registry's store, so the whole process
    exports from one root.  Asking twice for the same (name, labels)
    returns the same instrument; asking with a conflicting type raises.

    *Collect hooks* let components keep snapshot-style gauges (cache
    occupancy, running compliance) out of the request hot path: a hook
    registered with :meth:`add_collect_hook` runs at the top of every
    :meth:`collect`, i.e. at export/report time, not per request.
    """

    def __init__(self, prefix: str = "",
                 store: Optional[Dict[Tuple[str, LabelItems], Metric]] = None,
                 hooks: Optional[list] = None):
        self._prefix = prefix
        self._store: Dict[Tuple[str, LabelItems], Metric] = (
            store if store is not None else {})
        self._hooks: list = hooks if hooks is not None else []

    def child(self, scope: str) -> "MetricsRegistry":
        if not scope:
            raise ValueError("child scope must be non-empty")
        return MetricsRegistry(prefix=f"{self._prefix}{scope}_",
                               store=self._store, hooks=self._hooks)

    def add_collect_hook(self, hook) -> None:
        """Register a zero-arg callable run before every collect()."""
        self._hooks.append(hook)

    def _instrument(self, cls, name: str, help: str,
                    labels: Dict[str, str], **kwargs) -> Metric:
        full = self._prefix + name
        items: LabelItems = tuple(sorted(
            (str(k), str(v)) for k, v in labels.items()))
        key = (full, items)
        metric = self._store.get(key)
        if metric is None:
            metric = cls(full, items, help=help, **kwargs)
            self._store[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {full!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._instrument(Counter, name, help, labels)

    def counters(self, name: str, help: str, *label_names: str):
        """A ``count(*label_values, amount=1.0)`` function over one
        counter family.  The series for a value tuple is registered on
        first use (a ``None`` value leaves its label off), so a family
        exports nothing until it has counted something; after that the
        hot path is one dict lookup."""
        series: Dict[tuple, Counter] = {}

        def count(*values, amount: float = 1.0) -> None:
            counter = series.get(values)
            if counter is None:
                labels = {k: v for k, v in zip(label_names, values)
                          if v is not None}
                counter = series[values] = self.counter(
                    name, help=help, **labels)
            counter.inc(amount)
        return count

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._instrument(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", lo: float = 1e-6,
                  hi: float = 1e5, growth: float = 1.1,
                  **labels) -> Histogram:
        return self._instrument(Histogram, name, help, labels,
                                lo=lo, hi=hi, growth=growth)

    def observer(self, observe):
        """``observe``: a loop that only feeds this registry's instruments
        (the null registry returns its no-op instead)."""
        return observe

    def get(self, name: str, **labels) -> Optional[Metric]:
        """Look up an existing instrument (scoped name) or ``None``."""
        items: LabelItems = tuple(sorted(
            (str(k), str(v)) for k, v in labels.items()))
        return self._store.get((self._prefix + name, items))

    def collect(self) -> List[Metric]:
        """All instruments in the shared store, sorted for stable export.

        Runs collect hooks first so snapshot gauges are fresh.
        """
        for hook in self._hooks:
            hook()
        return sorted(self._store.values(),
                      key=lambda m: (m.name, m.labels))

    def __len__(self) -> int:
        return len(self._store)


class _NullMetric:
    """What a :class:`NullRegistry` hands out: one shared stand-in for
    :class:`Counter`, :class:`Gauge` and :class:`Histogram` whose
    recording methods do nothing.  Never stored, collected or returned
    by ``get``, so it has no read side."""

    __slots__ = ()

    def inc(self, *args, **kwargs) -> None:
        pass

    dec = set = observe = observe_many = observe_rel_error = inc


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The registry of a component built without telemetry: the surface
    of :class:`MetricsRegistry`, no state.  Every scope is this
    registry and every instrument the shared no-op metric."""

    def child(self, scope: str) -> "NullRegistry":
        return self

    def counter(self, *args, **kwargs) -> _NullMetric:
        return _NULL_METRIC

    gauge = histogram = counter

    def counters(self, *args, **kwargs):
        return _NULL_METRIC.inc

    def observer(self, observe):
        return _NULL_METRIC.inc

    def get(self, name: str, **labels) -> None:
        return None

    def add_collect_hook(self, hook) -> None:
        pass


NULL_REGISTRY = NullRegistry()
