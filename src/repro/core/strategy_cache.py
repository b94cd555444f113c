"""Strategy cache (paper Sec. 5).

Maps quantized (SLO, network condition) keys to previously computed
strategies so the RL policy need not run on every request.  Conditions
are snapped to a configurable granularity — two conditions within the
same cell share a strategy, which is safe because strategies are lower
bounds under mild relaxation (the SUPREME observation).

LRU eviction bounds memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Annotated, Optional

from .. import Finite, IntAtLeast, Positive, check_fields
from ..netsim.topology import NetworkCondition
from .slo import SLO
from .strategy import Strategy

__all__ = ["StrategyCache"]


#: a snap step divides every key value
Step = Annotated[float, Finite, Positive]

#: the SLO value's snap step (a latency SLO in seconds: 10 ms cells)
SLO_STEP = 0.01


class StrategyCache:
    capacity: Annotated[int, IntAtLeast(1)]
    bw_step: Step
    delay_step: Step

    def __init__(self, capacity: int = 256, bw_step: float = 25.0,
                 delay_step: float = 10.0):
        self.capacity = capacity
        self.bw_step = bw_step
        self.delay_step = delay_step
        check_fields(self)
        self._store: "OrderedDict[tuple, Strategy]" = OrderedDict()
        # (slo, condition, key): a decision's peek, get and put share it
        self._last: tuple = ()
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.overwrites = 0
        self.evictions = 0
        self.invalidations = 0

    # -- key construction ---------------------------------------------------
    def _key(self, slo: SLO, condition: NetworkCondition) -> tuple:
        # round() of a float (NumPy's included) is already an int
        bw_step, delay_step = self.bw_step, self.delay_step
        return (
            slo.kind,
            round(slo.value / SLO_STEP),
            tuple([round(b / bw_step) for b in condition.bandwidths_mbps]),
            tuple([round(d / delay_step) for d in condition.delays_ms]),
        )

    def _cell(self, slo: SLO, condition: NetworkCondition) -> tuple:
        """``_key``, snapped once for a run of lookups on the same two
        (frozen, held) objects."""
        last = self._last
        if last and last[0] is slo and last[1] is condition:
            return last[2]
        key = self._key(slo, condition)
        self._last = (slo, condition, key)
        return key

    # -- API -------------------------------------------------------------------
    def get(self, slo: SLO, condition: NetworkCondition) -> Optional[Strategy]:
        key = self._cell(slo, condition)
        strategy = self._store.get(key)
        if strategy is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return strategy

    def peek(self, slo: SLO, condition: NetworkCondition) -> Optional[Strategy]:
        """Look up an entry without touching statistics or LRU order.

        For probes that are not real serving lookups: validity checks
        before committing to a hit (a cached strategy may route through
        an open circuit) and precompute warm-up scans.  Keeping these
        out of ``hits``/``misses`` is what lets ``hit_rate`` mean "the
        fraction of served decisions answered from cache".
        """
        return self._store.get(self._cell(slo, condition))

    def put(self, slo: SLO, condition: NetworkCondition,
            strategy: Strategy) -> None:
        key = self._cell(slo, condition)
        if key in self._store:
            self.overwrites += 1
        else:
            self.inserts += 1
        self._store[key] = strategy
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def invalidate(self, predicate) -> int:
        """Drop every cached strategy for which ``predicate(strategy)``
        is true; returns the number removed.

        The circuit breaker uses this to purge cached/precomputed
        strategies that route through a device whose circuit just
        opened.
        """
        doomed = [k for k, s in self._store.items() if predicate(s)]
        for k in doomed:
            del self._store[k]
        self.invalidations += len(doomed)
        return len(doomed)

    def stats(self) -> dict:
        """Snapshot of cache effectiveness (feeds telemetry gauges)."""
        return {
            "entries": len(self._store),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "inserts": self.inserts,
            "overwrites": self.overwrites,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "slo_step": SLO_STEP,
            "bw_step": self.bw_step,
            "delay_step": self.delay_step,
        }

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
