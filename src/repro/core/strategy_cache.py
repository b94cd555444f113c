"""Strategy cache (paper Sec. 5).

Maps quantized (SLO, network condition) keys to previously computed
strategies so the RL policy need not run on every request.  Conditions
are snapped to a configurable granularity — two conditions within the
same cell share a strategy, which is safe because strategies are lower
bounds under mild relaxation (the SUPREME observation).

Granularity is *runtime-tunable*: :meth:`set_steps` changes the snap
steps mid-run, rekeying (or invalidating) the existing entries, so a
control loop can trade hit rate against strategy fidelity from observed
telemetry instead of committing at construction time.

LRU eviction bounds memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Annotated, Optional, Tuple

from .. import Finite, IntAtLeast, Positive, check_fields
from ..netsim.topology import NetworkCondition
from .slo import SLO
from .strategy import Strategy

__all__ = ["StrategyCache"]


#: a snap step divides every key value
Step = Annotated[float, Finite, Positive]


class StrategyCache:
    capacity: Annotated[int, IntAtLeast(1)]
    slo_step: Step
    bw_step: Step
    delay_step: Step

    def __init__(self, capacity: int = 256, slo_step: float = 0.01,
                 bw_step: float = 25.0, delay_step: float = 10.0):
        self.capacity = capacity
        self.slo_step = slo_step
        self.bw_step = bw_step
        self.delay_step = delay_step
        check_fields(self)
        # key -> (slo, condition, strategy); the un-snapped (slo,
        # condition) of the *last write* is kept so set_steps() can
        # re-snap every entry under a new granularity.
        self._store: "OrderedDict[tuple, Tuple[SLO, NetworkCondition, Strategy]]" = OrderedDict()
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
            round(slo.value / self.slo_step),
            tuple([round(b / bw_step) for b in condition.bandwidths_mbps]),
            tuple([round(d / delay_step) for d in condition.delays_ms]),
        )

    def _cell(self, slo: SLO, condition: NetworkCondition) -> tuple:
        """``_key``, snapped once for a run of lookups on the same two
        (frozen, held) objects; :meth:`set_steps` forgets it."""
        last = self._last
        if last and last[0] is slo and last[1] is condition:
            return last[2]
        key = self._key(slo, condition)
        self._last = (slo, condition, key)
        return key

    # -- API -------------------------------------------------------------------
    def get(self, slo: SLO, condition: NetworkCondition) -> Optional[Strategy]:
        key = self._cell(slo, condition)
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry[2]

    def peek(self, slo: SLO, condition: NetworkCondition) -> Optional[Strategy]:
        """Look up an entry without touching statistics or LRU order.

        For probes that are not real serving lookups: validity checks
        before committing to a hit (a cached strategy may route through
        an open circuit) and precompute warm-up scans.  Keeping these
        out of ``hits``/``misses`` is what lets ``hit_rate`` mean "the
        fraction of served decisions answered from cache".
        """
        entry = self._store.get(self._cell(slo, condition))
        return entry[2] if entry is not None else None

    def put(self, slo: SLO, condition: NetworkCondition,
            strategy: Strategy) -> None:
        key = self._cell(slo, condition)
        if key in self._store:
            self.overwrites += 1
        else:
            self.inserts += 1
        self._store[key] = (slo, condition, strategy)
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
        doomed = [k for k, e in self._store.items() if predicate(e[2])]
        for k in doomed:
            del self._store[k]
        self.invalidations += len(doomed)
        return len(doomed)

    def set_steps(self, slo_step: Optional[Step] = None,
                  bw_step: Optional[Step] = None,
                  delay_step: Optional[Step] = None,
                  rekey: bool = True) -> int:
        """Change the snap granularity mid-run; returns entries dropped.

        With ``rekey=True`` (default) every live entry is re-snapped
        under the new steps from the exact (SLO, condition) it was
        written with; entries that collide in a now-coarser cell keep
        the most recently used strategy.  With ``rekey=False`` the
        store is invalidated instead (counters survive — only
        ``invalidations`` grows), which is the conservative choice when
        the caller cannot vouch that old strategies remain lower bounds
        under the new cells.

        Hit/miss statistics are *never* reset here: the control loop
        retunes granularity from windowed deltas of those counters, so
        a retune must not erase the evidence it acted on.
        """
        check_fields(StrategyCache.set_steps, locals())
        new = (slo_step if slo_step is not None else self.slo_step,
               bw_step if bw_step is not None else self.bw_step,
               delay_step if delay_step is not None else self.delay_step)
        if new == (self.slo_step, self.bw_step, self.delay_step):
            return 0
        self.slo_step, self.bw_step, self.delay_step = new
        self._last = ()
        old = self._store
        self._store = OrderedDict()
        dropped = 0
        if rekey:
            # Iterating oldest -> newest means a collision is resolved
            # in favour of the more recently used entry, which moves to
            # the end: the new store's order is the old LRU order.
            for slo, condition, strategy in old.values():
                key = self._key(slo, condition)
                if key in self._store:
                    dropped += 1
                    del self._store[key]
                self._store[key] = (slo, condition, strategy)
        else:
            dropped = len(old)
        self.invalidations += dropped
        return dropped

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
            "slo_step": self.slo_step,
            "bw_step": self.bw_step,
            "delay_step": self.delay_step,
        }

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
