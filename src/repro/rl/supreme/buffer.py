"""The reward-filtered bucketed replay buffer (paper Sec. 4.4, Fig. 8).

The constraint space — (SLO, bandwidth_1, delay_1, bandwidth_2, ...) —
is discretized into a lattice of buckets.  Each bucket keeps only the
top-n reward trajectories for its constraint point.  Two lattice
operations implement the paper's key observation (*a strategy found
under a constraint is a lower bound for all relaxed constraints*):

* **sharing** — an empty bucket borrows data from its nearest *harder*
  ancestor (Fig. 9a): that data is guaranteed valid here;
* **pruning** — a bucket whose best reward does not beat its harder
  ancestor's is dominated and dropped (Fig. 9b), collapsing the
  continuous constraint space onto a discrete set of critical points
  (Eq. 4).

Dimension direction matters: larger latency-SLO and larger bandwidth are
*easier*; larger delay is *harder*.  ``BucketDim.relax_sign`` encodes
this (+1: larger value is easier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BucketDim", "Entry", "BucketedReplayBuffer"]


@dataclass(frozen=True)
class BucketDim:
    """One axis of the constraint lattice."""

    name: str
    grid: Tuple[float, ...]       # ascending values
    relax_sign: int               # +1: larger value = easier constraint

    def __post_init__(self):
        if list(self.grid) != sorted(self.grid):
            raise ValueError(f"grid for {self.name!r} must be ascending")
        if self.relax_sign not in (-1, 1):
            raise ValueError("relax_sign must be +1 or -1")

    @property
    def size(self) -> int:
        return len(self.grid)

    def index_easier(self, value: float) -> int:
        """Bucket index of ``value``, rounded toward the *easier* side.

        A trajectory achieving ``value`` is then valid at its bucket's
        representative grid point.
        """
        g = np.asarray(self.grid)
        if self.relax_sign > 0:
            # valid for grid points >= value
            i = int(np.searchsorted(g, value, side="left"))
            return min(i, self.size - 1)
        # valid for grid points <= value
        i = int(np.searchsorted(g, value, side="right")) - 1
        return max(i, 0)

    def index_nearest(self, value: float) -> int:
        g = np.asarray(self.grid)
        return int(np.abs(g - value).argmin())


@dataclass
class Entry:
    """One stored trajectory."""

    actions: np.ndarray
    reward: float
    latency_s: float
    accuracy: float
    condition: Tuple[float, ...] = ()   # observed network condition values


class BucketedReplayBuffer:
    """Sparse lattice of top-n reward queues with sharing and pruning."""

    def __init__(self, dims: Sequence[BucketDim], top_n: int = 4,
                 share: bool = True, max_share_distance: int = None):
        if not dims:
            raise ValueError("need at least one constraint dimension")
        self.dims: List[BucketDim] = list(dims)
        self.top_n = top_n
        self.share = share
        self.max_share_distance = (max_share_distance
                                   if max_share_distance is not None
                                   else sum(d.size for d in dims))
        self._buckets: Dict[Tuple[int, ...], List[Entry]] = {}

    # -- indexing ---------------------------------------------------------
    def bucket_of(self, values: Sequence[float],
                  toward_easier: bool = True) -> Tuple[int, ...]:
        if len(values) != len(self.dims):
            raise ValueError(
                f"expected {len(self.dims)} values, got {len(values)}")
        if toward_easier:
            return tuple(d.index_easier(v) for d, v in zip(self.dims, values))
        return tuple(d.index_nearest(v) for d, v in zip(self.dims, values))

    def representative(self, idx: Tuple[int, ...]) -> Tuple[float, ...]:
        """Constraint values at a bucket's grid point."""
        return tuple(d.grid[i] for d, i in zip(self.dims, idx))

    def all_indices(self) -> Iterator[Tuple[int, ...]]:
        yield from self._buckets.keys()

    # -- insertion ----------------------------------------------------------
    def insert(self, values: Sequence[float], entry: Entry) -> bool:
        """Insert at the achieved constraint point (rounded easier).

        Keeps only the top-n rewards per bucket; returns whether the
        entry was retained.
        """
        idx = self.bucket_of(values, toward_easier=True)
        q = self._buckets.setdefault(idx, [])
        q.append(entry)
        q.sort(key=lambda e: e.reward, reverse=True)
        if len(q) > self.top_n:
            dropped = q.pop()
            return dropped is not entry
        return True

    # -- sharing -----------------------------------------------------------
    def _dominates(self, donor: Tuple[int, ...], target: Tuple[int, ...],
                   strict: bool = False) -> bool:
        """Whether ``donor``'s constraint point is harder-or-equal to
        ``target`` in every dimension (its strategies are valid there)."""
        harder_any = False
        for dim, d_i, t_i in zip(self.dims, donor, target):
            # For relax_sign +1 the easier direction is a larger index,
            # so a donor must sit at an index <= the target's.
            if dim.relax_sign > 0:
                if d_i > t_i:
                    return False
                harder_any |= d_i < t_i
            else:
                if d_i < t_i:
                    return False
                harder_any |= d_i > t_i
        return harder_any or not strict

    def _harder_ancestors(self, idx: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        """Populated buckets whose data is valid at ``idx`` (strictly
        harder constraint points), nearest first.

        Scanning populated buckets keeps this O(buckets * dims) even in
        high-dimensional constraint lattices, where a neighbour walk
        would visit exponentially many empty cells.
        """
        donors = [k for k in self._buckets
                  if k != idx and self._dominates(k, idx, strict=True)]
        donors.sort(key=lambda k: sum(abs(a - b) for a, b in zip(k, idx)))
        for k in donors:
            if sum(abs(a - b) for a, b in zip(k, idx)) > self.max_share_distance:
                break
            yield k

    def lookup(self, values: Sequence[float]) -> List[Entry]:
        """Entries usable at a constraint point.

        An empty bucket borrows from its dominating donors: among the
        populated harder buckets (whose strategies are lower bounds
        here), the one holding the highest reward wins, with proximity
        as the tie-break.  Returning the best donor (rather than just
        the nearest) is what makes pruning safe: dropping a dominated
        bucket can never lower the best reachable reward anywhere.
        """
        idx = self.bucket_of(values, toward_easier=False)
        own = self._buckets.get(idx)
        if own:
            return list(own)
        if not self.share:
            return []
        best_q: List[Entry] = []
        best_reward = -np.inf
        for anc in self._harder_ancestors(idx):
            q = self._buckets.get(anc)
            if q and q[0].reward > best_reward:
                best_reward = q[0].reward
                best_q = q
        return list(best_q)

    def best(self, values: Sequence[float]) -> Optional[Entry]:
        entries = self.lookup(values)
        return max(entries, key=lambda e: e.reward) if entries else None

    # -- pruning ------------------------------------------------------------
    def prune(self) -> int:
        """Drop entries dominated by a harder ancestor (Fig. 9b).

        Returns the number of removed entries.
        """
        removed = 0
        for idx in list(self._buckets.keys()):
            q = self._buckets.get(idx)
            if not q:
                continue
            ancestor_best = -np.inf
            for anc in self._harder_ancestors(idx):
                aq = self._buckets.get(anc)
                if aq:
                    ancestor_best = max(ancestor_best, aq[0].reward)
            if ancestor_best == -np.inf:
                continue
            kept = [e for e in q if e.reward > ancestor_best]
            removed += len(q) - len(kept)
            if kept:
                self._buckets[idx] = kept
            else:
                del self._buckets[idx]
        return removed

    # -- sampling ------------------------------------------------------------
    def sample(self, batch: int, rng: np.random.Generator,
               ) -> List[Tuple[Tuple[float, ...], Entry]]:
        """Sample (goal constraint values, entry) training pairs.

        Goals are the representative points of populated buckets; with
        sharing enabled, goals of *easier* random buckets may also be
        drawn and answered by an ancestor's data, which is exactly the
        paper's cross-task data sharing.
        """
        keys = list(self._buckets.keys())
        if not keys:
            return []
        out = []
        for _ in range(batch):
            if self.share and rng.random() < 0.3:
                # Random lattice point, resolved via the sharing walk.
                idx = tuple(int(rng.integers(d.size)) for d in self.dims)
                values = self.representative(idx)
                entries = self.lookup(values)
                if not entries:
                    continue
                entry = entries[int(rng.integers(len(entries)))]
            else:
                idx = keys[int(rng.integers(len(keys)))]
                values = self.representative(idx)
                q = self._buckets[idx]
                entry = q[int(rng.integers(len(q)))]
            out.append((values, entry))
        return out

    # -- stats -------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    @property
    def num_entries(self) -> int:
        return sum(len(q) for q in self._buckets.values())

    def entries(self) -> Iterator[Tuple[Tuple[int, ...], Entry]]:
        for idx, q in self._buckets.items():
            for e in q:
                yield idx, e
