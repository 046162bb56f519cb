"""Query-plan cache: exact-repeat plans served from a keyed LRU.

Production range workloads are dominated by exact repeats (the
:class:`~repro.workload_log.WorkloadLog` records show the same rects and
centers arriving again and again), yet the engine re-ran every repeat
through projection and scan.  :class:`PlanCache` closes that gap: the
:class:`~repro.engine.SpatialEngine` keys each executed plan — kind,
parameters, ``count_only`` and ``limit`` — and serves an exact repeat
straight from the cache.

Correctness rides entirely on the flat-cache generation counter the
indexes already maintain (``_flat_generation``, bumped by every
mutation, adapt and rebuild): an entry remembers the *identity* of the
index it was computed on (a weak reference, so the cache can never
resurrect or pin a replaced index) and the generation at compute time,
and :meth:`PlanCache.lookup` refuses the entry the instant either
changed.  Mutation, :meth:`~repro.engine.SpatialEngine.adapt` and
hot-swap invalidation therefore need no hooks at all — stale entries
die on their next lookup and age out of the LRU.  Indexes that do not
expose the generation counter (the non-columnar baselines) are simply
never cached.

Cached values are whatever the engine returned to the caller —
:class:`~repro.results.ResultSet` objects are immutable columnar views,
safe to hand out repeatedly; counts are ints.  Cost counters are *not*
replayed on a hit: a cache hit does no index work, and the counters
keep their meaning of "work the index performed".
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.query import KnnQuery, Query, RangeQuery

__all__ = ["MISS", "CacheStats", "PlanCache", "plan_key"]

#: Sentinel returned by :meth:`PlanCache.lookup` when no live entry exists
#: (``None`` is a legitimate cached value).
MISS: Any = object()


def plan_key(plan: Query, count_only: bool, limit: Optional[int]) -> Tuple:
    """The cache key of a range, kNN or radius plan run with these options.

    The one definition of a plan-cache key: the plan kind, its parameters,
    then ``count_only`` and ``limit``.  Cached values are uncapped counts
    or ``limit``-truncated result sets, so both options belong in the key.
    """
    if isinstance(plan, RangeQuery):
        rect = plan.rect
        return ("range", rect.xmin, rect.ymin, rect.xmax, rect.ymax, count_only, limit)
    center = plan.center
    if isinstance(plan, KnnQuery):
        return ("knn", center.x, center.y, plan.k, plan.initial_radius, count_only, limit)
    return ("radius", center.x, center.y, plan.radius, count_only, limit)


@dataclass
class CacheStats:
    """Running counters of cache behaviour (monotone, never reset by clear)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class PlanCache:
    """A bounded LRU of executed plans, invalidated by index generation.

    ``capacity`` bounds the number of live entries; the least recently
    *used* (looked up or stored) entry is evicted first.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Tuple[Any, int, Any]]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def generation_of(index: Any) -> Optional[int]:
        """The index's flat-cache generation, or ``None`` when uncachable."""
        return getattr(index, "_flat_generation", None)

    def lookup(self, key: Hashable, index: Any) -> Any:
        """The cached value for ``key`` computed on this exact ``index``
        at its current generation, or :data:`MISS`.

        Every call counts exactly one hit or one miss, so engine-level
        hit-rate accounting is exact.
        """
        generation = self.generation_of(index)
        if generation is None:
            self.stats.misses += 1
            return MISS
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return MISS
        index_ref, entry_generation, value = entry
        if index_ref() is not index or entry_generation != generation:
            # Computed on a replaced index or a superseded generation:
            # drop it now rather than waiting for LRU pressure.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def store(self, key: Hashable, index: Any, value: Any) -> bool:
        """Remember ``value`` for ``key`` at the index's current generation.

        Returns ``False`` (and stores nothing) for uncachable indexes.
        """
        generation = self.generation_of(index)
        if generation is None:
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (weakref.ref(index), generation, value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    def clear(self) -> None:
        """Drop every entry (stats are preserved — they count lifetime totals)."""
        self._entries.clear()

    def keys(self):
        """Live keys in LRU order (oldest first) — for tests and inspection."""
        return list(self._entries.keys())
