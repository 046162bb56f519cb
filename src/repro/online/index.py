"""Merge-on-read over (base Z-index, delta memtable): the online index.

:class:`OnlineIndex` is a :class:`~repro.interfaces.SpatialIndex` that
wraps a built base index plus an LSM :class:`~repro.online.delta.
DeltaBuffer`.  Writes land in the delta; queries merge the base result
with a vectorized scan over the live delta rows and subtract the
in-window tombstones.  Because deletes are validated at record time and
points carry no identity beyond their coordinates, the merge is exact
multiset arithmetic — ``merged = base + delta_live − tombstones`` — and
query results are identical (up to row order, which canonicalisation
absorbs) to an index eagerly rebuilt from the merged point set.

Compaction follows the freeze → merge-aside → swap protocol:

1. under the lock, the active delta is frozen into an immutable
   :class:`DeltaView` and a fresh buffer starts absorbing new writes;
2. outside the lock, an O(n) copy-on-write clone of the base (the
   snapshot-state round trip — layout preserved, shared pages promote on
   first mutation) absorbs the frozen inserts and tombstones through the
   incremental insert/delete paths;
3. under the lock, the merged clone atomically replaces the base (one
   attribute rebind, exactly the hot-swap adapt() performs) and the
   frozen view is dropped.

Queries concurrent with step 2 keep seeing ``old base + frozen +
active`` — the same multiset — so compaction never blocks or torn-reads
the serving path.  The generation counter the plan cache keys on is
bumped by every mutation and every swap.

Thread safety: one reentrant lock serialises every public method, the
same coarse discipline the HTTP service already applies to its engine.
The freeze/merge/swap split keeps the lock hold times O(delta), never
O(index).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rect
from repro.interfaces import SpatialIndex
from repro.online.delta import DeltaBuffer, DeltaView
from repro.results import ResultSet
from repro.zindex.base import ZIndex

__all__ = ["OnlineIndex"]


class _State:
    """One immutable (base, frozen, active) triple, swapped atomically.

    Readers grab ``self._state`` once and work off the triple; writers
    install a fresh triple under the lock.  The triple — not three
    separate attributes — is what makes the compaction swap atomic to
    any reader.
    """

    __slots__ = ("base", "frozen", "delta")

    def __init__(
        self, base: SpatialIndex, frozen: Optional[DeltaView], delta: DeltaBuffer
    ) -> None:
        self.base = base
        self.frozen = frozen
        self.delta = delta


def _subtract_tombstones(
    xs: np.ndarray, ys: np.ndarray, tomb_x: np.ndarray, tomb_y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Remove one row per tombstone occurrence (earliest match first).

    Which physical row a tombstone consumes is immaterial — rows are
    coordinate pairs, identical coordinates are indistinguishable — but
    taking the earliest keeps the output deterministic.
    """
    if tomb_x.shape[0] == 0 or xs.shape[0] == 0:
        return xs, ys
    keep = np.ones(xs.shape[0], dtype=bool)
    coords, counts = np.unique(
        np.stack([tomb_x, tomb_y], axis=1), axis=0, return_counts=True
    )
    for (cx, cy), multiplicity in zip(coords, counts):
        hits = np.flatnonzero((xs == cx) & (ys == cy) & keep)
        keep[hits[: int(multiplicity)]] = False
    return xs[keep], ys[keep]


class OnlineIndex(SpatialIndex):
    """A base index + LSM delta buffer serving a merged, mutable view."""

    name = "Online"

    def __init__(self, base: SpatialIndex) -> None:
        if isinstance(base, OnlineIndex):
            raise TypeError("cannot stack OnlineIndex on top of OnlineIndex")
        self._lock = threading.RLock()
        # Serialises the structural operations (compaction, full rebuild,
        # incremental adapt) against each other for their whole duration;
        # always acquired *before* ``_lock``, never the other way around.
        self._maintenance_lock = threading.Lock()
        self._state = _State(base, None, DeltaBuffer())
        self._flat_generation = 0
        self.name = f"Online[{base.name}]"
        self.compactions = 0
        self.compaction_seconds = 0.0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> SpatialIndex:
        """The current base index (hot-swapped by compaction/adapt)."""
        return self._state.base

    @property
    def counters(self):
        """Cost counters, shared with the current base index.

        Delta-scan work is added onto the same object, so engine metrics
        and advise() replays see the merged path's true scan cost.
        """
        return self._state.base.counters

    @counters.setter
    def counters(self, value) -> None:  # SpatialIndex.__init__ compatibility
        self._state.base.counters = value

    @property
    def leaf_capacity(self) -> Optional[int]:
        return getattr(self._state.base, "leaf_capacity", None)

    def delta_stats(self) -> dict:
        """A point-in-time summary of the write path (stats/metrics)."""
        with self._lock:
            state = self._state
            frozen = state.frozen
            return {
                "live": state.delta.live_count,
                "tombstones": state.delta.tombstone_count,
                "rows": state.delta.rows,
                "frozen_live": 0 if frozen is None else frozen.live_count,
                "frozen_tombstones": 0 if frozen is None else frozen.tombstone_count,
                "compacting": frozen is not None,
                "compactions": self.compactions,
                "generation": self._flat_generation,
            }

    def delta_age_seconds(self) -> float:
        """Seconds since the oldest un-compacted write (0.0 when clean)."""
        with self._lock:
            first = self._state.delta.first_write_monotonic
            if first is None:
                return 0.0
            return max(0.0, time.monotonic() - first)

    def __len__(self) -> int:
        with self._lock:
            state = self._state
            total = len(state.base) + state.delta.live_count - state.delta.tombstone_count
            if state.frozen is not None:
                total += state.frozen.live_count - state.frozen.tombstone_count
            return total

    def extent(self) -> Optional[Rect]:
        with self._lock:
            state = self._state
            extent = state.base.extent()
            boxes = [state.delta.bbox]
            if state.frozen is not None:
                boxes.append(state.frozen.bbox)
            for box in boxes:
                if box is None:
                    continue
                grown = Rect(box[0], box[1], box[2], box[3])
                extent = grown if extent is None else Rect(
                    min(extent.xmin, grown.xmin), min(extent.ymin, grown.ymin),
                    max(extent.xmax, grown.xmax), max(extent.ymax, grown.ymax),
                )
            return extent

    def size_bytes(self) -> int:
        with self._lock:
            state = self._state
            return state.base.size_bytes() + state.delta.nbytes()

    def all_points(self) -> List[Point]:
        """The merged point multiset: base order, tombstones removed, delta appended."""
        with self._lock:
            state = self._state
            xs, ys = self._merged_rows_full(state)
            return [Point(float(x), float(y)) for x, y in zip(xs, ys)]

    def _prime_query_caches(self) -> None:
        prime = getattr(self._state.base, "_prime_query_caches", None)
        if prime is not None:
            prime()

    # ------------------------------------------------------------------
    # merged reads
    # ------------------------------------------------------------------
    def _quiet(self, state: _State) -> bool:
        return state.frozen is None and state.delta.is_empty

    def _merge_result(self, state: _State, query: Rect, base_result: ResultSet) -> ResultSet:
        delta = state.delta
        frozen = state.frozen
        bx, by = base_result.as_arrays()
        parts_x = [np.asarray(bx, dtype=np.float64)]
        parts_y = [np.asarray(by, dtype=np.float64)]
        scanned = delta.live_count
        if frozen is not None:
            scanned += frozen.live_count
            fx, fy = frozen.scan(query)
            parts_x.append(fx)
            parts_y.append(fy)
        ax, ay = delta.scan(query)
        parts_x.append(ax)
        parts_y.append(ay)
        dtx, dty = delta.tombstones_in(query)
        tombs_x = [dtx]
        tombs_y = [dty]
        if frozen is not None:
            ftx, fty = frozen.tombstones_in(query)
            tombs_x.append(ftx)
            tombs_y.append(fty)
        tomb_x = np.concatenate(tombs_x) if len(tombs_x) > 1 else tombs_x[0]
        tomb_y = np.concatenate(tombs_y) if len(tombs_y) > 1 else tombs_y[0]
        extra = sum(p.shape[0] for p in parts_x[1:])
        counters = state.base.counters
        counters.points_filtered += scanned
        if extra == 0 and tomb_x.shape[0] == 0:
            return base_result
        xs = np.concatenate(parts_x)
        ys = np.concatenate(parts_y)
        xs, ys = _subtract_tombstones(xs, ys, tomb_x, tomb_y)
        counters.points_returned += int(xs.shape[0]) - base_result.count()
        return ResultSet.from_arrays(xs, ys)

    def _merged_rows_full(self, state: _State) -> Tuple[np.ndarray, np.ndarray]:
        """Every merged row, for all_points()/conservation checks."""
        base = state.base
        points = base.all_points() if hasattr(base, "all_points") else list(base)
        bx = np.fromiter((p.x for p in points), dtype=np.float64, count=len(points))
        by = np.fromiter((p.y for p in points), dtype=np.float64, count=len(points))
        parts_x, parts_y = [bx], [by]
        tombs_x, tombs_y = [], []
        if state.frozen is not None:
            parts_x.append(state.frozen.xs)
            parts_y.append(state.frozen.ys)
            tombs_x.append(state.frozen.tomb_x)
            tombs_y.append(state.frozen.tomb_y)
        ax, ay = state.delta.live_xy()
        parts_x.append(ax)
        parts_y.append(ay)
        dtx, dty = state.delta.tombstone_xy()
        tombs_x.append(dtx)
        tombs_y.append(dty)
        xs = np.concatenate(parts_x)
        ys = np.concatenate(parts_y)
        tomb_x = np.concatenate(tombs_x) if tombs_x else np.empty(0)
        tomb_y = np.concatenate(tombs_y) if tombs_y else np.empty(0)
        return _subtract_tombstones(xs, ys, tomb_x, tomb_y)

    def range_query(self, query: Rect) -> ResultSet:
        with self._lock:
            state = self._state
            base_result = state.base.range_query(query)
            if self._quiet(state):
                return base_result
            return self._merge_result(state, query, base_result)

    def _range_query_points(self, query: Rect) -> List[Point]:
        return self.range_query(query).points()

    def batch_range_query(self, queries: Sequence[Rect]) -> List[ResultSet]:
        with self._lock:
            state = self._state
            base_results = state.base.batch_range_query(queries)
            if self._quiet(state):
                return base_results
            return [
                self._merge_result(state, query, result)
                for query, result in zip(queries, base_results)
            ]

    def range_count(self, query: Rect) -> int:
        with self._lock:
            state = self._state
            count = state.base.range_count(query)
            if self._quiet(state):
                return count
            delta = state.delta
            state.base.counters.points_filtered += delta.live_count
            count += delta.count_in(query) - delta.tombstone_count_in(query)
            if state.frozen is not None:
                state.base.counters.points_filtered += state.frozen.live_count
                count += state.frozen.count_in(query)
                count -= state.frozen.tombstone_count_in(query)
            return count

    def batch_range_count(self, queries: Sequence[Rect]) -> List[int]:
        with self._lock:
            state = self._state
            counts = state.base.batch_range_count(queries)
            if self._quiet(state):
                return counts
            delta = state.delta
            frozen = state.frozen
            out = []
            for query, count in zip(queries, counts):
                count += delta.count_in(query) - delta.tombstone_count_in(query)
                if frozen is not None:
                    count += frozen.count_in(query) - frozen.tombstone_count_in(query)
                out.append(count)
            state.base.counters.points_filtered += len(queries) * (
                delta.live_count + (0 if frozen is None else frozen.live_count)
            )
            return out

    def point_query(self, point: Point) -> bool:
        with self._lock:
            return self._available(self._state, point.x, point.y) > 0

    def knn(
        self, center: Point, k: int, initial_radius: Optional[float] = None
    ) -> ResultSet:
        with self._lock:
            state = self._state
            if self._quiet(state):
                return state.base.knn(center, k, initial_radius)
            # The generic expanding-window kNN runs on *merged* range
            # queries, so delta inserts and tombstones participate exactly.
            return SpatialIndex.knn(self, center, k, initial_radius)

    def batch_knn(
        self, centers: Sequence[Point], k: int, initial_radius: Optional[float] = None
    ) -> List[ResultSet]:
        with self._lock:
            state = self._state
            if self._quiet(state):
                return state.base.batch_knn(centers, k, initial_radius)
            return [self.knn(center, k, initial_radius) for center in centers]

    def radius_query(self, center: Point, radius: float) -> ResultSet:
        return self.batch_radius_query((center,), radius)[0]

    def batch_radius_query(
        self, centers: Sequence[Point], radius: float
    ) -> List[ResultSet]:
        with self._lock:
            state = self._state
            if self._quiet(state):
                return state.base.batch_radius_query(centers, radius)
            return SpatialIndex.batch_radius_query(self, centers, radius)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _available(self, state: _State, x: float, y: float) -> int:
        """Live occurrences of exactly (x, y) across the merged view."""
        probe = Rect(x, y, x, y)
        count = state.base.range_count(probe)
        count += state.delta.exact_live(x, y) - state.delta.exact_tombstones(x, y)
        if state.frozen is not None:
            count += state.frozen.exact_live(x, y)
            count -= state.frozen.exact_tombstones(x, y)
        return count

    def insert(self, point: Point) -> None:
        """Absorb an insert into the delta; the base index is untouched."""
        x, y = float(point.x), float(point.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"insert requires finite coordinates, got ({x}, {y})")
        with self._lock:
            self._state.delta.append(x, y, clock=time.monotonic())
            self._flat_generation += 1

    def delete(self, point: Point) -> bool:
        """Delete one merged occurrence: cancel a delta insert or tombstone the base."""
        x, y = float(point.x), float(point.y)
        with self._lock:
            state = self._state
            if state.delta.kill_newest(x, y):
                self._flat_generation += 1
                return True
            if self._available(state, x, y) <= 0:
                return False
            state.delta.tombstone(x, y, clock=time.monotonic())
            self._flat_generation += 1
            return True

    # ------------------------------------------------------------------
    # compaction (freeze → merge aside → swap)
    # ------------------------------------------------------------------
    def compact(self) -> Optional[dict]:
        """Merge the buffered delta into the columnar core.

        Returns a stats dict, or ``None`` when there was nothing to do.
        Queries and writes proceed during the merge; only the freeze and
        the swap take the state lock.
        """
        with self._maintenance_lock:
            with self._lock:
                state = self._state
                if state.frozen is not None or state.delta.is_empty:
                    return None
                if not isinstance(state.base, ZIndex):
                    raise TypeError(
                        "online compaction requires a Z-index family base, "
                        f"got {state.base.name}"
                    )
                frozen = state.delta.freeze()
                self._state = _State(state.base, frozen, DeltaBuffer())
                # Snapshot under the lock: taking it may gather the flat
                # scan cache, which must not race a concurrent query doing
                # the same.  The merge itself runs on the clone, unlocked.
                base_state = state.base.snapshot_state()
            start = time.perf_counter()
            try:
                new_base = self._merge_into_clone(base_state, frozen)
            except BaseException:
                # Roll the frozen rows back into visibility as a plain delta
                # so no acknowledged write is lost; a later compaction retries.
                with self._lock:
                    current = self._state
                    self._state = _State(
                        current.base, None, DeltaBuffer.merged(frozen, current.delta)
                    )
                raise
            seconds = time.perf_counter() - start
            with self._lock:
                current = self._state
                # The counters object survives the swap so replay
                # measurements stay monotone across compactions.
                new_base.counters = current.base.counters
                # One attribute rebind — the same atomic hot-swap adapt() uses.
                self._state = _State(new_base, None, current.delta)
                self._flat_generation += 1
                self.compactions += 1
                self.compaction_seconds += seconds
            return {
                "merged_inserts": frozen.live_count,
                "merged_tombstones": frozen.tombstone_count,
                "seconds": seconds,
                "points": len(new_base),
            }

    @staticmethod
    def _merge_into_clone(base_state, frozen: DeltaView) -> SpatialIndex:
        """An O(n) copy-on-write clone of the base absorbing the frozen delta."""
        clone = ZIndex.from_snapshot_state(base_state, validate=False)
        clone.insert_many(frozen.xs, frozen.ys)
        for x, y in zip(frozen.tomb_x, frozen.tomb_y):
            clone.delete(Point(float(x), float(y)))
        return clone

    # ------------------------------------------------------------------
    # full rebuild (engine.adapt through the delta machinery)
    # ------------------------------------------------------------------
    def rebuild(self, builder: Callable[[List[Point]], SpatialIndex]) -> SpatialIndex:
        """Full re-derive: freeze, build from the merged points, swap.

        ``builder`` receives the merged point list (base + frozen delta,
        tombstones applied) and returns the replacement base.  Writes
        arriving during the build land in the new active delta and stay
        visible throughout; the swap preserves them.  This is how
        ``SpatialEngine.adapt()`` re-derives the whole layout without
        taking the index offline.
        """
        with self._maintenance_lock:
            with self._lock:
                state = self._state
                frozen = state.delta.freeze()
                self._state = _State(state.base, frozen, DeltaBuffer())
                # Materialise the merged rows under the lock — reading the
                # base may build its boxed-point cache, which must not race
                # a concurrent query doing the same.
                merge_state = _State(state.base, frozen, DeltaBuffer())
                xs, ys = self._merged_rows_full(merge_state)
            points = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
            try:
                new_base = builder(points)
            except BaseException:
                with self._lock:
                    current = self._state
                    self._state = _State(
                        current.base, None, DeltaBuffer.merged(frozen, current.delta)
                    )
                raise
            with self._lock:
                current = self._state
                new_base.counters = current.base.counters
                self._state = _State(new_base, None, current.delta)
                self._flat_generation += 1
            return new_base

    # ------------------------------------------------------------------
    # incremental adapt (scoped subtree re-derive on a clone, then swap)
    # ------------------------------------------------------------------
    def incremental_adapt(self, rects: Sequence[Rect], **kwargs):
        """Re-derive only the base subtrees whose scan cost regressed.

        Runs :func:`repro.online.incremental.incremental_adapt` on a
        copy-on-write clone of the base and swaps the clone in if
        anything was re-derived — queries never observe a half-spliced
        tree.  The delta buffer is untouched: re-derive changes the
        layout, not the contents, so the merged view is unaffected.

        Keyword arguments (``scope_depth``, ``hot_factor``, ``baselines``,
        …) are forwarded; returns the
        :class:`~repro.online.incremental.IncrementalAdaptReport`.
        """
        from repro.online.incremental import incremental_adapt as _incremental_adapt

        with self._maintenance_lock:
            with self._lock:
                base = self._state.base
                if not isinstance(base, ZIndex):
                    raise TypeError(
                        f"incremental adapt requires a Z-index family base, got {base.name}"
                    )
                base_state = base.snapshot_state()
            clone = ZIndex.from_snapshot_state(base_state, validate=False)
            report = _incremental_adapt(clone, rects, **kwargs)
            if report.selected:
                with self._lock:
                    current = self._state
                    clone.counters = current.base.counters
                    self._state = _State(clone, current.frozen, current.delta)
                    self._flat_generation += 1
            return report
