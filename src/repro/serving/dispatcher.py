"""The scatter/gather dispatcher: one :class:`SpatialIndex` over many shards.

:class:`ShardedIndex` presents a shard directory as a single index with
the full :class:`~repro.interfaces.SpatialIndex` query surface, so every
consumer of that surface — the engine facade, query plans, the join
algorithms, benchmark harnesses — works against a sharded deployment
unchanged.  Each query is routed to the shards whose data bounding box
can contribute (:meth:`ShardPlan.route_rect` / ``route_point``), executed
there, and the partial results merged.

Merging is exact, not approximate — the merged results are byte-identical
to the unsharded engine's, including result *ordering*:

* **Range and radius queries** return rows in flat (curve) order.  Shards
  are contiguous curve ranges, so concatenating shard results in shard-id
  order *is* the global flat order; the merge is a concatenation.
* **kNN** returns rows in (distance², flat position) order.  Each shard
  returns its local top-k in that order; concatenating in shard-id order
  and stable-sorting on distance² reproduces the global order exactly —
  ties keep concatenation order, which is flat order.  The scalar path
  additionally visits shards nearest-first and skips any shard whose
  bounding-box mindist² strictly exceeds the current k-th distance (a
  pruned shard cannot contribute a result *or* displace a tie).
* **Cost counters** are exact: every backend reply carries the counter
  delta it caused, and the dispatcher accumulates the deltas into its own
  ``counters``, so Figure-13-style accounting spans process boundaries.

The dispatcher is backend-agnostic: shards can live in-process
(:class:`~repro.serving.workers.LocalBackend`) or in forked worker
processes sharing mmap'd snapshot columns through the page cache
(:class:`~repro.serving.workers.WorkerBackend`); scatters are pipelined so
worker-backed shards execute concurrently.  :func:`open_sharded` builds
the whole stack from a shard directory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry import Point, Rect
from repro.interfaces import (
    SpatialIndex,
    require_finite_center,
    require_valid_radius,
)
from repro.results import ResultSet
from repro.serving.sharding import ShardPlan
from repro.serving.workers import LocalBackend, spawn_shard_backends

PathLike = Union[str, Path]

_Rows = Tuple[np.ndarray, np.ndarray]


def _concat_rows(chunks: Sequence[_Rows]) -> ResultSet:
    """Merge per-shard result rows by concatenation (shard order = flat order)."""
    chunks = [chunk for chunk in chunks if int(chunk[0].shape[0])]
    if not chunks:
        return ResultSet.empty()
    if len(chunks) == 1:
        xs, ys = chunks[0]
        return ResultSet.from_arrays(xs, ys)
    xs = np.concatenate([chunk[0] for chunk in chunks])
    ys = np.concatenate([chunk[1] for chunk in chunks])
    return ResultSet.from_arrays(xs, ys)


def _knn_merge(
    chunks: Sequence[_Rows], cx: float, cy: float, k: int
) -> ResultSet:
    """Global top-``k`` from per-shard top-``k`` rows (shard-id order).

    Distances are recomputed with the engine's exact arithmetic, and the
    stable sort over the concatenation resolves ties to concatenation
    order — which, with chunks in shard-id order, is global flat order:
    the unsharded kernel's tie-break.
    """
    merged = _concat_rows(chunks)
    count = merged.count()
    if count <= 0:
        return merged
    xs, ys = merged.as_arrays()
    dx = xs - cx
    dy = ys - cy
    d2 = dx * dx
    d2 += dy * dy
    order = np.argsort(d2, kind="stable")
    if count > k:
        order = order[:k]
    elif count == k and bool((order == np.arange(count)).all()):
        return merged
    return ResultSet.from_arrays(xs[order], ys[order])


class ShardedIndex(SpatialIndex):
    """A read-only :class:`SpatialIndex` served by Z-range shards.

    Construct via :func:`open_sharded` (or directly from a
    :class:`ShardPlan` plus one backend per shard, in shard-id order).
    Queries scatter to the routed shards, gather the partial rows, and
    merge them into lazy :class:`ResultSet` views; ``counters`` accumulate
    the exact per-shard deltas.  Mutations raise — sharded serving is the
    deploy-an-offline-build workflow, and the base-class ``insert`` /
    ``delete`` defaults already say so.

    ``shard_busy_seconds`` accumulates each shard's reported execution
    time (reset with :meth:`reset_busy`); the serving benchmark uses it to
    model worker-count scaling without needing one core per worker.
    """

    name = "ShardedZIndex"

    def __init__(self, plan: ShardPlan, backends: Sequence[Any]) -> None:
        super().__init__()
        if len(backends) != plan.num_shards:
            raise ValueError(
                f"plan has {plan.num_shards} shards but {len(backends)} backends"
            )
        self.plan = plan
        self._backends = list(backends)
        self._size_bytes: Optional[int] = None
        self.shard_busy_seconds = [0.0] * plan.num_shards
        #: Optional per-shard observability sink (see :mod:`repro.obs`);
        #: attach with :meth:`attach_metrics`, ``None`` costs nothing.
        self.metrics = None
        self._closed = False

    # -- plumbing ----------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def attach_metrics(self, registry):
        """Attach (or detach, with ``None``) a per-shard metrics sink.

        Accepts a :class:`~repro.obs.registry.MetricsRegistry` (a
        :class:`~repro.obs.instrument.ShardMetrics` adapter is created
        over it) or a ready-made adapter; returns the active adapter.
        Every scatter round then records each shard's busy time and exact
        counter delta, labelled by shard id and plan kind.
        """
        if registry is None:
            self.metrics = None
        else:
            from repro.obs.instrument import ShardMetrics

            self.metrics = (
                registry if isinstance(registry, ShardMetrics)
                else ShardMetrics(registry)
            )
        return self.metrics

    def _absorb(
        self, shard_id: int, delta: Dict[str, int], busy: float, method: str = ""
    ) -> None:
        counters = self.counters
        for name, value in delta.items():
            setattr(counters, name, getattr(counters, name) + value)
        self.shard_busy_seconds[shard_id] += busy
        if self.metrics is not None:
            self.metrics.observe_shard(shard_id, method, busy, delta)

    def _scatter(
        self, targets: Sequence[Tuple[int, Any]], method: str
    ) -> List[Any]:
        """Pipeline one request per target shard; replies in target order.

        ``targets`` is ``[(shard_id, payload), ...]``.  All requests are
        submitted before any reply is collected, so shards hosted by
        different worker processes execute concurrently.  Counter deltas
        and busy times are absorbed here.  When a submit or a reply
        fails, every reply still outstanding is drained before the first
        error is raised, so no later request reads a stale reply.
        """
        backends = self._backends
        error = None
        for n, (shard_id, payload) in enumerate(targets):
            try:
                backends[shard_id].submit(method, payload)
            except Exception as exc:  # noqa: BLE001 - raised after the drain
                error, targets = exc, targets[:n]
                break
        replies = []
        for shard_id, _payload in targets:
            try:
                data, delta, busy = backends[shard_id].collect()
            except Exception as exc:  # noqa: BLE001 - raised after the drain
                if error is None:
                    error = exc
                continue
            self._absorb(shard_id, delta, busy, method)
            replies.append(data)
        if error is not None:
            raise error
        return replies

    def reset_busy(self) -> None:
        self.shard_busy_seconds = [0.0] * self.plan.num_shards

    def reset_counters(self) -> None:
        super().reset_counters()
        for backend in self._backends:
            backend.request("reset")

    # -- range queries -----------------------------------------------------
    def _route_windows(
        self, queries: Sequence[Rect]
    ) -> List[Tuple[int, List[int]]]:
        """Per shard, the query indices whose window overlaps its bounds."""
        routed: List[Tuple[int, List[int]]] = []
        for spec in self.plan.shards:
            hits = [j for j, query in enumerate(queries) if spec.overlaps_rect(query)]
            if hits:
                routed.append((spec.shard_id, hits))
        return routed

    def batch_range_query(self, queries: Sequence[Rect]) -> List[ResultSet]:
        queries = list(queries)
        if not queries:
            return []
        windows = np.array(
            [[q.xmin, q.ymin, q.xmax, q.ymax] for q in queries], dtype=np.float64
        )
        routed = self._route_windows(queries)
        replies = self._scatter(
            [(shard_id, windows[hits]) for shard_id, hits in routed],
            "batch_range_rows",
        )
        chunks: List[List[_Rows]] = [[] for _ in queries]
        for (_shard_id, hits), rows in zip(routed, replies):
            for j, pair in zip(hits, rows):
                chunks[j].append(pair)
        return [_concat_rows(per_query) for per_query in chunks]

    def range_query(self, query: Rect) -> ResultSet:
        return self.batch_range_query((query,))[0]

    def _range_query_points(self, query: Rect) -> List[Point]:
        return self.range_query(query).points()

    def batch_range_count(self, queries: Sequence[Rect]) -> List[int]:
        queries = list(queries)
        if not queries:
            return []
        windows = np.array(
            [[q.xmin, q.ymin, q.xmax, q.ymax] for q in queries], dtype=np.float64
        )
        routed = self._route_windows(queries)
        replies = self._scatter(
            [(shard_id, windows[hits]) for shard_id, hits in routed],
            "batch_range_count",
        )
        totals = [0] * len(queries)
        for (_shard_id, hits), counts in zip(routed, replies):
            for j, count in zip(hits, np.asarray(counts).tolist()):
                totals[j] += int(count)
        return totals

    def range_count(self, query: Rect) -> int:
        return self.batch_range_count((query,))[0]

    # -- kNN ---------------------------------------------------------------
    def batch_knn(
        self, centers: Sequence[Point], k: int, initial_radius: Optional[float] = None
    ) -> List[ResultSet]:
        centers = list(centers)
        for center in centers:
            require_finite_center(center)
        total = len(self)
        if k <= 0 or total == 0 or not centers:
            return [ResultSet.empty() for _ in centers]
        capped = min(k, total)
        radius = (
            initial_radius
            if initial_radius and initial_radius > 0
            else self._default_radius()
        )
        probe = np.array([[c.x, c.y] for c in centers], dtype=np.float64)
        targets = [
            (spec.shard_id, (probe, capped, radius))
            for spec in self.plan.shards
            if spec.num_points
        ]
        replies = self._scatter(targets, "batch_knn_rows")
        results: List[ResultSet] = []
        for j, center in enumerate(centers):
            per_center = [rows[j] for rows in replies]
            results.append(
                _knn_merge(per_center, float(center.x), float(center.y), capped)
            )
        return results

    def knn(
        self, center: Point, k: int, initial_radius: Optional[float] = None
    ) -> ResultSet:
        """Single-probe kNN with nearest-first shard visiting and pruning.

        Identical results to :meth:`batch_knn` on one center (and to the
        unsharded engine), but shards are visited in order of bounding-box
        mindist² and, once ``k`` candidates are in hand, a shard whose
        mindist² strictly exceeds the current k-th distance² is never
        queried: its every point is strictly farther, so it can neither
        enter the top-k nor win a flat-order tie.
        """
        require_finite_center(center)
        total = len(self)
        if k <= 0 or total == 0:
            return ResultSet.empty()
        capped = min(k, total)
        radius = (
            initial_radius
            if initial_radius and initial_radius > 0
            else self._default_radius()
        )
        cx = float(center.x)
        cy = float(center.y)
        probe = np.array([[cx, cy]], dtype=np.float64)
        visit = sorted(
            (spec for spec in self.plan.shards if spec.num_points),
            key=lambda spec: (spec.mindist_squared(cx, cy), spec.shard_id),
        )
        collected: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        gathered = 0
        kth_d2 = float("inf")
        for spec in visit:
            if gathered >= capped and spec.mindist_squared(cx, cy) > kth_d2:
                continue
            (rows,) = self._scatter(
                [(spec.shard_id, (probe, capped, radius))], "batch_knn_rows"
            )
            xs, ys = rows[0]
            if not int(xs.shape[0]):
                continue
            dx = xs - cx
            dy = ys - cy
            d2 = dx * dx
            d2 += dy * dy
            collected.append((spec.shard_id, xs, ys, d2))
            gathered += int(xs.shape[0])
            if gathered >= capped:
                all_d2 = np.sort(np.concatenate([c[3] for c in collected]))
                kth_d2 = float(all_d2[capped - 1])
        collected.sort(key=lambda chunk: chunk[0])
        return _knn_merge(
            [(chunk[1], chunk[2]) for chunk in collected], cx, cy, capped
        )

    # -- radius queries ----------------------------------------------------
    def batch_radius_query(
        self, centers: Sequence[Point], radius: float
    ) -> List[ResultSet]:
        require_valid_radius(radius)
        centers = list(centers)
        for center in centers:
            require_finite_center(center)
        if not centers:
            return []
        windows = [
            Rect(c.x - radius, c.y - radius, c.x + radius, c.y + radius)
            for c in centers
        ]
        probe = np.array([[c.x, c.y] for c in centers], dtype=np.float64)
        routed = self._route_windows(windows)
        replies = self._scatter(
            [(shard_id, (probe[hits], radius)) for shard_id, hits in routed],
            "batch_radius_rows",
        )
        chunks: List[List[_Rows]] = [[] for _ in centers]
        for (_shard_id, hits), rows in zip(routed, replies):
            for j, pair in zip(hits, rows):
                chunks[j].append(pair)
        return [_concat_rows(per_center) for per_center in chunks]

    # -- point queries and introspection ----------------------------------
    def point_query(self, point: Point) -> bool:
        x = float(point.x)
        y = float(point.y)
        for spec in self.plan.route_point(x, y):
            (hit,) = self._scatter(
                [(spec.shard_id, (x, y))], "point_query"
            )
            if hit:
                return True
        return False

    def __len__(self) -> int:
        return self.plan.num_points

    def size_bytes(self) -> int:
        if self._size_bytes is None:
            self._size_bytes = sum(
                int(backend.request("size_bytes")) for backend in self._backends
            )
        return self._size_bytes

    def extent(self) -> Optional[Rect]:
        return self.plan.extent()

    def column_info(self) -> List[Dict[str, Any]]:
        """Per shard, how its engine holds the columns (mmap observability)."""
        return [backend.request("column_info") for backend in self._backends]

    def worker_rss(self) -> List[Dict[str, Optional[int]]]:
        """Per shard, the serving process's resident-set readings."""
        return [backend.request("rss") for backend in self._backends]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for backend in self._backends:
            backend.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_sharded(
    directory: PathLike,
    *,
    workers: int = 0,
    mmap: bool = True,
    validate: bool = False,
) -> ShardedIndex:
    """Open a shard directory (built by :func:`~repro.serving.build_shards`).

    ``workers=0`` loads every shard in the calling process; ``workers=W``
    forks ``W`` worker processes and assigns shards round-robin, so any
    ``1 <= W <= num_shards`` serves the directory with real process
    parallelism.  ``mmap=True`` (the default) maps each shard snapshot's
    columns zero-copy — workers share the physical pages through the OS
    page cache.  ``validate=False`` skips the O(n) bbox cross-check on
    open (structural validation still runs), the right trade for serving
    snapshots produced by this library.
    """
    plan = ShardPlan.load(directory)
    paths = [plan.shard_path(spec) for spec in plan.shards]
    if workers <= 0:
        backends: List[Any] = [
            LocalBackend.open(path, mmap=mmap, validate=validate) for path in paths
        ]
    else:
        backends = spawn_shard_backends(
            paths, workers, mmap=mmap, validate=validate
        )
    return ShardedIndex(plan, backends)
