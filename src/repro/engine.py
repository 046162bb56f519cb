"""The columnar-first query facade: build/load/save and plan execution.

:class:`SpatialEngine` is the library's single public entry point for
serving spatial workloads.  It owns the index lifecycle — build from a
dataset (:meth:`SpatialEngine.build`), restore from a snapshot
(:meth:`SpatialEngine.load`), the build-once/serve-many combination of both
(:meth:`SpatialEngine.open`), persist (:meth:`SpatialEngine.save`) — and it
executes the typed query plans of :mod:`repro.query` through one dispatch:

    engine = SpatialEngine.build("wazi", points, workload, seed=1)
    hits   = engine.execute(RangeQuery(rect))                  # lazy ResultSet
    n      = engine.execute(RangeQuery(rect), count_only=True) # int, no boxing
    firsts = engine.execute_many(plans, limit=10)

``execute_many`` recognises homogeneous plan lists and routes them through
the index's amortised batch entry points (``batch_range_query`` /
``batch_knn`` / ``batch_radius_query`` and their count-only twins), which
the Z-index family answers on its flat coordinate columns.  ``count_only``
and array-consuming executions on that family never box a single
:class:`~repro.geometry.Point`.

Beyond plan execution, the engine owns the **adaptive lifecycle** that
makes "workload-aware" a runtime property instead of a build flag:

* **observe** — ``SpatialEngine.build(..., record=True)`` (or the
  ``engine.recording():`` context manager) attaches a columnar
  :class:`~repro.workload_log.WorkloadLog` that appends every executed
  range / kNN / radius plan, cheaply enough to leave on in production;
* **advise** — :meth:`SpatialEngine.advise` scores the current layout
  against the observed (or a given) workload with a measured count-only
  replay plus the density estimators, returning a
  :class:`~repro.analysis.tuning.TuningReport`;
* **adapt** — :meth:`SpatialEngine.adapt` re-derives the layout from the
  observed workload and atomically hot-swaps the index underneath running
  queries (retained result sets stay valid through the generation-counter
  boxers), and :meth:`SpatialEngine.save` persists the observed history
  alongside the structure so :meth:`SpatialEngine.open` restores both.

For a bare index without the facade, :func:`build_index` and
:func:`build_or_load_index` are the free-function forms of
:meth:`SpatialEngine.build` and :meth:`SpatialEngine.open`.
"""

# repro-lint: public-api
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.baselines import (
    CURTree,
    FloodIndex,
    KDTreeIndex,
    QuadTreeIndex,
    QUASIIIndex,
    RTree,
    STRRTree,
    ZPGMIndex,
)
from repro.core import BaseWithSkipping, WaZI, WaZIWithoutSkipping
from repro.geometry import Point, Rect, points_to_arrays
from repro.interfaces import SpatialIndex
from repro.persistence import (
    BuildRecipe,
    SnapshotError,
    read_manifest,
    save_rebuild_snapshot,
    save_snapshot,
)
from repro.obs.instrument import EngineMetrics, OnlineMetrics, plan_kind
from repro.online import MaintenanceLoop, MaintenancePolicy, OnlineIndex
from repro.persistence.snapshot import _restore
from repro.plancache import MISS, PlanCache, plan_key
from repro.query import JoinQuery, KnnQuery, PointQuery, Query, RadiusQuery, RangeQuery
from repro.results import ResultSet
from repro.workload_log import WorkloadLog
from repro.workloads.workload import Workload
from repro.zindex import BaseZIndex, ZIndex

__all__ = [
    "INDEX_NAMES",
    "SpatialEngine",
    "as_engine",
    "build_index",
    "build_or_load_index",
]

#: Index names accepted by :func:`build_index` /
#: :meth:`SpatialEngine.build`.  Workload-aware indexes use the
#: ``workload`` argument; the rest ignore it.
INDEX_NAMES = (
    "wazi",
    "wazi-sk",
    "base",
    "base+sk",
    "str",
    "cur",
    "flood",
    "quasii",
    "zpgm",
    "rtree",
    "quadtree",
    "kdtree",
)


def build_index(
    name: str,
    points: Sequence[Point],
    workload: Sequence[Rect] = (),
    *,
    leaf_capacity: int = 64,
    seed: Optional[int] = 0,
    **kwargs,
) -> SpatialIndex:
    """Build any index in the library by name.

    Parameters
    ----------
    name:
        One of :data:`INDEX_NAMES` (case-insensitive).
    points:
        The dataset.
    workload:
        Anticipated range queries; required for the workload-aware indexes
        (``wazi``, ``wazi-sk``, ``cur``, ``flood``, ``quasii``) to have any
        effect, ignored by the others.
    leaf_capacity:
        Page size ``L`` (or the grid cell target for Flood).
    seed:
        Seed for the learned / randomised components.  ``None`` is
        forwarded verbatim to every workload-aware index (earlier revisions
        silently coerced it to ``0`` for Flood only).
    kwargs:
        Forwarded to the index constructor for index-specific options.
    """
    key = BuildRecipe.canonical_name(name)
    if key == "wazi":
        return WaZI(points, workload, leaf_capacity=leaf_capacity, seed=seed, **kwargs)
    if key == "wazi-sk":
        return WaZIWithoutSkipping(points, workload, leaf_capacity=leaf_capacity, seed=seed, **kwargs)
    if key == "base":
        return BaseZIndex(points, leaf_capacity=leaf_capacity, **kwargs)
    if key == "base+sk":
        return BaseWithSkipping(points, leaf_capacity=leaf_capacity, **kwargs)
    if key == "str":
        return STRRTree(points, leaf_capacity=leaf_capacity, **kwargs)
    if key == "cur":
        return CURTree(points, workload, leaf_capacity=leaf_capacity, **kwargs)
    if key == "flood":
        return FloodIndex(points, workload, cell_target=leaf_capacity, seed=seed, **kwargs)
    if key == "quasii":
        return QUASIIIndex(points, workload, **kwargs)
    if key == "zpgm":
        return ZPGMIndex(points, leaf_capacity=leaf_capacity, **kwargs)
    if key == "rtree":
        return RTree(points, leaf_capacity=leaf_capacity, **kwargs)
    if key == "quadtree":
        return QuadTreeIndex(points, leaf_capacity=leaf_capacity, **kwargs)
    if key == "kdtree":
        return KDTreeIndex(points, leaf_capacity=leaf_capacity, **kwargs)
    raise ValueError(f"Unknown index name {name!r}; expected one of {INDEX_NAMES}")


def _snapshot_matches_request(
    path, name, points, leaf_capacity, seed, workload=(), kwargs=None
) -> bool:
    """Whether the snapshot at ``path`` records exactly this build request.

    A manifest-only probe (no array reads), the same for both snapshot
    kinds: :meth:`BuildRecipe.matches` compares the stored ``build``
    section with the request's, the dataset included through an
    order-insensitive content fingerprint (so a regenerated same-size
    dataset is detected).  A snapshot without one — saved through bare
    ``save_snapshot``, or a structural snapshot written before recipes
    were stored — cannot be verified and never matches.
    """
    try:
        stored = read_manifest(path).get("build")
    except (SnapshotError, OSError):
        return False
    request = BuildRecipe(name, workload or (), leaf_capacity, seed, kwargs or {})
    return request.matches(stored, *points_to_arrays(points))


def build_or_load_index(
    name: str,
    points: Sequence[Point],
    workload: Sequence[Rect] = (),
    *,
    snapshot_path: Union[str, Path],
    leaf_capacity: int = 64,
    seed: Optional[int] = 0,
    rebuild: bool = False,
    **kwargs,
) -> SpatialIndex:
    """Build-once / serve-many for a bare index: the index of
    :meth:`SpatialEngine.open` with the same arguments."""
    return SpatialEngine.open(
        name, points, workload,
        snapshot_path=snapshot_path, leaf_capacity=leaf_capacity,
        seed=seed, rebuild=rebuild, **kwargs,
    ).index


def _fallback_recipe(index: ZIndex) -> BuildRecipe:
    """The recipe of a structural snapshot saved without one: the build key
    of its index class (a plain ``ZIndex`` re-derives as ``base``), its
    page size and default build arguments."""
    key = BuildRecipe.canonical_name(index.name)
    return BuildRecipe(
        key if key in INDEX_NAMES else "base", leaf_capacity=index.leaf_capacity
    )


def _as_plan_cache(
    plan_cache: Union[None, bool, int, "PlanCache"]
) -> Optional[PlanCache]:
    """Normalize the ``plan_cache`` constructor argument to a cache or None."""
    if plan_cache is None or plan_cache is False:
        return None
    if plan_cache is True:
        return PlanCache()
    if isinstance(plan_cache, PlanCache):
        return plan_cache
    if isinstance(plan_cache, int):
        return PlanCache(capacity=plan_cache)
    raise TypeError(
        f"plan_cache must be None, bool, int or PlanCache, "
        f"got {type(plan_cache).__name__}"
    )


def _answer(index: SpatialIndex, plan: Query, count_only: bool, limit: Optional[int]):
    """A range / kNN / radius plan's cacheable value from the index's scalar
    entry points: the uncapped count under ``count_only``, else the result
    set truncated to ``limit``."""
    if isinstance(plan, RangeQuery):
        if count_only:
            return index.range_count(plan.rect)
        result = index.range_query(plan.rect)
    elif isinstance(plan, KnnQuery):
        result = index.knn(plan.center, plan.k, plan.initial_radius)
    else:
        result = index.radius_query(plan.center, plan.radius)
    if count_only:
        return result.count()
    return result if limit is None else result.head(limit)


def _answers(
    index: SpatialIndex, plans: List[Query], count_only: bool, limit: Optional[int]
) -> List:
    """:func:`_answer` for a :func:`_batchable` run, through the batch entry
    points."""
    first = plans[0]
    if isinstance(first, RangeQuery):
        rects = [plan.rect for plan in plans]
        if count_only:
            return list(index.batch_range_count(rects))
        results = index.batch_range_query(rects)
    else:
        centers = [plan.center for plan in plans]
        if isinstance(first, KnnQuery):
            results = index.batch_knn(centers, first.k, first.initial_radius)
        else:
            results = index.batch_radius_query(centers, first.radius)
    if count_only:
        return [result.count() for result in results]
    return [result if limit is None else result.head(limit) for result in results]


def _batchable(plans: List[Query]) -> bool:
    """Whether one batch entry point answers all of ``plans``: range plans,
    kNN plans sharing ``k`` and ``initial_radius``, or radius plans sharing
    ``radius``."""
    first = plans[0]
    kind = type(first)
    if any(type(plan) is not kind for plan in plans):
        return False
    if kind is RangeQuery:
        return True
    if kind is KnnQuery:
        shared = (first.k, first.initial_radius)
        return all((plan.k, plan.initial_radius) == shared for plan in plans)
    if kind is RadiusQuery:
        return all(plan.radius == first.radius for plan in plans)
    return False


class SpatialEngine:
    """Facade owning one index's lifecycle and executing query plans on it.

    Wraps any :class:`~repro.interfaces.SpatialIndex` (an existing one, or
    one produced by the :meth:`build` / :meth:`load` / :meth:`open`
    constructors) and exposes:

    * ``execute(plan, *, count_only=False, limit=None)`` — run one typed
      plan from :mod:`repro.query`,
    * ``execute_many(plans, ...)`` — run a workload, batched through the
      index's amortised entry points when the plans are homogeneous,
    * ``save(path)`` — persist (structural snapshot for the Z-index
      family, build-recipe snapshot for the rest when the engine knows the
      recipe),
    * the full index protocol (``range_query``, ``knn``, ``insert``,
      counters, …) by delegation, so the engine can stand in for a bare
      index anywhere in the library.

    ``count_only`` executions return plain ``int`` counts; on the columnar
    Z-index family they are answered entirely on the coordinate columns
    (no ``Point`` is ever boxed).  ``limit`` truncates each result to its
    first ``limit`` rows in result order, staying columnar.
    """

    def __init__(
        self,
        index: SpatialIndex,
        *,
        record: bool = False,
        plan_cache: Union[None, bool, int, PlanCache] = None,
        metrics=None,
        _recipe: Optional[BuildRecipe] = None,
        _points: Optional[Sequence[Point]] = None,
        _workload_log: Optional[WorkloadLog] = None,
        _build_seconds: Optional[float] = None,
    ) -> None:
        if not isinstance(index, SpatialIndex):
            raise TypeError(
                f"SpatialEngine wraps a SpatialIndex, got {type(index).__name__}"
            )
        self.index = index
        #: The observability sink (see :mod:`repro.obs`), or ``None`` (the
        #: default — execution pays nothing).  Accepts a MetricsRegistry
        #: (an :class:`~repro.obs.instrument.EngineMetrics` adapter is
        #: created over it) or a ready-made adapter.
        self.metrics: Optional[EngineMetrics] = None
        if metrics is not None:
            self.attach_metrics(metrics)
        #: The query-plan cache (see :mod:`repro.plancache`), or ``None``
        #: (the default — repeats re-execute, counters count every query).
        #: ``plan_cache=True`` attaches one with the default capacity, an
        #: ``int`` sets the capacity, and a :class:`PlanCache` instance is
        #: adopted as-is (sharable between engines serving the same index).
        self.plan_cache = _as_plan_cache(plan_cache)
        #: What the index was built from (``None`` for a wrapped foreign
        #: index): :meth:`save` records it and :meth:`adapt` re-derives
        #: from it.
        self._recipe = _recipe
        #: The dataset, kept only for indexes outside the Z-index family
        #: (which do not hold their points): their snapshots replay the
        #: recipe on it.
        self._points = _points
        #: The observe stage: a columnar log of executed plans (or None).
        self.workload_log: Optional[WorkloadLog] = _workload_log
        if record and self.workload_log is None:
            self.workload_log = WorkloadLog()
        self._recording = bool(record)
        #: Wall-clock seconds of the last build/adapt this engine ran
        #: itself; feeds the advise stage's break-even arithmetic.
        self._build_seconds = _build_seconds
        #: The maintenance loop while the engine is online (see
        #: :meth:`online`), or ``None``.
        self._online_loop: Optional[MaintenanceLoop] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        points: Sequence[Point],
        workload: Sequence[Rect] = (),
        *,
        leaf_capacity: int = 64,
        seed: Optional[int] = 0,
        record: bool = False,
        plan_cache: Union[None, bool, int, PlanCache] = None,
        metrics=None,
        **kwargs,
    ) -> "SpatialEngine":
        """Build an index by name (see :data:`INDEX_NAMES`) and wrap it.

        ``record=True`` attaches a :class:`~repro.workload_log.WorkloadLog`
        and starts the observe stage immediately: every executed range /
        kNN / radius plan is appended to the log.
        """
        recipe = BuildRecipe(name, workload, leaf_capacity, seed, kwargs)
        start = time.perf_counter()
        index = recipe.build(points)
        build_seconds = time.perf_counter() - start
        return cls(
            index, record=record, plan_cache=plan_cache, metrics=metrics,
            _recipe=recipe, _points=None if isinstance(index, ZIndex) else points,
            _build_seconds=build_seconds,
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        record: bool = False,
        mmap: bool = False,
        validate: bool = True,
        plan_cache: Union[None, bool, int, PlanCache] = None,
        metrics=None,
    ) -> "SpatialEngine":
        """Restore an engine from a snapshot written by :meth:`save`.

        The recipe the snapshot records and any embedded workload history
        come back from the same container read as the index, so the
        restored engine advises, adapts and saves like the one that saved
        it (recording resumes only with ``record=True``).  A structural
        snapshot saved without a recipe (bare ``save_snapshot``) gets one
        named after its index class, with default build arguments.

        ``mmap=True`` maps the snapshot's columns zero-copy instead of
        reading them (Z-index snapshots only; see ``docs/PERSISTENCE.md``),
        and ``validate=False`` skips the O(n) bbox cross-check on open —
        the serving-path combination.
        """
        index, history, recipe, points = _restore(path, mmap=mmap, validate=validate)
        log = WorkloadLog.from_workload(history) if history is not None else None
        return cls(
            index, record=record, plan_cache=plan_cache, metrics=metrics,
            _recipe=recipe or _fallback_recipe(index), _points=points,
            _workload_log=log,
        )

    @classmethod
    def open(
        cls,
        name: str,
        points: Sequence[Point],
        workload: Sequence[Rect] = (),
        *,
        snapshot_path: Union[str, Path],
        leaf_capacity: int = 64,
        seed: Optional[int] = 0,
        rebuild: bool = False,
        record: bool = False,
        plan_cache: Union[None, bool, int, PlanCache] = None,
        metrics=None,
        **kwargs,
    ) -> "SpatialEngine":
        """Build-once / serve-many: :meth:`load` the snapshot at
        ``snapshot_path`` when it records this build request, else
        :meth:`build` and :meth:`save` it for the next process.

        The deployment helper for the paper's offline-build workflow.  A
        snapshot is served only when its recorded recipe matches the
        request — index name, dataset content, leaf capacity, seed,
        workload content and extra kwargs.  A snapshot written after
        :meth:`adapt` is served as long as the index, kwargs and dataset
        match: its re-derived layout supersedes the requested workload,
        seed and page size.  A snapshot that does not match, records no
        recipe (bare ``save_snapshot``), or is unreadable or
        version-incompatible is rebuilt and overwritten; so is any
        snapshot when ``rebuild`` is true.

        A served snapshot restores exactly what :meth:`load` restores —
        the recorded recipe and the observed-workload history — so the
        adaptive loop resumes where the saving process left off.
        ``record=True`` (re)starts recording either way.  For non-Z-index
        names the ``kwargs`` must be JSON-serialisable (they travel in
        the rebuild recipe's manifest).
        """
        path = Path(snapshot_path)
        if not rebuild and _snapshot_matches_request(
            path, name, points, leaf_capacity, seed, workload, kwargs
        ):
            try:
                return cls.load(path, record=record, plan_cache=plan_cache, metrics=metrics)
            except SnapshotError:
                pass  # stale/corrupt snapshot: rebuild and overwrite below
        engine = cls.build(
            name, points, workload, leaf_capacity=leaf_capacity, seed=seed,
            record=record, plan_cache=plan_cache, metrics=metrics, **kwargs,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        engine.save(path)
        return engine

    def save(self, path: Union[str, Path]) -> None:
        """Persist the engine's index — and its observed history — for
        a later :meth:`load` / :meth:`open`.

        Z-index-family indexes are written as structural snapshots (O(n)
        load, no construction re-run).  Other indexes are written as
        build-recipe snapshots when the engine knows the recipe (it built,
        opened or loaded the index); wrapping a foreign non-Z-index raises
        :class:`TypeError`, mirroring ``save_snapshot``.  Both kinds record
        the recipe, including the mark of an adapted layout, so
        :meth:`open` serves it instead of rebuilding for the stale
        build-time workload.  A non-empty workload log travels in the same
        container.
        """
        if isinstance(self.index, OnlineIndex):
            raise ValueError(
                "engine is online — call offline() to stop maintenance and "
                "drain the delta buffer before save()"
            )
        history = None
        if self.workload_log is not None and len(self.workload_log):
            history = self.workload_log.snapshot()
        recipe = self._recipe
        if isinstance(self.index, ZIndex):
            save_snapshot(self.index, path, recipe=recipe, workload_history=history)
            return
        if recipe is None:
            raise TypeError(
                f"{self.name} has no structural snapshot support and this engine "
                "does not know its build recipe; use SpatialEngine.build/open"
            )
        save_rebuild_snapshot(
            recipe.name, self._points, path,
            workload=recipe.workload, leaf_capacity=recipe.leaf_capacity,
            seed=recipe.seed, workload_history=history, adapted=recipe.adapted,
            **recipe.kwargs,
        )

    # ------------------------------------------------------------------
    # observability (see repro.obs)
    # ------------------------------------------------------------------
    def attach_metrics(self, registry) -> Optional[EngineMetrics]:
        """Attach (or detach, with ``None``) a metrics sink.

        Accepts a :class:`~repro.obs.registry.MetricsRegistry` — the usual
        case, an :class:`~repro.obs.instrument.EngineMetrics` adapter is
        created over it — or a ready-made adapter (sharable labels).
        Returns the active adapter.  From then on every
        :meth:`execute` / :meth:`execute_many` call records its latency,
        per-kind query total, scan-cost counter deltas and plan-cache
        hit/miss deltas; :meth:`advise` and :meth:`adapt` record the
        lifecycle series.
        """
        if registry is None:
            self.metrics = None
        elif isinstance(registry, EngineMetrics):
            self.metrics = registry
        else:
            self.metrics = EngineMetrics(registry)
        return self.metrics

    # ------------------------------------------------------------------
    # observe
    # ------------------------------------------------------------------
    @property
    def is_recording(self) -> bool:
        """Whether executed plans are currently appended to the log."""
        return self._recording

    def start_recording(self) -> WorkloadLog:
        """Attach a log (if absent) and start appending executed plans."""
        if self.workload_log is None:
            self.workload_log = WorkloadLog()
        self._recording = True
        return self.workload_log

    def stop_recording(self) -> None:
        """Stop appending executed plans (the log and its contents remain)."""
        self._recording = False

    # ------------------------------------------------------------------
    # online lifecycle (see repro.online)
    # ------------------------------------------------------------------
    @property
    def is_online(self) -> bool:
        """Whether the engine is serving through an online (LSM) index."""
        return isinstance(self.index, OnlineIndex)

    @property
    def online_loop(self) -> Optional[MaintenanceLoop]:
        """The maintenance loop while online, or ``None``."""
        return self._online_loop

    def online(
        self, policy: Optional[MaintenancePolicy] = None, *, start: bool = True
    ) -> MaintenanceLoop:
        """Switch to the online lifecycle: LSM writes + continuous adaptation.

        Wraps the current index in an
        :class:`~repro.online.OnlineIndex` (inserts and deletes land in
        its delta buffer; queries serve the merged view), turns recording
        on with the policy's sliding window installed on the workload
        log, and attaches a :class:`~repro.online.MaintenanceLoop` that
        compacts the delta and incrementally re-derives regressed
        subtrees.  With ``start=True`` (default) the loop's background
        thread starts ticking; either way the returned loop's
        ``run_once()`` drives maintenance deterministically.

        Idempotent: calling it again returns the existing loop (starting
        it if asked).
        """
        if isinstance(self.index, OnlineIndex) and self._online_loop is not None:
            if start:
                self._online_loop.start()
            return self._online_loop
        policy = policy or MaintenancePolicy()
        if not isinstance(self.index, OnlineIndex):
            self.index = OnlineIndex(self.index)
        log = self.start_recording()
        if policy.window_size is not None:
            log.window_size = policy.window_size
        metrics = None
        if self.metrics is not None:
            metrics = OnlineMetrics(self.metrics.registry)
        loop = MaintenanceLoop(self.index, log, policy, metrics=metrics)
        self._online_loop = loop
        if start:
            loop.start()
        return loop

    def offline(self, *, compact: bool = True) -> "SpatialEngine":
        """Leave the online lifecycle: stop maintenance, drain, unwrap.

        Stops the background loop, compacts any buffered writes into the
        columnar core, and rebinds the engine to the plain base index.
        With ``compact=False`` buffered writes are *discarded* (the base
        reverts to its last compacted contents).  No-op when not online.
        """
        loop = self._online_loop
        if loop is not None:
            loop.stop()
            self._online_loop = None
        index = self.index
        if isinstance(index, OnlineIndex):
            if compact:
                index.compact()
            self.index = index.base
        return self

    @contextmanager
    def recording(self, enabled: bool = True):
        """Scope recording to a ``with`` block, yielding the log.

        ``with engine.recording():`` turns the observe stage on for the
        block (attaching a log on first use) and restores the previous
        recording state afterwards; ``enabled=False`` scopes a recording
        *pause* the same way.
        """
        previous = self._recording
        if enabled:
            self.start_recording()
        else:
            self._recording = False
        try:
            yield self.workload_log
        finally:
            self._recording = previous

    def observed(self, **metadata) -> Workload:
        """The observed workload so far, as a frozen :class:`Workload`.

        Returns an empty workload when nothing has been recorded.
        """
        if self.workload_log is None:
            return Workload(**metadata)
        return self.workload_log.snapshot(**metadata)

    def _resolve_workload(self, workload) -> Workload:
        if workload is None:
            resolved = self.observed()
            if not resolved:
                raise ValueError(
                    "no workload given and nothing observed — build/open with "
                    "record=True (or use engine.recording()) before advise/adapt, "
                    "or pass a workload explicitly"
                )
            return resolved
        if isinstance(workload, Workload):
            return workload
        return Workload(queries=list(workload))

    # ------------------------------------------------------------------
    # advise
    # ------------------------------------------------------------------
    def advise(
        self,
        workload: Optional[Workload] = None,
        *,
        min_improvement: float = 1.2,
        expected_future_queries: Optional[float] = None,
        density=None,
        sample: Optional[int] = None,
    ):
        """Score the current layout against the observed (or given) workload.

        Returns a :class:`~repro.analysis.tuning.TuningReport` with the
        measured scan cost of the current layout, the density-model
        estimate for a re-derived one, the drift score against the
        layout's reference workload (when the engine knows it), the
        Table 4 break-even count (using this engine's measured build
        time), and a ``should_adapt`` verdict.
        """
        from repro.analysis.tuning import advise_layout

        resolved = self._resolve_workload(workload)
        reference = None
        if self._recipe is not None and self._recipe.workload:
            reference = self._recipe.workload
        extra = {} if sample is None else {"sample": sample}
        report = advise_layout(
            self.index, resolved,
            reference=reference, density=density,
            min_improvement=min_improvement,
            rebuild_seconds=self._build_seconds,
            expected_future_queries=expected_future_queries,
            **extra,
        )
        if self.metrics is not None:
            self.metrics.observe_advise(report)
        return report

    # ------------------------------------------------------------------
    # adapt
    # ------------------------------------------------------------------
    def _tuned_leaf_capacity(self, rects: Sequence[Rect]) -> int:
        """The page size the observed result sizes ask for.

        Probes the mean result size with an exact count-only replay of (a
        sample of) the observed rectangles — columnar, no boxing — and
        maps it through :func:`repro.analysis.tuning.tuned_leaf_capacity`.
        The probe's counter increments are rolled back so measurement
        workflows around ``adapt`` see only their own queries.
        """
        from repro.analysis.tuning import tuned_leaf_capacity

        if not rects:
            return self._recipe.leaf_capacity
        sample = rects
        if len(rects) > 256:
            step = len(rects) // 256
            sample = rects[::step][:256]
        counters = self.index.counters
        saved = vars(counters).copy()
        try:
            counts = self.index.batch_range_count(sample)
        finally:
            vars(counters).update(saved)
        return tuned_leaf_capacity(sum(counts) / len(sample))

    def adapt(
        self,
        workload: Optional[Workload] = None,
        *,
        in_place: bool = True,
        tune_leaf_capacity: bool = True,
    ) -> "SpatialEngine":
        """Re-derive the layout from the observed workload and hot-swap it.

        The workload defaults to this engine's observed log.  kNN and
        radius probes participate through their equivalent range
        rectangles.  The re-derivation covers both layout dimensions the
        paper treats as workload parameters: the split points/orderings
        (the greedy construction re-runs against the observed
        rectangles) and — with ``tune_leaf_capacity=True`` (default) —
        the page granularity, matched to the observed result sizes (tiny
        interactive queries keep small pages; analytical scans get big
        ones).  With ``in_place=True`` (default) the new index atomically
        replaces the engine's current one — in-flight and retained result
        sets stay valid, because Z-index result boxers hold only a weak
        reference to the index that produced them plus a flat-column
        generation counter and re-box their captured coordinates once that
        index is superseded.  With ``in_place=False`` the serving engine
        is left untouched and a new engine (with a copy of the observed
        history) is returned.

        Raises :class:`TypeError` when the engine wraps a foreign index it
        knows no build recipe for, and :class:`ValueError` when there is
        neither an observed nor a given workload.
        """
        resolved = self._resolve_workload(workload)
        recipe = self._recipe
        if recipe is None:
            raise TypeError(
                f"{self.name} engine has no build recipe to re-derive a layout "
                "from; construct engines with SpatialEngine.build/open/load"
            )
        rects = resolved.equivalent_rects(len(self.index), self.index.extent())
        leaf_capacity = recipe.leaf_capacity
        if tune_leaf_capacity:
            leaf_capacity = self._tuned_leaf_capacity(rects)
        new_recipe = replace(
            recipe, workload=rects, leaf_capacity=leaf_capacity, adapted=True
        )
        if in_place and isinstance(self.index, OnlineIndex):
            # The online path re-derives through the freeze → build →
            # swap protocol, so writes arriving during the build stay
            # visible and land in the new active delta.
            captured: Dict = {}

            def builder(points: List[Point]) -> SpatialIndex:
                captured["points"] = points
                return new_recipe.build(points)

            start = time.perf_counter()
            new_base = self.index.rebuild(builder)
            build_seconds = time.perf_counter() - start
            self._recipe = new_recipe
            self._points = None if isinstance(new_base, ZIndex) else captured["points"]
            self._build_seconds = build_seconds
            if self.metrics is not None:
                self.metrics.observe_adapt(build_seconds)
            return self
        if isinstance(self.index, (ZIndex, OnlineIndex)):
            points = self.index.all_points()
        else:
            points = self._points
        start = time.perf_counter()
        new_index = new_recipe.build(points)
        build_seconds = time.perf_counter() - start
        new_points = None if isinstance(new_index, ZIndex) else points
        if not in_place:
            log = None
            if self.workload_log is not None and len(self.workload_log):
                log = WorkloadLog.from_workload(self.workload_log.snapshot())
            return SpatialEngine(
                new_index, record=self._recording,
                _recipe=new_recipe, _points=new_points, _workload_log=log,
                _build_seconds=build_seconds,
            )
        # The hot swap: one attribute rebind, atomic under the GIL — a
        # concurrent reader sees either the old or the new index, never a
        # mix, and result sets produced by the old one remain valid.
        self.index = new_index
        self._recipe = new_recipe
        self._points = new_points
        self._build_seconds = build_seconds
        if self.metrics is not None:
            self.metrics.observe_adapt(build_seconds)
        return self

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    def execute(
        self, query: Query, *, count_only: bool = False, limit: Optional[int] = None
    ):
        """Execute one typed query plan.

        Returns a lazy :class:`~repro.results.ResultSet` for range / kNN /
        radius plans, ``bool`` for :class:`PointQuery`, and the join
        operator's native pair shape for :class:`JoinQuery`.  With
        ``count_only=True`` every plan returns an ``int`` instead, computed
        without materialising results wherever the index allows it.
        """
        if self.metrics is None:
            return self._execute(query, count_only, limit)
        return self._measured(plan_kind(query), 1, self._execute, query, count_only, limit)

    def _execute(self, query: Query, count_only: bool, limit: Optional[int]):
        self._check_limit(limit)
        if isinstance(query, (RangeQuery, KnnQuery, RadiusQuery)):
            return self._run(query, count_only, limit)
        if isinstance(query, PointQuery):
            found = self.index.point_query(query.point)
            return int(found) if count_only else found
        if isinstance(query, JoinQuery):
            return self._execute_join(query, count_only=count_only, limit=limit)
        raise TypeError(f"Unknown query plan type {type(query).__name__}")

    def execute_many(
        self,
        queries: Sequence[Query],
        *,
        count_only: bool = False,
        limit: Optional[int] = None,
    ) -> List:
        """Execute a workload of plans, batching homogeneous runs.

        A list of :class:`RangeQuery` plans is submitted through
        ``batch_range_query`` (or ``batch_range_count`` under
        ``count_only``), kNN plans sharing ``k``/``initial_radius`` through
        ``batch_knn``, radius plans sharing ``radius`` through
        ``batch_radius_query`` — the amortised paths the columnar engine
        optimises.  Anything else falls back to one :meth:`execute` per
        plan.  Results come back in workload order either way.
        """
        self._check_limit(limit)
        if self.metrics is None:
            return self._execute_many(queries, count_only, limit)
        queries = list(queries)
        if queries and all(type(q) is type(queries[0]) for q in queries):
            return self._measured(
                plan_kind(queries[0]), len(queries), self._execute_many,
                queries, count_only, limit,
            )
        # Mixed plans: instrument per plan so the kind labels stay exact.
        return [
            self.execute(query, count_only=count_only, limit=limit)
            for query in queries
        ]

    def _execute_many(
        self, queries: Sequence[Query], count_only: bool, limit: Optional[int]
    ) -> List:
        queries = list(queries)
        if queries and _batchable(queries):
            return self._run_many(queries, count_only, limit)
        return [self._execute(query, count_only, limit) for query in queries]

    def _measured(self, kind: str, num: int, run, *args):
        """``run(*args)`` for ``num`` plans of one kind, reported to the
        metrics: wall time, the index's cost-counter deltas and the plan
        cache's hit/miss deltas."""
        counters_before = vars(self.index.counters).copy()
        stats = None if self.plan_cache is None else self.plan_cache.stats
        cache_mark = None if stats is None else (stats.hits, stats.misses)
        start = time.perf_counter()
        result = run(*args)
        seconds = time.perf_counter() - start
        cache_delta = None
        if stats is not None:
            cache_delta = (stats.hits - cache_mark[0], stats.misses - cache_mark[1])
        self.metrics.observe_query(
            kind, seconds, num, counters_before, vars(self.index.counters), cache_delta,
        )
        return result

    # The range / kNN / radius core.  Cached values are what a miss
    # computes: *uncapped* counts under ``count_only`` (the cap is applied
    # per call, so recording sees the true count on hits and misses alike)
    # and ``limit``-truncated result sets otherwise.
    def _run(self, plan: Query, count_only: bool, limit: Optional[int]):
        """One plan through the index's scalar entry points.  Without a
        plan cache no key is built."""
        index = self.index
        cache = self.plan_cache
        if cache is None:
            value = _answer(index, plan, count_only, limit)
        else:
            key = plan_key(plan, count_only, limit)
            value = cache.lookup(key, index)
            if value is MISS:
                value = _answer(index, plan, count_only, limit)
                cache.store(key, index, value)
        if self._recording:
            self._record((plan,), (value,), count_only)
        return self._capped(value, limit) if count_only else value

    def _run_many(self, plans: List[Query], count_only: bool, limit: Optional[int]) -> List:
        """A homogeneous run through the index's batch entry points: exact
        repeats come from the plan cache and only the misses are scanned,
        merged back in workload order."""
        index = self.index
        cache = self.plan_cache
        if cache is None:
            values = _answers(index, plans, count_only, limit)
        else:
            keys = [plan_key(plan, count_only, limit) for plan in plans]
            values = [cache.lookup(key, index) for key in keys]
            missing = [i for i, value in enumerate(values) if value is MISS]
            if missing:
                fresh = _answers(index, [plans[i] for i in missing], count_only, limit)
                for i, value in zip(missing, fresh):
                    cache.store(keys[i], index, value)
                    values[i] = value
        if self._recording:
            self._record(plans, values, count_only)
        if count_only:
            return [self._capped(value, limit) for value in values]
        return values

    def _record(self, plans: Sequence[Query], values: Sequence, count_only: bool) -> None:
        """Append answered plans of one kind to the workload log.

        Runs after the index answered, so a probe it rejected never
        reaches the log.  Range plans carry their true counts when run
        count-only; kNN plans with ``k == 0`` are not recorded.
        """
        log = self.workload_log
        first = plans[0]
        single = len(plans) == 1
        if isinstance(first, RangeQuery):
            counts = values if count_only else None
            if single:
                log.record_range(first.rect, -1 if counts is None else counts[0])
            else:
                log.record_ranges([plan.rect for plan in plans], counts)
        elif isinstance(first, KnnQuery):
            if first.k <= 0:
                return
            if single:
                log.record_knn(first.center, first.k)
            else:
                log.record_knns([plan.center for plan in plans], first.k)
        elif single:
            log.record_radius(first.center, first.radius)
        else:
            log.record_radii([plan.center for plan in plans], first.radius)

    def _execute_join(
        self, query: JoinQuery, *, count_only: bool, limit: Optional[int]
    ):
        from repro import joins

        index = self.index
        if count_only:
            # Pair counting runs on the batch entry points' lazy result
            # sets: on the columnar core not a single pair (or Point) is
            # materialised.
            if query.kind == "box":
                counts = self._box_join_counts(query)
            elif query.kind == "radius":
                counts = [
                    r.count()
                    for r in index.batch_radius_query(query.probes, query.radius)
                ]
            else:
                counts = [r.count() for r in index.batch_knn(query.probes, query.k)]
            return self._capped(sum(counts), limit)
        if query.kind == "box":
            pairs = joins.box_join(
                index, query.probes, query.half_width, query.half_height
            )
        elif query.kind == "radius":
            pairs = joins.radius_join(index, query.probes, query.radius)
        else:
            # The kNN operator's native rows are per-probe entries, so
            # ``limit`` truncates entries (like it truncates pairs above).
            pairs = joins.knn_join(index, query.probes, query.k)
        return pairs if limit is None else pairs[:limit]

    def _box_join_counts(self, query: JoinQuery) -> List[int]:
        from repro.joins import _probe_columns, _probe_windows

        half_height = (
            query.half_width if query.half_height is None else query.half_height
        )
        xs, ys = _probe_columns(query.probes)
        windows = _probe_windows(xs, ys, query.half_width, half_height)
        return self.index.batch_range_count(windows)

    @staticmethod
    def _check_limit(limit: Optional[int]) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")

    @staticmethod
    def _capped(count: int, limit: Optional[int]) -> int:
        return count if limit is None else min(count, limit)

    # ------------------------------------------------------------------
    # index protocol delegation
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.index.name

    @property
    def counters(self):
        return self.index.counters

    @property
    def phase_timer(self):
        """The wrapped index's phase timer (``None`` where unsupported)."""
        return getattr(self.index, "phase_timer", None)

    @phase_timer.setter
    def phase_timer(self, value) -> None:
        self.index.phase_timer = value

    def reset_counters(self) -> None:
        self.index.reset_counters()

    def __len__(self) -> int:
        return len(self.index)

    def size_bytes(self) -> int:
        return self.index.size_bytes()

    def extent(self):
        return self.index.extent()

    def insert(self, point: Point) -> None:
        self.index.insert(point)

    def delete(self, point: Point) -> bool:
        return self.index.delete(point)

    # Each protocol method records a probe only once the index answered it.
    def range_query(self, query: Rect) -> ResultSet:
        result = self.index.range_query(query)
        if self._recording:
            self.workload_log.record_range(query)
        return result

    def batch_range_query(self, queries: Sequence[Rect]) -> List[ResultSet]:
        results = self.index.batch_range_query(queries)
        if self._recording:
            self.workload_log.record_ranges(queries)
        return results

    def range_count(self, query: Rect) -> int:
        count = self.index.range_count(query)
        if self._recording:
            self.workload_log.record_range(query, count)
        return count

    def batch_range_count(self, queries: Sequence[Rect]) -> List[int]:
        counts = self.index.batch_range_count(queries)
        if self._recording:
            self.workload_log.record_ranges(queries, counts)
        return counts

    def point_query(self, point: Point) -> bool:
        return self.index.point_query(point)

    def knn(self, center: Point, k: int, initial_radius: Optional[float] = None) -> ResultSet:
        result = self.index.knn(center, k, initial_radius)
        if self._recording and k > 0:
            self.workload_log.record_knn(center, k)
        return result

    def batch_knn(
        self, centers: Sequence[Point], k: int, initial_radius: Optional[float] = None
    ) -> List[ResultSet]:
        results = self.index.batch_knn(centers, k, initial_radius)
        if self._recording and k > 0:
            self.workload_log.record_knns(centers, k)
        return results

    def radius_query(self, center: Point, radius: float) -> ResultSet:
        result = self.index.radius_query(center, radius)
        if self._recording:
            self.workload_log.record_radius(center, radius)
        return result

    def batch_radius_query(
        self, centers: Sequence[Point], radius: float
    ) -> List[ResultSet]:
        results = self.index.batch_radius_query(centers, radius)
        if self._recording:
            self.workload_log.record_radii(centers, radius)
        return results

    def __repr__(self) -> str:
        return f"SpatialEngine({self.name}, {len(self)} points)"


def as_engine(index_or_engine) -> SpatialEngine:
    """Wrap a bare index into an engine; pass engines through unchanged."""
    if isinstance(index_or_engine, SpatialEngine):
        return index_or_engine
    return SpatialEngine(index_or_engine)
