"""Experiment runner: build indexes, run workloads, collect statistics.

The runner is deliberately free of any dependency on concrete index
classes: it works with *factories* (zero-argument callables returning a
freshly built index **or** a :class:`~repro.engine.SpatialEngine`) and
executes every workload through the engine's typed query plans
(:mod:`repro.query`), so the measurements exercise exactly the dispatch a
serving deployment uses.  Benchmarks compose it with the index
constructors and the workload generators to regenerate each of the
paper's tables and figures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.evaluation.metrics import CostCounters, PhaseTimer, QueryStats
from repro.geometry import Point, Rect
from repro.query import JoinQuery, KnnQuery, PointQuery, RangeQuery

#: A factory producing a freshly built index or engine (build time is
#: measured around it).
IndexFactory = Callable[[], object]


def _as_engine(index):
    """Wrap bare indexes into an engine (imported lazily: engine needs the
    index classes, whose interfaces module needs this package)."""
    from repro.engine import as_engine

    return as_engine(index)


@dataclass
class ComparisonResult:
    """Everything measured for one index on one dataset/workload combination."""

    index_name: str
    build_seconds: float
    size_bytes: int
    num_points: int
    range_stats: Optional[QueryStats] = None
    point_stats: Optional[QueryStats] = None
    knn_stats: Optional[QueryStats] = None
    join_stats: Optional[QueryStats] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def range_mean_micros(self) -> float:
        return self.range_stats.mean_micros if self.range_stats else 0.0

    @property
    def point_mean_micros(self) -> float:
        return self.point_stats.mean_micros if self.point_stats else 0.0

    @property
    def knn_mean_micros(self) -> float:
        return self.knn_stats.mean_micros if self.knn_stats else 0.0

    @property
    def join_mean_micros(self) -> float:
        return self.join_stats.mean_micros if self.join_stats else 0.0


def measure_build(factory: IndexFactory):
    """Build an index through its factory, returning ``(index, seconds)``."""
    start = time.perf_counter()
    index = factory()
    return index, time.perf_counter() - start


def measure_range_queries(
    index,
    queries: Sequence[Rect],
    repeats: int = 1,
    batch: bool = False,
    count_only: bool = False,
) -> QueryStats:
    """Run a range-query workload, recording wall-clock and logical counters.

    The workload is executed as :class:`~repro.query.RangeQuery` plans
    through the engine dispatch (bare indexes are wrapped on the fly).
    With ``batch=True`` the plans are submitted through
    ``execute_many`` — the amortised ``batch_range_query`` path the
    columnar indexes optimise — instead of one ``execute`` per plan.
    Logical counters are identical either way; phase timings are only
    collected in per-query mode (the batch path bypasses the timer).
    ``count_only=True`` measures the count-only execution, which skips
    result materialisation entirely on the columnar core.
    """
    engine = _as_engine(index)
    plans = [RangeQuery(query) for query in queries]
    engine.reset_counters()
    timer = PhaseTimer()
    previous_timer = getattr(engine, "phase_timer", None)
    engine.phase_timer = timer
    start = time.perf_counter()
    if batch:
        for _ in range(max(1, repeats)):
            engine.execute_many(plans, count_only=count_only)
    else:
        for _ in range(max(1, repeats)):
            for plan in plans:
                engine.execute(plan, count_only=count_only)
    elapsed = time.perf_counter() - start
    engine.phase_timer = previous_timer
    counters: CostCounters = engine.counters.copy()
    extra: Dict[str, float] = {"count_only": 1.0} if count_only else {}
    return QueryStats(
        index_name=getattr(engine, "name", type(index).__name__),
        num_queries=len(queries) * max(1, repeats),
        total_seconds=elapsed,
        counters=counters,
        phase_seconds=timer.totals(),
        extra=extra,
    )


def measure_knn_queries(
    index, centers: Sequence[Point], k: int, repeats: int = 1, batch: bool = False
) -> QueryStats:
    """Run a kNN workload, recording wall-clock and logical counters.

    The probes are executed as :class:`~repro.query.KnnQuery` plans.  With
    ``batch=True`` they are submitted through ``execute_many`` — which
    recognises the homogeneous plan list and routes it through
    :meth:`~repro.interfaces.SpatialIndex.batch_knn` — instead of one
    ``execute`` per plan, measuring the amortised path the columnar
    indexes optimise.  Logical counters (and results) are identical
    either way.
    """
    engine = _as_engine(index)
    plans = [KnnQuery(center, k) for center in centers]
    engine.reset_counters()
    start = time.perf_counter()
    if batch:
        for _ in range(max(1, repeats)):
            engine.execute_many(plans)
    else:
        for _ in range(max(1, repeats)):
            for plan in plans:
                engine.execute(plan)
    elapsed = time.perf_counter() - start
    return QueryStats(
        index_name=getattr(engine, "name", type(index).__name__),
        num_queries=len(centers) * max(1, repeats),
        total_seconds=elapsed,
        counters=engine.counters.copy(),
        extra={"k": float(k)},
    )


def measure_join_workload(
    index,
    probes: Sequence[Point],
    kind: str = "box",
    *,
    half_width: Optional[float] = None,
    radius: Optional[float] = None,
    k: Optional[int] = None,
    repeats: int = 1,
) -> QueryStats:
    """Run one of the spatial-join operators as a measured workload.

    ``kind`` selects the operator: ``"box"`` (requires ``half_width``),
    ``"radius"`` (requires ``radius``) or ``"knn"`` (requires ``k``).  The
    workload is executed as one :class:`~repro.query.JoinQuery` plan
    through the engine dispatch; the returned stats count one query per
    probe and ``extra`` carries the number of result pairs and the join
    selectivity.
    """
    from repro.joins import join_selectivity, knn_join_pairs

    engine = _as_engine(index)
    plan = JoinQuery(
        tuple(probes), kind, half_width=half_width, radius=radius, k=k
    )
    if kind == "knn":
        # The kNN operator's native shape is per-probe (probe, neighbours)
        # entries; selectivity counts flattened pairs.
        run = lambda: knn_join_pairs(engine, probes, k)
    else:
        run = lambda: engine.execute(plan)
    engine.reset_counters()
    start = time.perf_counter()
    for _ in range(max(1, repeats)):
        pairs = run()
    elapsed = time.perf_counter() - start
    return QueryStats(
        index_name=getattr(engine, "name", type(index).__name__),
        num_queries=len(probes) * max(1, repeats),
        total_seconds=elapsed,
        counters=engine.counters.copy(),
        extra={
            "num_pairs": float(len(pairs)),
            "selectivity": join_selectivity(pairs, len(probes), len(engine)),
        },
    )


def measure_snapshot_roundtrip(
    index,
    path: Union[str, Path],
    build_seconds: Optional[float] = None,
    repeats: int = 3,
) -> Dict[str, float]:
    """Measure the save/load cycle of a structural snapshot.

    Saves ``index`` to ``path`` (:func:`repro.persistence.save_snapshot`),
    then loads it back ``repeats`` times, recording the best load time —
    the number a serving deployment cares about.  Returns a flat stats
    dict (``snapshot_save_seconds``, ``snapshot_load_seconds``,
    ``snapshot_bytes`` and, when ``build_seconds`` is given,
    ``snapshot_load_speedup`` = build / load, the load-vs-rebuild ratio).

    Raises :class:`TypeError` for indexes without structural snapshot
    support (everything outside the Z-index family), mirroring
    ``save_snapshot``; callers measuring a mixed fleet should catch it.
    """
    from repro.persistence import load_snapshot, save_snapshot

    start = time.perf_counter()
    save_snapshot(index, path)
    save_seconds = time.perf_counter() - start
    load_seconds = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        load_snapshot(path)
        load_seconds = min(load_seconds, time.perf_counter() - start)
    stats = {
        "snapshot_save_seconds": save_seconds,
        "snapshot_load_seconds": load_seconds,
        "snapshot_bytes": float(os.path.getsize(path)),
    }
    if build_seconds is not None and load_seconds > 0:
        stats["snapshot_load_speedup"] = build_seconds / load_seconds
    return stats


def measure_point_queries(index, points: Sequence[Point], repeats: int = 1) -> QueryStats:
    """Run a point-query workload (as :class:`~repro.query.PointQuery` plans),
    recording wall-clock and logical counters."""
    engine = _as_engine(index)
    plans = [PointQuery(point) for point in points]
    engine.reset_counters()
    start = time.perf_counter()
    for _ in range(max(1, repeats)):
        for plan in plans:
            engine.execute(plan)
    elapsed = time.perf_counter() - start
    return QueryStats(
        index_name=getattr(engine, "name", type(index).__name__),
        num_queries=len(points) * max(1, repeats),
        total_seconds=elapsed,
        counters=engine.counters.copy(),
    )


class ComparisonRunner:
    """Builds and measures a set of competing indexes on one workload.

    Usage::

        runner = ComparisonRunner({
            "Base": lambda: BaseZIndex(data),
            "WaZI": lambda: WaZI(data, workload.queries),
        })
        results = runner.run(range_queries=workload.queries,
                             point_queries=point_workload)
    """

    def __init__(self, factories: Dict[str, IndexFactory]) -> None:
        if not factories:
            raise ValueError("ComparisonRunner needs at least one index factory")
        self.factories = dict(factories)

    def run(
        self,
        range_queries: Sequence[Rect] = (),
        point_queries: Sequence[Point] = (),
        repeats: int = 1,
        batch_ranges: bool = False,
        *,
        knn_queries: Sequence[Point] = (),
        knn_k: int = 10,
        join_probes: Sequence[Point] = (),
        join_half_width: Optional[float] = None,
        batch_knn: bool = False,
        snapshot_dir: Optional[Union[str, Path]] = None,
    ) -> List[ComparisonResult]:
        """Build and measure every index on the supplied workloads.

        ``knn_queries`` adds a kNN scenario (``knn_k`` neighbours per
        center; ``batch_knn=True`` submits it through the amortised batch
        path).  ``join_probes`` plus ``join_half_width`` adds a box-join
        scenario measured through :func:`measure_join_workload`.

        ``snapshot_dir`` adds a persistence scenario: every index with
        structural snapshot support is saved to and re-loaded from
        ``<snapshot_dir>/<name>.snapshot``, and the
        ``snapshot_save_seconds`` / ``snapshot_load_seconds`` /
        ``snapshot_bytes`` / ``snapshot_load_speedup`` measurements of
        :func:`measure_snapshot_roundtrip` land in
        :attr:`ComparisonResult.extra` (indexes without snapshot support
        are skipped silently — their ``extra`` stays empty).
        """
        if join_probes and join_half_width is None:
            raise ValueError("join_probes requires join_half_width")
        if snapshot_dir is not None:
            Path(snapshot_dir).mkdir(parents=True, exist_ok=True)
        results: List[ComparisonResult] = []
        for name, factory in self.factories.items():
            index, build_seconds = measure_build(factory)
            result = ComparisonResult(
                index_name=name,
                build_seconds=build_seconds,
                size_bytes=index.size_bytes(),
                num_points=len(index),
            )
            if range_queries:
                result.range_stats = measure_range_queries(
                    index, range_queries, repeats, batch=batch_ranges
                )
            if point_queries:
                result.point_stats = measure_point_queries(index, point_queries, repeats)
            if knn_queries:
                result.knn_stats = measure_knn_queries(
                    index, knn_queries, knn_k, repeats, batch=batch_knn
                )
            if join_probes:
                result.join_stats = measure_join_workload(
                    index, join_probes, "box", half_width=join_half_width, repeats=repeats
                )
            # Measured last so saving (which primes the flat columns) cannot
            # warm the caches ahead of the query measurements above.
            # Factories may return engines; the snapshot layer works on the
            # wrapped index itself.
            target = getattr(index, "index", index)
            if snapshot_dir is not None and hasattr(target, "snapshot_state"):
                result.extra.update(measure_snapshot_roundtrip(
                    target,
                    Path(snapshot_dir) / f"{_safe_filename(name)}.snapshot",
                    build_seconds=build_seconds,
                ))
            results.append(result)
        return results

    def run_dict(self, **kwargs) -> Dict[str, ComparisonResult]:
        """Like :meth:`run` but keyed by index name."""
        return {result.index_name: result for result in self.run(**kwargs)}


def compare_indexes(
    names: Sequence[str],
    points: Sequence[Point],
    workload: Sequence[Rect],
    *,
    point_queries: Sequence[Point] = (),
    leaf_capacity: int = 64,
    seed: int = 0,
    knn_queries: Sequence[Point] = (),
    knn_k: int = 10,
    repeats: int = 1,
    batch_ranges: bool = False,
    batch_knn: bool = False,
    snapshot_dir: Optional[Union[str, Path]] = None,
    index_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
    **build_kwargs,
) -> Dict[str, ComparisonResult]:
    """Build and measure several indexes on the same data and workload.

    Every index is built through :meth:`SpatialEngine.build`: keyword
    arguments in ``build_kwargs`` are forwarded to *every* index
    constructor, while ``index_kwargs`` maps an index name to options for
    that index only (per-index options win over shared ones).  For
    example::

        compare_indexes(
            ["wazi", "base"], points, workload,
            max_depth=16,                            # applies to both
            index_kwargs={"wazi": {"num_candidates": 8}},
        )

    The remaining keyword arguments are forwarded to
    :meth:`ComparisonRunner.run`: ``repeats`` and ``batch_ranges`` for the
    range scenario, ``knn_queries``/``knn_k``/``batch_knn`` for the kNN
    scenario, and ``snapshot_dir`` for the snapshot save/load scenario
    (measurements land in :attr:`ComparisonResult.extra`).

    Returns a mapping from index name to :class:`ComparisonResult`.
    """
    from repro.engine import SpatialEngine  # lazily, as in _as_engine

    per_index = {name: dict(options) for name, options in (index_kwargs or {}).items()}
    unknown = set(per_index) - set(names)
    if unknown:
        raise ValueError(
            f"index_kwargs given for indexes not being compared: {sorted(unknown)}"
        )

    def factory_for(name: str) -> IndexFactory:
        options = {**build_kwargs, **per_index.get(name, {})}

        def factory():
            return SpatialEngine.build(
                name, points, workload,
                leaf_capacity=leaf_capacity, seed=seed, **options,
            )

        return factory

    runner = ComparisonRunner({name: factory_for(name) for name in names})
    return runner.run_dict(
        range_queries=list(workload),
        point_queries=list(point_queries),
        knn_queries=list(knn_queries),
        knn_k=knn_k,
        repeats=repeats,
        batch_ranges=batch_ranges,
        batch_knn=batch_knn,
        snapshot_dir=snapshot_dir,
    )


def _safe_filename(name: str) -> str:
    """Index names like ``base+sk`` made filesystem-safe for snapshot files."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
