# repro-lint: hot-path
"""Adapters that record engine / sharded-backend activity into a registry.

:class:`EngineMetrics` is what :class:`~repro.engine.SpatialEngine`
holds when instrumentation is attached: per-plan-kind latency histograms
and query totals, scan-cost counter deltas (one Prometheus counter per
CostCounters field), plan-cache hit/miss totals, and the advise/adapt
lifecycle (drift-score gauge, verdict counters, adapt totals).

:class:`ShardMetrics` is the sharded-serving twin held by
:class:`~repro.serving.dispatcher.ShardedIndex`: per-shard busy-time
histograms and scan-cost totals, labelled ``shard=<id>, kind=<plan>``,
fed from the exact per-shard counter deltas the dispatcher already
absorbs on every scatter.

Both adapters only *create* series lazily on first use, so an idle
instrument costs nothing and ``/metrics`` only shows traffic that
actually happened.  Recording is a dict lookup plus the histogram /
counter primitives; the service attaches a registry to its engine, so
this path is inside every ``http-tiles`` request ``python3 -m bench``
times.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.obs.registry import Counter, LatencyHistogram, MetricsRegistry

__all__ = [
    "COST_FIELDS",
    "EngineMetrics",
    "ShardMetrics",
    "plan_kind",
    "shard_method_kind",
]

#: The CostCounters fields exported as ``repro_scan_cost_total`` series.
COST_FIELDS = (
    "nodes_visited",
    "bbs_checked",
    "pages_scanned",
    "points_filtered",
    "points_returned",
    "leaves_skipped",
)

_PLAN_KINDS = {
    "RangeQuery": "range",
    "PointQuery": "point",
    "KnnQuery": "knn",
    "RadiusQuery": "radius",
    "JoinQuery": "join",
}

#: ShardedIndex scatter methods -> plan kind labels.
_SHARD_METHOD_KINDS = {
    "batch_range_rows": "range",
    "batch_range_count": "range",
    "batch_knn_rows": "knn",
    "batch_radius_rows": "radius",
    "point_query": "point",
}


def plan_kind(query: object) -> str:
    """The metrics label for a typed query plan (``"range"``, ``"knn"``...).

    Keyed by class name rather than class identity so the obs package
    stays import-free of the engine layer.
    """
    return _PLAN_KINDS.get(type(query).__name__, "other")


def shard_method_kind(method: str) -> str:
    """The plan-kind label for a ShardedIndex scatter method name."""
    return _SHARD_METHOD_KINDS.get(method, "other")


class EngineMetrics:
    """Records one engine's query traffic and adaptation lifecycle."""

    __slots__ = (
        "registry",
        "_labels",
        "_latency",
        "_queries",
        "_scan",
        "_cache",
        "_verdicts",
    )

    def __init__(self, registry: MetricsRegistry, **labels: object) -> None:
        self.registry = registry
        self._labels = {str(k): str(v) for k, v in labels.items()}
        self._latency: Dict[str, LatencyHistogram] = {}
        self._queries: Dict[str, Counter] = {}
        self._scan: Dict[str, Counter] = {}
        self._cache: Dict[str, Counter] = {}
        self._verdicts: Dict[bool, Counter] = {}

    # -- lazy series creation ------------------------------------------
    def _latency_for(self, kind: str) -> LatencyHistogram:
        hist = self._latency.get(kind)
        if hist is None:
            hist = self.registry.histogram(
                "repro_query_latency_micros", kind=kind, **self._labels
            )
            self._latency[kind] = hist
        return hist

    def _queries_for(self, kind: str) -> Counter:
        counter = self._queries.get(kind)
        if counter is None:
            counter = self.registry.counter(
                "repro_queries_total", kind=kind, **self._labels
            )
            self._queries[kind] = counter
        return counter

    def _scan_for(self, field: str) -> Counter:
        counter = self._scan.get(field)
        if counter is None:
            counter = self.registry.counter(
                "repro_scan_cost_total", counter=field, **self._labels
            )
            self._scan[field] = counter
        return counter

    def _cache_for(self, outcome: str) -> Counter:
        counter = self._cache.get(outcome)
        if counter is None:
            counter = self.registry.counter(
                "repro_plan_cache_total", outcome=outcome, **self._labels
            )
            self._cache[outcome] = counter
        return counter

    # -- recording -----------------------------------------------------
    def observe_query(
        self,
        kind: str,
        seconds: float,
        count: int,
        counters_before: Mapping[str, int],
        counters_after: Mapping[str, int],
        cache_delta: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Record an execute/execute_many call of ``count`` plans."""
        self._latency_for(kind).observe_block(seconds, count)
        self._queries_for(kind).inc(count)
        for field in COST_FIELDS:
            delta = counters_after.get(field, 0) - counters_before.get(field, 0)
            if delta:
                self._scan_for(field).inc(int(delta))
        if cache_delta is not None:
            hits, misses = cache_delta
            if hits:
                self._cache_for("hit").inc(hits)
            if misses:
                self._cache_for("miss").inc(misses)

    def observe_advise(self, report) -> None:
        """Record an advise() verdict and its drift score."""
        if report.drift_score is not None:
            self.registry.gauge("repro_drift_score", **self._labels).set(
                report.drift_score
            )
        self.registry.gauge(
            "repro_advise_estimated_improvement", **self._labels
        ).set(report.estimated_improvement)
        verdict = bool(report.should_adapt)
        counter = self._verdicts.get(verdict)
        if counter is None:
            counter = self.registry.counter(
                "repro_advise_verdicts_total",
                verdict="adapt" if verdict else "keep",
                **self._labels,
            )
            self._verdicts[verdict] = counter
        counter.inc()

    def observe_adapt(self, seconds: float) -> None:
        """Record one completed adapt() hot swap."""
        self.registry.counter("repro_adapts_total", **self._labels).inc()
        self.registry.gauge("repro_last_adapt_seconds", **self._labels).set(seconds)


class OnlineMetrics:
    """Records the online write path: delta occupancy, compactions, adapt scope."""

    __slots__ = ("registry", "_labels", "_ingest")

    def __init__(self, registry: MetricsRegistry, **labels: object) -> None:
        self.registry = registry
        self._labels = {str(k): str(v) for k, v in labels.items()}
        self._ingest: Dict[str, Counter] = {}

    def observe_ingest(self, kind: str, count: int = 1) -> None:
        """Record accepted writes (``kind`` is ``insert`` or ``delete``)."""
        counter = self._ingest.get(kind)
        if counter is None:
            counter = self.registry.counter(
                "repro_ingest_total", kind=kind, **self._labels
            )
            self._ingest[kind] = counter
        counter.inc(count)

    def observe_delta(self, stats: Mapping[str, object]) -> None:
        """Record the delta buffer's current occupancy."""
        self.registry.gauge("repro_delta_live_rows", **self._labels).set(
            int(stats.get("live", 0))
        )
        self.registry.gauge("repro_delta_tombstones", **self._labels).set(
            int(stats.get("tombstones", 0))
        )

    def observe_compaction(self, result: Mapping[str, object]) -> None:
        """Record one completed compaction."""
        self.registry.counter("repro_compactions_total", **self._labels).inc()
        self.registry.gauge("repro_last_compaction_seconds", **self._labels).set(
            float(result.get("seconds", 0.0))
        )

    def observe_tick(self) -> None:
        """Record one maintenance-loop tick (manual or background)."""
        self.registry.counter("repro_maintenance_ticks_total", **self._labels).inc()

    def observe_incremental_adapt(self, report) -> None:
        """Record one incremental-adapt pass and the fraction of leaves touched."""
        if report.selected:
            self.registry.counter(
                "repro_incremental_adapts_total", **self._labels
            ).inc()
        self.registry.gauge("repro_incremental_adapt_scope", **self._labels).set(
            report.scope
        )
        self.registry.gauge(
            "repro_incremental_adapt_selected", **self._labels
        ).set(report.selected)


class ShardMetrics:
    """Records per-shard busy time and scan-cost deltas for a ShardedIndex."""

    __slots__ = ("registry", "_busy", "_scan")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._busy: Dict[Tuple[int, str], LatencyHistogram] = {}
        self._scan: Dict[Tuple[int, str], Counter] = {}

    def observe_shard(
        self,
        shard_id: int,
        method: str,
        busy_seconds: float,
        counter_delta: Mapping[str, int],
    ) -> None:
        """Record one shard's share of a scatter/gather round."""
        kind = shard_method_kind(method)
        key = (shard_id, kind)
        hist = self._busy.get(key)
        if hist is None:
            hist = self.registry.histogram(
                "repro_shard_busy_micros", shard=shard_id, kind=kind
            )
            self._busy[key] = hist
        hist.observe_block(busy_seconds, 1)
        for field, value in counter_delta.items():
            if not value:
                continue
            scan_key = (shard_id, field)
            counter = self._scan.get(scan_key)
            if counter is None:
                counter = self.registry.counter(
                    "repro_shard_scan_cost_total", shard=shard_id, counter=field
                )
                self._scan[scan_key] = counter
            counter.inc(int(value))
