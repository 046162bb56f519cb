"""OnlineIndex: merged reads are byte-identical to an eager rebuild, and
the freeze → merge-aside → swap compaction preserves every acknowledged
write."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.interfaces import SpatialIndex
from repro.online import OnlineIndex
from repro.zindex.base import ZIndex


def canonical_points(points):
    """Order-independent canonical bytes of a point multiset."""
    xs = np.fromiter((p.x for p in points), dtype=np.float64, count=len(points))
    ys = np.fromiter((p.y for p in points), dtype=np.float64, count=len(points))
    order = np.lexsort((ys, xs))
    return np.stack([xs[order], ys[order]]).tobytes()


def canonical_result(result):
    xs, ys = result.as_arrays()
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    order = np.lexsort((ys, xs))
    return np.stack([xs[order], ys[order]]).tobytes()


def assert_query_parity(online, reference_points, queries):
    """Every query answered by ``online`` matches a fresh eager rebuild."""
    eager = ZIndex(list(reference_points), leaf_capacity=32)
    for query in queries:
        assert canonical_result(online.range_query(query)) == canonical_result(
            eager.range_query(query)
        )
        assert online.range_count(query) == eager.range_count(query)
    online_batch = online.batch_range_query(queries)
    eager_batch = eager.batch_range_query(queries)
    for got, want in zip(online_batch, eager_batch):
        assert canonical_result(got) == canonical_result(want)
    assert online.batch_range_count(queries) == eager.batch_range_count(queries)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(23)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0.0, 1.0, (800, 2))]


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(5)
    rects = []
    for _ in range(12):
        x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2))
        y1, y2 = sorted(rng.uniform(0.0, 1.0, size=2))
        rects.append(Rect(float(x1), float(y1), float(x2), float(y2)))
    return rects


@pytest.fixture()
def online(points):
    return OnlineIndex(ZIndex(list(points), leaf_capacity=32))


class _BruteIndex(SpatialIndex):
    """A minimal non-Z-index base, for the family guard tests."""

    name = "Brute"

    def __init__(self, points):
        super().__init__()
        self._points = list(points)

    def _range_query_points(self, query):
        return [p for p in self._points if query.contains_point(p)]

    def point_query(self, point):
        return any(p.x == point.x and p.y == point.y for p in self._points)

    def __len__(self):
        return len(self._points)

    def extent(self):
        return Rect(0.0, 0.0, 1.0, 1.0)

    def size_bytes(self):
        return 0


class TestConstruction:
    def test_stacking_rejected(self, online):
        with pytest.raises(TypeError):
            OnlineIndex(online)

    def test_name_and_len(self, online, points):
        assert online.name == "Online[ZIndex]"
        assert len(online) == len(points)

    def test_counters_shared_with_base(self, online):
        assert online.counters is online.base.counters


class TestMergedReads:
    def test_quiet_index_passes_base_results_through(self, online, queries):
        base_result = online.base.range_query(queries[0])
        assert canonical_result(online.range_query(queries[0])) == canonical_result(
            base_result
        )

    def test_insert_visible_immediately(self, online, points, queries):
        extra = [Point(0.111, 0.222), Point(0.333, 0.444), Point(0.111, 0.222)]
        for p in extra:
            online.insert(p)
        assert len(online) == len(points) + 3
        assert_query_parity(online, points + extra, queries)

    def test_insert_rejects_non_finite(self, online):
        with pytest.raises(ValueError):
            online.insert(Point(float("nan"), 0.5))
        with pytest.raises(ValueError):
            online.insert(Point(0.5, float("inf")))

    def test_delete_cancels_delta_insert_first(self, online, points):
        target = Point(0.123, 0.456)
        online.insert(target)
        assert online.delete(target)
        assert len(online) == len(points)
        stats = online.delta_stats()
        assert stats["tombstones"] == 0  # cancelled in the buffer, no tombstone

    def test_delete_tombstones_base_occurrence(self, online, points, queries):
        victims = points[:5]
        for p in victims:
            assert online.delete(p)
        stats = online.delta_stats()
        assert stats["tombstones"] == 5
        assert len(online) == len(points) - 5
        assert_query_parity(online, points[5:], queries)

    def test_delete_absent_returns_false(self, online):
        before = len(online)
        assert not online.delete(Point(42.0, 42.0))
        assert len(online) == before

    def test_point_query_and_knn_merged(self, online, points):
        added = Point(0.505, 0.505)
        online.insert(added)
        assert online.point_query(added)
        online.delete(points[0])
        assert not online.point_query(points[0])
        got = online.knn(Point(0.5, 0.5), 7)
        eager = ZIndex([p for p in points[1:]] + [added], leaf_capacity=32)
        want = eager.knn(Point(0.5, 0.5), 7)
        assert canonical_result(got) == canonical_result(want)

    def test_radius_query_merged(self, online, points):
        online.insert(Point(0.61, 0.61))
        online.delete(points[1])
        got = online.radius_query(Point(0.6, 0.6), 0.15)
        eager = ZIndex(
            [p for i, p in enumerate(points) if i != 1] + [Point(0.61, 0.61)],
            leaf_capacity=32,
        )
        want = eager.radius_query(Point(0.6, 0.6), 0.15)
        assert canonical_result(got) == canonical_result(want)

    def test_generation_bumps_on_every_mutation(self, online):
        g0 = online.delta_stats()["generation"]
        online.insert(Point(0.5, 0.5))
        g1 = online.delta_stats()["generation"]
        online.delete(Point(0.5, 0.5))
        g2 = online.delta_stats()["generation"]
        assert g0 < g1 < g2


class TestCompaction:
    def test_compact_empty_is_noop(self, online):
        assert online.compact() is None
        assert online.compactions == 0

    def test_compact_preserves_results_and_drains_delta(self, online, points, queries):
        extra = [Point(0.21, 0.82), Point(0.83, 0.14), Point(0.21, 0.82)]
        for p in extra:
            online.insert(p)
        for p in points[:10]:
            online.delete(p)
        merged = points[10:] + extra
        before = canonical_points(online.all_points())
        stats = online.compact()
        assert stats is not None
        assert stats["merged_inserts"] == 3
        assert stats["merged_tombstones"] == 10
        assert stats["points"] == len(merged)
        assert online.compactions == 1
        assert canonical_points(online.all_points()) == before
        delta = online.delta_stats()
        assert delta["rows"] == 0 and not delta["compacting"]
        assert_query_parity(online, merged, queries)

    def test_compact_preserves_counters(self, online, queries):
        online.range_query(queries[0])
        filtered_before = online.counters.points_filtered
        assert filtered_before > 0
        online.insert(Point(0.77, 0.33))
        online.compact()
        assert online.counters.points_filtered >= filtered_before

    def test_out_of_extent_insert_grows_extent(self, online, points, queries):
        outside = [Point(1.5, 1.5), Point(-0.25, 0.5)]
        for p in outside:
            online.insert(p)
        extent = online.extent()
        assert extent.xmax >= 1.5 and extent.xmin <= -0.25
        online.compact()
        extent = online.extent()
        assert extent.xmax >= 1.5 and extent.xmin <= -0.25
        assert_query_parity(online, points + outside, queries)

    def test_compact_requires_zindex_family(self, points):
        online = OnlineIndex(_BruteIndex(points[:50]))
        online.insert(Point(0.5, 0.5))
        with pytest.raises(TypeError):
            online.compact()
        # the failed attempt must not have eaten the buffered write
        assert online.delta_stats()["live"] == 1

    def test_delta_age_tracks_oldest_write(self, online):
        assert online.delta_age_seconds() == 0.0
        online.insert(Point(0.4, 0.4))
        assert online.delta_age_seconds() >= 0.0
        online.compact()
        assert online.delta_age_seconds() == 0.0

    def test_failed_compaction_keeps_the_age_of_its_writes(self, online, monkeypatch):
        online.insert(Point(0.4, 0.4))
        time.sleep(0.02)

        def exploding(base_state, frozen):
            raise RuntimeError("boom")

        monkeypatch.setattr(online, "_merge_into_clone", exploding)
        with pytest.raises(RuntimeError):
            online.compact()
        # the rolled-back write is still 20 ms old, so the age trigger retries it
        assert online.delta_age_seconds() >= 0.02
        assert online.delta_stats()["live"] == 1


class TestRebuild:
    def test_rebuild_swaps_base_from_merged_points(self, online, points, queries):
        online.insert(Point(0.99, 0.01))
        online.delete(points[0])
        merged = points[1:] + [Point(0.99, 0.01)]
        received = {}

        def builder(pts):
            received["count"] = len(pts)
            return ZIndex(pts, leaf_capacity=16)

        new_base = online.rebuild(builder)
        assert received["count"] == len(merged)
        assert online.base is new_base
        assert online.base.leaf_capacity == 16
        assert online.delta_stats()["rows"] == 0
        assert_query_parity(online, merged, queries)

    def test_rebuild_failure_rolls_back(self, online, points):
        online.insert(Point(0.88, 0.88))

        def exploding(pts):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            online.rebuild(exploding)
        assert len(online) == len(points) + 1
        assert online.point_query(Point(0.88, 0.88))


class TestIncrementalAdapt:
    def test_requires_zindex_family(self, points):
        online = OnlineIndex(_BruteIndex(points[:50]))
        with pytest.raises(TypeError):
            online.incremental_adapt([Rect(0.0, 0.0, 0.1, 0.1)])

    def test_noop_when_nothing_selected_keeps_base(self, online):
        base = online.base
        # an empty window attributes no cost, so nothing regresses
        report = online.incremental_adapt([])
        assert report.selected == 0
        assert online.base is base

    def test_rederive_preserves_results(self, online, points, queries):
        rng = np.random.default_rng(9)
        hot = [
            Rect(float(x), float(y), float(x) + 0.04, float(y) + 0.04)
            for x, y in rng.uniform(0.05, 0.15, (150, 2))
        ]
        online.insert(Point(0.07, 0.07))
        report = online.incremental_adapt(hot, min_leaf_capacity=4)
        assert report.leaves_total > 0
        assert 0.0 <= report.scope <= 1.0
        assert_query_parity(online, points + [Point(0.07, 0.07)], queries)
