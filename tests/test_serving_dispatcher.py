"""Tests for the scatter/gather dispatcher (in-process backends).

The contract: a ShardedIndex over a shard directory answers every query
type byte-identically to the unsharded index it was built from — same
rows, same order, same cost counters — and the merged results compose
with the rest of the query surface (joins) unchanged.
"""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.joins import box_join, radius_join
from repro.serving import LocalBackend, build_shards, open_sharded
from repro.zindex import ZIndex


def _dataset(n=4000, seed=23, span=400.0):
    rng = np.random.default_rng(seed)
    # A skewed mixture so shard bounding boxes differ in density.
    a = rng.uniform(0, span, size=(n // 2, 2))
    b = rng.normal(span * 0.25, span * 0.02, size=(n - n // 2, 2))
    return np.clip(np.concatenate([a, b]), 0, span), rng


def _build_pair(tmp_path, *, num_shards=6, use_skipping=True, n=4000):
    coords, rng = _dataset(n=n)
    pts = [Point(float(x), float(y)) for x, y in coords]
    index = ZIndex(pts, leaf_capacity=32, use_skipping=use_skipping)
    build_shards(index, tmp_path / "shards", num_shards=num_shards)
    sharded = open_sharded(tmp_path / "shards", workers=0)
    return index, sharded, rng


#: Counters measuring data touched.  These match the unsharded engine
#: exactly (shards partition the rows).  Traversal counters
#: (nodes_visited, bbs_checked, leaves_skipped) legitimately differ:
#: every shard descends its own copy of the global tree (more node
#: visits), but clamps its scan to its live leaf span (often fewer bbox
#: checks than the one global interval).
DATA_COUNTERS = ("pages_scanned", "points_filtered", "points_returned")


def _assert_data_counters_match(index, sharded):
    expect = vars(index.counters)
    got = vars(sharded.counters)
    for name in DATA_COUNTERS:
        assert got[name] == expect[name], name
    assert got["nodes_visited"] >= expect["nodes_visited"]


def _assert_same_results(expect, got):
    assert len(expect) == len(got)
    for e, g in zip(expect, got):
        ex, ey = e.as_arrays()
        gx, gy = g.as_arrays()
        np.testing.assert_array_equal(ex, gx)
        np.testing.assert_array_equal(ey, gy)


@pytest.fixture()
def pair(tmp_path):
    index, sharded, rng = _build_pair(tmp_path)
    yield index, sharded, rng
    sharded.close()


class TestRangeIdentity:
    def test_batch_range_query_byte_identical(self, pair):
        index, sharded, rng = pair
        queries = []
        for _ in range(60):
            x0, x1 = sorted(rng.uniform(0, 400, 2).tolist())
            y0, y1 = sorted(rng.uniform(0, 400, 2).tolist())
            queries.append(Rect(x0, y0, x1, y1))
        queries.append(Rect(-10, -10, 500, 500))  # everything
        queries.append(Rect(900, 900, 901, 901))  # nothing
        index.reset_counters()
        sharded.reset_counters()
        _assert_same_results(
            index.batch_range_query(queries), sharded.batch_range_query(queries)
        )
        _assert_data_counters_match(index, sharded)

    def test_range_count_matches(self, pair):
        index, sharded, rng = pair
        queries = []
        for _ in range(20):
            x0, x1 = sorted(rng.uniform(0, 400, 2).tolist())
            y0, y1 = sorted(rng.uniform(0, 400, 2).tolist())
            queries.append(Rect(x0, y0, x1, y1))
        assert sharded.batch_range_count(queries) == index.batch_range_count(queries)
        assert sharded.range_count(queries[0]) == index.range_count(queries[0])

    def test_empty_batch(self, pair):
        _, sharded, _ = pair
        assert sharded.batch_range_query([]) == []
        assert sharded.batch_range_count([]) == []


class TestKnnIdentity:
    def test_batch_knn_byte_identical_across_k(self, pair):
        index, sharded, rng = pair
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 400, size=(15, 2))]
        centers.append(Point(-50.0, -50.0))  # outside every shard bbox
        for k in (1, 7, 64):
            index.reset_counters()
            sharded.reset_counters()
            _assert_same_results(
                index.batch_knn(centers, k), sharded.batch_knn(centers, k)
            )

    def test_scalar_knn_with_pruning_matches(self, pair):
        index, sharded, rng = pair
        for x, y in rng.uniform(0, 400, size=(25, 2)):
            center = Point(float(x), float(y))
            for k in (1, 9):
                _assert_same_results([index.knn(center, k)], [sharded.knn(center, k)])

    def test_knn_k_exceeds_population(self, pair):
        index, sharded, _ = pair
        center = Point(10.0, 10.0)
        _assert_same_results(
            [index.knn(center, len(index) + 100)],
            [sharded.knn(center, len(sharded) + 100)],
        )

    def test_knn_duplicate_points_tie_break(self, tmp_path):
        # Many exactly coincident points force distance ties: the merge's
        # stable sort must reproduce the unsharded flat-order tie-break.
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 100, size=(500, 2))
        coords = np.concatenate([coords, np.tile([[50.0, 50.0]], (40, 1))])
        pts = [Point(float(x), float(y)) for x, y in coords]
        index = ZIndex(pts, leaf_capacity=16)
        build_shards(index, tmp_path / "s", num_shards=5)
        with open_sharded(tmp_path / "s", workers=0) as sharded:
            for k in (1, 10, 40, 45):
                _assert_same_results(
                    [index.knn(Point(50.0, 50.0), k)],
                    [sharded.knn(Point(50.0, 50.0), k)],
                )

    def test_knn_invalid_inputs(self, pair):
        _, sharded, _ = pair
        assert sharded.knn(Point(1.0, 1.0), 0).count() == 0
        assert sharded.batch_knn([], 5) == []
        with pytest.raises(ValueError):
            sharded.knn(Point(float("nan"), 0.0), 3)


class TestRadiusAndPoint:
    def test_batch_radius_byte_identical(self, pair):
        index, sharded, rng = pair
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 400, size=(18, 2))]
        for radius in (0.5, 12.0, 600.0):
            _assert_same_results(
                index.batch_radius_query(centers, radius),
                sharded.batch_radius_query(centers, radius),
            )

    def test_radius_rejects_bad_radius(self, pair):
        _, sharded, _ = pair
        with pytest.raises(ValueError):
            sharded.batch_radius_query([Point(1.0, 1.0)], -1.0)

    def test_point_query_matches(self, pair):
        index, sharded, _ = pair
        sample = index.all_points()[:: max(1, len(index) // 50)]
        for point in sample:
            assert sharded.point_query(point)
        assert not sharded.point_query(Point(-3.0, -3.0))


class TestJoinsThroughDispatcher:
    def test_box_join_identical(self, pair):
        index, sharded, rng = pair
        probes = [Point(float(x), float(y)) for x, y in rng.uniform(0, 400, size=(30, 2))]
        assert box_join(sharded, probes, 5.0) == box_join(index, probes, 5.0)

    def test_radius_join_identical(self, pair):
        index, sharded, rng = pair
        probes = [Point(float(x), float(y)) for x, y in rng.uniform(0, 400, size=(30, 2))]
        assert radius_join(sharded, probes, 7.5) == radius_join(index, probes, 7.5)


class TestDispatcherPlumbing:
    def test_len_extent_size(self, pair):
        index, sharded, _ = pair
        assert len(sharded) == len(index)
        assert sharded.size_bytes() > 0
        extent = sharded.extent()
        for point in index.all_points()[:: max(1, len(index) // 20)]:
            assert extent.contains_point(point)

    def test_mutations_rejected(self, pair):
        _, sharded, _ = pair
        with pytest.raises(NotImplementedError):
            sharded.insert(Point(1.0, 1.0))

    def test_single_shard_plan(self, tmp_path):
        index, sharded, rng = _build_pair(tmp_path, num_shards=1, n=800)
        try:
            assert sharded.num_shards == 1
            queries = [Rect(0, 0, 200, 200), Rect(50, 50, 60, 60)]
            _assert_same_results(
                index.batch_range_query(queries), sharded.batch_range_query(queries)
            )
        finally:
            sharded.close()

    def test_reset_counters_resets_shards_too(self, pair):
        _, sharded, _ = pair
        sharded.range_count(Rect(0, 0, 400, 400))
        assert sharded.counters.pages_scanned > 0
        sharded.reset_counters()
        assert sharded.counters.pages_scanned == 0
        sharded.range_count(Rect(0, 0, 400, 400))
        assert sharded.counters.pages_scanned > 0

    def test_busy_accounting(self, pair):
        _, sharded, _ = pair
        sharded.reset_busy()
        sharded.range_count(Rect(0, 0, 400, 400))
        assert sum(sharded.shard_busy_seconds) > 0.0
        sharded.reset_busy()
        assert sum(sharded.shard_busy_seconds) == 0.0

    def test_context_manager_closes(self, tmp_path):
        _, sharded, _ = _build_pair(tmp_path, num_shards=2, n=600)
        with sharded:
            assert len(sharded) == 600
        # close() is idempotent.
        sharded.close()

    def test_column_info_reports_mmap(self, pair):
        _, sharded, _ = pair
        info = sharded.column_info()
        assert len(info) == sharded.num_shards
        for entry in info:
            assert entry["store"] == "MmapColumnStore"
            assert all(entry["mapped"].values())


class TestFailedScatter:
    """A scatter that fails part-way leaves every backend in step."""

    def test_local_backend_defers_errors_to_collect(self, pair):
        _, sharded, _ = pair
        backend = sharded._backends[0]
        assert isinstance(backend, LocalBackend)
        backend.submit("no_such_method")
        with pytest.raises(ValueError):
            backend.collect()
        with pytest.raises(RuntimeError):
            backend.collect()  # the failed request left nothing behind

    def test_failure_on_a_later_shard_leaves_no_stale_reply(self, pair):
        index, sharded, _ = pair
        everything = np.array([[0.0, 0.0, 400.0, 400.0]])
        with pytest.raises(ValueError):
            sharded._scatter(
                [(0, everything), (1, "not a window")], "batch_range_count"
            )
        for rect in (Rect(0, 0, 50, 50), Rect(100, 100, 300, 300)):
            assert sharded.range_count(rect) == index.range_count(rect)

