"""Unit and integration tests for the base Z-index structure."""

import pytest

from repro.core import WaZI
from repro.geometry import Point, Rect
from repro.interfaces import brute_force_range
from repro.zindex import BaseZIndex, ZIndex, MidpointSplitStrategy
from repro.zindex.node import InternalNode, iter_leaves_in_curve_order


def result_set(points):
    return sorted((p.x, p.y) for p in points)


class TestConstruction:
    def test_empty_index(self):
        index = BaseZIndex([])
        assert len(index) == 0
        assert index.range_query(Rect(0, 0, 1, 1)) == []
        assert not index.point_query(Point(0, 0))
        assert index.extent() is None

    def test_invalid_leaf_capacity(self):
        with pytest.raises(ValueError):
            BaseZIndex([Point(0, 0)], leaf_capacity=0)

    def test_single_point(self):
        index = BaseZIndex([Point(1.0, 2.0)])
        assert len(index) == 1
        assert index.point_query(Point(1.0, 2.0))
        assert index.range_query(Rect(0, 0, 3, 3)) == [Point(1.0, 2.0)]

    def test_all_points_stored(self, clustered_points):
        index = BaseZIndex(clustered_points, leaf_capacity=32)
        assert len(index) == len(clustered_points)
        assert result_set(index.all_points()) == result_set(clustered_points)

    def test_leaf_capacity_respected(self, clustered_points):
        index = BaseZIndex(clustered_points, leaf_capacity=32)
        assert max(index.leaf_sizes()) <= 32

    def test_leaflist_is_linked(self, clustered_points):
        index = BaseZIndex(clustered_points, leaf_capacity=32)
        assert index.leaflist.check_linked()

    def test_duplicate_points_build_as_oversized_leaf(self):
        duplicates = [Point(1.0, 1.0)] * 300
        index = BaseZIndex(duplicates, leaf_capacity=64)
        assert len(index) == 300
        assert index.point_query(Point(1.0, 1.0))
        assert len(index.range_query(Rect(0, 0, 2, 2))) == 300

    def test_depth_and_node_counts(self, clustered_points):
        index = BaseZIndex(clustered_points, leaf_capacity=32)
        internal, leaves = index.node_counts()
        assert leaves == len(index.leaflist)
        assert index.depth() >= 2
        assert internal >= 1

    def test_extent_covers_all_points(self, clustered_points):
        index = BaseZIndex(clustered_points)
        extent = index.extent()
        assert all(extent.contains_xy(p.x, p.y) for p in clustered_points)


class TestPointQueries:
    def test_every_indexed_point_found(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        assert all(index.point_query(p) for p in uniform_points)

    def test_missing_point_not_found(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        assert not index.point_query(Point(2.0, 2.0))

    def test_counters_track_nodes_and_pages(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        index.reset_counters()
        index.point_query(uniform_points[0])
        assert index.counters.nodes_visited >= 1
        assert index.counters.pages_scanned == 1


class TestRangeQueries:
    def test_matches_brute_force(self, uniform_points, sample_queries):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        for query in sample_queries:
            expected = brute_force_range(uniform_points, query)
            assert result_set(index.range_query(query)) == result_set(expected)

    def test_whole_extent_returns_everything(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        assert len(index.range_query(Rect(-1, -1, 2, 2))) == len(uniform_points)

    def test_empty_region_returns_nothing(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        assert index.range_query(Rect(5.0, 5.0, 6.0, 6.0)) == []

    def test_degenerate_query_rectangle(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        target = uniform_points[0]
        hits = index.range_query(Rect(target.x, target.y, target.x, target.y))
        assert target in hits

    def test_counters_accumulate(self, uniform_points, sample_queries):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        index.reset_counters()
        for query in sample_queries[:5]:
            index.range_query(query)
        assert index.counters.bbs_checked > 0
        assert index.counters.points_filtered >= index.counters.points_returned

    def test_phase_timer_records_projection_and_scan(self, uniform_points, sample_queries):
        from repro.evaluation import PhaseTimer

        index = BaseZIndex(uniform_points, leaf_capacity=16)
        index.phase_timer = PhaseTimer()
        index.range_query(sample_queries[0])
        totals = index.phase_timer.totals()
        assert "projection" in totals
        assert "scan" in totals


class TestMonotonicity:
    def test_dominated_points_in_earlier_or_equal_leaves(self, uniform_points):
        """The paper's monotonicity property: domination implies curve order."""
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        ordered = index.all_points()
        positions = {(p.x, p.y): i for i, p in enumerate(ordered)}
        leaf_of = {}
        for leaf_index, entry in enumerate(index.leaflist):
            for point in entry.page:
                leaf_of[(point.x, point.y)] = leaf_index
        sample = uniform_points[:80]
        for a in sample:
            for b in sample:
                if a.x < b.x and a.y < b.y and leaf_of[(a.x, a.y)] != leaf_of[(b.x, b.y)]:
                    assert leaf_of[(a.x, a.y)] < leaf_of[(b.x, b.y)]
                    assert positions[(a.x, a.y)] < positions[(b.x, b.y)]


class TestUpdates:
    def test_insert_then_query(self, uniform_points):
        index = BaseZIndex(uniform_points[:200], leaf_capacity=16)
        new_point = Point(0.123456, 0.654321)
        index.insert(new_point)
        assert index.point_query(new_point)
        assert len(index) == 201

    def test_insert_overflow_splits_leaf(self):
        points = [Point(x / 20.0, 0.5) for x in range(20)]
        index = BaseZIndex(points, leaf_capacity=8)
        before_leaves = len(index.leaflist)
        for i in range(30):
            index.insert(Point(0.5 + i * 1e-4, 0.5 + i * 1e-4))
        assert len(index) == 50
        assert len(index.leaflist) > before_leaves
        assert index.leaflist.check_linked()

    def test_insert_into_empty_index(self):
        index = BaseZIndex([])
        index.insert(Point(1.0, 1.0))
        assert len(index) == 1
        assert index.point_query(Point(1.0, 1.0))

    def test_range_queries_correct_after_inserts(self, uniform_points, sample_queries):
        half = len(uniform_points) // 2
        index = BaseZIndex(uniform_points[:half], leaf_capacity=16)
        for point in uniform_points[half:]:
            index.insert(point)
        for query in sample_queries[:10]:
            expected = brute_force_range(uniform_points, query)
            assert result_set(index.range_query(query)) == result_set(expected)

    def test_delete_existing_point(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        victim = uniform_points[3]
        assert index.delete(victim)
        assert not index.point_query(victim)
        assert len(index) == len(uniform_points) - 1

    def test_delete_missing_point(self, uniform_points):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        assert not index.delete(Point(5.0, 5.0))
        assert len(index) == len(uniform_points)

    def test_delete_many_merges_leaves(self):
        points = [Point(x / 100.0, (x % 10) / 10.0) for x in range(100)]
        index = BaseZIndex(points, leaf_capacity=16)
        leaves_before = len(index.leaflist)
        for point in points[:90]:
            assert index.delete(point)
        assert len(index) == 10
        assert len(index.leaflist) <= leaves_before
        remaining = result_set(index.all_points())
        assert remaining == result_set(points[90:])

    def test_insert_many_inside_root_cell_matches_scalar_inserts(
        self, clustered_points, small_workload
    ):
        scalar = WaZI(clustered_points[:1500], small_workload.queries, leaf_capacity=32, seed=3)
        batched = WaZI(clustered_points[:1500], small_workload.queries, leaf_capacity=32, seed=3)
        rows = [p for p in clustered_points[1500:] if scalar.root.cell.contains_point(p)]
        assert len(rows) > 100
        for point in rows:
            scalar.insert(point)
        batched.insert_many([], [])
        batched.insert_many([p.x for p in rows], [p.y for p in rows])
        assert batched.extent() == scalar.extent()
        assert batched.leaf_sizes() == scalar.leaf_sizes()
        assert batched.leaflist.check_linked()
        assert batched.leaflist.check_skip_pointers_forward()
        for index in (scalar, batched):
            index.counters.reset()
        everything = clustered_points[:1500] + rows
        for query in small_workload.queries:
            expected = result_set(brute_force_range(everything, query))
            assert result_set(batched.range_query(query)) == expected
            assert result_set(scalar.range_query(query)) == expected
        assert batched.counters.snapshot() == scalar.counters.snapshot()

    def test_insert_many_outside_root_cell_rebuilds_once(self, uniform_points, sample_queries):
        index = BaseZIndex(uniform_points[:300], leaf_capacity=16)
        builds = []
        build = index._build
        index._build = lambda xs, ys: (builds.append(len(xs)), build(xs, ys))
        rows = uniform_points[300:] + [Point(1.5, -0.5)]
        index.insert_many([p.x for p in rows], [p.y for p in rows])
        everything = uniform_points[:300] + rows
        assert builds == [len(everything)]
        fresh = BaseZIndex(everything, leaf_capacity=16)
        assert index.extent() == fresh.extent() == Rect(
            min(p.x for p in everything), -0.5, 1.5, max(p.y for p in everything)
        )
        assert index.leaf_sizes() == fresh.leaf_sizes()
        assert index.point_query(Point(1.5, -0.5))
        for query in sample_queries[:10] + [Rect(1.0, -1.0, 2.0, 0.0)]:
            expected = result_set(brute_force_range(everything, query))
            assert result_set(index.range_query(query)) == expected

    def test_rederive_mid_tree_subtree_at_smaller_capacity(
        self, clustered_points, small_workload
    ):
        index = WaZI(clustered_points, small_workload.queries, leaf_capacity=32, seed=3)
        assert index.use_skipping

        def span(node):
            leaves = list(iter_leaves_in_curve_order(node))
            return leaves[0].leaf_index, leaves[-1].leaf_index

        last = len(index.leaflist) - 1
        parent, quadrant, node = next(
            (parent, quadrant, child)
            for parent in index.root.children if isinstance(parent, InternalNode)
            for quadrant, child in enumerate(parent.children)
            if isinstance(child, InternalNode) and 0 < span(child)[0] and span(child)[1] < last
        )
        low, high = span(node)
        spliced = index.rederive_subtree(node, parent, quadrant, leaf_capacity=8)
        assert spliced > high - low + 1
        assert len(index.leaflist) == last + 1 - (high - low + 1) + spliced
        assert max(index.leaf_sizes()[low:low + spliced]) <= 8
        assert index.leaf_capacity == 32
        assert index.leaflist.check_linked()
        assert index.leaflist.check_skip_pointers_forward()
        leaf_indexes = [leaf.leaf_index for leaf in iter_leaves_in_curve_order(index.root)]
        assert leaf_indexes == list(range(len(index.leaflist)))
        queries = list(small_workload.queries) + [
            parent.cell, node.cell, Rect(20.0, 20.0, 40.0, 40.0)
        ]
        for query in queries:
            expected = brute_force_range(clustered_points, query)
            assert result_set(index.range_query(query)) == result_set(expected)


class TestCustomStrategy:
    def test_midpoint_strategy_still_correct(self, uniform_points, sample_queries):
        index = ZIndex(uniform_points, leaf_capacity=16, split_strategy=MidpointSplitStrategy())
        for query in sample_queries[:10]:
            expected = brute_force_range(uniform_points, query)
            assert result_set(index.range_query(query)) == result_set(expected)

    def test_size_bytes_positive_and_grows(self, uniform_points):
        small = BaseZIndex(uniform_points[:100], leaf_capacity=16)
        large = BaseZIndex(uniform_points, leaf_capacity=16)
        assert 0 < small.size_bytes() < large.size_bytes()

    def test_knn_matches_brute_force(self, uniform_points):
        from repro.interfaces import brute_force_knn

        index = BaseZIndex(uniform_points, leaf_capacity=16)
        center = Point(0.5, 0.5)
        expected = {(p.x, p.y) for p in brute_force_knn(uniform_points, center, 5)}
        got = {(p.x, p.y) for p in index.knn(center, 5)}
        assert got == expected
