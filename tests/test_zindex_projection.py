"""Regression tests for the projection-interval and update bugfixes.

Covers three defects fixed together with the columnar storage engine:

* the range-query projection derived its scan interval from only the
  bottom-left/top-right query corners, which silently drops results under
  non-monotone child orderings;
* inserting a point outside the original extent expanded ``_extent`` but
  left the point in a leaf whose cell does not contain it, making it
  unfindable;
* leaf splits rebuilt the entire LeafList (and all look-ahead pointers) per
  overflow; they are now repaired incrementally and must stay byte-for-byte
  equivalent to a from-scratch rebuild.
"""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.interfaces import brute_force_range
from repro.core import BaseWithSkipping, WaZI
from repro.storage.leaflist import SKIP_CRITERIA
from repro.zindex import BaseZIndex, ZIndex
from repro.zindex.node import ORDER_BADC
from repro.zindex.skipping import build_lookahead_pointers
from repro.zindex.splitters import FixedDecisionStrategy, SplitDecision


def result_set(points):
    return sorted((p.x, p.y) for p in points)


class TestFourCornerProjection:
    """The scan interval must cover the leaves of all four query corners."""

    def build_adversarial_index(self):
        """One split at the centre with the non-monotone "badc" ordering.

        Curve order becomes B(0), A(1), D(2), C(3).  A query spanning all
        four quadrants has its BL corner in A (rank 1) and its TR corner in
        D (rank 2): the old two-corner interval [1, 2] excludes the leaves
        of B and C even though they hold matching points.
        """
        points = []
        for cx, cy in ((0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)):
            points += [
                Point(cx - 0.05, cy - 0.05),
                Point(cx + 0.05, cy + 0.05),
                Point(cx, cy),
            ]
        strategy = FixedDecisionStrategy(SplitDecision(0.5, 0.5, ORDER_BADC))
        return points, ZIndex(points, leaf_capacity=4, split_strategy=strategy)

    def test_adversarial_ordering_returns_exact_results(self):
        points, index = self.build_adversarial_index()
        query = Rect(0.1, 0.1, 0.9, 0.9)
        got = result_set(index.range_query(query))
        expected = result_set(brute_force_range(points, query))
        assert got == expected

    def test_two_corner_interval_would_have_dropped_leaves(self):
        """Documents the failure mode the fix addresses: under "badc" the
        BL/TR corners alone bound a strict sub-interval of the relevant
        leaves, so the old projection could not have been correct."""
        points, index = self.build_adversarial_index()
        query = Rect(0.1, 0.1, 0.9, 0.9)
        bl = index._leaf_for(query.xmin, query.ymin).leaf_index
        tr = index._leaf_for(query.xmax, query.ymax).leaf_index
        two_corner = set(range(min(bl, tr), max(bl, tr) + 1))
        low, high, relevant = index._project(query)
        assert set(relevant) - two_corner, (
            "expected relevant leaves outside the two-corner interval"
        )
        assert (low, high) == (0, len(index.leaflist) - 1)

    def test_monotone_orderings_unaffected(self, uniform_points, sample_queries):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        for query in sample_queries[:10]:
            expected = brute_force_range(uniform_points, query)
            assert result_set(index.range_query(query)) == result_set(expected)


class TestOutOfExtentInsert:
    """Inserting outside the root cell must keep the point queryable."""

    def build(self):
        rng = np.random.default_rng(11)
        points = [Point(float(x), float(y)) for x, y in rng.random((200, 2))]
        return points, BaseZIndex(points, leaf_capacity=16)

    def test_far_insert_found_by_range_query(self):
        points, index = self.build()
        far = Point(10.0, 10.0)
        index.insert(far)
        assert index.point_query(far)
        hits = index.range_query(Rect(9.0, 9.0, 11.0, 11.0))
        assert result_set(hits) == [(10.0, 10.0)]
        assert len(index) == len(points) + 1

    def test_negative_direction_insert(self):
        points, index = self.build()
        far = Point(-5.0, -7.5)
        index.insert(far)
        assert index.point_query(far)
        assert result_set(index.range_query(Rect(-8.0, -8.0, -4.0, -4.0))) == [
            (-5.0, -7.5)
        ]

    def test_full_result_set_preserved_after_extent_growth(self):
        points, index = self.build()
        extras = [Point(3.0, 3.0), Point(-2.0, 0.5), Point(0.5, 4.0)]
        for point in extras:
            index.insert(point)
        everything = points + extras
        box = Rect(-10.0, -10.0, 10.0, 10.0)
        assert result_set(index.range_query(box)) == result_set(everything)

    def test_skipping_index_out_of_extent(self):
        rng = np.random.default_rng(12)
        points = [Point(float(x), float(y)) for x, y in rng.random((150, 2))]
        index = BaseWithSkipping(points, leaf_capacity=8)
        far = Point(42.0, -3.0)
        index.insert(far)
        assert index.point_query(far)
        assert index.leaflist.check_linked()
        assert index.leaflist.check_skip_pointers_forward()


class TestIncrementalSplitRepair:
    """Splice-based leaf splits must match a from-scratch rebuild exactly."""

    @pytest.mark.parametrize("use_skipping", [False, True])
    def test_many_inserts_keep_list_consistent(self, use_skipping):
        rng = np.random.default_rng(7)
        points = [Point(float(x), float(y)) for x, y in rng.random((60, 2))]
        cls = BaseWithSkipping if use_skipping else BaseZIndex
        index = cls(points, leaf_capacity=8)
        extras = [Point(float(x), float(y)) for x, y in rng.random((120, 2))]
        for point in extras:
            index.insert(point)
            assert index.leaflist.check_linked()
            assert index.leaflist.check_skip_pointers_forward()
        everything = points + extras
        box = Rect(0.0, 0.0, 1.0, 1.0)
        assert result_set(index.range_query(box)) == result_set(everything)

    def test_pointers_equal_full_rebuild_after_inserts(self):
        rng = np.random.default_rng(8)
        points = [Point(float(x), float(y)) for x, y in rng.random((40, 2))]
        workload = [Rect(0.2, 0.2, 0.6, 0.6)]
        index = WaZI(points, workload, leaf_capacity=8, num_candidates=4, seed=0)
        for x, y in rng.random((80, 2)):
            index.insert(Point(float(x), float(y)))
        incremental = [
            [entry.skip_pointer(criterion) for criterion in SKIP_CRITERIA]
            for entry in index.leaflist
        ]
        build_lookahead_pointers(index.leaflist)
        fresh = [
            [entry.skip_pointer(criterion) for criterion in SKIP_CRITERIA]
            for entry in index.leaflist
        ]
        assert incremental == fresh

    def test_leaf_indices_track_tree_after_splits(self):
        from repro.zindex.node import iter_leaves_in_curve_order

        rng = np.random.default_rng(9)
        points = [Point(float(x), float(y)) for x, y in rng.random((30, 2))]
        index = BaseZIndex(points, leaf_capacity=8)
        for x, y in rng.random((90, 2)):
            index.insert(Point(float(x), float(y)))
        leaves = list(iter_leaves_in_curve_order(index.root))
        assert [leaf.leaf_index for leaf in leaves] == list(range(len(index.leaflist)))
        for leaf in leaves:
            assert index.leaflist[leaf.leaf_index].cell == leaf.cell


class TestBatchRangeQuery:
    """batch_range_query must match per-query results exactly."""

    def test_zindex_batch_matches_singles(self, uniform_points, sample_queries):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        singles = [index.range_query(query) for query in sample_queries]
        batch = index.batch_range_query(sample_queries)
        assert [result_set(r) for r in batch] == [result_set(r) for r in singles]
        # Same objects, same order — byte-identical result lists.
        assert batch == singles

    def test_wazi_batch_matches_singles(self, clustered_points, small_workload):
        index = WaZI(
            clustered_points, small_workload.queries, leaf_capacity=32, seed=3
        )
        singles = [index.range_query(query) for query in small_workload.queries]
        batch = index.batch_range_query(small_workload.queries)
        assert batch == singles

    def test_batch_counters_match_singles(self, uniform_points, sample_queries):
        index_a = BaseWithSkipping(uniform_points, leaf_capacity=16)
        index_b = BaseWithSkipping(uniform_points, leaf_capacity=16)
        for query in sample_queries:
            index_a.range_query(query)
        index_b.batch_range_query(sample_queries)
        assert index_a.counters.snapshot() == index_b.counters.snapshot()

    def test_default_batch_implementation_for_baselines(self, uniform_points, sample_queries):
        from repro.baselines import STRRTree

        index = STRRTree(uniform_points, leaf_capacity=16)
        singles = [result_set(index.range_query(q)) for q in sample_queries[:8]]
        batch = [result_set(r) for r in index.batch_range_query(sample_queries[:8])]
        assert batch == singles

    def test_batch_on_empty_index(self):
        index = BaseZIndex([])
        assert index.batch_range_query([Rect(0, 0, 1, 1)]) == [[]]


class TestDeletePointerRefresh:
    """Deletes shrink leaf bboxes; skip pointers must be refreshed (a latent
    seed bug: the scan could jump past a leaf the query still overlaps)."""

    def test_deletes_keep_skipping_queries_exact(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            points = [Point(float(x), float(y)) for x, y in rng.random((120, 2))]
            index = BaseWithSkipping(points, leaf_capacity=4)
            live = list(points)
            for i in sorted(set(rng.permutation(120)[:40].tolist())):
                if index.delete(points[i]):
                    live.remove(points[i])
            for _ in range(10):
                x1, x2 = sorted(rng.random(2))
                y1, y2 = sorted(rng.random(2))
                query = Rect(float(x1), float(y1), float(x2), float(y2))
                got = result_set(index.range_query(query))
                expected = result_set(
                    p for p in live if query.contains_xy(p.x, p.y)
                )
                assert got == expected, f"seed {seed}"

    def test_pointers_equal_full_rebuild_after_deletes(self):
        rng = np.random.default_rng(14)
        points = [Point(float(x), float(y)) for x, y in rng.random((150, 2))]
        index = WaZI(
            points, [Rect(0.2, 0.2, 0.7, 0.7)], leaf_capacity=8,
            num_candidates=4, seed=1,
        )
        for i in range(0, 150, 4):
            index.delete(points[i])
        incremental = [
            [entry.skip_pointer(criterion) for criterion in SKIP_CRITERIA]
            for entry in index.leaflist
        ]
        build_lookahead_pointers(index.leaflist)
        fresh = [
            [entry.skip_pointer(criterion) for criterion in SKIP_CRITERIA]
            for entry in index.leaflist
        ]
        assert incremental == fresh


class TestQueriesAfterMutation:
    """Queries after in-place updates see every mutation."""

    def test_alternating_inserts_and_queries_stay_exact(self):
        rng = np.random.default_rng(15)
        points = [Point(float(x), float(y)) for x, y in rng.random((300, 2))]
        index = BaseZIndex(points, leaf_capacity=16)
        live = list(points)
        query = Rect(0.2, 0.2, 0.8, 0.8)
        for x, y in rng.random((50, 2)):
            # Strictly inside the extent so no insert triggers a full rebuild.
            point = Point(0.1 + 0.8 * float(x), 0.1 + 0.8 * float(y))
            index.insert(point)
            live.append(point)
            got = result_set(index.range_query(query))
            expected = result_set(p for p in live if query.contains_xy(p.x, p.y))
            assert got == expected

    def test_alternating_deletes_and_queries_stay_exact(self):
        rng = np.random.default_rng(17)
        points = [Point(float(x), float(y)) for x, y in rng.random((300, 2))]
        index = BaseZIndex(points, leaf_capacity=16)
        live = list(points)
        query = Rect(0.2, 0.2, 0.8, 0.8)
        for victim in points[:50]:
            assert index.delete(victim)
            live.remove(victim)
            got = result_set(index.range_query(query))
            expected = result_set(p for p in live if query.contains_xy(p.x, p.y))
            assert got == expected

    @pytest.mark.parametrize("mutation", ["insert", "delete"])
    @pytest.mark.parametrize(
        "path", ["range_query", "range_count", "batch_range_count", "knn"]
    )
    def test_first_call_of_each_query_path_sees_the_mutation(self, path, mutation):
        rng = np.random.default_rng(18)
        points = [Point(float(x), float(y)) for x, y in rng.random((300, 2))]
        index = BaseZIndex(points, leaf_capacity=16)
        index.range_query(Rect(0.0, 0.0, 1.0, 1.0))  # warm the flat cache first
        live = list(points)
        if mutation == "insert":
            changed = Point(0.4321, 0.5432)
            index.insert(changed)
            live.append(changed)
        else:
            changed = points[7]
            assert index.delete(changed)
            live.remove(changed)
        query = Rect(changed.x - 0.1, changed.y - 0.1, changed.x + 0.1, changed.y + 0.1)
        expected = result_set(p for p in live if query.contains_xy(p.x, p.y))
        if path == "range_query":
            assert result_set(index.range_query(query)) == expected
        elif path == "range_count":
            assert index.range_count(query) == len(expected)
        elif path == "batch_range_count":
            assert index.batch_range_count([query, query]) == [len(expected)] * 2
        else:
            def distance(p):
                return (p.x - changed.x) ** 2 + (p.y - changed.y) ** 2

            got = sorted(distance(p) for p in index.knn(changed, 5))
            assert got == sorted(distance(p) for p in live)[:5]

    def test_first_query_after_mutation_rebuilds_flat_cache(self):
        rng = np.random.default_rng(16)
        points = [Point(float(x), float(y)) for x, y in rng.random((200, 2))]
        index = BaseZIndex(points, leaf_capacity=16)
        index.insert(Point(0.5, 0.5))
        assert index._flat_starts is None
        index.range_query(Rect(0.1, 0.1, 0.9, 0.9))
        assert index._flat_starts is not None
