"""ResultSet: lazy columnar views vs the eager boxed lists they replace.

The redesign's core correctness claim: every query path now returns a
:class:`~repro.results.ResultSet` whose lazy surfaces (``.count()``,
``.as_arrays()``, ``.mask()``/``.take()``) and boxed surfaces
(``.points()``, iteration, sequence protocol) are element- and
order-identical to the eager ``List[Point]`` the pre-redesign API
returned — for all 12 index names, including count-only mode and queries
after mutations, with identical cost counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import INDEX_NAMES, SpatialEngine, build_index
from repro.geometry import Point, Rect
from repro.interfaces import brute_force_knn, brute_force_range
from repro.persistence import load_snapshot, save_snapshot
from repro.query import KnnQuery, RangeQuery
from repro.results import ResultSet
from repro.zindex import ZIndex

#: Index names whose indexes support inserts/deletes (for mutation tests).
MUTABLE_NAMES = ("wazi", "wazi-sk", "base", "base+sk", "flood", "quadtree", "quasii", "rtree")

coordinates = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def points_strategy(draw, min_size=1, max_size=80):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(coordinates, min_size=n, max_size=n))
    ys = draw(st.lists(coordinates, min_size=n, max_size=n))
    return [Point(x, y) for x, y in zip(xs, ys)]


@st.composite
def rect_strategy(draw):
    x1, x2 = sorted((draw(coordinates), draw(coordinates)))
    y1, y2 = sorted((draw(coordinates), draw(coordinates)))
    return Rect(x1, y1, x2, y2)


def assert_lazy_matches_eager(result: ResultSet):
    """The columnar surfaces agree with the boxed surfaces, element for element."""
    boxed = result.points()
    assert result.count() == len(boxed) == len(result)
    xs, ys = result.as_arrays()
    assert xs.shape == ys.shape == (len(boxed),)
    assert [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == boxed
    assert list(result) == boxed
    assert result == boxed  # sequence-protocol equality with the eager list
    # The arrays are frozen views.
    with pytest.raises(ValueError):
        xs[:1] = 0.0


class TestResultSetUnit:
    def test_from_points_round_trip(self):
        pts = [Point(1.0, 2.0), Point(3.0, 4.0)]
        result = ResultSet.from_points(pts)
        assert_lazy_matches_eager(result)
        assert result.points() == pts
        assert result.points() is not result.points()  # fresh list per call

    def test_from_arrays_boxes_lazily(self):
        calls = []

        def boxer():
            calls.append(1)
            return [Point(1.0, 5.0), Point(2.0, 6.0)]

        result = ResultSet.from_arrays(
            np.array([1.0, 2.0]), np.array([5.0, 6.0]), boxer=boxer
        )
        assert result.count() == 2
        assert result.as_arrays()[0].tolist() == [1.0, 2.0]
        assert not calls  # columnar surface never boxes
        assert result.points() == [Point(1.0, 5.0), Point(2.0, 6.0)]
        assert calls == [1]
        result.points()
        assert calls == [1]  # boxing cached

    def test_empty(self):
        result = ResultSet.empty()
        assert result.count() == 0
        assert result == []
        assert not result
        assert result.points() == []
        assert result.as_arrays()[0].shape == (0,)

    def test_sequence_protocol(self):
        pts = [Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0)]
        result = ResultSet.from_points(pts)
        assert result[0] == pts[0]
        assert result[-1] == pts[-1]
        assert result[1:] == pts[1:]
        assert Point(1.0, 1.0) in result
        assert Point(9.0, 9.0) not in result
        assert 17 not in result  # non-point membership is simply False
        assert result == pts and pts == list(result)
        assert result != pts[:2]
        assert result != [Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 9.0)]

    def test_equality_between_result_sets(self):
        a = ResultSet.from_points([Point(1.0, 2.0)])
        b = ResultSet.from_arrays(np.array([1.0]), np.array([2.0]))
        c = ResultSet.from_arrays(np.array([1.5]), np.array([2.0]))
        assert a == b
        assert a != c

    def test_mask_and_take(self):
        pts = [Point(float(i), float(-i)) for i in range(5)]
        result = ResultSet.from_points(pts)
        kept = result.mask(np.array([True, False, True, False, True]))
        assert kept == [pts[0], pts[2], pts[4]]
        taken = result.take([3, 1])
        assert taken == [pts[3], pts[1]]
        assert result.take(np.array([-1])) == [pts[-1]]
        with pytest.raises(ValueError):
            result.mask(np.array([True]))  # wrong length
        with pytest.raises(IndexError):
            result.take([5])

    def test_mask_take_stay_columnar(self):
        boxed = []

        def boxer():
            boxed.append(1)
            return [Point(1.0, 4.0), Point(2.0, 5.0), Point(3.0, 6.0)]

        result = ResultSet.from_arrays(
            np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), boxer=boxer
        )
        narrowed = result.mask(np.array([True, False, True]))
        assert narrowed.count() == 2
        assert narrowed.as_arrays()[0].tolist() == [1.0, 3.0]
        assert not boxed  # selection never boxed anything

    def test_take_reuses_boxed_objects(self):
        pts = [Point(1.0, 1.0), Point(2.0, 2.0)]
        result = ResultSet.from_points(pts)
        taken = result.take([1])
        assert taken.points()[0] is pts[1]

    def test_head(self):
        pts = [Point(float(i), 0.0) for i in range(4)]
        result = ResultSet.from_points(pts)
        assert result.head(2) == pts[:2]
        assert result.head(99) is result
        with pytest.raises(ValueError):
            result.head(-1)

    def test_boxer_length_mismatch_raises(self):
        result = ResultSet.from_arrays(
            np.array([1.0]), np.array([2.0]), boxer=lambda: []
        )
        with pytest.raises(RuntimeError):
            result.points()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResultSet.from_arrays(np.array([1.0, 2.0]), np.array([1.0]))

    def test_unhashable_like_list(self):
        with pytest.raises(TypeError):
            hash(ResultSet.empty())


class TestLazyEqualsEagerAllIndexes:
    """Lazy views vs eager boxed lists, property-based over all 12 indexes."""

    @pytest.mark.parametrize("name", INDEX_NAMES)
    @given(points=points_strategy(), query=rect_strategy())
    @settings(max_examples=8, deadline=None)
    def test_range_query_surfaces_agree(self, name, points, query):
        workload = [query]
        index = build_index(name, points, workload, leaf_capacity=8, seed=3)
        result = index.range_query(query)
        assert_lazy_matches_eager(result)
        assert sorted(result.points(), key=Point.as_tuple) == sorted(
            brute_force_range(points, query), key=Point.as_tuple
        )
        # Count-only execution matches, with identical cost counters.
        twin = build_index(name, points, workload, leaf_capacity=8, seed=3)
        twin.reset_counters()
        count = twin.range_count(query)
        index.reset_counters()
        again = index.range_query(query)
        assert count == again.count()
        assert twin.counters.snapshot() == index.counters.snapshot()

    @pytest.mark.parametrize("name", INDEX_NAMES)
    @given(points=points_strategy(min_size=3), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_knn_surfaces_agree(self, name, points, k):
        index = build_index(name, points, [], leaf_capacity=8, seed=3)
        center = points[len(points) // 2]
        result = index.knn(center, k)
        assert_lazy_matches_eager(result)
        expected = brute_force_knn(points, center, k)
        got = result.points()
        assert len(got) == len(expected)
        assert [center.distance_squared(p) for p in got] == [
            center.distance_squared(p) for p in expected
        ]

    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_batch_surfaces_agree(self, name, uniform_points, sample_queries):
        index = build_index(name, uniform_points, sample_queries, leaf_capacity=16, seed=5)
        queries = sample_queries[:12]
        batch = index.batch_range_query(queries)
        counts = build_index(
            name, uniform_points, sample_queries, leaf_capacity=16, seed=5
        ).batch_range_count(queries)
        for query, result, count in zip(queries, batch, counts):
            assert_lazy_matches_eager(result)
            assert result == index.range_query(query)
            assert count == result.count()

    @pytest.mark.parametrize("name", MUTABLE_NAMES)
    @given(points=points_strategy(min_size=4), extra=points_strategy(min_size=1, max_size=6),
           query=rect_strategy())
    @settings(max_examples=5, deadline=None)
    def test_post_mutation_queries_agree(self, name, points, extra, query):
        index = build_index(name, points, [query], leaf_capacity=4, seed=3)
        live = list(points)
        before = index.range_query(query)  # result captured before mutations
        before_expected = sorted(
            brute_force_range(live, query), key=Point.as_tuple
        )
        for point in extra:
            index.insert(point)
            live.append(point)
        victim = live[0]
        if index.delete(victim):
            live.remove(victim)
        result = index.range_query(query)
        assert_lazy_matches_eager(result)
        assert sorted(result.points(), key=Point.as_tuple) == sorted(
            brute_force_range(live, query), key=Point.as_tuple
        )
        assert index.range_count(query) == result.count()
        # The pre-mutation result set still answers from its captured rows.
        assert sorted(before.points(), key=Point.as_tuple) == before_expected


class TestZIndexLaziness:
    """The columnar core's results defer boxing to explicit consumption."""

    def test_range_result_boxes_lazily_and_identity_preserving(self, uniform_points):
        index = build_index("base", uniform_points, leaf_capacity=16)
        query = Rect(0.2, 0.2, 0.8, 0.8)
        result = index.range_query(query)
        assert result.count() > 0
        assert index._flat_points is None  # nothing boxed yet
        first = result.points()
        second = index.range_query(query).points()
        assert [a is b for a, b in zip(first, second)] == [True] * len(first)

    def test_post_mutation_resultset_survives_cache_invalidation(self, uniform_points):
        index = build_index("base", uniform_points, leaf_capacity=16)
        query = Rect(0.0, 0.0, 1.0, 1.0)
        result = index.range_query(query)
        expected = result.count()
        index.insert(Point(0.5, 0.5))  # invalidates the flat cache
        boxed = result.points()  # boxes from the captured columns
        assert len(boxed) == expected
        assert sorted(boxed, key=Point.as_tuple) == sorted(
            brute_force_range(uniform_points, query), key=Point.as_tuple
        )

    def test_batch_range_count_exact_after_mutation(self, uniform_points):
        index = build_index("base", uniform_points, leaf_capacity=16)
        index.insert(Point(0.5, 0.5))  # flat cache stale
        live = uniform_points + [Point(0.5, 0.5)]
        queries = [Rect(0.1, 0.1, 0.6, 0.6), Rect(0.4, 0.4, 0.9, 0.9)]
        counts = index.batch_range_count(queries)
        assert counts == [len(brute_force_range(live, q)) for q in queries]

    def test_resultset_does_not_pin_the_index(self, uniform_points):
        import gc
        import weakref

        index = build_index("base", uniform_points, leaf_capacity=16)
        result = index.range_query(Rect(0.2, 0.2, 0.8, 0.8))
        expected = result.count()
        ref = weakref.ref(index)
        del index
        gc.collect()
        assert ref() is None  # un-boxed results hold no strong index reference
        assert len(result.points()) == expected  # boxes from the captured columns

    def test_knn_arrays_on_a_freshly_loaded_index_box_nothing(
        self, uniform_points, tmp_path
    ):
        built = ZIndex(uniform_points, leaf_capacity=16)
        save_snapshot(built, tmp_path / "index.snapshot")
        loaded = load_snapshot(tmp_path / "index.snapshot")
        probes = uniform_points[:12]
        plans = [KnnQuery(probe, 7) for probe in probes]
        arrays = [r.as_arrays() for r in SpatialEngine(loaded).execute_many(plans)]
        assert loaded._flat_points is None  # served straight off the columns
        for (xs, ys), boxed in zip(arrays, built.batch_knn(probes, 7)):
            assert xs.tolist() == [p.x for p in boxed]
            assert ys.tolist() == [p.y for p in boxed]

    def test_engine_count_only_skips_selection(self, uniform_points, sample_queries):
        engine = SpatialEngine.build("base", uniform_points, leaf_capacity=16)
        plans = [RangeQuery(q) for q in sample_queries]
        counts = engine.execute_many(plans, count_only=True)
        results = engine.execute_many(plans)
        assert counts == [r.count() for r in results]
        assert isinstance(engine.index, ZIndex)
