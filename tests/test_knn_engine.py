"""Tests for the vectorized kNN engine and the batch_knn protocol.

Covers the Section 6.3 remark end to end: every index answers kNN through
the expanding-window decomposition (scalar default) or the vectorized
columnar kernel (Z-index family), and both must agree with each other and
with the brute-force oracle — including on tie-heavy and duplicate-point
datasets, where result ordering is pinned down by the stable
distance sort.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_index
from repro.engine import INDEX_NAMES
from repro.core import WaZI
from repro.geometry import Point, Rect
from repro.interfaces import SpatialIndex, brute_force_knn
from repro.zindex import BaseZIndex

#: Names of the indexes whose knn/batch_knn go through the columnar kernel.
ZINDEX_FAMILY = ("base", "base+sk", "wazi", "wazi-sk")

#: Small fixed workload handed to the workload-aware indexes.
TINY_WORKLOAD = [Rect(5.0, 5.0, 30.0, 30.0), Rect(40.0, 10.0, 60.0, 50.0)]

# Coarse coordinates make duplicate points and distance ties common.
tie_coordinates = st.integers(min_value=0, max_value=7).map(float)
smooth_coordinates = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def tie_heavy_points(draw, min_size=3, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(tie_coordinates, min_size=n, max_size=n))
    ys = draw(st.lists(tie_coordinates, min_size=n, max_size=n))
    return [Point(x, y) for x, y in zip(xs, ys)]


@st.composite
def smooth_points(draw, min_size=3, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(smooth_coordinates, min_size=n, max_size=n))
    ys = draw(st.lists(smooth_coordinates, min_size=n, max_size=n))
    return [Point(x, y) for x, y in zip(xs, ys)]


def assert_knn_matches_oracle(index, points, center, k):
    """knn and batch_knn agree with each other and with brute force."""
    got = index.knn(center, k)
    (batched,) = index.batch_knn([center], k)
    assert batched == got
    expected = brute_force_knn(points, center, k)
    assert len(got) == len(expected)
    got_distances = [p.distance_squared(center) for p in got]
    expected_distances = [p.distance_squared(center) for p in expected]
    assert got_distances == expected_distances
    # Sorted ascending by construction.
    assert got_distances == sorted(got_distances)


class TestEveryIndexAgainstBruteForce:
    @pytest.mark.parametrize("name", INDEX_NAMES)
    @settings(max_examples=5, deadline=None)
    @given(points=tie_heavy_points(), data=st.data())
    def test_tie_heavy_and_duplicate_datasets(self, name, points, data):
        index = build_index(name, points, TINY_WORKLOAD, leaf_capacity=8, seed=0)
        center = Point(
            data.draw(tie_coordinates, label="cx"), data.draw(tie_coordinates, label="cy")
        )
        k = data.draw(st.integers(min_value=1, max_value=len(points) + 3), label="k")
        assert_knn_matches_oracle(index, points, center, k)

    @pytest.mark.parametrize("name", INDEX_NAMES)
    @settings(max_examples=5, deadline=None)
    @given(points=smooth_points(), data=st.data())
    def test_smooth_datasets(self, name, points, data):
        index = build_index(name, points, TINY_WORKLOAD, leaf_capacity=8, seed=0)
        center = Point(
            data.draw(smooth_coordinates, label="cx"),
            data.draw(smooth_coordinates, label="cy"),
        )
        k = data.draw(st.integers(min_value=1, max_value=len(points) + 3), label="k")
        assert_knn_matches_oracle(index, points, center, k)

    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_all_points_identical(self, name):
        """The ultimate tie dataset: every indexed point at one coordinate."""
        points = [Point(2.0, 3.0)] * 40 + [Point(9.0, 9.0)]
        index = build_index(name, points, TINY_WORKLOAD, leaf_capacity=8, seed=0)
        got = index.knn(Point(2.1, 3.1), 5)
        assert len(got) == 5
        assert all(p == Point(2.0, 3.0) for p in got)


class TestColumnarKernelIdentity:
    """The Z-family kernel is byte-identical to the scalar decomposition."""

    @pytest.mark.parametrize("name", ZINDEX_FAMILY)
    def test_results_and_counters_match_scalar_default(
        self, name, clustered_points, small_workload
    ):
        data = clustered_points[:600]
        index = build_index(name, data, small_workload.queries[:10], leaf_capacity=16, seed=1)
        for probe_index, k in ((0, 1), (3, 7), (11, 50)):
            center = data[probe_index]
            index.reset_counters()
            got = index.knn(center, k)
            vectorized_counters = index.counters.snapshot()
            index.reset_counters()
            reference = SpatialIndex.knn(index, center, k)
            scalar_counters = index.counters.snapshot()
            assert got == reference
            assert vectorized_counters == scalar_counters

    @pytest.mark.parametrize("name", ZINDEX_FAMILY)
    def test_far_away_center_and_explicit_radius(self, name, uniform_points):
        index = build_index(name, uniform_points, TINY_WORKLOAD, leaf_capacity=16, seed=0)
        for center in (Point(25.0, 25.0), Point(-4.0, 0.5)):
            assert index.knn(center, 4) == SpatialIndex.knn(index, center, 4)
            assert index.knn(center, 4, initial_radius=1e-4) == SpatialIndex.knn(
                index, center, 4, initial_radius=1e-4
            )

    def test_batch_knn_equals_per_probe_loop(self, clustered_points):
        index = BaseZIndex(clustered_points, leaf_capacity=32)
        probes = clustered_points[:30]
        assert index.batch_knn(probes, 6) == [index.knn(p, 6) for p in probes]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_center_rejected_not_hung(self, uniform_points, bad):
        """Regression: a NaN window never overlaps anything *and* never
        covers the extent, so the expanding-window loop would spin forever
        instead of raising."""
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        with pytest.raises(ValueError, match="finite"):
            index.knn(Point(bad, 0.5), 3)
        with pytest.raises(ValueError, match="finite"):
            index.batch_knn([uniform_points[0], Point(0.5, bad)], 3)
        with pytest.raises(ValueError, match="finite"):
            index.batch_radius_query([Point(bad, bad)], 0.1)
        zpgm = build_index("zpgm", uniform_points, TINY_WORKLOAD, seed=0)
        with pytest.raises(ValueError, match="finite"):
            zpgm.knn(Point(bad, 0.5), 3)
        with pytest.raises(ValueError, match="finite"):
            zpgm.batch_radius_query([Point(0.5, bad)], 0.1)

    def test_edge_cases_match_protocol_default(self):
        empty = BaseZIndex([])
        assert empty.knn(Point(0.0, 0.0), 5) == []
        assert empty.batch_knn([Point(0.0, 0.0)], 5) == [[]]
        tiny = BaseZIndex([Point(float(i), float(i)) for i in range(6)], leaf_capacity=4)
        assert tiny.knn(Point(0.0, 0.0), 0) == []
        assert tiny.batch_knn([Point(0.0, 0.0)], -2) == [[]]
        assert len(tiny.knn(Point(0.0, 0.0), 50)) == 6

    @pytest.mark.parametrize("bad_radius", [float("nan"), float("inf"), -0.5])
    def test_invalid_radius_rejected(self, uniform_points, bad_radius):
        index = BaseZIndex(uniform_points, leaf_capacity=16)
        with pytest.raises(ValueError, match="radius"):
            index.batch_radius_query(uniform_points[:3], bad_radius)
        zpgm = build_index("zpgm", uniform_points, TINY_WORKLOAD, seed=0)
        with pytest.raises(ValueError, match="radius"):
            zpgm.batch_radius_query(uniform_points[:3], bad_radius)

    def test_knn_exact_right_after_insert(self, uniform_points):
        """A kNN right after a mutation sees the inserted point."""
        data = list(uniform_points[:200])
        index = BaseZIndex(data, leaf_capacity=8)
        index.range_query(Rect(0.0, 0.0, 1.0, 1.0))  # builds the flat cache
        newcomer = Point(0.41, 0.59)
        index.insert(newcomer)
        data.append(newcomer)
        center = Point(0.4, 0.6)
        got = index.knn(center, 7)
        assert [p.distance_squared(center) for p in got] == [
            p.distance_squared(center) for p in brute_force_knn(data, center, 7)
        ]

    def test_knn_exact_after_inserts_and_deletes(self, uniform_points):
        """The kernel must rebuild its caches after structural mutations."""
        index = BaseZIndex(uniform_points[:200], leaf_capacity=8)
        live = list(uniform_points[:200])
        center = Point(0.4, 0.6)
        assert_knn_matches_oracle(index, live, center, 9)
        for point in uniform_points[200:260]:
            index.insert(point)
            live.append(point)
        assert_knn_matches_oracle(index, live, center, 9)
        for victim in uniform_points[:40]:
            if index.delete(victim):
                live.remove(victim)
        assert_knn_matches_oracle(index, live, center, 9)


class TestWaZIKnnProperties:
    @settings(max_examples=10, deadline=None)
    @given(points=tie_heavy_points(min_size=5, max_size=80), data=st.data())
    def test_wazi_kernel_matches_scalar_decomposition(self, points, data):
        index = WaZI(points, TINY_WORKLOAD, leaf_capacity=8, num_candidates=4, seed=0)
        center = Point(
            data.draw(smooth_coordinates, label="cx"),
            data.draw(smooth_coordinates, label="cy"),
        )
        k = data.draw(st.integers(min_value=1, max_value=len(points) + 2), label="k")
        assert index.knn(center, k) == SpatialIndex.knn(index, center, k)
        assert_knn_matches_oracle(index, points, center, k)
