"""Property-based tests (hypothesis) on the library's core invariants.

These tests generate random points, rectangles and workloads and check the
invariants the paper's correctness rests on:

* geometric predicates are consistent with each other,
* the Z-order encoding is a bijection and respects domination,
* the retrieval-cost model is monotone in alpha and bounded by the total
  point count,
* every Z-index variant answers range and point queries exactly like a
  brute-force scan,
* the look-ahead pointers always point forward and never skip a relevant
  leaf.
"""

from hypothesis import given, settings, strategies as st

from repro.core import WaZI
from repro.core.cost import QuadrantCounts, single_query_cost
from repro.geometry import Point, Rect, bounding_box, classify_quadrants
from repro.geometry.rect import QUADRANT_A, QUADRANT_B, QUADRANT_C, QUADRANT_D
from repro.interfaces import brute_force_range
from repro.zindex import BaseZIndex
from repro.zindex.node import ORDER_ABCD, ORDER_ACBD
from repro.zorder import deinterleave, interleave, z_less
from repro.zorder.mapper import ZOrderMapper


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------
coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def points_strategy(draw, min_size=1, max_size=120):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(coordinates, min_size=n, max_size=n))
    ys = draw(st.lists(coordinates, min_size=n, max_size=n))
    return [Point(x, y) for x, y in zip(xs, ys)]


@st.composite
def rect_strategy(draw):
    x1 = draw(coordinates)
    x2 = draw(coordinates)
    y1 = draw(coordinates)
    y2 = draw(coordinates)
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


grid_coordinates = st.integers(min_value=0, max_value=255)


# --------------------------------------------------------------------------
# geometry properties
# --------------------------------------------------------------------------
class TestGeometryProperties:
    @given(rect_strategy(), rect_strategy())
    def test_overlap_symmetric_and_consistent_with_intersection(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        assert (a.intersection(b) is not None) == a.overlaps(b)

    @given(rect_strategy(), rect_strategy())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_rect(a)
        assert union.contains_rect(b)

    @given(rect_strategy(), rect_strategy())
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            assert a.contains_rect(overlap)
            assert b.contains_rect(overlap)

    @given(points_strategy(min_size=1, max_size=50))
    def test_bounding_box_contains_every_point(self, points):
        box = bounding_box(points)
        assert all(box.contains_xy(p.x, p.y) for p in points)

    @given(rect_strategy(), coordinates, coordinates)
    def test_split_partitions_area(self, cell, fraction_x, fraction_y):
        # Clamp like ZIndex._build_node does: xmin + 1.0 * width can land
        # one ulp past xmax, which Rect.split rightly rejects.
        split_x = min(cell.xmax, cell.xmin + (fraction_x / 100.0) * cell.width)
        split_y = min(cell.ymax, cell.ymin + (fraction_y / 100.0) * cell.height)
        quadrants = cell.split(split_x, split_y)
        assert abs(sum(q.area for q in quadrants) - cell.area) < 1e-6 * max(cell.area, 1.0)

    @given(rect_strategy(), coordinates, coordinates)
    def test_classified_corner_pair_is_always_legal(self, query, split_x, split_y):
        pair = classify_quadrants(query, split_x, split_y)
        legal = {
            (QUADRANT_A, QUADRANT_A), (QUADRANT_B, QUADRANT_B),
            (QUADRANT_C, QUADRANT_C), (QUADRANT_D, QUADRANT_D),
            (QUADRANT_A, QUADRANT_B), (QUADRANT_A, QUADRANT_C),
            (QUADRANT_A, QUADRANT_D), (QUADRANT_B, QUADRANT_D),
            (QUADRANT_C, QUADRANT_D),
        }
        assert pair in legal


# --------------------------------------------------------------------------
# Z-order properties
# --------------------------------------------------------------------------
class TestZOrderProperties:
    @given(grid_coordinates, grid_coordinates)
    def test_interleave_roundtrip(self, x, y):
        assert deinterleave(interleave(x, y, bits=8), bits=8) == (x, y)

    @given(grid_coordinates, grid_coordinates, grid_coordinates, grid_coordinates)
    def test_z_less_matches_encoded_order(self, ax, ay, bx, by):
        expected = interleave(ax, ay, bits=8) < interleave(bx, by, bits=8)
        assert z_less((ax, ay), (bx, by), bits=8) == expected

    @given(grid_coordinates, grid_coordinates,
           st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    def test_domination_implies_smaller_address(self, x, y, dx, dy):
        if dx == 0 and dy == 0:
            return
        x2, y2 = min(x + dx, 255), min(y + dy, 255)
        if (x2, y2) == (x, y):
            return
        assert interleave(x, y, bits=8) < interleave(x2, y2, bits=8)

    @given(points_strategy(min_size=2, max_size=60))
    def test_mapper_preserves_domination(self, points):
        extent = bounding_box(points)
        mapper = ZOrderMapper(extent, bits=10)
        for a in points[:10]:
            for b in points[:10]:
                if a.x < b.x and a.y < b.y:
                    assert mapper.z_address(a) <= mapper.z_address(b)


# --------------------------------------------------------------------------
# cost-model properties
# --------------------------------------------------------------------------
corner_pairs = st.sampled_from([
    (QUADRANT_A, QUADRANT_A), (QUADRANT_B, QUADRANT_B), (QUADRANT_C, QUADRANT_C),
    (QUADRANT_D, QUADRANT_D), (QUADRANT_A, QUADRANT_B), (QUADRANT_A, QUADRANT_C),
    (QUADRANT_A, QUADRANT_D), (QUADRANT_B, QUADRANT_D), (QUADRANT_C, QUADRANT_D),
])
count_values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestCostModelProperties:
    @given(corner_pairs, count_values, count_values, count_values, count_values,
           st.floats(min_value=0.0, max_value=1.0), st.sampled_from([ORDER_ABCD, ORDER_ACBD]))
    def test_cost_bounded_by_total(self, pair, na, nb, nc, nd, alpha, ordering):
        counts = QuadrantCounts(na, nb, nc, nd)
        cost = single_query_cost(pair, counts, ordering, alpha)
        assert 0.0 <= cost <= counts.total + 1e-6

    @given(corner_pairs, count_values, count_values, count_values, count_values,
           st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.5, max_value=1.0),
           st.sampled_from([ORDER_ABCD, ORDER_ACBD]))
    def test_cost_monotone_in_alpha(self, pair, na, nb, nc, nd, alpha_low, alpha_high, ordering):
        counts = QuadrantCounts(na, nb, nc, nd)
        low = single_query_cost(pair, counts, ordering, alpha_low)
        high = single_query_cost(pair, counts, ordering, alpha_high)
        assert low <= high + 1e-9

    @given(count_values, count_values, count_values, count_values,
           st.floats(min_value=0.0, max_value=1.0))
    def test_full_span_query_costs_everything_under_both_orderings(self, na, nb, nc, nd, alpha):
        counts = QuadrantCounts(na, nb, nc, nd)
        for ordering in (ORDER_ABCD, ORDER_ACBD):
            cost = single_query_cost((QUADRANT_A, QUADRANT_D), counts, ordering, alpha)
            assert abs(cost - counts.total) < 1e-6


# --------------------------------------------------------------------------
# index correctness properties
# --------------------------------------------------------------------------
class TestIndexProperties:
    @settings(max_examples=25, deadline=None)
    @given(points_strategy(min_size=1, max_size=150), rect_strategy())
    def test_base_zindex_matches_brute_force(self, points, query):
        index = BaseZIndex(points, leaf_capacity=8)
        expected = sorted((p.x, p.y) for p in brute_force_range(points, query))
        got = sorted((p.x, p.y) for p in index.range_query(query))
        assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(points_strategy(min_size=5, max_size=120),
           st.lists(rect_strategy(), min_size=1, max_size=6), rect_strategy())
    def test_wazi_matches_brute_force(self, points, workload, query):
        index = WaZI(points, workload, leaf_capacity=8, num_candidates=4, seed=0)
        expected = sorted((p.x, p.y) for p in brute_force_range(points, query))
        got = sorted((p.x, p.y) for p in index.range_query(query))
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(points_strategy(min_size=1, max_size=120))
    def test_every_point_is_found_by_point_query(self, points):
        index = BaseZIndex(points, leaf_capacity=8)
        assert all(index.point_query(p) for p in points)

    @settings(max_examples=20, deadline=None)
    @given(points_strategy(min_size=8, max_size=120),
           st.lists(rect_strategy(), min_size=1, max_size=4))
    def test_wazi_lookahead_pointers_always_forward(self, points, workload):
        index = WaZI(points, workload, leaf_capacity=8, num_candidates=4, seed=0)
        assert index.leaflist.check_linked()
        assert index.leaflist.check_skip_pointers_forward()

    @settings(max_examples=20, deadline=None)
    @given(points_strategy(min_size=10, max_size=100), points_strategy(min_size=1, max_size=20))
    def test_inserts_preserve_correctness(self, initial, inserts):
        index = BaseZIndex(initial, leaf_capacity=8)
        for point in inserts:
            index.insert(point)
        everything = initial + inserts
        box = bounding_box(everything)
        got = sorted((p.x, p.y) for p in index.range_query(box))
        assert got == sorted((p.x, p.y) for p in everything)
        # insert_many: the scalar layout when every row lies inside the root
        # cell; otherwise a single rebuild that answers like a fresh build
        batched = BaseZIndex(initial, leaf_capacity=8)
        builds = []
        build = batched._build
        batched._build = lambda xs, ys: (builds.append(len(xs)), build(xs, ys))
        batched.insert_many([p.x for p in inserts], [p.y for p in inserts])
        if all(bounding_box(initial).contains_point(p) for p in inserts):
            reference = index
            assert builds == []
        else:
            reference = BaseZIndex(everything, leaf_capacity=8)
            assert builds == [len(everything)]
        assert batched.extent() == reference.extent()
        assert batched.leaf_sizes() == reference.leaf_sizes()
        assert batched.leaflist.check_linked()
        queries = [box, Rect(20.0, 20.0, 60.0, 60.0), Rect(0.0, 50.0, 50.0, 100.0)]
        for target in (batched, reference):
            target.counters.reset()
        for query in queries:
            got = sorted((p.x, p.y) for p in batched.range_query(query))
            assert got == sorted((p.x, p.y) for p in reference.range_query(query))
        assert batched.counters.snapshot() == reference.counters.snapshot()


# --------------------------------------------------------------------------
# columnar / batch engine properties
# --------------------------------------------------------------------------
@st.composite
def skewed_points_strategy(draw, min_size=5, max_size=120):
    """Points concentrated towards the origin (quadratically skewed)."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(coordinates, min_size=n, max_size=n))
    ys = draw(st.lists(coordinates, min_size=n, max_size=n))
    return [Point(x * x / 100.0, y * y / 100.0) for x, y in zip(xs, ys)]


class TestColumnarEngineProperties:
    """WaZI's vectorized single and batch query paths are exact."""

    @settings(max_examples=15, deadline=None)
    @given(points_strategy(min_size=5, max_size=120),
           st.lists(rect_strategy(), min_size=1, max_size=4),
           st.lists(rect_strategy(), min_size=1, max_size=6))
    def test_wazi_batch_matches_brute_force(self, points, workload, queries):
        index = WaZI(points, workload, leaf_capacity=8, num_candidates=4, seed=0)
        batch = index.batch_range_query(queries)
        for query, got in zip(queries, batch):
            expected = sorted((p.x, p.y) for p in brute_force_range(points, query))
            assert sorted((p.x, p.y) for p in got) == expected
        assert batch == [index.range_query(query) for query in queries]

    @settings(max_examples=10, deadline=None)
    @given(skewed_points_strategy(min_size=10, max_size=120),
           st.lists(rect_strategy(), min_size=1, max_size=4), rect_strategy())
    def test_wazi_exact_on_skewed_data(self, points, workload, query):
        index = WaZI(points, workload, leaf_capacity=8, num_candidates=4, seed=1)
        expected = sorted((p.x, p.y) for p in brute_force_range(points, query))
        assert sorted((p.x, p.y) for p in index.range_query(query)) == expected
        (batch_result,) = index.batch_range_query([query])
        assert sorted((p.x, p.y) for p in batch_result) == expected

    @settings(max_examples=10, deadline=None)
    @given(points_strategy(min_size=8, max_size=80),
           points_strategy(min_size=1, max_size=20),
           st.lists(rect_strategy(), min_size=1, max_size=4), rect_strategy())
    def test_wazi_exact_after_inserts_and_deletes(
        self, initial, inserts, workload, query
    ):
        index = WaZI(initial, workload, leaf_capacity=8, num_candidates=4, seed=2)
        live = list(initial)
        for point in inserts:
            index.insert(point)
            live.append(point)
        for victim in initial[::3]:
            if index.delete(victim):
                live.remove(victim)
        expected = sorted((p.x, p.y) for p in brute_force_range(live, query))
        assert sorted((p.x, p.y) for p in index.range_query(query)) == expected
        (batch_result,) = index.batch_range_query([query])
        assert sorted((p.x, p.y) for p in batch_result) == expected
        assert len(index) == len(live)
