"""Unit tests for fixed-capacity data pages."""

import pytest

from repro.geometry import Point, Rect
from repro.storage import Page
from repro.storage.page import PageOverflowError


class TestPageBasics:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Page(0)

    def test_empty_page(self):
        page = Page(4)
        assert len(page) == 0
        assert page.is_empty
        assert not page.is_full
        assert page.bbox is None

    def test_add_and_len(self):
        page = Page(4, [Point(0, 0), Point(1, 1)])
        assert len(page) == 2
        assert Point(1, 1) in page

    def test_iteration_preserves_insertion_order(self):
        points = [Point(3, 1), Point(0, 0), Point(2, 2)]
        page = Page(8, points)
        assert list(page) == points

    def test_overflow_raises(self):
        page = Page(2, [Point(0, 0), Point(1, 1)])
        assert page.is_full
        with pytest.raises(PageOverflowError):
            page.add(Point(2, 2))

    def test_add_xy_matches_add(self):
        by_point = Page(4)
        by_row = Page(4)
        for x, y in [(1.0, 1.0), (-1.0, 3.0), (0.5, 2.0)]:
            by_point.add(Point(x, y))
            by_row.add_xy(x, y)
        assert list(by_row) == list(by_point)
        assert by_row.bbox == by_point.bbox == Rect(-1, 1, 1, 3)
        by_row.add_xy(2.0, 0.0)
        assert by_row.is_full
        with pytest.raises(PageOverflowError):
            by_row.add_xy(3.0, 3.0)

    def test_bbox_grows_with_adds(self):
        page = Page(8)
        page.add(Point(1, 1))
        assert page.bbox == Rect(1, 1, 1, 1)
        page.add(Point(-1, 3))
        assert page.bbox == Rect(-1, 1, 1, 3)


class TestPageQueries:
    def test_contains_exact(self):
        page = Page(4, [Point(1.5, 2.5)])
        assert page.contains_exact(Point(1.5, 2.5))
        assert not page.contains_exact(Point(1.5, 2.500001))


class TestPageMutation:
    def test_remove_existing(self):
        page = Page(4, [Point(0, 0), Point(1, 1)])
        assert page.remove(Point(0, 0))
        assert len(page) == 1
        assert page.bbox == Rect(1, 1, 1, 1)

    def test_remove_missing_returns_false(self):
        page = Page(4, [Point(0, 0)])
        assert not page.remove(Point(9, 9))
        assert len(page) == 1

    def test_remove_last_point_clears_bbox(self):
        page = Page(4, [Point(0, 0)])
        page.remove(Point(0, 0))
        assert page.bbox is None
        assert page.is_empty


class TestPageAccounting:
    def test_size_bytes_grows_with_points(self):
        empty = Page(16)
        half = Page(16, [Point(i, i) for i in range(8)])
        assert half.size_bytes() > empty.size_bytes()

    def test_repr_mentions_count(self):
        assert "n=2" in repr(Page(4, [Point(0, 0), Point(1, 1)]))


class TestColumnarPage:
    def test_from_arrays_roundtrip(self):
        import numpy as np

        xs = np.array([0.5, 1.5, 2.5])
        ys = np.array([3.0, 1.0, 2.0])
        page = Page.from_arrays(8, xs, ys)
        assert len(page) == 3
        assert page.points == [Point(0.5, 3.0), Point(1.5, 1.0), Point(2.5, 2.0)]
        assert page.bbox == Rect(0.5, 1.0, 2.5, 3.0)

    def test_from_arrays_grows_capacity_for_oversized_input(self):
        import numpy as np

        xs = np.arange(10, dtype=float)
        page = Page.from_arrays(4, xs, xs)
        assert len(page) == 10
        assert page.capacity >= 10

    def test_coordinate_views_track_mutations(self):
        page = Page(4, [Point(1.0, 2.0)])
        assert page.xs.tolist() == [1.0]
        assert page.ys.tolist() == [2.0]
        page.add(Point(3.0, 4.0))
        assert page.xs.tolist() == [1.0, 3.0]
        assert page.ys.tolist() == [2.0, 4.0]
        page.remove(Point(1.0, 2.0))
        assert page.xs.tolist() == [3.0]

    def test_bbox_tuple(self):
        page = Page(4)
        assert page.bbox_tuple() is None
        page.add(Point(2.0, 5.0))
        assert page.bbox_tuple() == (2.0, 5.0, 2.0, 5.0)

    def test_remove_preserves_order_of_remaining_points(self):
        points = [Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0), Point(3.0, 3.0)]
        page = Page(8, points)
        page.remove(Point(1.0, 1.0))
        assert page.points == [Point(0.0, 0.0), Point(2.0, 2.0), Point(3.0, 3.0)]

    def test_remove_duplicate_removes_single_occurrence(self):
        page = Page(8, [Point(1.0, 1.0), Point(1.0, 1.0), Point(2.0, 2.0)])
        assert page.remove(Point(1.0, 1.0))
        assert len(page) == 2
        assert page.contains_exact(Point(1.0, 1.0))
