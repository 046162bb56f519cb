"""Unit tests for leaf entries and the LeafList."""

import pytest

from repro.geometry import Point, Rect
from repro.storage import LeafEntry, LeafList, Page
from repro.storage.leaflist import END_OF_LIST, SKIP_CRITERIA


def make_entry(xmin, ymin, xmax, ymax, points=()):
    page = Page(capacity=max(4, len(points) or 1), points=points)
    return LeafEntry(cell=Rect(xmin, ymin, xmax, ymax), page=page)


class TestLeafEntry:
    def test_bbox_is_data_bbox_not_cell(self):
        entry = make_entry(0, 0, 10, 10, [Point(1, 1), Point(2, 3)])
        assert entry.bbox == Rect(1, 1, 2, 3)

    def test_empty_leaf_has_no_bbox_and_never_overlaps(self):
        entry = make_entry(0, 0, 10, 10)
        assert entry.bbox is None
        assert not entry.overlaps(Rect(0, 0, 10, 10))

    def test_overlaps_uses_data_bbox(self):
        entry = make_entry(0, 0, 10, 10, [Point(1, 1)])
        assert entry.overlaps(Rect(0.5, 0.5, 1.5, 1.5))
        assert not entry.overlaps(Rect(5, 5, 6, 6))

    def test_num_points(self):
        assert make_entry(0, 0, 1, 1, [Point(0, 0), Point(1, 1)]).num_points == 2

    @pytest.mark.parametrize("criterion", SKIP_CRITERIA)
    def test_skip_pointer_roundtrip(self, criterion):
        entry = make_entry(0, 0, 1, 1, [Point(0, 0)])
        assert entry.skip_pointer(criterion) == END_OF_LIST
        entry.set_skip_pointer(criterion, 7)
        assert entry.skip_pointer(criterion) == 7

    def test_unknown_criterion_rejected(self):
        entry = make_entry(0, 0, 1, 1)
        with pytest.raises(ValueError):
            entry.skip_pointer("diagonal")
        with pytest.raises(ValueError):
            entry.set_skip_pointer("diagonal", 3)

    def test_size_bytes_positive(self):
        assert make_entry(0, 0, 1, 1, [Point(0, 0)]).size_bytes() > 0


class TestLeafList:
    def build_list(self, count=5):
        leaflist = LeafList()
        for i in range(count):
            leaflist.append(make_entry(i, 0, i + 1, 1, [Point(i + 0.5, 0.5)]))
        return leaflist

    def test_append_sets_order_and_next_pointers(self):
        leaflist = self.build_list(4)
        assert [entry.order for entry in leaflist] == [0, 1, 2, 3]
        assert [entry.next_index for entry in leaflist] == [1, 2, 3, END_OF_LIST]

    def test_check_linked(self):
        leaflist = self.build_list(6)
        assert leaflist.check_linked()
        leaflist.entries[2].next_index = 5
        assert not leaflist.check_linked()

    def test_len_and_getitem(self):
        leaflist = self.build_list(3)
        assert len(leaflist) == 3
        assert leaflist[1].cell.xmin == 1

    def test_num_points(self):
        assert self.build_list(4).num_points == 4

    def test_all_points_in_order(self):
        leaflist = self.build_list(3)
        assert leaflist.all_points() == [Point(0.5, 0.5), Point(1.5, 0.5), Point(2.5, 0.5)]

    def test_check_skip_pointers_forward(self):
        leaflist = self.build_list(3)
        leaflist.entries[0].below = 2
        assert leaflist.check_skip_pointers_forward()
        leaflist.entries[2].above = 1
        assert not leaflist.check_skip_pointers_forward()

    def test_size_bytes_sums_entries(self):
        leaflist = self.build_list(3)
        assert leaflist.size_bytes() == sum(e.size_bytes() for e in leaflist)


class TestPackedLeaves:
    def build_list(self, count=5):
        leaflist = LeafList()
        for i in range(count):
            leaflist.append(make_entry(i, 0, i + 1, 1, [Point(i + 0.5, 0.5)]))
        return leaflist

    def test_packed_boxes_match_entries(self):
        leaflist = self.build_list(4)
        packed = leaflist.packed()
        assert packed.boxes.shape == (4, 4)
        for i, entry in enumerate(leaflist):
            assert tuple(packed.boxes[i]) == entry.page.bbox_tuple()
            assert packed.nonempty[i]

    def test_packed_empty_leaf_uses_cell(self):
        leaflist = self.build_list(2)
        leaflist.append(make_entry(7, 0, 8, 1))
        packed = leaflist.packed()
        assert not packed.nonempty[2]
        assert tuple(packed.boxes[2]) == (7.0, 0.0, 8.0, 1.0)

    def test_refresh_entry_updates_row_and_lists(self):
        leaflist = self.build_list(3)
        packed = leaflist.packed()
        lists = packed.lists()
        leaflist[1].page.add(Point(1.9, 0.9))
        leaflist.refresh_entry(1)
        assert tuple(packed.boxes[1]) == leaflist[1].page.bbox_tuple()
        assert lists[0][1] == list(leaflist[1].page.bbox_tuple())
        assert lists[1][1] is True

    def test_append_invalidates_packed(self):
        leaflist = self.build_list(2)
        first = leaflist.packed()
        leaflist.append(make_entry(5, 0, 6, 1, [Point(5.5, 0.5)]))
        second = leaflist.packed()
        assert second is not first
        assert second.boxes.shape[0] == 3

    def test_splice_renumbers_and_shifts_pointers(self):
        leaflist = self.build_list(5)
        for entry in leaflist:
            entry.below = entry.order + 2 if entry.order + 2 < 5 else END_OF_LIST
        replacements = [
            make_entry(2.0, 0, 2.5, 1, [Point(2.2, 0.5)]),
            make_entry(2.5, 0, 3.0, 1, [Point(2.7, 0.5)]),
        ]
        leaflist.splice_span(2, 2, replacements)
        assert len(leaflist) == 6
        assert leaflist.check_linked()
        # Suffix pointers (old targets 5/EOL, > spliced index) shifted by +1.
        assert leaflist[4].below == END_OF_LIST or leaflist[4].below == 6
        assert leaflist[5].below == END_OF_LIST

    def test_splice_requires_replacements(self):
        leaflist = self.build_list(3)
        with pytest.raises(ValueError):
            leaflist.splice_span(1, 1, [])
