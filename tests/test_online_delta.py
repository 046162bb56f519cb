"""LSM delta buffer: columnar memtable semantics, freeze, rollback merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect
from repro.online.delta import _INITIAL_CAPACITY, DeltaBuffer, DeltaView, window_mask


@pytest.fixture()
def buffer():
    return DeltaBuffer()


class TestWrites:
    def test_empty_buffer(self, buffer):
        assert buffer.is_empty
        assert buffer.live_count == 0
        assert buffer.tombstone_count == 0
        assert buffer.rows == 0
        assert buffer.bbox is None
        assert buffer.first_write_monotonic is None

    def test_append_updates_counts_and_bbox(self, buffer):
        buffer.append(0.5, 0.25, clock=10.0)
        buffer.append(0.1, 0.9)
        assert buffer.live_count == 2
        assert buffer.rows == 2
        assert not buffer.is_empty
        assert buffer.bbox == (0.1, 0.25, 0.5, 0.9)
        assert buffer.first_write_monotonic == 10.0

    def test_version_bumps_on_every_mutation(self, buffer):
        buffer.append(0.5, 0.5)
        buffer.tombstone(0.2, 0.2)
        assert buffer.kill_newest(0.5, 0.5)
        assert buffer.version == 3

    def test_growth_beyond_initial_capacity(self, buffer):
        total = _INITIAL_CAPACITY * 2 + 5
        for i in range(total):
            buffer.append(float(i), float(-i))
            buffer.tombstone(float(i) + 0.5, 0.0)
        assert buffer.live_count == total
        assert buffer.tombstone_count == total
        xs, ys = buffer.live_xy()
        assert xs.tolist() == [float(i) for i in range(total)]
        assert ys.tolist() == [float(-i) for i in range(total)]

    def test_kill_newest_cancels_latest_duplicate(self, buffer):
        buffer.append(0.3, 0.3)
        buffer.append(0.3, 0.3)
        buffer.append(0.7, 0.7)
        assert buffer.kill_newest(0.3, 0.3)
        assert buffer.live_count == 2
        assert buffer.exact_live(0.3, 0.3) == 1
        # rows keeps counting the dead slot (size-based compaction trigger)
        assert buffer.rows == 3
        xs, _ys = buffer.live_xy()
        assert xs.tolist() == [0.3, 0.7]

    def test_kill_newest_misses(self, buffer):
        assert not buffer.kill_newest(0.1, 0.1)
        buffer.append(0.2, 0.2)
        assert not buffer.kill_newest(0.1, 0.1)
        assert buffer.kill_newest(0.2, 0.2)
        # already dead: a second kill finds nothing
        assert not buffer.kill_newest(0.2, 0.2)

    def test_tombstones_tracked_separately(self, buffer):
        buffer.tombstone(0.4, 0.6, clock=3.0)
        assert buffer.live_count == 0
        assert buffer.tombstone_count == 1
        assert buffer.rows == 1
        assert buffer.exact_tombstones(0.4, 0.6) == 1
        tx, ty = buffer.tombstone_xy()
        assert tx.tolist() == [0.4] and ty.tolist() == [0.6]
        # tombstones never contribute to the insert bbox
        assert buffer.bbox is None


class TestWindowReads:
    def test_window_mask_is_closed(self):
        xs = np.array([0.0, 0.5, 1.0, 1.5])
        ys = np.array([0.0, 0.5, 1.0, 1.5])
        mask = window_mask(xs, ys, Rect(0.5, 0.5, 1.0, 1.0))
        assert mask.tolist() == [False, True, True, False]

    def test_scan_excludes_dead_rows(self, buffer):
        buffer.append(0.2, 0.2)
        buffer.append(0.4, 0.4)
        buffer.kill_newest(0.4, 0.4)
        xs, ys = buffer.scan(Rect(0.0, 0.0, 1.0, 1.0))
        assert xs.tolist() == [0.2] and ys.tolist() == [0.2]
        assert buffer.count_in(Rect(0.0, 0.0, 1.0, 1.0)) == 1
        assert buffer.count_in(Rect(0.3, 0.3, 1.0, 1.0)) == 0

    def test_tombstones_in_window(self, buffer):
        buffer.tombstone(0.25, 0.25)
        buffer.tombstone(0.75, 0.75)
        tx, ty = buffer.tombstones_in(Rect(0.0, 0.0, 0.5, 0.5))
        assert tx.tolist() == [0.25] and ty.tolist() == [0.25]
        assert buffer.tombstone_count_in(Rect(0.0, 0.0, 0.5, 0.5)) == 1
        assert buffer.tombstone_count_in(Rect(0.0, 0.0, 1.0, 1.0)) == 2

    def test_nbytes_positive(self, buffer):
        assert buffer.nbytes() > 0


class TestFreeze:
    def test_freeze_compacts_and_is_immutable(self, buffer):
        buffer.append(0.1, 0.1)
        buffer.append(0.2, 0.2)
        buffer.kill_newest(0.1, 0.1)
        buffer.tombstone(0.9, 0.9)
        view = buffer.freeze()
        assert isinstance(view, DeltaView)
        assert view.live_count == 1
        assert view.tombstone_count == 1
        assert view.xs.tolist() == [0.2]
        for array in (view.xs, view.ys, view.tomb_x, view.tomb_y):
            assert not array.flags.writeable

    def test_freeze_is_independent_of_later_writes(self, buffer):
        buffer.append(0.3, 0.3)
        view = buffer.freeze()
        buffer.append(0.6, 0.6)
        buffer.tombstone(0.3, 0.3)
        assert view.live_count == 1
        assert view.tombstone_count == 0

    def test_freeze_carries_the_age_clock(self, buffer):
        assert buffer.freeze().first_write_monotonic is None
        buffer.append(0.3, 0.3, clock=4.0)
        buffer.tombstone(0.6, 0.6, clock=5.0)
        assert buffer.freeze().first_write_monotonic == 4.0

    def test_view_window_reads(self, buffer):
        buffer.append(0.2, 0.2)
        buffer.append(0.8, 0.8)
        buffer.tombstone(0.2, 0.2)
        view = buffer.freeze()
        xs, _ys = view.scan(Rect(0.0, 0.0, 0.5, 0.5))
        assert xs.tolist() == [0.2]
        assert view.count_in(Rect(0.0, 0.0, 1.0, 1.0)) == 2
        assert view.tombstone_count_in(Rect(0.0, 0.0, 0.5, 0.5)) == 1
        assert view.exact_live(0.8, 0.8) == 1
        assert view.exact_tombstones(0.2, 0.2) == 1


class TestRollbackMerge:
    def test_merged_restores_frozen_before_active(self):
        first = DeltaBuffer()
        first.append(0.1, 0.1, clock=1.0)
        first.tombstone(0.5, 0.5)
        frozen = first.freeze()
        active = DeltaBuffer()
        active.append(0.2, 0.2, clock=2.0)
        active.tombstone(0.6, 0.6)
        restored = DeltaBuffer.merged(frozen, active)
        xs, _ys = restored.live_xy()
        assert xs.tolist() == [0.1, 0.2]
        tx, _ty = restored.tombstone_xy()
        assert tx.tolist() == [0.5, 0.6]
        # the restored writes keep the age of the oldest one
        assert restored.first_write_monotonic == 1.0

    def test_merged_with_empty_active(self):
        first = DeltaBuffer()
        first.append(0.4, 0.4, clock=7.0)
        restored = DeltaBuffer.merged(first.freeze(), DeltaBuffer())
        assert restored.live_count == 1
        assert restored.tombstone_count == 0
        xs, ys = restored.live_xy()
        assert xs.tolist() == [0.4] and ys.tolist() == [0.4]
        assert restored.bbox == (0.4, 0.4, 0.4, 0.4)
        # the age trigger still sees the frozen write
        assert restored.first_write_monotonic == 7.0
        restored.append(0.9, 0.1)
        assert restored.live_xy()[0].tolist() == [0.4, 0.9]
