"""Paged storage layer shared by the Z-index family of indexes.

The paper models a clustered index: data points belonging to consecutive
leaf cells are stored on consecutive pages, each page holding at most ``L``
points, and the leaf cells form a linked list (the *LeafList*) in curve
order.  This subpackage provides

* :class:`~repro.storage.page.Page` — a fixed-capacity *columnar* container
  of points (contiguous float64 coordinate arrays) with an incrementally
  maintained bounding box, vectorized filtering and copy-on-write
  promotion when backed by shared column views,
* :class:`~repro.storage.leaflist.LeafEntry` — a leaf cell (bounding box +
  page + next pointer + the four look-ahead pointers of Section 5),
* :class:`~repro.storage.leaflist.LeafList` — the ordered collection of leaf
  entries with helpers for scans, size accounting, consistency checks, an
  incremental :meth:`~repro.storage.leaflist.LeafList.splice_span` repair,
* :class:`~repro.storage.leaflist.PackedLeaves` — the packed per-leaf
  metadata (one ``(n, 4)`` bbox array plus int64 pointer arrays) the
  vectorized projection phase operates on, and
* :mod:`~repro.storage.buffers` — the buffer manager that owns the flat
  columns (:class:`~repro.storage.buffers.ColumnStore`) with in-memory and
  ``mmap`` zero-copy backends; indexes hold views into it.
"""

from repro.storage.page import Page
from repro.storage.leaflist import LeafEntry, LeafList, PackedLeaves
from repro.storage.buffers import (
    COLUMN_NAMES,
    ColumnStore,
    MemoryColumnStore,
    MmapColumnStore,
)

__all__ = [
    "Page",
    "LeafEntry",
    "LeafList",
    "PackedLeaves",
    "COLUMN_NAMES",
    "ColumnStore",
    "MemoryColumnStore",
    "MmapColumnStore",
]
