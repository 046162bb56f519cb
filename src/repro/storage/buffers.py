"""The buffer manager: ownership of the flat index columns.

Historically each :class:`~repro.zindex.ZIndex` *owned* its flat coordinate
columns — the scan cache gathered per-page copies, snapshot loading copied
the stored arrays again, and every process serving the same snapshot paid
for a private set of buffers.  This module inverts that ownership: a
:class:`ColumnStore` owns the columns and indexes hold **views** into it.

Two backends implement the same surface:

* :class:`MemoryColumnStore` — plain in-memory arrays, used by live
  (mutable) indexes.  The store's arrays are gathered once from the pages
  and the pages themselves are re-pointed at slices of them, so a resident
  index keeps exactly one copy of its coordinates.
* :class:`MmapColumnStore` — ``numpy.memmap`` views opened zero-copy from a
  snapshot container (:func:`repro.persistence.container.map_container`).
  N worker processes opening the same snapshot share one set of physical
  pages through the OS page cache; each additional worker costs page
  tables, not data.

Columns are read-only through the store.  Mutation goes through the
owning structures (pages, packed leaf metadata), which *promote* — copy a
private buffer on first write — and bump the store's generation so scan
caches and lazy result views notice staleness exactly as before.
"""

# repro-lint: hot-path
from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

#: Canonical column names a Z-index snapshot stores (the serving layer's
#: vocabulary; a store may hold additional members, e.g. tree tables).
COLUMN_NAMES = (
    "flat_x",
    "flat_y",
    "leaf_starts",
    "leaf_boxes",
    "leaf_nonempty",
    "skip_below",
    "skip_above",
    "skip_left",
    "skip_right",
)


class ColumnStore:
    """Named, read-only column arrays plus a generation counter.

    The generation counter is the cross-layer staleness protocol: consumers
    (scan caches, lazy result boxers) capture the generation when they take
    views and compare before reuse.  ``bump()`` is called by whoever
    invalidates the columns (index mutation).
    """

    backend = "abstract"

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns: Dict[str, np.ndarray] = dict(columns)
        self.generation = 0

    # -- mapping surface --------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def get(self, name: str, default: Optional[np.ndarray] = None):
        return self._columns.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    def items(self):
        return self._columns.items()

    # -- lifecycle --------------------------------------------------------
    def bump(self) -> int:
        """Advance the generation (the columns no longer reflect the index)."""
        self.generation += 1
        return self.generation

    def close(self) -> None:
        """Drop column references (and with them any mapped file handles)."""
        self._columns = {}

    # -- introspection ----------------------------------------------------
    @property
    def writable(self) -> bool:
        return False

    def is_mapped(self, name: str) -> bool:
        """Whether a column is a view into a file mapping (shared pages)."""
        column = self._columns.get(name)
        return isinstance(column, np.memmap) or (
            column is not None and isinstance(column.base, np.memmap)
        )

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in self._columns.values())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(columns={len(self._columns)}, "
            f"generation={self.generation}, nbytes={self.nbytes})"
        )


class MemoryColumnStore(ColumnStore):
    """Columns held as ordinary in-process arrays (the mutable backend)."""

    backend = "memory"

    @property
    def writable(self) -> bool:
        return True

    @classmethod
    def from_arrays(cls, columns: Mapping[str, np.ndarray]) -> "MemoryColumnStore":
        """Adopt existing arrays without copying (the store takes ownership)."""
        return cls(columns)

    @classmethod
    def gather(cls, leaflist) -> "MemoryColumnStore":
        """Gather the flat coordinate columns from a LeafList's pages.

        Builds ``flat_x`` / ``flat_y`` (coordinates in curve order) and
        ``leaf_starts`` (length ``n_leaves + 1`` prefix offsets).  This is
        the single place the per-page → flat copy happens; the caller is
        expected to re-point the pages at slices of the gathered columns so
        the copy replaces, rather than duplicates, the page buffers.
        """
        entries = leaflist.entries
        counts = np.fromiter(
            (len(entry.page) for entry in entries), dtype=np.int64, count=len(entries)
        )
        starts = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        total = int(starts[-1])
        flat_x = np.empty(total, dtype=np.float64)
        flat_y = np.empty(total, dtype=np.float64)
        bounds = starts.tolist()
        for index, entry in enumerate(entries):
            lo, hi = bounds[index], bounds[index + 1]
            if lo == hi:
                continue
            page = entry.page
            flat_x[lo:hi] = page.xs
            flat_y[lo:hi] = page.ys
        return cls({"flat_x": flat_x, "flat_y": flat_y, "leaf_starts": starts})


class MmapColumnStore(ColumnStore):
    """Columns mapped zero-copy from a snapshot container on disk."""

    backend = "mmap"

    def __init__(self, columns: Mapping[str, np.ndarray], *, path=None, manifest=None) -> None:
        super().__init__(columns)
        self.path = path
        self.manifest = manifest

    @classmethod
    def open(cls, path) -> "MmapColumnStore":
        """Map every array member of a snapshot container.

        Imported lazily to keep the storage layer free of a hard dependency
        on the persistence package (which itself builds on storage).
        """
        from repro.persistence.container import map_container

        manifest, arrays = map_container(path)
        return cls(arrays, path=path, manifest=manifest)
