"""Fixed-capacity columnar data pages.

A page is the unit of storage scanned during the filtering phase of range
query processing.  The paper assumes points within a page are stored in
arbitrary order, so a range query that touches a page must compare the query
rectangle against every point on it; those comparisons are the quantity the
WaZI cost model minimises.

Storage layout
--------------
Points are stored *columnar*: two contiguous ``float64`` NumPy arrays hold
the x and y coordinates in insertion (curve) order.  The coordinate
columns are handed to callers (:class:`~repro.storage.LeafList`, the
Z-index's flat scan cache) without re-boxing every point into a
:class:`~repro.geometry.Point`, so the filtering step of Algorithm 2 runs as
vectorized comparisons over the flat columns gathered from the pages.

The page keeps the same logical interface as a list-of-points container —
``add`` / ``remove`` / iteration yield :class:`Point` objects — so callers
that are not on the hot path do not need to know about the columnar layout.
The bounding box is maintained incrementally on ``add``.
"""

# repro-lint: hot-path
from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.geometry import Point, Rect

# Rough in-memory size accounting, mirroring the paper's Table 5.  A stored
# point is two 8-byte doubles; per-page overhead covers the bounding box and
# bookkeeping fields.
_BYTES_PER_POINT = 16
_PAGE_OVERHEAD_BYTES = 48


class PageOverflowError(RuntimeError):
    """Raised when adding a point to a page that is already at capacity."""


class Page:
    """A bounded columnar container of points with a maintained bounding box.

    A page either *owns* its coordinate buffers (the classic mode: private
    capacity-sized arrays, written in place) or holds **views** into a
    shared column store (:mod:`repro.storage.buffers`) — the mode used by
    snapshot loading and the flat scan cache, where one flat array backs
    every page.  View-backed pages answer all read queries directly from
    the shared buffer; the first mutation *promotes* the page by copying
    its points into a private buffer (copy-on-write), so shared columns —
    possibly memory-mapped read-only — are never written through.
    """

    __slots__ = (
        "capacity", "_xs", "_ys", "_n", "_owned",
        "_bxmin", "_bymin", "_bxmax", "_bymax",
    )

    def __init__(self, capacity: int, points: Optional[Iterable[Point]] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"Page capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._xs = np.empty(capacity, dtype=np.float64)
        self._ys = np.empty(capacity, dtype=np.float64)
        self._n = 0
        self._owned = True
        self._bxmin = self._bymin = self._bxmax = self._bymax = 0.0
        if points is not None:
            for point in points:
                self.add(point)

    @classmethod
    def from_arrays(
        cls, capacity: int, xs: np.ndarray, ys: np.ndarray, bbox=None
    ) -> "Page":
        """Build a page directly from coordinate columns (no Point boxing).

        ``capacity`` is raised to ``len(xs)`` if needed, mirroring the
        oversized-leaf escape hatch of the tree construction.  ``bbox`` is
        an optional precomputed ``(xmin, ymin, xmax, ymax)`` bounding box of
        the columns — snapshot loading passes the stored box so restoring a
        page is a pure memcpy with no min/max recomputation; the caller is
        trusted to pass a box consistent with the data.
        """
        n = int(xs.shape[0])
        page = cls(max(capacity, n, 1))
        if n:
            page._xs[:n] = xs
            page._ys[:n] = ys
            page._n = n
            if bbox is None:
                page._bxmin = float(xs.min())
                page._bxmax = float(xs.max())
                page._bymin = float(ys.min())
                page._bymax = float(ys.max())
            else:
                page._bxmin, page._bymin, page._bxmax, page._bymax = (
                    float(bbox[0]), float(bbox[1]), float(bbox[2]), float(bbox[3])
                )
        return page

    @classmethod
    def from_view(
        cls, capacity: int, xs: np.ndarray, ys: np.ndarray, bbox=None
    ) -> "Page":
        """Build a page over *views* of shared coordinate columns (no copy).

        ``xs`` / ``ys`` are length-``n`` float64 slices of a column store
        (or memmap); the page adopts them as its buffers instead of copying
        into private arrays.  Reads are served from the shared columns;
        the first ``add``/``remove`` copies on write.  ``bbox`` follows the
        same trusted-precomputation contract as :meth:`from_arrays`.
        """
        n = int(xs.shape[0])
        if ys.shape[0] != n:
            raise ValueError(
                f"coordinate views disagree on length: {n} vs {int(ys.shape[0])}"
            )
        page = cls.__new__(cls)
        page.capacity = max(int(capacity), n, 1)
        page._xs = xs
        page._ys = ys
        page._n = n
        page._owned = False
        if n == 0:
            page._bxmin = page._bymin = page._bxmax = page._bymax = 0.0
        elif bbox is None:
            page._bxmin = float(xs.min())
            page._bxmax = float(xs.max())
            page._bymin = float(ys.min())
            page._bymax = float(ys.max())
        else:
            page._bxmin, page._bymin, page._bxmax, page._bymax = (
                float(bbox[0]), float(bbox[1]), float(bbox[2]), float(bbox[3])
            )
        return page

    def adopt_view(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Swap the page's buffers for equal-valued views into shared columns.

        Called by the flat-cache gather after it copied this page's points
        into the flat columns: re-pointing the page at its slice of those
        columns leaves one resident copy of the coordinates instead of two.
        The views must hold exactly the page's current points (same order);
        count, capacity and bounding box are unchanged.
        """
        if int(xs.shape[0]) != self._n or int(ys.shape[0]) != self._n:
            raise ValueError(
                f"adopted views hold {int(xs.shape[0])} points, page has {self._n}"
            )
        self._xs = xs
        self._ys = ys
        self._owned = False

    @property
    def owns_buffers(self) -> bool:
        """Whether the page holds private buffers (vs column-store views)."""
        return self._owned

    # -- pickling ---------------------------------------------------------
    # Explicit state methods so pickles written before the `_owned` slot
    # existed still restore (their full-capacity buffers are owned).  Note
    # that pickling serialises the *values* of view buffers, so a restored
    # view-backed page holds private length-n arrays but keeps
    # ``_owned=False`` — the first mutation promotes to capacity-sized
    # buffers exactly as it would have for the original views.
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # default reduce of the pre-slot layout
            state = dict(state[1] or {})
        self._owned = True
        for name, value in state.items():
            setattr(self, name, value)

    def _promote(self) -> None:
        """Copy-on-write: replace shared views with private buffers."""
        xs = np.empty(self.capacity, dtype=np.float64)
        ys = np.empty(self.capacity, dtype=np.float64)
        n = self._n
        xs[:n] = self._xs[:n]
        ys[:n] = self._ys[:n]
        self._xs = xs
        self._ys = ys
        self._owned = True

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Point]:
        xs, ys = self._xs, self._ys
        for i in range(self._n):
            yield Point(xs[i].item(), ys[i].item())

    def __contains__(self, point: Point) -> bool:
        return self.contains_exact(point)

    @property
    def points(self) -> List[Point]:
        """The stored points as a freshly built list (page order)."""
        return [
            Point(x, y)
            for x, y in zip(self._xs[: self._n].tolist(), self._ys[: self._n].tolist())
        ]

    @property
    def xs(self) -> np.ndarray:
        """Read-only view of the x-coordinate column (length ``len(self)``)."""
        return self._xs[: self._n]

    @property
    def ys(self) -> np.ndarray:
        """Read-only view of the y-coordinate column (length ``len(self)``)."""
        return self._ys[: self._n]

    @property
    def bbox(self) -> Optional[Rect]:
        """Bounding box of the stored points, or ``None`` for an empty page."""
        if self._n == 0:
            return None
        return Rect(self._bxmin, self._bymin, self._bxmax, self._bymax)

    def bbox_tuple(self):
        """The bounding box as ``(xmin, ymin, xmax, ymax)`` floats, or ``None``."""
        if self._n == 0:
            return None
        return (self._bxmin, self._bymin, self._bxmax, self._bymax)

    @property
    def is_full(self) -> bool:
        return self._n >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self._n == 0

    # -- mutation ---------------------------------------------------------
    def add(self, point: Point) -> None:
        """Append a point, growing the bounding box (see :meth:`add_xy`)."""
        self.add_xy(float(point.x), float(point.y))

    def add_xy(self, x: float, y: float) -> None:
        """Append the row ``(x, y)``, growing the bounding box.

        Raises :class:`PageOverflowError` when the page is already full; the
        caller (leaf node) is responsible for splitting.
        """
        if self._n >= self.capacity:
            raise PageOverflowError(
                f"Page already holds {self._n}/{self.capacity} points"
            )
        if not self._owned:
            self._promote()
        index = self._n
        self._xs[index] = x
        self._ys[index] = y
        if index == 0:
            self._bxmin = self._bxmax = x
            self._bymin = self._bymax = y
        else:
            if x < self._bxmin:
                self._bxmin = x
            elif x > self._bxmax:
                self._bxmax = x
            if y < self._bymin:
                self._bymin = y
            elif y > self._bymax:
                self._bymax = y
        self._n = index + 1

    def remove(self, point: Point) -> bool:
        """Remove one occurrence of ``point``.

        Returns ``True`` if the point was present.  The bounding box is
        recomputed from the remaining points (removal is rare relative to
        scans, so the linear recomputation is acceptable).
        """
        n = self._n
        if n == 0:
            return False
        matches = np.flatnonzero(
            (self._xs[:n] == float(point.x)) & (self._ys[:n] == float(point.y))
        )
        if matches.size == 0:
            return False
        if not self._owned:
            self._promote()
        index = int(matches[0])
        # Shift the tail left by one to preserve page order.
        self._xs[index : n - 1] = self._xs[index + 1 : n]
        self._ys[index : n - 1] = self._ys[index + 1 : n]
        self._n = n - 1
        self._recompute_bbox()
        return True

    def _recompute_bbox(self) -> None:
        n = self._n
        if n == 0:
            self._bxmin = self._bymin = self._bxmax = self._bymax = 0.0
            return
        xs = self._xs[:n]
        ys = self._ys[:n]
        self._bxmin = float(xs.min())
        self._bxmax = float(xs.max())
        self._bymin = float(ys.min())
        self._bymax = float(ys.max())

    # -- queries ----------------------------------------------------------
    def contains_exact(self, point: Point) -> bool:
        """Exact-match lookup used by point queries."""
        n = self._n
        if n == 0:
            return False
        return bool(
            ((self._xs[:n] == float(point.x)) & (self._ys[:n] == float(point.y))).any()
        )

    # -- accounting --------------------------------------------------------
    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the page."""
        return _PAGE_OVERHEAD_BYTES + _BYTES_PER_POINT * self._n

    def __repr__(self) -> str:
        return f"Page(n={self._n}, capacity={self.capacity}, bbox={self.bbox})"
