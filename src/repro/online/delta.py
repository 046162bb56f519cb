"""The LSM write path: a columnar memtable of inserts and tombstones.

Online writes never touch the built Z-index.  They land here, in
preallocated NumPy columns — an insert is two array writes and a counter
bump, a delete either flips an insert's ``alive`` flag (the point was
born in the delta) or records a *tombstone* masking one occurrence in
the base index.  Queries merge the base result with a vectorized scan
over the live delta rows and subtract the in-window tombstones; a
size/age policy eventually triggers compaction, which freezes the buffer
into an immutable :class:`DeltaView` and merges it into the columnar
core (see :mod:`repro.online.index`).

Deletes are validated at record time (a tombstone is only written when a
matching live occurrence exists), which is what makes the merge pure
multiset arithmetic: points carry no identity beyond their coordinates,
so ``merged = base + delta_live − tombstones`` holds row-for-row no
matter which physical occurrence a tombstone is taken to mask.  The
``delta-conservation`` sanitizer invariant re-derives exactly this
equation from the data.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.geometry import Rect

__all__ = ["DeltaBuffer", "DeltaView"]

#: Initial number of preallocated rows per column family.
_INITIAL_CAPACITY = 64


def _grown(array: np.ndarray, used: int, needed: int) -> np.ndarray:
    capacity = array.shape[0]
    if used + needed <= capacity:
        return array
    new_capacity = max(used + needed, capacity * 2, _INITIAL_CAPACITY)
    grown = np.empty((new_capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:used] = array[:used]
    return grown


def window_mask(
    xs: np.ndarray, ys: np.ndarray, query: Rect
) -> np.ndarray:
    """Boolean mask of the rows inside the (closed) query rectangle."""
    mask = xs >= query.xmin
    mask &= xs <= query.xmax
    mask &= ys >= query.ymin
    mask &= ys <= query.ymax
    return mask


class DeltaView:
    """An immutable, compacted snapshot of a :class:`DeltaBuffer`.

    Produced by :meth:`DeltaBuffer.freeze` at the start of a compaction:
    the frozen rows keep serving merged queries while the merge builds the
    replacement index aside, and new writes land in a fresh active buffer.
    ``first_write_monotonic`` is the frozen buffer's age clock, kept so a
    rolled-back compaction restores the age of its writes.
    """

    __slots__ = ("xs", "ys", "tomb_x", "tomb_y", "bbox", "first_write_monotonic")

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        tomb_x: np.ndarray,
        tomb_y: np.ndarray,
        bbox: Optional[Tuple[float, float, float, float]],
        first_write_monotonic: Optional[float] = None,
    ) -> None:
        for array in (xs, ys, tomb_x, tomb_y):
            array.setflags(write=False)
        self.xs = xs
        self.ys = ys
        self.tomb_x = tomb_x
        self.tomb_y = tomb_y
        self.bbox = bbox
        self.first_write_monotonic = first_write_monotonic

    @property
    def live_count(self) -> int:
        return int(self.xs.shape[0])

    @property
    def tombstone_count(self) -> int:
        return int(self.tomb_x.shape[0])

    def scan(self, query: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows inside ``query``, in original insertion order."""
        mask = window_mask(self.xs, self.ys, query)
        return self.xs[mask], self.ys[mask]

    def count_in(self, query: Rect) -> int:
        return int(np.count_nonzero(window_mask(self.xs, self.ys, query)))

    def tombstones_in(self, query: Rect) -> Tuple[np.ndarray, np.ndarray]:
        mask = window_mask(self.tomb_x, self.tomb_y, query)
        return self.tomb_x[mask], self.tomb_y[mask]

    def tombstone_count_in(self, query: Rect) -> int:
        return int(np.count_nonzero(window_mask(self.tomb_x, self.tomb_y, query)))

    def exact_live(self, x: float, y: float) -> int:
        return int(np.count_nonzero((self.xs == x) & (self.ys == y)))

    def exact_tombstones(self, x: float, y: float) -> int:
        return int(np.count_nonzero((self.tomb_x == x) & (self.tomb_y == y)))


class DeltaBuffer:
    """Columnar memtable absorbing inserts and deletes (LSM level 0).

    Single-writer semantics: mutations happen under the owning
    :class:`~repro.online.index.OnlineIndex`'s lock.  Readers under the
    same lock always see a consistent prefix.
    """

    __slots__ = (
        "_x", "_y", "_alive", "_n", "_live",
        "_tx", "_ty", "_tn",
        "_bbox", "first_write_monotonic", "version",
    )

    def __init__(self) -> None:
        self._x = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._y = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._alive = np.empty(_INITIAL_CAPACITY, dtype=bool)
        self._n = 0
        self._live = 0
        self._tx = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._ty = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._tn = 0
        self._bbox: Optional[Tuple[float, float, float, float]] = None
        #: Monotonic timestamp of the first buffered write (age trigger).
        self.first_write_monotonic: Optional[float] = None
        #: Bumped by every mutation; composes into the owner's generation.
        self.version = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _touch(self, clock: Optional[float]) -> None:
        if self.first_write_monotonic is None:
            self.first_write_monotonic = clock
        self.version += 1

    def append(self, x: float, y: float, *, clock: Optional[float] = None) -> None:
        """Record one inserted point."""
        n = self._n
        self._x = _grown(self._x, n, 1)
        self._y = _grown(self._y, n, 1)
        self._alive = _grown(self._alive, n, 1)
        self._x[n] = x
        self._y[n] = y
        self._alive[n] = True
        self._n = n + 1
        self._live += 1
        if self._bbox is None:
            self._bbox = (x, y, x, y)
        else:
            b = self._bbox
            self._bbox = (min(b[0], x), min(b[1], y), max(b[2], x), max(b[3], y))
        self._touch(clock)

    def kill_newest(self, x: float, y: float) -> bool:
        """Cancel the most recent live insert of exactly these coordinates."""
        n = self._n
        if n == 0 or self._live == 0:
            return False
        hits = (self._x[:n] == x) & (self._y[:n] == y) & self._alive[:n]
        idx = np.flatnonzero(hits)
        if idx.shape[0] == 0:
            return False
        self._alive[int(idx[-1])] = False
        self._live -= 1
        self._touch(None)
        return True

    def tombstone(self, x: float, y: float, *, clock: Optional[float] = None) -> None:
        """Mask one base-index occurrence of exactly these coordinates.

        The caller (the online index's ``delete``) is responsible for
        having verified a maskable occurrence exists; the buffer itself
        only stores the coordinates.
        """
        n = self._tn
        self._tx = _grown(self._tx, n, 1)
        self._ty = _grown(self._ty, n, 1)
        self._tx[n] = x
        self._ty[n] = y
        self._tn = n + 1
        self._touch(clock)

    # ------------------------------------------------------------------
    # reads (live rows only)
    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        return self._live

    @property
    def tombstone_count(self) -> int:
        return self._tn

    @property
    def rows(self) -> int:
        """Buffered rows driving the size-based compaction trigger."""
        return self._n + self._tn

    @property
    def is_empty(self) -> bool:
        return self._n == 0 and self._tn == 0

    @property
    def bbox(self) -> Optional[Tuple[float, float, float, float]]:
        """Conservative bounding box over every insert ever buffered.

        Dead rows are not subtracted — a superset is always safe for the
        extent-derived search windows that consume it.
        """
        return self._bbox

    def live_xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compacted copies of the live rows, in insertion order."""
        n = self._n
        alive = self._alive[:n]
        return self._x[:n][alive], self._y[:n][alive]

    def scan(self, query: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows inside ``query``, in insertion order."""
        n = self._n
        mask = window_mask(self._x[:n], self._y[:n], query)
        mask &= self._alive[:n]
        return self._x[:n][mask], self._y[:n][mask]

    def count_in(self, query: Rect) -> int:
        n = self._n
        mask = window_mask(self._x[:n], self._y[:n], query)
        mask &= self._alive[:n]
        return int(np.count_nonzero(mask))

    def tombstones_in(self, query: Rect) -> Tuple[np.ndarray, np.ndarray]:
        n = self._tn
        mask = window_mask(self._tx[:n], self._ty[:n], query)
        return self._tx[:n][mask], self._ty[:n][mask]

    def tombstone_count_in(self, query: Rect) -> int:
        n = self._tn
        return int(np.count_nonzero(window_mask(self._tx[:n], self._ty[:n], query)))

    def exact_live(self, x: float, y: float) -> int:
        n = self._n
        hits = (self._x[:n] == x) & (self._y[:n] == y) & self._alive[:n]
        return int(np.count_nonzero(hits))

    def exact_tombstones(self, x: float, y: float) -> int:
        n = self._tn
        return int(np.count_nonzero((self._tx[:n] == x) & (self._ty[:n] == y)))

    def tombstone_xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the recorded tombstone coordinates, in record order."""
        n = self._tn
        return self._tx[:n].copy(), self._ty[:n].copy()

    def nbytes(self) -> int:
        return (
            self._x.nbytes + self._y.nbytes + self._alive.nbytes
            + self._tx.nbytes + self._ty.nbytes
        )

    # ------------------------------------------------------------------
    # freeze
    # ------------------------------------------------------------------
    def freeze(self) -> DeltaView:
        """An immutable compacted snapshot (the compaction input)."""
        xs, ys = self.live_xy()
        return DeltaView(
            xs.copy(), ys.copy(),
            self._tx[:self._tn].copy(), self._ty[:self._tn].copy(),
            self._bbox, self.first_write_monotonic,
        )

    @classmethod
    def merged(cls, frozen: DeltaView, active: "DeltaBuffer") -> "DeltaBuffer":
        """A buffer holding the frozen rows followed by the active rows.

        Used to roll a failed compaction back: the frozen view becomes
        plain buffered writes again, ahead of everything recorded since
        the freeze, so no acknowledged write is ever lost.  The restored
        age clock is the older of the two, so the age trigger still sees
        the frozen writes.
        """
        restored = cls()
        ax, ay = active.live_xy()
        tx, ty = active.tombstone_xy()
        xs = np.concatenate((frozen.xs, ax))
        ys = np.concatenate((frozen.ys, ay))
        n = int(xs.shape[0])
        restored._x, restored._y = xs, ys
        restored._alive = np.ones(n, dtype=bool)
        restored._n = restored._live = n
        restored._tx = np.concatenate((frozen.tomb_x, tx))
        restored._ty = np.concatenate((frozen.tomb_y, ty))
        restored._tn = int(restored._tx.shape[0])
        if n:
            restored._bbox = (
                float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
            )
        clocks = [
            clock for clock in (frozen.first_write_monotonic, active.first_write_monotonic)
            if clock is not None
        ]
        restored.first_write_monotonic = min(clocks) if clocks else None
        restored.version = n + restored._tn
        return restored

    def __repr__(self) -> str:
        return (
            f"DeltaBuffer({self._live} live of {self._n} inserts, "
            f"{self._tn} tombstones)"
        )
