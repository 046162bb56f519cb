"""Leaf entries and the ordered LeafList of a Z-index.

The leaf layer of a Z-index (Section 3, Figure 2 of the paper) is a linked
list of leaf cells ordered by the space-filling curve.  Each leaf holds a
bounding box of the area it spans, a pointer to its page of points, and a
pointer to the next leaf in curve order.  WaZI additionally equips each
leaf with four *look-ahead pointers* (Section 5) that allow range-query
processing to skip over runs of irrelevant leaves.

The :class:`LeafList` here stores leaves in a Python list (positions double
as the curve order ``Ord``) while each :class:`LeafEntry` also carries the
explicit ``next``/look-ahead indices so the skipping algorithms read exactly
like the paper's pseudocode.

Packed representation
---------------------
For the vectorized query paths the LeafList additionally maintains a
*packed* copy of the per-leaf metadata (:class:`PackedLeaves`): one
``(n_leaves, 4)`` float64 array of effective bounding boxes, a boolean
non-empty mask, and one int64 array per look-ahead criterion.  Overlap tests and skip-target selection then run as NumPy
array expressions instead of attribute-chasing ``LeafEntry`` objects.  The
packed copy is built lazily and invalidated (or repaired in place) by the
mutation entry points, so callers simply ask for :meth:`LeafList.packed`.
"""

# repro-lint: hot-path
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.storage.page import Page

# Per-leaf overhead: bounding box (4 doubles), page pointer, next pointer and
# the four look-ahead pointers.
_LEAF_OVERHEAD_BYTES = 4 * 8 + 8 + 8 + 4 * 8

# Sentinel "index" meaning "past the end of the LeafList".
END_OF_LIST = -1

# Names of the four skipping criteria, in the order used throughout.
SKIP_BELOW = "below"
SKIP_ABOVE = "above"
SKIP_LEFT = "left"
SKIP_RIGHT = "right"
SKIP_CRITERIA = (SKIP_BELOW, SKIP_ABOVE, SKIP_LEFT, SKIP_RIGHT)


@dataclass
class LeafEntry:
    """A leaf cell of a Z-index.

    Attributes
    ----------
    cell:
        The region of the data space covered by the leaf (the cell produced
        by the hierarchical partitioning).  Used for cost accounting.
    page:
        The page of data points belonging to this leaf.
    order:
        Position of the leaf in curve order (``Ord`` in the paper).
    next_index:
        Index of the next leaf in the LeafList, or :data:`END_OF_LIST`.
    below, above, left, right:
        Look-ahead pointer targets for the four irrelevancy criteria of
        Section 5.1, or :data:`END_OF_LIST` when not yet built.
    node:
        Optional back-reference to the tree's leaf node, used by the
        incremental splice repair to renumber ``leaf_index`` fields without
        re-walking the whole tree.
    """

    cell: Rect
    page: Page
    order: int = 0
    next_index: int = END_OF_LIST
    below: int = END_OF_LIST
    above: int = END_OF_LIST
    left: int = END_OF_LIST
    right: int = END_OF_LIST
    node: Optional[object] = None

    @property
    def bbox(self) -> Optional[Rect]:
        """Bounding box of the points actually stored in the leaf's page.

        The paper compares range queries against the bounding box of the
        *data* in the leaf (``bbs``), which can be tighter than the cell.
        Empty leaves have no data bounding box and never overlap a query.
        """
        return self.page.bbox

    @property
    def num_points(self) -> int:
        return len(self.page)

    def overlaps(self, query: Rect) -> bool:
        """Whether the leaf's data bounding box overlaps the query rectangle."""
        box = self.page.bbox
        return box is not None and box.overlaps(query)

    def skip_pointer(self, criterion: str) -> int:
        """The look-ahead pointer associated with ``criterion``."""
        if criterion == SKIP_BELOW:
            return self.below
        if criterion == SKIP_ABOVE:
            return self.above
        if criterion == SKIP_LEFT:
            return self.left
        if criterion == SKIP_RIGHT:
            return self.right
        raise ValueError(f"Unknown skip criterion: {criterion!r}")

    def set_skip_pointer(self, criterion: str, target: int) -> None:
        """Assign the look-ahead pointer associated with ``criterion``."""
        if criterion == SKIP_BELOW:
            self.below = target
        elif criterion == SKIP_ABOVE:
            self.above = target
        elif criterion == SKIP_LEFT:
            self.left = target
        elif criterion == SKIP_RIGHT:
            self.right = target
        else:
            raise ValueError(f"Unknown skip criterion: {criterion!r}")

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the leaf and its page."""
        return _LEAF_OVERHEAD_BYTES + self.page.size_bytes()


class PackedLeaves:
    """Columnar copy of the LeafList metadata for vectorized projection.

    Attributes
    ----------
    boxes:
        ``(n, 4)`` float64 array of *effective* boxes ``[xmin, ymin, xmax,
        ymax]`` — the data bounding box of each leaf, or the leaf's cell for
        empty leaves (matching :func:`repro.zindex.skipping.leaf_box`).
    nonempty:
        ``(n,)`` boolean mask: whether the leaf stores any points.  Empty
        leaves never overlap a query but still participate in the skip
        criteria through their cell.
    below, above, left, right:
        ``(n,)`` int64 look-ahead pointer targets (:data:`END_OF_LIST`
        terminated).
    """

    __slots__ = (
        "boxes", "nonempty", "below", "above", "left", "right", "_lists", "_owned",
        "_live_span",
    )

    def __init__(self, entries: Sequence[LeafEntry]) -> None:
        n = len(entries)
        self.boxes = np.empty((n, 4), dtype=np.float64)
        self.nonempty = np.empty(n, dtype=bool)
        self.below = np.empty(n, dtype=np.int64)
        self.above = np.empty(n, dtype=np.int64)
        self.left = np.empty(n, dtype=np.int64)
        self.right = np.empty(n, dtype=np.int64)
        self._lists = None
        self._owned = True
        self._live_span = False
        for index, entry in enumerate(entries):
            self.refresh(index, entry)
            self.below[index] = entry.below
            self.above[index] = entry.above
            self.left[index] = entry.left
            self.right[index] = entry.right

    @classmethod
    def from_arrays(
        cls,
        boxes: np.ndarray,
        nonempty: np.ndarray,
        below: np.ndarray,
        above: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        *,
        copy: bool = True,
    ) -> "PackedLeaves":
        """Assemble a packed copy directly from stored column arrays.

        Used by snapshot loading, where the packed metadata was persisted
        verbatim: installing the arrays avoids re-deriving every row from
        freshly built :class:`LeafEntry` objects.  With ``copy=True`` the
        arrays are copied into the canonical dtypes.  With ``copy=False``
        the packed metadata holds *views* of the caller's columns (a
        :class:`~repro.storage.buffers.ColumnStore`, possibly read-only and
        memory-mapped); the first in-place repair (:meth:`refresh`) then
        promotes to private copies, so shared buffers are never written
        through either way.  A dtype mismatch under ``copy=False`` falls
        back to a converting copy — correctness over sharing.
        """
        packed = cls.__new__(cls)
        if copy:
            packed.boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
            packed.nonempty = np.array(nonempty, dtype=bool)
            packed.below = np.array(below, dtype=np.int64)
            packed.above = np.array(above, dtype=np.int64)
            packed.left = np.array(left, dtype=np.int64)
            packed.right = np.array(right, dtype=np.int64)
        else:
            packed.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
            packed.nonempty = np.asarray(nonempty, dtype=bool)
            packed.below = np.asarray(below, dtype=np.int64)
            packed.above = np.asarray(above, dtype=np.int64)
            packed.left = np.asarray(left, dtype=np.int64)
            packed.right = np.asarray(right, dtype=np.int64)
        packed._lists = None
        packed._owned = bool(copy)
        packed._live_span = False
        n = packed.boxes.shape[0]
        for name in ("nonempty", "below", "above", "left", "right"):
            if getattr(packed, name).shape != (n,):
                raise ValueError(
                    f"packed column {name!r} has shape {getattr(packed, name).shape}, "
                    f"expected ({n},)"
                )
        return packed

    # Explicit pickle state so files written before the `_owned` slot
    # existed still restore; their arrays were always private copies.
    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # default reduce of the pre-slot layout
            state = dict(state[1] or {})
        self._owned = True
        self._live_span = False
        for name, value in state.items():
            setattr(self, name, value)

    def _ensure_writable(self) -> None:
        """Copy-on-write before an in-place repair of view-backed columns."""
        if self._owned:
            return
        self.boxes = np.array(self.boxes, dtype=np.float64)
        self.nonempty = np.array(self.nonempty, dtype=bool)
        self.below = np.array(self.below, dtype=np.int64)
        self.above = np.array(self.above, dtype=np.int64)
        self.left = np.array(self.left, dtype=np.int64)
        self.right = np.array(self.right, dtype=np.int64)
        self._owned = True

    def refresh(self, index: int, entry: LeafEntry) -> None:
        """Re-read one leaf's box row (after its page was mutated)."""
        self._ensure_writable()
        box = entry.page.bbox_tuple()
        if box is None:
            cell = entry.cell
            box = (cell.xmin, cell.ymin, cell.xmax, cell.ymax)
            nonempty = False
        else:
            nonempty = True
        self.nonempty[index] = nonempty
        self.boxes[index] = box
        self._live_span = False
        if self._lists is not None:
            boxes_l, nonempty_l = self._lists[:2]
            boxes_l[index] = list(box)
            nonempty_l[index] = nonempty

    def lists(self):
        """The packed metadata as plain Python lists, for scalar walks.

        Scalar indexing of NumPy arrays is several times slower than list
        indexing, so the sequential skip walk of the projection phase reads
        from this cached tuple ``(boxes, nonempty, below, above, left,
        right)`` instead, where ``boxes`` is a list of
        ``[xmin, ymin, xmax, ymax]`` rows.
        """
        if self._lists is None:
            self._lists = (
                self.boxes.tolist(),
                self.nonempty.tolist(),
                self.below.tolist(),
                self.above.tolist(),
                self.left.tolist(),
                self.right.tolist(),
            )
        return self._lists

    def live_span(self):
        """Inclusive ``(first, last)`` non-empty leaf positions, or ``None``.

        Leaves outside this interval hold no points and can never
        contribute to a query, so the projection phase clamps its scan
        interval to it.  For a freshly built index the clamp is a no-op,
        but for a Z-range shard — a mostly-empty copy of the global leaf
        list — it is what makes projection cost scale with the shard's own
        span instead of the global leaf count.  Cached; invalidated by
        :meth:`refresh`.
        """
        if self._live_span is False:
            hits = np.flatnonzero(self.nonempty)
            self._live_span = (
                (int(hits[0]), int(hits[-1])) if hits.size else None
            )
        return self._live_span


@dataclass
class LeafList:
    """The ordered collection of leaf entries of a Z-index."""

    entries: List[LeafEntry] = field(default_factory=list)
    _packed: Optional[PackedLeaves] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_entries(cls, entries: Sequence[LeafEntry]) -> "LeafList":
        """Build a list from already-ordered entries, fixing the chain links.

        Orders and next pointers are renumbered to match the given sequence;
        the entries' look-ahead pointers are kept as-is (snapshot loading
        restores them from the persisted arrays before calling this).
        """
        leaflist = cls(entries=list(entries))
        n = len(leaflist.entries)
        for index, entry in enumerate(leaflist.entries):
            entry.order = index
            entry.next_index = index + 1 if index + 1 < n else END_OF_LIST
            if entry.node is not None:
                entry.node.leaf_index = index
        return leaflist

    def append(self, entry: LeafEntry) -> int:
        """Append ``entry``, fixing up its order and the predecessor's next pointer."""
        index = len(self.entries)
        entry.order = index
        entry.next_index = END_OF_LIST
        if self.entries:
            self.entries[-1].next_index = index
        self.entries.append(entry)
        self._packed = None
        return index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[LeafEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> LeafEntry:
        return self.entries[index]

    @property
    def num_points(self) -> int:
        """Total number of points stored across all leaves."""
        return sum(entry.num_points for entry in self.entries)

    def all_points(self) -> List[Point]:
        """Every stored point in curve order (page order within a leaf)."""
        points: List[Point] = []
        for entry in self.entries:
            points.extend(entry.page.points)
        return points

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the leaf layer."""
        return sum(entry.size_bytes() for entry in self.entries)

    # -- packed representation -------------------------------------------
    def packed(self) -> PackedLeaves:
        """The packed columnar metadata, (re)built lazily after mutations."""
        if self._packed is None:
            self._packed = PackedLeaves(self.entries)
        return self._packed

    def invalidate_packed(self) -> None:
        """Drop the packed copy; the next :meth:`packed` call rebuilds it.

        Called after bulk pointer rewrites (Algorithm 4 passes) and any
        structural change not covered by :meth:`refresh_entry`.
        """
        self._packed = None

    def refresh_entry(self, index: int) -> None:
        """Repair the packed row of one leaf after an in-place page mutation."""
        if self._packed is not None:
            self._packed.refresh(index, self.entries[index])

    # -- incremental structural repair ------------------------------------
    def splice_span(self, low: int, high: int, replacements: Sequence[LeafEntry]) -> None:
        """Replace the contiguous span ``[low, high]`` with ``replacements``.

        The structural edit of a leaf split (``low == high``) and of an
        incremental subtree re-derive: a subtree's leaves occupy a
        contiguous run of the curve-ordered list, and the rebuilt subtree's
        leaves take their place in one edit.  Repairs orders, next pointers
        and the ``leaf_index`` of back-referenced tree nodes.  Suffix
        look-ahead targets always aimed *past* ``high`` (pointers only ever
        go forward), so they survive under a uniform shift; prefix and
        replacement pointers can legitimately point into the replaced run
        and are left for
        :func:`repro.zindex.skipping.repair_lookahead_pointers`.
        """
        if not replacements:
            raise ValueError("splice_span requires at least one replacement entry")
        if low < 0 or high >= len(self.entries) or low > high:
            raise IndexError(f"invalid splice span [{low}, {high}] for {len(self.entries)} entries")
        shift = len(replacements) - (high - low + 1)
        entries = self.entries
        entries[low : high + 1] = list(replacements)
        n = len(entries)
        for position in range(low, n):
            entry = entries[position]
            entry.order = position
            entry.next_index = position + 1 if position + 1 < n else END_OF_LIST
            node = entry.node
            if node is not None:
                node.leaf_index = position
        if shift:
            for position in range(low + len(replacements), n):
                entry = entries[position]
                if entry.below != END_OF_LIST:
                    entry.below += shift
                if entry.above != END_OF_LIST:
                    entry.above += shift
                if entry.left != END_OF_LIST:
                    entry.left += shift
                if entry.right != END_OF_LIST:
                    entry.right += shift
        self._packed = None

    # -- consistency checks (used by tests and debug assertions) ----------
    def check_linked(self) -> bool:
        """Verify the next pointers form a single chain in list order."""
        for index, entry in enumerate(self.entries):
            expected = index + 1 if index + 1 < len(self.entries) else END_OF_LIST
            if entry.next_index != expected:
                return False
            if entry.order != index:
                return False
        return True

    def check_skip_pointers_forward(self) -> bool:
        """Verify every look-ahead pointer targets a strictly later leaf (or the end)."""
        for index, entry in enumerate(self.entries):
            for criterion in SKIP_CRITERIA:
                target = entry.skip_pointer(criterion)
                if target != END_OF_LIST and target <= index:
                    return False
        return True
