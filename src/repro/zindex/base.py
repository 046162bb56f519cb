"""The generalized Z-index: construction, queries and updates.

:class:`ZIndex` is the shared structure behind both the base Z-index of
Section 3 and WaZI (Section 4): a quaternary tree over the data space, a
clustered :class:`~repro.storage.LeafList`, Algorithm 1 tree traversal for
point queries, Algorithm 2 interval scanning for range queries, and the
optional look-ahead skipping of Section 5.  The strategy that picks each
node's split point and ordering is pluggable, which is exactly the degree of
freedom WaZI exploits.

:class:`BaseZIndex` is the paper's ``Base`` baseline: median splits,
"abcd" ordering everywhere, no skipping pointers.

Vectorized query engine
-----------------------
Query processing is columnar throughout:

* the projection phase tests leaf bounding boxes against the query with
  NumPy expressions over the :class:`~repro.storage.leaflist.PackedLeaves`
  arrays (one ``(n_leaves, 4)`` bbox array plus one int64 array per
  look-ahead criterion) instead of attribute-chasing ``LeafEntry`` objects;
* the scanning phase filters candidate pages against a lazily maintained
  *flat store* — the concatenation of every page's coordinate columns in
  curve order, with per-leaf offsets — so one query performs a single
  vectorized gather-and-mask over contiguous ``float64`` arrays;
* :meth:`ZIndex.batch_range_query` answers a whole workload through the
  same machinery, amortising cache construction and per-query dispatch.

Logical cost counters (``bbs_checked``, ``pages_scanned``,
``points_filtered`` …) are maintained with exactly the same semantics as
the scalar reference implementation, so the paper's Figure 13 metrics are
unchanged by the vectorization.
"""

# repro-lint: hot-path
# repro-lint: kernel-parity
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.evaluation.metrics import PhaseTimer
from repro.geometry import Point, Rect, points_from_arrays, points_to_arrays
from repro.interfaces import SpatialIndex, require_finite_center, require_valid_radius
from repro.kernels import get_kernels
from repro.results import ResultSet
from repro.storage import LeafEntry, LeafList, PackedLeaves, Page
from repro.storage.buffers import MemoryColumnStore
from repro.storage.leaflist import END_OF_LIST
from repro.zindex.node import (
    InternalNode,
    LeafNode,
    ORDERINGS,
    ZNode,
    count_nodes,
    iter_leaves_in_curve_order,
    pack_tree,
    structure_size_bytes,
    tree_depth,
    unpack_tree,
)
from repro.zindex.skipping import (
    build_lookahead_pointers,
    refresh_lookahead_for_leaf,
    repair_lookahead_pointers,
)
from repro.zindex.splitters import (
    MedianSplitStrategy,
    SplitStrategy,
    partition_by_quadrant,
)

DEFAULT_LEAF_CAPACITY = 64
DEFAULT_MAX_DEPTH = 32


@dataclass
class ZIndexSnapshotState:
    """Everything needed to rebuild a :class:`ZIndex` without re-running construction.

    Produced by :meth:`ZIndex.snapshot_state` and consumed by
    :meth:`ZIndex.from_snapshot_state`; the persistence layer
    (:mod:`repro.persistence.snapshot`) maps the scalar fields onto the
    container manifest and the ``arrays`` dict onto binary NPY members.

    ``arrays`` holds the flat coordinate columns in curve order (``flat_x``,
    ``flat_y``), the per-leaf row offsets (``leaf_starts``), the packed
    ``(n_leaves, 4)`` effective-bbox table with its non-empty mask
    (``leaf_boxes``/``leaf_nonempty``), the four look-ahead skip-pointer
    columns (``skip_below``/``skip_above``/``skip_left``/``skip_right``) and
    the tree-structure tables of :func:`repro.zindex.node.pack_tree`.
    """

    index_name: str
    class_path: str
    leaf_capacity: int
    max_depth: int
    use_skipping: bool
    has_nonmonotone_ordering: bool
    extent: Optional[Tuple[float, float, float, float]]
    num_points: int
    orderings: List[str]
    arrays: Dict[str, np.ndarray]


class ZIndex(SpatialIndex):
    """A Z-index with pluggable split strategy and optional skipping.

    Parameters
    ----------
    points:
        The dataset to index.  The index is clustered: points are stored in
        pages following the curve order induced by the tree.
    leaf_capacity:
        Maximum number of points per leaf page (``L`` in the paper; the
        authors use 256 on multi-million-point data, the default here is 64
        to keep laptop-scale trees comparably deep).
    split_strategy:
        How each node's split point and child ordering are chosen.  Defaults
        to the base Z-index's median strategy.
    use_skipping:
        Whether to build and use the look-ahead pointers of Section 5 during
        range-query processing.
    max_depth:
        Safety bound on tree depth; a cell that still exceeds the leaf
        capacity at this depth becomes an oversized leaf (this only happens
        with heavily duplicated coordinates).
    """

    name = "ZIndex"

    def __init__(
        self,
        points: Sequence[Point],
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        split_strategy: Optional[SplitStrategy] = None,
        use_skipping: bool = False,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        super().__init__()
        if leaf_capacity <= 0:
            raise ValueError(f"leaf_capacity must be positive, got {leaf_capacity}")
        self.leaf_capacity = leaf_capacity
        self.max_depth = max_depth
        self.use_skipping = use_skipping
        self.split_strategy = split_strategy or MedianSplitStrategy()
        self.phase_timer: Optional[PhaseTimer] = None
        xs, ys = points_to_arrays(list(points))
        self._extent = (
            Rect(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
            if xs.size else None
        )
        self.leaflist = LeafList()
        self.root: Optional[ZNode] = None
        # Flat columnar scan cache: every page's coordinate columns
        # concatenated in curve order, plus per-leaf offsets and the boxed
        # Point for each row (so query results hand back existing objects
        # instead of re-boxing coordinates).  Rebuilt lazily after any
        # structural or page mutation.  ``_store`` is the column store
        # backing it, when one is installed (a gather on a live index, or
        # the store a snapshot load handed us — possibly mmap-backed).
        # ``_flat_generation`` is a monotone counter identifying the current
        # flat-column generation: result-set boxers compare it (instead of
        # holding the arrays) to decide whether the shared object cache
        # still matches their rows, and the plan cache keys entries on it.
        self._store = None
        self._flat_generation = 0
        self._flat_x: Optional[np.ndarray] = None
        self._flat_y: Optional[np.ndarray] = None
        self._flat_starts: Optional[np.ndarray] = None
        self._flat_points: Optional[np.ndarray] = None
        self._flat_starts_list: Optional[List[int]] = None
        self._mask_a: Optional[np.ndarray] = None
        self._mask_b: Optional[np.ndarray] = None
        self._has_nonmonotone_ordering = False
        self._build(xs, ys)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Build the tree and leaf list over the coordinate columns, in ``self._extent``."""
        self._invalidate_flat()
        self._has_nonmonotone_ordering = False
        if xs.size == 0:
            self.root = None
            self.leaflist = LeafList()
            return
        self.root = self._build_node(self._extent, np.column_stack((xs, ys)), depth=0)
        self._rebuild_leaflist()

    def _rebuild_with(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Rebuild over the current points plus the rows, the extent grown to cover them.

        The path for rows outside the root cell: inserting them into a leaf
        whose cell does not contain them would leave them where no query
        descent could ever find them again.
        """
        grown = Rect(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
        self._extent = grown if self._extent is None else self._extent.union(grown)
        if self.root is not None:
            flat_x, flat_y, _ = self._flat_columns()
            xs = np.concatenate((flat_x, xs))
            ys = np.concatenate((flat_y, ys))
        self._build(xs, ys)

    def _build_node(self, cell: Rect, array: np.ndarray, depth: int) -> ZNode:
        n = array.shape[0]
        if n <= self.leaf_capacity or depth >= self.max_depth or self._all_identical(array):
            return self._make_leaf(cell, array)
        decision = self.split_strategy.choose(cell, array, depth)
        if decision.ordering not in ORDERINGS:
            # A non-monotone ordering (e.g. ORDER_BADC) voids the guarantee
            # that the BL/TR corner leaves bound the scan interval; the
            # projection then descends all four corners.
            self._has_nonmonotone_ordering = True
        split_x = min(max(decision.split_x, cell.xmin), cell.xmax)
        split_y = min(max(decision.split_y, cell.ymin), cell.ymax)
        node = InternalNode(cell, split_x, split_y, decision.ordering)
        child_cells = node.child_cells()
        quadrant_arrays = partition_by_quadrant(array, split_x, split_y)
        # A split that fails to separate the points (all land in one quadrant
        # whose cell equals the parent) would recurse forever; fall back to a
        # leaf in that degenerate case.
        largest = max(quad.shape[0] for quad in quadrant_arrays)
        if largest == n and any(
            quadrant_arrays[q].shape[0] == n and child_cells[q] == cell for q in range(4)
        ):
            return self._make_leaf(cell, array)
        for quadrant in range(4):
            node.children[quadrant] = self._build_node(
                child_cells[quadrant], quadrant_arrays[quadrant], depth + 1
            )
        return node

    @staticmethod
    def _all_identical(array: np.ndarray) -> bool:
        if array.shape[0] <= 1:
            return True
        return bool((array == array[0]).all())

    def _make_leaf(self, cell: Rect, array: np.ndarray) -> LeafNode:
        leaf = LeafNode(cell)
        page = Page.from_arrays(self.leaf_capacity, array[:, 0], array[:, 1])
        # The page is attached later when the leaf list is rebuilt; stash it
        # on the node temporarily.
        leaf._pending_page = page  # type: ignore[attr-defined]
        return leaf

    def _rebuild_leaflist(self) -> None:
        """Recreate the LeafList (and skip pointers) from the current tree."""
        self.leaflist = LeafList.from_entries(self._leaf_entries(self.root))
        if self.use_skipping:
            build_lookahead_pointers(self.leaflist)
        self._invalidate_flat()

    @staticmethod
    def _leaf_entries(node: Optional[ZNode]) -> List[LeafEntry]:
        """One fresh entry per leaf under ``node``, in curve order.

        A leaf built since the last list takes its pending page; any other
        leaf keeps the page of its existing entry.
        """
        entries: List[LeafEntry] = []
        for leaf in iter_leaves_in_curve_order(node):
            page = getattr(leaf, "_pending_page", None)
            if page is None:
                page = leaf._entry.page  # type: ignore[attr-defined]
            else:
                del leaf._pending_page  # type: ignore[attr-defined]
            entry = LeafEntry(cell=leaf.cell, page=page, node=leaf)
            leaf._entry = entry  # type: ignore[attr-defined]
            entries.append(entry)
        return entries

    # ------------------------------------------------------------------
    # flat scan cache
    # ------------------------------------------------------------------
    def _invalidate_flat(self) -> None:
        self._flat_generation += 1
        store = self._store
        if store is not None:
            # The columns no longer reflect the index: advance the store's
            # generation for any out-of-index consumers and drop our
            # reference.  Pages that were re-pointed at store slices keep
            # the arrays alive and copy-on-write before mutating them.
            store.bump()
            self._store = None
        self._flat_x = None
        self._flat_y = None
        self._flat_starts = None
        self._flat_starts_list = None
        self._flat_points = None
        self._mask_a = None
        self._mask_b = None

    def _flat_columns(self):
        """``(flat_x, flat_y, starts)`` — concatenated page columns in curve order.

        Returns the live scan cache when it is current; otherwise gathers
        the columns into a fresh :class:`MemoryColumnStore` and installs
        views of it (the boxed-point side of the cache stays lazy, so
        saving a snapshot of a recently mutated index pays the O(n) column
        gather at most once — a following query reuses it instead of
        regathering).  The pages are re-pointed at their slices of the
        gathered columns, so the gather *moves* the coordinates into the
        store rather than duplicating them; a later page mutation promotes
        that page back to private buffers (copy-on-write).
        """
        if self._flat_starts is not None:
            return self._flat_x, self._flat_y, self._flat_starts
        store = MemoryColumnStore.gather(self.leaflist)
        flat_x = store["flat_x"]
        flat_y = store["flat_y"]
        starts = store["leaf_starts"]
        starts_list = starts.tolist()
        for index, entry in enumerate(self.leaflist.entries):
            lo, hi = starts_list[index], starts_list[index + 1]
            entry.page.adopt_view(flat_x[lo:hi], flat_y[lo:hi])
        self._store = store
        self._flat_x = flat_x
        self._flat_y = flat_y
        self._flat_starts = starts
        self._flat_starts_list = starts_list
        return flat_x, flat_y, starts

    def _ensure_flat(self) -> None:
        """(Re)build the concatenated coordinate columns when stale.

        Installs only the *array* side of the scan cache — the coordinate
        columns plus the reusable mask buffers the filter chain writes into
        instead of allocating four fresh boolean temporaries per query.
        Boxed ``Point`` objects are NOT materialised here: count-only and
        array-consuming workloads run entirely on the columns, and the
        boxed cache (:meth:`_ensure_boxed`) is built lazily the first time
        a caller actually asks a :class:`ResultSet` for point objects.
        """
        if self._mask_a is not None and self._flat_starts is not None:
            return
        self._flat_columns()  # installs the columns when they are stale
        total = int(self._flat_starts[-1])
        self._mask_a = np.empty(total, dtype=bool)
        self._mask_b = np.empty(total, dtype=bool)

    def _ensure_boxed(self) -> np.ndarray:
        """The boxed ``Point`` column, built on first demand.

        Boxed points live in an object ndarray so query results can be
        materialised with one C-level fancy gather instead of a Python
        indexing loop.  Only result sets whose ``.points()`` / iteration
        surface is used ever trigger this; the columnar query paths
        themselves never do.
        """
        if self._flat_points is None:
            self._ensure_flat()
            total = int(self._flat_starts[-1])
            boxed = np.empty(total, dtype=object)
            boxed[:] = [
                Point(x, y)
                for x, y in zip(self._flat_x.tolist(), self._flat_y.tolist())
            ]
            self._flat_points = boxed
        return self._flat_points

    def _result_from_selection(self, sel: np.ndarray) -> ResultSet:
        """A lazy :class:`ResultSet` over the flat rows selected by ``sel``.

        The coordinate columns are gathered eagerly (two vectorized float
        gathers); boxing is deferred to a callback that hands back the
        cached ``Point`` objects while the flat cache that produced the
        selection is still live, and re-boxes from the captured coordinate
        copies otherwise (the index may have been mutated since — the old
        column arrays are replaced, never written in place, so the captured
        values stay correct for the query that produced them).  The
        callback holds only a weak index reference and a generation
        number, so retained result sets pin neither the index nor a
        superseded flat-column generation.
        """
        if sel.size == 0:
            return ResultSet.empty()
        xs = self._flat_x[sel]
        ys = self._flat_y[sel]
        index_ref = weakref.ref(self)
        generation = self._flat_generation

        def boxer() -> List[Point]:
            index = index_ref()
            if (
                index is not None
                and index._flat_generation == generation
                and index._flat_starts is not None
            ):
                return index._ensure_boxed()[sel].tolist()
            return points_from_arrays(xs, ys)

        return ResultSet.from_arrays(xs, ys, boxer=boxer)

    # ------------------------------------------------------------------
    # point queries (Algorithm 1)
    # ------------------------------------------------------------------
    def _leaf_for(self, x: float, y: float) -> Optional[LeafNode]:
        node = self.root
        if node is None:
            return None
        while not node.is_leaf:
            self.counters.nodes_visited += 1
            node = node.children[node.quadrant_of(x, y)]
        return node  # type: ignore[return-value]

    def point_query(self, point: Point) -> bool:
        leaf = self._leaf_for(point.x, point.y)
        if leaf is None:
            return False
        entry = self.leaflist[leaf.leaf_index]
        self.counters.pages_scanned += 1
        self.counters.points_filtered += len(entry.page)
        found = entry.page.contains_exact(point)
        if found:
            self.counters.points_returned += 1
        return found

    # ------------------------------------------------------------------
    # range queries (Algorithm 2 + Section 5 skipping)
    # ------------------------------------------------------------------
    def range_query(self, query: Rect) -> ResultSet:
        if self.root is None:
            return ResultSet.empty()
        timer = self.phase_timer
        if timer is not None:
            with timer.phase("projection"):
                low, high, relevant = self._project(query)
            with timer.phase("scan"):
                return self._scan_pages(relevant, query)
        return self._scan_pages(self._project(query)[2], query)

    def _range_query_points(self, query: Rect) -> List[Point]:
        # The protocol's boxed hook; the columnar override above is the
        # real entry point, so this only serves direct protocol callers.
        return self.range_query(query).points()

    def batch_range_query(self, queries: Sequence[Rect]) -> List[ResultSet]:
        """Answer a workload of range queries through the columnar engine.

        Equivalent to ``[self.range_query(q) for q in queries]`` (identical
        result sets and cost counters) but primes the packed leaf arrays
        and the flat scan cache once up front and bypasses the per-query
        phase-timer plumbing, which benchmark workloads otherwise pay per
        call.
        """
        if self.root is None:
            return [ResultSet.empty() for _ in queries]
        self._prime_query_caches()
        results: List[Optional[ResultSet]] = [None] * len(queries)
        slots, los, his, bounds = self._batch_spans(queries)
        if slots:
            sel, offsets = get_kernels().batch_range_select(
                self._flat_x, self._flat_y, los, his, bounds, self._mask_a, self._mask_b,
            )
            counters = self.counters
            offsets_list = offsets.tolist()
            for position, slot in enumerate(slots):
                part = sel[offsets_list[position]:offsets_list[position + 1]]
                counters.points_returned += int(part.size)
                results[slot] = self._result_from_selection(part)
        return [ResultSet.empty() if result is None else result for result in results]

    def _batch_spans(
        self, queries: Sequence[Rect]
    ) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
        """Project each query and charge its page scan (:meth:`_scan_span`).

        Returns the slots of the queries that touch at least one page, and
        for those, the batch kernels' inputs: the flat-column spans
        (``los``/``his``) and the windows (``bounds``, one row per slot).
        """
        project = self._project
        slots: List[int] = []
        los: List[int] = []
        his: List[int] = []
        bounds: List[Tuple[float, float, float, float]] = []
        for slot, query in enumerate(queries):
            relevant = project(query)[2]
            if not relevant:
                continue
            lo, hi = self._scan_span(relevant)
            slots.append(slot)
            los.append(lo)
            his.append(hi)
            bounds.append((query.xmin, query.ymin, query.xmax, query.ymax))
        return (
            slots,
            np.asarray(los, dtype=np.int64),
            np.asarray(his, dtype=np.int64),
            np.asarray(bounds, dtype=np.float64),
        )

    def range_count(self, query: Rect) -> int:
        """Count-only range query evaluated purely on the flat columns.

        Identical count and cost counters to ``range_query(query).count()``
        but skips even the result-row selection and the :class:`ResultSet`
        construction: the window mask is reduced with one vectorized
        ``count_nonzero``.  Not a single ``Point`` is boxed.
        """
        if self.root is None:
            return 0
        self._prime_query_caches()
        return self._count_pages(self._project(query)[2], query)

    def batch_range_count(self, queries: Sequence[Rect]) -> List[int]:
        """Count-only range workload on the columnar engine (no boxing)."""
        if self.root is None:
            return [0 for _ in queries]
        self._prime_query_caches()
        counts = [0] * len(queries)
        slots, los, his, bounds = self._batch_spans(queries)
        if not slots:
            return counts
        matched = get_kernels().batch_range_count(
            self._flat_x, self._flat_y, los, his, bounds, self._mask_a, self._mask_b,
        )
        counters = self.counters
        for slot, count in zip(slots, matched.tolist()):
            counters.points_returned += count
            counts[slot] = count
        return counts

    def _count_pages(self, indices: Sequence[int], query: Rect) -> int:
        """Counting twin of :meth:`_scan_pages` (same counter accounting)."""
        counters = self.counters
        if not indices:
            return 0
        lo, hi = self._scan_span(indices)
        matched = get_kernels().range_count(
            self._flat_x, self._flat_y, lo, hi,
            query.xmin, query.ymin, query.xmax, query.ymax,
            self._mask_a, self._mask_b,
        )
        counters.points_returned += matched
        return matched

    # ------------------------------------------------------------------
    # kNN queries (Section 6.3 remark: decomposed into range queries)
    # ------------------------------------------------------------------
    def knn(self, center: Point, k: int, initial_radius: Optional[float] = None) -> ResultSet:
        """k nearest neighbours through the vectorized columnar kernel.

        Same expanding-window decomposition as the
        :meth:`~repro.interfaces.SpatialIndex.knn` default — and identical
        results, result ordering and cost counters — but each window is
        answered with NumPy distance arithmetic over the flat coordinate
        columns: candidate points are never boxed, squared distances are
        computed in one array expression, and the neighbour ordering is a
        stable ``argsort`` instead of a Python sort of ``Point`` objects.
        """
        require_finite_center(center)
        if k <= 0 or self.root is None or len(self) == 0:
            return ResultSet.empty()
        self._prime_query_caches()
        radius = initial_radius if initial_radius and initial_radius > 0 else self._default_radius()
        return self._knn_columnar(center, min(k, len(self)), radius)

    def batch_knn(
        self, centers: Sequence[Point], k: int, initial_radius: Optional[float] = None
    ) -> List[ResultSet]:
        """Answer a workload of kNN queries through the columnar kernel.

        Equivalent to ``[self.knn(c, k, initial_radius) for c in centers]``
        (identical neighbour sets and cost counters) but primes the packed
        leaf arrays and the flat scan cache once up front and resolves the
        default search radius once for the whole batch.
        """
        for center in centers:
            require_finite_center(center)
        if k <= 0 or self.root is None or len(self) == 0:
            return [ResultSet.empty() for _ in centers]
        self._prime_query_caches()
        radius = initial_radius if initial_radius and initial_radius > 0 else self._default_radius()
        kernel = self._knn_columnar
        capped = min(k, len(self))
        return [kernel(center, capped, radius) for center in centers]

    def batch_radius_query(
        self, centers: Sequence[Point], radius: float
    ) -> List[ResultSet]:
        """Euclidean within-radius queries evaluated on the flat columns.

        Same results, ordering and cost counters as the filter-and-refine
        default (window query + exact distance filter), but the distance
        refinement happens on the flat coordinate columns *before* any
        candidate point is boxed: each returned :class:`ResultSet` selects
        exactly the rows that survive both predicates, and boxing stays
        deferred until a caller asks for point objects.
        """
        require_valid_radius(radius)
        for center in centers:
            require_finite_center(center)
        if self.root is None:
            return [ResultSet.empty() for _ in centers]
        self._prime_query_caches()
        counters = self.counters
        kernels = get_kernels()
        radius_squared = radius * radius
        results: List[ResultSet] = []
        for center in centers:
            cx = float(center.x)
            cy = float(center.y)
            window = Rect(cx - radius, cy - radius, cx + radius, cy + radius)
            relevant = self._project(window)[2]
            if not relevant:
                results.append(ResultSet.empty())
                continue
            lo, hi = self._scan_span(relevant)
            window_matches, sel = kernels.radius_select(
                self._flat_x, self._flat_y, lo, hi,
                window.xmin, window.ymin, window.xmax, window.ymax,
                cx, cy, radius_squared, self._mask_a, self._mask_b,
            )
            counters.points_returned += window_matches
            if not window_matches:
                results.append(ResultSet.empty())
                continue
            results.append(self._result_from_selection(sel))
        return results

    def _prime_query_caches(self) -> None:
        """Build the packed-leaf and flat-scan caches ahead of a query burst."""
        if not self.use_skipping:
            self.leaflist.packed()
        self._ensure_flat()

    def _knn_columnar(self, center: Point, k: int, radius: float) -> ResultSet:
        """Expanding-window kNN over the flat columns (``k`` pre-capped).

        Mirrors the scalar decomposition iteration for iteration, including
        the per-window counter accounting of :meth:`_scan_pages`, so the
        kernel is byte-compatible with ``SpatialIndex.knn`` on both results
        and Figure 13 metrics.  Returns a lazy :class:`ResultSet` over the
        chosen rows in neighbour order: the kernel itself never boxes a
        candidate *or* a result point.
        """
        cx = float(center.x)
        cy = float(center.y)
        counters = self.counters
        kernels = get_kernels()
        while True:
            window = Rect(cx - radius, cy - radius, cx + radius, cy + radius)
            covers = self._window_covers_everything(window)
            relevant = self._project(window)[2]
            if relevant:
                lo, hi = self._scan_span(relevant)
                sel, d2 = kernels.knn_candidates(
                    self._flat_x, self._flat_y, lo, hi,
                    window.xmin, window.ymin, window.xmax, window.ymax,
                    cx, cy, self._mask_a, self._mask_b,
                )
                num_candidates = int(sel.size)
                counters.points_returned += num_candidates
                if num_candidates >= k or covers:
                    # Stable sort ⇒ ties keep candidate (curve) order, the
                    # exact tie-break of the scalar ``list.sort``.  The
                    # scalar path returns the distance-sorted candidate
                    # prefix in both of its branches (``within`` is itself a
                    # sorted prefix), so one argsort covers both.
                    order = np.argsort(d2, kind="stable")
                    within = int(np.searchsorted(d2[order], radius * radius, side="right"))
                    if within >= k or covers:
                        return self._result_from_selection(sel[order[:k]])
            elif covers:
                return ResultSet.empty()
            radius *= 2.0

    def _project(self, query: Rect):
        """Projection phase: find the leaf interval and the overlapping leaves.

        Returns ``(low, high, relevant_indices)`` where ``relevant_indices``
        are the LeafList positions whose data bounding box overlaps the
        query.  Separating the projection from the page scan mirrors the
        split reported in Figure 9 of the paper.

        The scan interval is derived by descending the corners of the query
        rectangle and taking the min/max of the reached leaves.  Under the
        paper's two monotone orderings ("abcd"/"acbd") the bottom-left and
        top-right corners alone provably bound the interval (every other
        corner dominates BL and is dominated by TR), but custom split
        strategies may emit non-monotone orderings (e.g. ``ORDER_BADC``)
        under which the other two corners can land outside that two-corner
        interval — silently dropping results.  Trees containing such an
        ordering therefore descend *all four* corners.
        """
        if self._has_nonmonotone_ordering:
            corners = (
                (query.xmin, query.ymin),
                (query.xmax, query.ymax),
                (query.xmax, query.ymin),
                (query.xmin, query.ymax),
            )
        else:
            corners = (
                (query.xmin, query.ymin),
                (query.xmax, query.ymax),
            )
        low = high = None
        root = self.root
        if root is not None:
            nodes_visited = 0
            for cx, cy in corners:
                node = root
                while type(node) is InternalNode:
                    nodes_visited += 1
                    quadrant = 1 if cx > node.split_x else 0
                    if cy > node.split_y:
                        quadrant += 2
                    node = node.children[quadrant]
                index = node.leaf_index
                if low is None or index < low:
                    low = index
                if high is None or index > high:
                    high = index
            self.counters.nodes_visited += nodes_visited
        if low is None:
            low, high = 0, len(self.leaflist) - 1
        # Clamp to the live (non-empty) leaf interval: leaves outside it
        # cannot contribute, and for a Z-range shard they are the vast
        # majority of the list.
        span = self.leaflist.packed().live_span()
        if span is None:
            return low, high, []
        if low < span[0]:
            low = span[0]
        if high > span[1]:
            high = span[1]
        if low > high:
            return low, high, []
        counters = self.counters
        if not self.use_skipping:
            # Vectorized overlap test over the packed bbox array: a leaf is
            # relevant when it stores points and its data bounding box is not
            # strictly below / above / left of / right of the query.
            packed = self.leaflist.packed()
            window = slice(low, high + 1)
            boxes = packed.boxes[window]
            overlap_m = (
                packed.nonempty[window]
                & (boxes[:, 3] >= query.ymin)
                & (boxes[:, 1] <= query.ymax)
                & (boxes[:, 2] >= query.xmin)
                & (boxes[:, 0] <= query.xmax)
            )
            counters.bbs_checked += max(0, high - low + 1)
            return low, high, (low + np.flatnonzero(overlap_m)).tolist()
        # With look-ahead pointers the walk touches only a small fraction of
        # the interval, so a scalar walk beats materialising criteria arrays
        # for the whole window.  It reads the packed metadata as plain
        # Python lists (cheapest scalar access).
        (
            boxes_l, nonempty_l, below_l, above_l, left_l, right_l
        ) = self.leaflist.packed().lists()
        relevant: List[int] = []
        qxmin = query.xmin
        qymin = query.ymin
        qxmax = query.xmax
        qymax = query.ymax
        visited = 0
        skipped = 0
        index = low
        while index <= high:
            visited += 1
            bxmin, bymin, bxmax, bymax = boxes_l[index]
            if (
                nonempty_l[index]
                and bxmin <= qxmax and bxmax >= qxmin
                and bymin <= qymax and bymax >= qymin
            ):
                relevant.append(index)
                index += 1
                continue
            # Among the criteria that disqualify this leaf (an empty leaf's
            # box is its cell), follow the look-ahead pointer that jumps
            # farthest (END_OF_LIST terminates the scan outright).
            target = index + 1
            disqualified = False
            ends = False
            if bymax < qymin:                    # Below
                pointer = below_l[index]
                disqualified = True
                ends = ends or pointer == END_OF_LIST
                if pointer > target:
                    target = pointer
            if bymin > qymax:                    # Above
                pointer = above_l[index]
                disqualified = True
                ends = ends or pointer == END_OF_LIST
                if pointer > target:
                    target = pointer
            if bxmax < qxmin:                    # Left
                pointer = left_l[index]
                disqualified = True
                ends = ends or pointer == END_OF_LIST
                if pointer > target:
                    target = pointer
            if bxmin > qxmax:                    # Right
                pointer = right_l[index]
                disqualified = True
                ends = ends or pointer == END_OF_LIST
                if pointer > target:
                    target = pointer
            if not disqualified:
                # Empty leaf whose cell overlaps the query: nothing to scan,
                # nothing to skip from.
                index += 1
                continue
            if ends:
                skipped += max(0, high - index)
                break
            skipped += target - index - 1
            index = target
        counters.bbs_checked += visited
        counters.leaves_skipped += skipped
        return low, high, relevant

    def _scan_pages(self, indices: Sequence[int], query: Rect) -> ResultSet:
        """Scanning phase: filter the points of every relevant page.

        One vectorized gather-and-mask over the flat coordinate columns
        replaces the per-page, per-point filtering loop.  The result is a
        lazy :class:`ResultSet` over the matching coordinate rows — no
        ``Point`` is boxed unless the caller asks for objects.
        """
        counters = self.counters
        if not indices:
            return ResultSet.empty()
        self._ensure_flat()
        lo, hi = self._scan_span(indices)
        # A point matching the query necessarily lives in a leaf whose data
        # bounding box overlaps the query, i.e. in one of the relevant
        # leaves, so masking the whole contiguous span [first, last] returns
        # exactly the points of the relevant pages that fall in the query —
        # without a per-leaf gather.  (``_scan_span`` still charges only the
        # relevant pages to points_filtered, preserving the Figure 13 metric.)
        sel = get_kernels().range_select(
            self._flat_x, self._flat_y, lo, hi,
            query.xmin, query.ymin, query.xmax, query.ymax,
            self._mask_a, self._mask_b,
        )
        counters.points_returned += int(sel.size)
        return self._result_from_selection(sel)

    def _scan_span(self, indices: Sequence[int]) -> Tuple[int, int]:
        """Charge the scan of the given leaves' pages and return the flat
        rows ``[lo, hi)`` they span.

        The span is contiguous from the first to the last leaf;
        ``points_filtered`` counts only the rows of the listed leaves
        themselves (the Figure 13 metric).
        """
        starts_l = self._flat_starts_list
        first = indices[0]
        last = indices[-1]
        num_pages = len(indices)
        lo = starts_l[first]
        hi = starts_l[last + 1]
        if last - first + 1 == num_pages:
            total = hi - lo
        elif num_pages <= 64:
            total = sum(starts_l[i + 1] - starts_l[i] for i in indices)
        else:
            starts = self._flat_starts
            idx = np.asarray(indices, dtype=np.int64)
            total = int((starts[idx + 1] - starts[idx]).sum())
        counters = self.counters
        counters.pages_scanned += num_pages
        counters.points_filtered += total
        return lo, hi

    # ------------------------------------------------------------------
    # updates (Section 6.7)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Insert a point, splitting the enclosing leaf when its page overflows.

        A point outside the root cell triggers a rebuild over the expanded
        extent (:meth:`_rebuild_with`).
        """
        x = float(point.x)
        y = float(point.y)
        if self.root is None or not self.root.cell.contains_xy(x, y):
            self._rebuild_with(np.array([x]), np.array([y]))
            return
        self._insert_in_cell(x, y)

    def insert_many(self, xs, ys) -> None:
        """Insert the rows of two coordinate columns.

        When every row lies inside the root cell, each takes :meth:`insert`'s
        in-place path in order, so the layout is that of inserting them one
        at a time.  Otherwise one rebuild absorbs them all and grows the
        extent once, instead of once per outside row.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.size == 0:
            return
        if self.root is None or not self.root.cell.contains_arrays(xs, ys).all():
            self._rebuild_with(xs, ys)
            return
        for x, y in zip(xs.tolist(), ys.tolist()):
            self._insert_in_cell(x, y)

    def _insert_in_cell(self, x: float, y: float) -> None:
        """Insert one row that lies inside the root cell.

        The extent needs no update: it equals the root cell, which only a
        rebuild replaces.
        """
        leaf, parent, quadrant = self._descend_with_parent(x, y)
        entry = self.leaflist[leaf.leaf_index]
        if not entry.page.is_full:
            bbox_before = entry.page.bbox_tuple()
            entry.page.add_xy(x, y)
            self.leaflist.refresh_entry(leaf.leaf_index)
            if self.use_skipping and entry.page.bbox_tuple() != bbox_before:
                refresh_lookahead_for_leaf(self.leaflist, leaf.leaf_index)
            self._invalidate_flat()
            return
        page = entry.page
        array = np.column_stack((np.append(page.xs, x), np.append(page.ys, y)))
        self._splice_subtree(leaf.cell, array, parent, quadrant, leaf.leaf_index, leaf.leaf_index)

    def _descend_with_parent(self, x: float, y: float):
        node = self.root
        parent: Optional[InternalNode] = None
        quadrant = -1
        while node is not None and not node.is_leaf:
            parent = node
            quadrant = node.quadrant_of(x, y)
            node = node.children[quadrant]
        return node, parent, quadrant

    def _splice_subtree(
        self,
        cell: Rect,
        array: np.ndarray,
        parent: Optional[InternalNode],
        quadrant: int,
        low: int,
        high: int,
    ) -> int:
        """Build a subtree over ``array`` in ``cell`` and splice it in for leaves ``[low, high]``.

        The shared step of a leaf split and a subtree re-derive.  Only the
        replaced run of the LeafList is rebuilt: the suffix is renumbered
        in place and the look-ahead pointers are recomputed for the prefix
        and the new leaves only (the suffix pointers survive the splice
        under an index shift).  ``parent`` is the replaced node's parent
        (``None`` for the root) and ``quadrant`` its child slot there.

        Returns the number of leaves spliced in.
        """
        replacement = self._build_node(cell, array, depth=0)
        if parent is None:
            self.root = replacement
        else:
            parent.children[quadrant] = replacement
        entries = self._leaf_entries(replacement)
        self.leaflist.splice_span(low, high, entries)
        if self.use_skipping:
            repair_lookahead_pointers(self.leaflist, low, len(entries))
        self._invalidate_flat()
        return len(entries)

    def rederive_subtree(
        self,
        node: ZNode,
        parent: Optional[InternalNode],
        quadrant: int,
        *,
        split_strategy: Optional[SplitStrategy] = None,
        leaf_capacity: Optional[int] = None,
    ) -> int:
        """Rebuild one subtree under a (possibly different) split policy and splice it in.

        The incremental-adapt primitive: instead of rebuilding the whole
        layout when the workload drifts, only the subtree whose observed
        scan cost regressed is re-derived — its points are gathered from
        the contiguous run of curve-ordered leaves it owns, rebuilt with
        ``split_strategy``/``leaf_capacity`` scoped to this call, and the
        new leaves replace the old run (:meth:`_splice_subtree`).
        ``parent`` is the subtree's parent node (``None`` when ``node`` is
        the root) and ``quadrant`` its child slot in ``parent``.

        Returns the number of leaves in the re-derived subtree.
        """
        leaves = list(iter_leaves_in_curve_order(node))
        if not leaves:
            return 0
        low = leaves[0].leaf_index
        high = leaves[-1].leaf_index
        if [leaf.leaf_index for leaf in leaves] != list(range(low, high + 1)):
            raise AssertionError("subtree leaves are not a contiguous curve-order span")
        pages = [self.leaflist[i].page for i in range(low, high + 1)]
        array = np.column_stack((
            np.concatenate([page.xs for page in pages]),
            np.concatenate([page.ys for page in pages]),
        ))
        saved_strategy = self.split_strategy
        saved_capacity = self.leaf_capacity
        try:
            if split_strategy is not None:
                self.split_strategy = split_strategy
            if leaf_capacity is not None:
                self.leaf_capacity = leaf_capacity
            return self._splice_subtree(node.cell, array, parent, quadrant, low, high)
        finally:
            self.split_strategy = saved_strategy
            self.leaf_capacity = saved_capacity

    def delete(self, point: Point) -> bool:
        """Delete one occurrence of ``point``; merges underfull sibling leaves.

        A removal can shrink the leaf's bounding box, which (symmetrically
        to the insert case) stales the look-ahead pointers: the leaf's own
        pointers were resolved against its old, larger bounds, so a later
        scan could jump past a leaf that still overlaps the query.  The
        pointers are therefore refreshed whenever the box changed.
        """
        leaf = self._leaf_for(point.x, point.y)
        if leaf is None:
            return False
        entry = self.leaflist[leaf.leaf_index]
        bbox_before = entry.page.bbox_tuple()
        removed = entry.page.remove(point)
        if removed:
            self.leaflist.refresh_entry(leaf.leaf_index)
            if self.use_skipping and entry.page.bbox_tuple() != bbox_before:
                refresh_lookahead_for_leaf(self.leaflist, leaf.leaf_index)
            self._invalidate_flat()
            self._maybe_merge()
        return removed

    def _maybe_merge(self) -> None:
        """Merge groups of four sibling leaves that jointly fit in one page."""
        merged = self._merge_recursive(self.root, None, -1)
        if merged:
            self._rebuild_leaflist()

    def _page_of_leaf(self, leaf: LeafNode) -> Page:
        """The page of a leaf node, whether or not it is in the LeafList yet.

        A leaf created during the current merge pass carries a pending page
        and has no valid ``leaf_index``; resolving through ``leaf_index``
        alone would silently read some other leaf's page and lose points
        when merges nest.
        """
        page = getattr(leaf, "_pending_page", None)
        if page is not None:
            return page
        return self.leaflist[leaf.leaf_index].page

    def _merge_recursive(
        self, node: Optional[ZNode], parent: Optional[InternalNode], quadrant: int
    ) -> bool:
        if node is None or node.is_leaf:
            return False
        changed = False
        for child_quadrant, child in enumerate(node.children):
            if self._merge_recursive(child, node, child_quadrant):
                changed = True
        if all(child is not None and child.is_leaf for child in node.children):
            total = sum(len(self._page_of_leaf(child)) for child in node.children)
            if total <= self.leaf_capacity:
                merged_leaf = LeafNode(node.cell)
                page = Page(max(self.leaf_capacity, total))
                for child in node.children_in_curve_order():
                    for stored in self._page_of_leaf(child):
                        page.add(stored)
                merged_leaf._pending_page = page  # type: ignore[attr-defined]
                if parent is None:
                    self.root = merged_leaf  # repro-lint: disable=mutation-must-invalidate -- sole caller _maybe_merge runs _rebuild_leaflist over every merge
                else:
                    parent.children[quadrant] = merged_leaf
                changed = True
        return changed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.leaflist.num_points

    def extent(self) -> Optional[Rect]:
        return self._extent

    def size_bytes(self) -> int:
        """Tree structure plus leaf list plus pages (the paper's Table 5 metric)."""
        return structure_size_bytes(self.root) + self.leaflist.size_bytes()

    def depth(self) -> int:
        """Height of the quaternary tree."""
        return tree_depth(self.root)

    def node_counts(self):
        """``(internal_nodes, leaf_nodes)`` of the tree."""
        return count_nodes(self.root)

    def leaf_sizes(self) -> List[int]:
        """Number of points per leaf, in curve order."""
        return [len(entry.page) for entry in self.leaflist]

    def all_points(self) -> List[Point]:
        """Every indexed point in curve (storage) order."""
        return self.leaflist.all_points()

    # ------------------------------------------------------------------
    # snapshot state (offline build / online serve)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> ZIndexSnapshotState:
        """Capture the built structure as flat arrays plus a few scalars.

        The capture is read-only: it reuses the flat scan cache when
        current, gathers the columns fresh otherwise, and never mutates the
        index.  Together with :meth:`from_snapshot_state` this gives an
        O(n) save/load cycle — no split strategy, density estimator or
        workload is ever re-evaluated.
        """
        tables, orderings = pack_tree(self.root)
        flat_x, flat_y, starts = self._flat_columns()
        packed = self.leaflist.packed()
        arrays: Dict[str, np.ndarray] = dict(tables)
        arrays["flat_x"] = flat_x
        arrays["flat_y"] = flat_y
        arrays["leaf_starts"] = starts
        arrays["leaf_boxes"] = packed.boxes
        arrays["leaf_nonempty"] = packed.nonempty
        arrays["skip_below"] = packed.below
        arrays["skip_above"] = packed.above
        arrays["skip_left"] = packed.left
        arrays["skip_right"] = packed.right
        extent = self._extent
        cls = type(self)
        return ZIndexSnapshotState(
            index_name=self.name,
            class_path=f"{cls.__module__}.{cls.__qualname__}",
            leaf_capacity=self.leaf_capacity,
            max_depth=self.max_depth,
            use_skipping=self.use_skipping,
            has_nonmonotone_ordering=self._has_nonmonotone_ordering,
            extent=None if extent is None else (
                extent.xmin, extent.ymin, extent.xmax, extent.ymax
            ),
            num_points=int(starts[-1]),
            orderings=list(orderings),
            arrays=arrays,
        )

    @classmethod
    def from_snapshot_state(
        cls,
        state: ZIndexSnapshotState,
        *,
        validate: bool = True,
        store=None,
    ) -> "ZIndex":
        """Rebuild a queryable index from :meth:`snapshot_state` output.

        The load is zero-copy: tree nodes are rematerialised from the
        packed tables, pages become *views* over their slice of the flat
        columns with the stored bounding boxes (no per-page copy, no
        min/max recomputation), and both derived caches — the packed leaf
        metadata and the flat scan cache — are installed as views of the
        stored arrays instead of being rebuilt from the structure.  Query
        results, result ordering and cost counters are identical to the
        index that was saved.  The first mutation of a page or packed row
        promotes it to a private buffer (copy-on-write), so the stored
        arrays — possibly read-only memmaps — are never written through.

        ``store`` optionally supplies the :class:`~repro.storage.buffers.
        ColumnStore` that owns the arrays (an mmap-backed store for
        zero-copy serving); when omitted, a :class:`MemoryColumnStore`
        adopting the snapshot columns is installed.  ``validate=False``
        skips the O(n) bounding-box cross-check (the one validation that
        touches every coordinate — and hence faults in every page of an
        mmap'd snapshot); structural invariants (offsets, shapes, pointer
        ranges, the nonempty mask) are always enforced.

        The restored object is a plain :class:`ZIndex` whose ``name``
        reports the saved index's name; construction-time artefacts (split
        strategy, density estimator, anticipated workload) are not part of
        the snapshot, so later :meth:`insert` overflows split with the
        median rule.  Raises :class:`ValueError` on inconsistent state.
        """
        arrays = state.arrays
        index = object.__new__(ZIndex)
        SpatialIndex.__init__(index)
        index.name = str(state.index_name)
        index.leaf_capacity = int(state.leaf_capacity)
        index.max_depth = int(state.max_depth)
        index.use_skipping = bool(state.use_skipping)
        index.split_strategy = MedianSplitStrategy()
        index.phase_timer = None
        index._has_nonmonotone_ordering = bool(state.has_nonmonotone_ordering)
        index._extent = None if state.extent is None else Rect(*state.extent)

        root, leaves = unpack_tree(arrays, list(state.orderings))
        index.root = root

        starts = np.ascontiguousarray(arrays["leaf_starts"], dtype=np.int64)
        flat_x = np.ascontiguousarray(arrays["flat_x"], dtype=np.float64)
        flat_y = np.ascontiguousarray(arrays["flat_y"], dtype=np.float64)
        n_leaves = int(starts.shape[0]) - 1
        if n_leaves < 0:
            raise ValueError("leaf_starts must hold at least the terminating offset")
        if len(leaves) != n_leaves:
            raise ValueError(
                f"tree stores {len(leaves)} leaves but leaf_starts describes {n_leaves}"
            )
        starts_list = starts.tolist()
        if starts_list[0] != 0:
            # A non-zero base would silently drop (or, negative, wrap) the
            # leading flat rows — the row count checks below cannot see it.
            raise ValueError(f"leaf_starts must begin at 0, got {starts_list[0]}")
        if any(starts_list[i] > starts_list[i + 1] for i in range(n_leaves)):
            raise ValueError("leaf_starts offsets must be non-decreasing")
        total = starts_list[-1] if starts_list else 0
        if total != flat_x.shape[0] or total != flat_y.shape[0]:
            raise ValueError(
                f"flat columns hold {flat_x.shape[0]}/{flat_y.shape[0]} rows, "
                f"leaf_starts describes {total}"
            )

        packed = PackedLeaves.from_arrays(
            arrays["leaf_boxes"], arrays["leaf_nonempty"],
            arrays["skip_below"], arrays["skip_above"],
            arrays["skip_left"], arrays["skip_right"],
            copy=False,
        )
        if packed.boxes.shape[0] != n_leaves:
            raise ValueError(
                f"packed leaf tables hold {packed.boxes.shape[0]} rows, expected {n_leaves}"
            )
        # The nonempty mask gates leaf relevance in the vectorized
        # projection; a mask inconsistent with the slice lengths would
        # silently hide (or resurrect) whole pages from every query.
        derived_nonempty = starts[1:] > starts[:-1]
        if not np.array_equal(packed.nonempty, derived_nonempty):
            position = int(np.flatnonzero(packed.nonempty != derived_nonempty)[0])
            raise ValueError(
                f"leaf_nonempty[{position}] contradicts the leaf_starts slice "
                f"({int(starts[position + 1] - starts[position])} stored rows)"
            )
        # The stored boxes must be the exact data bounding boxes of their
        # slices: the projection prunes leaves by these rows, so a shrunken
        # box would silently hide matching points from every query.  Empty
        # leaves store their cell instead and are skipped by the mask.
        # This is the one check that reads every coordinate, which is why
        # ``validate=False`` (trusted snapshots served over mmap) skips it.
        if validate and total and packed.nonempty.any():
            # Reduce over the nonempty leaves' start offsets only: empty
            # leaves occupy zero rows, so each nonempty leaf's reduceat
            # segment (to the next nonempty start, or the array end) is
            # exactly its own slice — and every index is < total, which
            # reduceat requires.
            bounds = starts[:-1][packed.nonempty]
            rows = np.flatnonzero(packed.nonempty)
            stored = packed.boxes[packed.nonempty]
            derived = np.empty_like(stored)
            derived[:, 0] = np.minimum.reduceat(flat_x, bounds)
            derived[:, 1] = np.minimum.reduceat(flat_y, bounds)
            derived[:, 2] = np.maximum.reduceat(flat_x, bounds)
            derived[:, 3] = np.maximum.reduceat(flat_y, bounds)
            mismatched = (stored != derived).any(axis=1)
            if mismatched.any():
                position = int(rows[np.flatnonzero(mismatched)[0]])
                raise ValueError(
                    f"leaf_boxes[{position}] does not match the bounding box of "
                    f"its stored points"
                )
        # Skip pointers must be END_OF_LIST or aim at a strictly later leaf;
        # anything else would make a scan silently jump past (or into)
        # relevant leaves and drop results without any error.
        positions = np.arange(n_leaves, dtype=np.int64)
        for criterion, column in (
            ("below", packed.below), ("above", packed.above),
            ("left", packed.left), ("right", packed.right),
        ):
            bad = (column != END_OF_LIST) & (
                (column <= positions) | (column >= n_leaves)
            )
            if bad.any():
                position = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"skip pointer {criterion!r} of leaf {position} targets "
                    f"{int(column[position])}, outside ({position}, {n_leaves})"
                )
        boxes_list = packed.boxes.tolist()
        nonempty_list = packed.nonempty.tolist()
        below_l = packed.below.tolist()
        above_l = packed.above.tolist()
        left_l = packed.left.tolist()
        right_l = packed.right.tolist()

        entries: List[Optional[LeafEntry]] = [None] * n_leaves
        for leaf in leaves:
            position = leaf.leaf_index
            if not 0 <= position < n_leaves or entries[position] is not None:
                raise ValueError(f"leaf node carries invalid LeafList position {position}")
            lo = starts_list[position]
            hi = starts_list[position + 1]
            bbox = boxes_list[position] if nonempty_list[position] else None
            page = Page.from_view(
                index.leaf_capacity, flat_x[lo:hi], flat_y[lo:hi], bbox=bbox
            )
            entry = LeafEntry(
                cell=leaf.cell,
                page=page,
                node=leaf,
                below=int(below_l[position]),
                above=int(above_l[position]),
                left=int(left_l[position]),
                right=int(right_l[position]),
            )
            leaf._entry = entry  # type: ignore[attr-defined]
            entries[position] = entry
        index.leaflist = LeafList.from_entries(entries)  # type: ignore[arg-type]
        index.leaflist._packed = packed

        # Install the coordinate columns as the live scan cache, owned by a
        # column store (the caller's — e.g. mmap-backed — or a fresh
        # in-memory store adopting the snapshot arrays); the boxed Point
        # objects of result materialisation stay lazy so the load itself is
        # pure array bookkeeping.
        if store is None:
            store = MemoryColumnStore.from_arrays({
                "flat_x": flat_x,
                "flat_y": flat_y,
                "leaf_starts": starts,
                "leaf_boxes": packed.boxes,
                "leaf_nonempty": packed.nonempty,
                "skip_below": packed.below,
                "skip_above": packed.above,
                "skip_left": packed.left,
                "skip_right": packed.right,
            })
        index._store = store
        index._flat_x = flat_x
        index._flat_y = flat_y
        index._flat_starts = starts
        index._flat_starts_list = starts_list
        index._flat_points = None
        index._mask_a = None
        index._mask_b = None
        index._flat_generation = 0
        if state.num_points not in (None, total):
            raise ValueError(
                f"snapshot manifest claims {state.num_points} points, arrays hold {total}"
            )
        return index


class BaseZIndex(ZIndex):
    """The paper's ``Base`` index: median splits, "abcd" order, no skipping."""

    name = "Base"

    def __init__(
        self,
        points: Sequence[Point],
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        super().__init__(
            points,
            leaf_capacity=leaf_capacity,
            split_strategy=MedianSplitStrategy(),
            use_skipping=False,
            max_depth=max_depth,
        )
