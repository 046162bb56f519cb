"""Look-ahead pointers: construction and use during range-query scans.

This module implements the skipping mechanism of Section 5 of the paper.

A leaf is irrelevant to a range query ``R`` for one of four reasons — it lies
entirely *below*, *above*, *left of* or *right of* ``R``.  For each reason,
every leaf stores a look-ahead pointer to the earliest later leaf that
"improves" the corresponding coordinate bound; any leaf between the two is
guaranteed to be irrelevant for the same reason, so the scan can jump
directly to the pointer's target (Figure 3 of the paper).

``build_lookahead_pointers`` is Algorithm 4: it walks the LeafList backwards
and, for each criterion, starts from the next pointer and follows already
computed pointers of that same criterion until the bound improves.
``choose_skip_target`` is the query-time rule: among the criteria that
disqualify the current leaf, follow the pointer that jumps farthest.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.geometry import Rect
from repro.storage.leaflist import (
    END_OF_LIST,
    LeafEntry,
    LeafList,
    SKIP_ABOVE,
    SKIP_BELOW,
    SKIP_CRITERIA,
    SKIP_LEFT,
    SKIP_RIGHT,
)


def leaf_box(entry: LeafEntry) -> Rect:
    """The rectangle a leaf is compared with: its data bounding box.

    Empty leaves (possible under WaZI's arbitrary split points) fall back to
    their cell so the skipping criteria remain well defined; an empty leaf
    never overlaps a query anyway.
    """
    return entry.bbox if entry.bbox is not None else entry.cell


def _criterion_value(entry: LeafEntry, criterion: str) -> float:
    """The coordinate bound a criterion compares (Section 5.2 "improvement").

    * ``below``: the leaf's top edge — a later leaf improves if it is higher;
    * ``above``: the leaf's bottom edge — improves if it is lower;
    * ``left``:  the leaf's right edge — improves if it is further right;
    * ``right``: the leaf's left edge — improves if it is further left.
    """
    box = leaf_box(entry)
    if criterion == SKIP_BELOW:
        return box.ymax
    if criterion == SKIP_ABOVE:
        return box.ymin
    if criterion == SKIP_LEFT:
        return box.xmax
    if criterion == SKIP_RIGHT:
        return box.xmin
    raise ValueError(f"Unknown skip criterion: {criterion!r}")


def _improves(criterion: str, candidate_value: float, reference_value: float) -> bool:
    """Whether a candidate leaf's bound improves on the reference leaf's bound."""
    if criterion in (SKIP_BELOW, SKIP_LEFT):
        return candidate_value > reference_value
    return candidate_value < reference_value


def _first_improver(entries, begin: int, criterion: str, reference: float) -> int:
    """First position at or after ``begin`` whose bound improves ``reference``.

    Walks the criterion's own pointer chain, so later pointers must already
    be final.  ``begin`` past the end of the list yields :data:`END_OF_LIST`.
    """
    target = begin if begin < len(entries) else END_OF_LIST
    while target != END_OF_LIST:
        candidate = entries[target]
        if _improves(criterion, _criterion_value(candidate, criterion), reference):
            break
        target = candidate.skip_pointer(criterion)
    return target


def build_lookahead_pointers(leaflist: LeafList) -> None:
    """Populate the four look-ahead pointers of every leaf (Algorithm 4).

    The construction iterates the LeafList backwards.  For the last leaf all
    pointers refer to the end-of-list sentinel.  For every earlier leaf the
    pointer starts at the next leaf and repeatedly follows the *same
    criterion's* pointer of the pointed-to leaf until the criterion's bound
    improves (or the end of the list is reached).
    """
    entries = leaflist.entries
    n = len(entries)
    for position in range(n - 1, -1, -1):
        entry = entries[position]
        reference_values = {
            criterion: _criterion_value(entry, criterion) for criterion in SKIP_CRITERIA
        }
        for criterion in SKIP_CRITERIA:
            target = position + 1 if position + 1 < n else END_OF_LIST
            reference = reference_values[criterion]
            while target != END_OF_LIST:
                candidate = entries[target]
                if _improves(criterion, _criterion_value(candidate, criterion), reference):
                    break
                target = candidate.skip_pointer(criterion)
            entry.set_skip_pointer(criterion, target)
    leaflist.invalidate_packed()


def repair_lookahead_pointers(leaflist: LeafList, start: int, num_new: int) -> None:
    """Repair look-ahead pointers after a splice replaced a run of leaves.

    :meth:`~repro.storage.LeafList.splice_span` substituted the run starting
    at ``start`` with ``num_new`` entries and already shifted the pointer
    *targets* of the unchanged suffix.  This repairs the rest incrementally:

    1. pointers of the ``num_new`` new entries are built with the backward
       pass of Algorithm 4 (their chains run into the already-final suffix);
    2. for every earlier leaf ``q``, a criterion pointer is left untouched
       when its old target lies *before* the replaced region — the leaves
       between ``q`` and the region did not change, so the first improving
       leaf did not either.  Only pointers that aimed at or past the region
       (where bounds did change) are resolved again, by chain-walking from
       ``start`` through the now-final later pointers.

    The common case therefore costs four integer comparisons per earlier
    leaf plus a few short chain walks, instead of the full Algorithm 4 pass
    (let alone the seed's rebuild of the entire LeafList per overflow).
    """
    entries = leaflist.entries
    n = len(entries)

    # Pass 1: the new entries themselves (backwards, chains hit final state).
    end = min(start + num_new - 1, n - 1)
    for position in range(end, start - 1, -1):
        entry = entries[position]
        for criterion in SKIP_CRITERIA:
            reference = _criterion_value(entry, criterion)
            entry.set_skip_pointer(
                criterion, _first_improver(entries, position + 1, criterion, reference)
            )

    # Pass 2: earlier leaves.  Old targets < start are still the first
    # improvers; everything else is re-resolved starting at the region.
    for position in range(start - 1, -1, -1):
        entry = entries[position]
        for criterion in SKIP_CRITERIA:
            old_target = entry.skip_pointer(criterion)
            if old_target != END_OF_LIST and old_target < start:
                continue
            reference = _criterion_value(entry, criterion)
            entry.set_skip_pointer(
                criterion, _first_improver(entries, start, criterion, reference)
            )
    leaflist.invalidate_packed()


def refresh_lookahead_for_leaf(leaflist: LeafList, position: int) -> None:
    """Restore pointer exactness after a leaf's effective box changed in place.

    A non-overflow insert expands the bounding box of one page without
    touching the list structure (and inserting into a previously *empty*
    leaf switches its effective box from the cell to the data bbox, which
    can move bounds in either direction).  That invalidates (a) the leaf's
    own look-ahead pointers (its reference bounds moved) and (b) pointers
    of *earlier* leaves aimed at or past this leaf.  Leaving those stale is
    not merely suboptimal: a later scan could skip this leaf even though
    its grown box overlaps the query, silently dropping results (a latent
    bug in the pre-columnar implementation, which only rebuilt pointers on
    leaf splits).

    Earlier leaves are repaired with a handful of comparisons each: a
    pointer targeting *before* ``position`` is still the first improver
    (nothing between changed); one targeting ``position`` stays only if the
    new bounds still improve, otherwise it is re-resolved past the leaf;
    and one aiming beyond moves back to ``position`` exactly when the new
    bounds now improve on that leaf's reference.
    """
    entries = leaflist.entries
    entry = entries[position]
    for criterion in SKIP_CRITERIA:
        reference = _criterion_value(entry, criterion)
        entry.set_skip_pointer(
            criterion, _first_improver(entries, position + 1, criterion, reference)
        )
    for criterion in SKIP_CRITERIA:
        new_value = _criterion_value(entry, criterion)
        for earlier in range(position - 1, -1, -1):
            earlier_entry = entries[earlier]
            target = earlier_entry.skip_pointer(criterion)
            if target != END_OF_LIST and target < position:
                continue
            reference = _criterion_value(earlier_entry, criterion)
            if _improves(criterion, new_value, reference):
                if target != position:
                    earlier_entry.set_skip_pointer(criterion, position)
            elif target == position:
                earlier_entry.set_skip_pointer(
                    criterion,
                    _first_improver(entries, position + 1, criterion, reference),
                )
    leaflist.invalidate_packed()


def disqualifying_criteria(entry: LeafEntry, query: Rect) -> Tuple[str, ...]:
    """The criteria under which ``entry`` is irrelevant to ``query``.

    Returns an empty tuple when the leaf overlaps the query (and hence must
    be scanned).  A leaf can satisfy several criteria at once, e.g. lie both
    below and to the right of the query (leaf ``f`` in Figure 3a).
    """
    box = leaf_box(entry)
    criteria = []
    if box.is_below(query):
        criteria.append(SKIP_BELOW)
    if box.is_above(query):
        criteria.append(SKIP_ABOVE)
    if box.is_left_of(query):
        criteria.append(SKIP_LEFT)
    if box.is_right_of(query):
        criteria.append(SKIP_RIGHT)
    return tuple(criteria)


def choose_skip_target(entry: LeafEntry, query: Rect) -> Optional[int]:
    """The LeafList index the scan should jump to after an irrelevant leaf.

    Among the look-ahead pointers of the criteria that disqualify the leaf,
    the one skipping over the greatest number of leaves is chosen (the paper's
    tie-breaking rule).  Returns ``None`` when the leaf is *not* disqualified
    (the caller must scan it) and :data:`END_OF_LIST` (-1 mapped to ``None``
    by the caller's loop bound) semantics are preserved by returning the raw
    pointer value, which may be ``END_OF_LIST``.
    """
    criteria = disqualifying_criteria(entry, query)
    if not criteria:
        return None
    best_target = entry.order + 1
    found = False
    for criterion in criteria:
        target = entry.skip_pointer(criterion)
        if target == END_OF_LIST:
            return END_OF_LIST
        if not found or target > best_target:
            best_target = target
            found = True
    return best_target if found else entry.order + 1
