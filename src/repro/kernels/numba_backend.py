# repro-lint: hot-path
# repro-lint: kernel-parity
"""Numba ``@njit`` kernels: the compiled tier of the hot path.

Each kernel is a single fused loop over the projected row span — the
window test, the count/gather and (for kNN / radius) the squared
distance all happen in one pass over the columns, with no boolean
temporaries and no Python dispatch between the passes.  Compilation is
cached on disk (``cache=True``) so the first process pays the JIT cost
once.

Equivalence contract: every function returns byte-identical values to
:mod:`repro.kernels.fallback` — the comparisons are the same IEEE
double-precision predicates, ``dx*dx + dy*dy`` is the same pair of
double multiplies and one add in both tiers (``fastmath`` stays OFF —
the ``kernel-parity`` lint rule forbids it), and selections are emitted
in ascending row order exactly like ``np.flatnonzero``.  Every column
that reaches a kernel is ``float64`` (builds, mutations and snapshot
loads all store coordinates at that width).

This module imports ``numba`` at module level and must only be imported
by :mod:`repro.kernels` after probing that the dependency exists.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numba import njit

__all__ = [
    "BACKEND",
    "range_count",
    "range_select",
    "batch_range_count",
    "batch_range_select",
    "knn_candidates",
    "radius_select",
]

#: Name reported by :func:`repro.kernels.backend_name` when active.
BACKEND = "numba"


@njit(cache=True)
def _range_count(flat_x, flat_y, lo, hi, xmin, ymin, xmax, ymax):
    count = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            count += 1
    return count


@njit(cache=True)
def _range_select(flat_x, flat_y, lo, hi, xmin, ymin, xmax, ymax):
    count = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            count += 1
    sel = np.empty(count, dtype=np.int64)
    out = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            sel[out] = i
            out += 1
    return sel


@njit(cache=True)
def _batch_range_count(flat_x, flat_y, los, his, bounds):
    num = los.shape[0]
    counts = np.empty(num, dtype=np.int64)
    for q in range(num):
        xmin = bounds[q, 0]
        ymin = bounds[q, 1]
        xmax = bounds[q, 2]
        ymax = bounds[q, 3]
        count = 0
        for i in range(los[q], his[q]):
            x = flat_x[i]
            y = flat_y[i]
            if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
                count += 1
        counts[q] = count
    return counts


@njit(cache=True)
def _batch_range_select(flat_x, flat_y, los, his, bounds):
    num = los.shape[0]
    offsets = np.empty(num + 1, dtype=np.int64)
    offsets[0] = 0
    for q in range(num):
        xmin = bounds[q, 0]
        ymin = bounds[q, 1]
        xmax = bounds[q, 2]
        ymax = bounds[q, 3]
        count = 0
        for i in range(los[q], his[q]):
            x = flat_x[i]
            y = flat_y[i]
            if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
                count += 1
        offsets[q + 1] = offsets[q] + count
    sel = np.empty(offsets[num], dtype=np.int64)
    for q in range(num):
        xmin = bounds[q, 0]
        ymin = bounds[q, 1]
        xmax = bounds[q, 2]
        ymax = bounds[q, 3]
        out = offsets[q]
        for i in range(los[q], his[q]):
            x = flat_x[i]
            y = flat_y[i]
            if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
                sel[out] = i
                out += 1
    return sel, offsets


@njit(cache=True)
def _knn_candidates(flat_x, flat_y, lo, hi, xmin, ymin, xmax, ymax, cx, cy):
    count = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            count += 1
    sel = np.empty(count, dtype=np.int64)
    d2 = np.empty(count, dtype=np.float64)
    out = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            dx = x - cx
            dy = y - cy
            sel[out] = i
            d2[out] = dx * dx + dy * dy
            out += 1
    return sel, d2


@njit(cache=True)
def _radius_select(flat_x, flat_y, lo, hi, xmin, ymin, xmax, ymax, cx, cy, r2):
    window_matches = 0
    kept = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            window_matches += 1
            dx = x - cx
            dy = y - cy
            if dx * dx + dy * dy <= r2:
                kept += 1
    sel = np.empty(kept, dtype=np.int64)
    out = 0
    for i in range(lo, hi):
        x = flat_x[i]
        y = flat_y[i]
        if x >= xmin and x <= xmax and y >= ymin and y <= ymax:
            dx = x - cx
            dy = y - cy
            if dx * dx + dy * dy <= r2:
                sel[out] = i
                out += 1
    return window_matches, sel


def range_count(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    lo: int,
    hi: int,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    mask: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> int:
    return int(
        _range_count(
            flat_x, flat_y, int(lo), int(hi),
            float(xmin), float(ymin), float(xmax), float(ymax),
        )
    )


def range_select(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    lo: int,
    hi: int,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    mask: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    return _range_select(
        flat_x, flat_y, int(lo), int(hi),
        float(xmin), float(ymin), float(xmax), float(ymax),
    )


def batch_range_count(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    bounds: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    return _batch_range_count(
        flat_x,
        flat_y,
        np.ascontiguousarray(los, dtype=np.int64),
        np.ascontiguousarray(his, dtype=np.int64),
        np.ascontiguousarray(bounds, dtype=np.float64),
    )


def batch_range_select(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    bounds: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    return _batch_range_select(
        flat_x,
        flat_y,
        np.ascontiguousarray(los, dtype=np.int64),
        np.ascontiguousarray(his, dtype=np.int64),
        np.ascontiguousarray(bounds, dtype=np.float64),
    )


def knn_candidates(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    lo: int,
    hi: int,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    cx: float,
    cy: float,
    mask: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    return _knn_candidates(
        flat_x, flat_y, int(lo), int(hi),
        float(xmin), float(ymin), float(xmax), float(ymax),
        float(cx), float(cy),
    )


def radius_select(
    flat_x: np.ndarray,
    flat_y: np.ndarray,
    lo: int,
    hi: int,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
    cx: float,
    cy: float,
    radius_squared: float,
    mask: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[int, np.ndarray]:
    window_matches, sel = _radius_select(
        flat_x, flat_y, int(lo), int(hi),
        float(xmin), float(ymin), float(xmax), float(ymax),
        float(cx), float(cy), float(radius_squared),
    )
    return int(window_matches), sel
