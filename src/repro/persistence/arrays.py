"""NumPy-backed binary codecs for datasets and range-query workloads.

Coordinate columns and query rectangles are stored as flat float64 arrays
inside the snapshot container, so a million-point dataset loads in
milliseconds.  Loading boxes the columns back into
:class:`~repro.geometry.Point` / :class:`~repro.geometry.Rect` objects
through :func:`repro.geometry.points_from_arrays` — the bulk path every
index's constructor can consume directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rect, points_from_arrays, points_to_arrays
from repro.persistence.container import PathLike, read_container, write_container
from repro.persistence.errors import SnapshotFormatError, SnapshotVersionError

#: Format version of the binary dataset/workload containers.
ARRAYS_FORMAT_VERSION = 1

KIND_POINTS = "points-columns"
KIND_QUERIES = "queries-columns"


def rects_to_array(queries: Sequence[Rect]) -> np.ndarray:
    """Pack rectangles into an ``(n, 4)`` float64 ``[xmin, ymin, xmax, ymax]`` table."""
    rects = np.empty((len(queries), 4), dtype=np.float64)
    for row, query in enumerate(queries):
        rects[row] = (query.xmin, query.ymin, query.xmax, query.ymax)
    return rects


def rects_from_array(rects: np.ndarray) -> List[Rect]:
    """Unpack an ``(n, 4)`` table back into :class:`Rect` objects."""
    table = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    return [Rect(*row) for row in table.tolist()]


def save_points_binary(points: Sequence[Point], path: PathLike) -> None:
    """Write a dataset as two float64 coordinate columns."""
    xs, ys = points_to_arrays(points)
    _write(path, KIND_POINTS, {"xs": xs, "ys": ys})


def load_points_binary(path: PathLike) -> List[Point]:
    """Read a dataset written by :func:`save_points_binary`."""
    xs, ys = load_points_columns(path)
    return points_from_arrays(xs, ys)


def load_points_columns(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read a binary dataset as raw ``(xs, ys)`` columns, skipping boxing.

    The columnar entry point for consumers (analytics, bulk statistics)
    that never need :class:`Point` objects.
    """
    arrays = _read(path, KIND_POINTS, ("xs", "ys"))
    xs = arrays["xs"]
    ys = arrays["ys"]
    if xs.shape != ys.shape or xs.ndim != 1:
        raise SnapshotFormatError(
            f"{path} coordinate columns have inconsistent shapes "
            f"{xs.shape} / {ys.shape}"
        )
    return xs, ys


def save_queries_binary(queries: Sequence[Rect], path: PathLike) -> None:
    """Write a range-query workload as an ``(n, 4)`` float64 rectangle table."""
    _write(path, KIND_QUERIES, {"rects": rects_to_array(queries)})


def load_queries_binary(path: PathLike) -> List[Rect]:
    """Read a workload written by :func:`save_queries_binary`."""
    arrays = _read(path, KIND_QUERIES, ("rects",))
    try:
        return rects_from_array(arrays["rects"])
    except (TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"{path} holds a malformed rects table: {exc}") from exc


def _write(path: PathLike, kind: str, arrays) -> None:
    from repro import __version__

    write_container(
        path,
        {
            "kind": kind,
            "format_version": ARRAYS_FORMAT_VERSION,
            "library_version": __version__,
        },
        arrays,
    )


def _read(path: PathLike, expected_kind: str, required: Sequence[str]):
    manifest, arrays = read_container(path)
    kind = manifest.get("kind")
    if kind != expected_kind:
        raise SnapshotFormatError(
            f"{path} stores {kind!r}, expected {expected_kind!r}"
        )
    version = manifest.get("format_version")
    if version != ARRAYS_FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{path} uses {expected_kind} format version {version!r}, but this "
            f"library reads version {ARRAYS_FORMAT_VERSION} "
            f"(written by library {manifest.get('library_version', 'unknown')}); "
            f"upgrade the library or re-export the data"
        )
    for name in required:
        if name not in arrays:
            raise SnapshotFormatError(f"{path} is missing the {name!r} column")
    return arrays
