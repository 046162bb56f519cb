"""Saving and loading datasets, workloads and built indexes.

A production deployment of WaZI builds the index offline (the paper notes
it is "suited for workflows where index construction can be performed
offline ... and deployed for an extended amount of time") and ships it to
query servers.  This package provides the persistence formats for that
workflow, from most to least durable:

* **datasets and workloads** — binary coordinate columns
  (:mod:`~repro.persistence.arrays`: milliseconds to load at millions of
  points).  Rebuilding from these is deterministic given the construction
  seed and survives any library version.
* **structural snapshots** — :func:`save_snapshot` / :func:`load_snapshot`
  store a built Z-index-family index as flat arrays in a versioned binary
  container and restore it in O(n) memcpy-level work, skipping the
  O(n log n) construction entirely.  :func:`save_rebuild_snapshot` extends
  the same container to the rest of the index zoo by persisting the
  dataset plus build recipe.  Both kinds record the
  :class:`BuildRecipe` the index was built from, and every load restores
  it.

See ``docs/PERSISTENCE.md`` for the container layout, manifest fields and
format-version compatibility rules.
"""

from repro.persistence.arrays import (
    load_points_binary,
    load_points_columns,
    load_queries_binary,
    rects_from_array,
    rects_to_array,
    save_points_binary,
    save_queries_binary,
)
from repro.persistence.container import (
    CONTAINER_FORMAT,
    MEMBER_ALIGNMENT,
    array_member_offsets,
    map_container,
    read_container,
    read_manifest,
    write_container,
)
from repro.persistence.errors import (
    PersistenceError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
)
from repro.persistence.snapshot import (
    KIND_REBUILD,
    KIND_WORKLOAD,
    KIND_ZINDEX,
    SNAPSHOT_FORMAT_VERSION,
    BuildRecipe,
    dataset_fingerprint,
    load_snapshot,
    load_snapshot_with_history,
    load_workload,
    load_workload_history,
    save_rebuild_snapshot,
    save_snapshot,
    save_workload,
    workload_fingerprint,
)

__all__ = [
    "BuildRecipe",
    "CONTAINER_FORMAT",
    "KIND_REBUILD",
    "KIND_WORKLOAD",
    "KIND_ZINDEX",
    "MEMBER_ALIGNMENT",
    "PersistenceError",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "array_member_offsets",
    "dataset_fingerprint",
    "map_container",
    "load_points_binary",
    "load_points_columns",
    "load_queries_binary",
    "load_snapshot",
    "load_snapshot_with_history",
    "load_workload",
    "load_workload_history",
    "read_container",
    "read_manifest",
    "rects_from_array",
    "rects_to_array",
    "save_points_binary",
    "save_queries_binary",
    "save_rebuild_snapshot",
    "save_snapshot",
    "save_workload",
    "workload_fingerprint",
    "write_container",
]
