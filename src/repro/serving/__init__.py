"""Sharded, multi-process serving of offline-built indexes.

The paper positions WaZI for workflows where "index construction can be
performed offline ... and deployed for an extended amount of time".  This
package is the deployment half of that story, built on the storage layers
underneath it:

1. :func:`build_shards` splits a built index (or saved snapshot) into S
   **Z-range shards** — contiguous curve-order leaf spans, each saved as
   a normal snapshot — plus a ``shards.json`` routing manifest
   (:mod:`~repro.serving.sharding`).
2. :func:`open_sharded` serves the directory through a scatter/gather
   :class:`ShardedIndex` (:mod:`~repro.serving.dispatcher`): a full
   :class:`~repro.interfaces.SpatialIndex` whose merged results — and
   cost counters — are byte-identical to the unsharded engine.
3. Shards run in-process or in forked worker processes
   (:mod:`~repro.serving.workers`); with ``mmap=True`` every worker maps
   its snapshot's columns zero-copy, so W workers share one physical copy
   of the data through the OS page cache.

See ``docs/SERVING.md`` for the deployment model, routing rules and the
exact-merge argument.
"""

from repro.serving.dispatcher import ShardedIndex, open_sharded
from repro.serving.sharding import (
    SHARDS_MANIFEST,
    ShardPlan,
    ShardSpec,
    build_shard_index,
    build_shards,
    leaf_scan_weights,
    plan_shard_spans,
    shard_snapshot_state,
)
from repro.serving.workers import (
    LocalBackend,
    ServingError,
    ShardEngine,
    ShardHost,
    WorkerBackend,
    process_rss,
    spawn_shard_backends,
)

__all__ = [
    "LocalBackend",
    "SHARDS_MANIFEST",
    "ServingError",
    "ShardEngine",
    "ShardHost",
    "ShardPlan",
    "ShardSpec",
    "ShardedIndex",
    "WorkerBackend",
    "build_shard_index",
    "build_shards",
    "leaf_scan_weights",
    "open_sharded",
    "plan_shard_spans",
    "process_rss",
    "shard_snapshot_state",
    "spawn_shard_backends",
]
