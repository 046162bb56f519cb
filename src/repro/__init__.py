"""WaZI: a learned and workload-aware Z-index — full Python reproduction.

This package reproduces the system described in "WaZI: A Learned and
Workload-aware Z-Index" (EDBT 2024) together with every substrate and
baseline its evaluation depends on:

* :mod:`repro.core` — the WaZI index (adaptive partitioning + ordering,
  retrieval-cost model, look-ahead skipping) and its ablation variants,
* :mod:`repro.zindex` — the base Z-index structure (Section 3),
* :mod:`repro.zorder`, :mod:`repro.geometry`, :mod:`repro.storage`,
  :mod:`repro.density` — the substrates (Morton codes and BIGMIN, planar
  geometry, paged storage, RFDE density estimation),
* :mod:`repro.baselines` — STR, CUR, Flood, QUASII, Zpgm and reference
  indexes,
* :mod:`repro.workloads` — synthetic datasets and skewed query workloads
  standing in for the paper's OSM/Gowalla data,
* :mod:`repro.evaluation` — the measurement harness behind every table and
  figure of the evaluation.

Quickstart (the columnar-first engine API — see ``docs/API.md``)::

    from repro import SpatialEngine, RangeQuery, generate_dataset, generate_range_workload

    data = generate_dataset("newyork", 20_000, seed=1)
    workload = generate_range_workload("newyork", 200, selectivity_percent=0.0256, seed=1)
    engine = SpatialEngine.build("wazi", data, workload.queries, seed=1)
    hits = engine.execute(RangeQuery(workload.queries[0]))   # lazy ResultSet
    count = engine.execute(RangeQuery(workload.queries[0]), count_only=True)
"""

from repro.analysis import (
    TuningReport,
    WorkloadDriftDetector,
    advise_layout,
)
from repro.engine import (
    INDEX_NAMES,
    SpatialEngine,
    as_engine,
    build_index,
    build_or_load_index,
)
from repro.evaluation import compare_indexes, workload_summary
from repro.query import (
    JoinQuery,
    KnnQuery,
    PointQuery,
    Query,
    RadiusQuery,
    RangeQuery,
)
from repro.results import ResultSet
from repro.persistence import (
    PersistenceError,
    SnapshotError,
    load_snapshot,
    load_snapshot_with_history,
    load_workload,
    save_rebuild_snapshot,
    save_snapshot,
    save_workload,
)
from repro.joins import box_join, knn_join, knn_join_pairs, radius_join
from repro.serving import ShardedIndex, build_shards, open_sharded
from repro.baselines import (
    CURTree,
    FloodIndex,
    KDTreeIndex,
    QuadTreeIndex,
    QUASIIIndex,
    RTree,
    STRRTree,
    ZPGMIndex,
)
from repro.core import BaseWithSkipping, WaZI, WaZIWithoutSkipping
from repro.geometry import Point, Rect
from repro.interfaces import SpatialIndex
from repro.workload_log import WorkloadLog
from repro.workloads import (
    DriftPhase,
    Workload,
    drift_scenario,
    generate_dataset,
    generate_knn_workload,
    generate_point_queries,
    generate_probe_points,
    generate_range_workload,
    hotspot_workload,
    uniform_range_workload,
)
from repro.zindex import BaseZIndex, ZIndex

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Point",
    "Rect",
    "SpatialIndex",
    "SpatialEngine",
    "ResultSet",
    "Query",
    "RangeQuery",
    "PointQuery",
    "KnnQuery",
    "RadiusQuery",
    "JoinQuery",
    "INDEX_NAMES",
    "as_engine",
    "workload_summary",
    "WaZI",
    "WaZIWithoutSkipping",
    "BaseWithSkipping",
    "BaseZIndex",
    "ZIndex",
    "STRRTree",
    "CURTree",
    "FloodIndex",
    "QUASIIIndex",
    "ZPGMIndex",
    "RTree",
    "QuadTreeIndex",
    "KDTreeIndex",
    "build_index",
    "build_or_load_index",
    "compare_indexes",
    "save_snapshot",
    "load_snapshot",
    "save_rebuild_snapshot",
    "PersistenceError",
    "SnapshotError",
    "generate_dataset",
    "generate_range_workload",
    "uniform_range_workload",
    "generate_point_queries",
    "generate_probe_points",
    "generate_knn_workload",
    "Workload",
    "WorkloadLog",
    "DriftPhase",
    "drift_scenario",
    "hotspot_workload",
    "save_workload",
    "load_workload",
    "load_snapshot_with_history",
    "WorkloadDriftDetector",
    "TuningReport",
    "advise_layout",
    "box_join",
    "radius_join",
    "knn_join",
    "knn_join_pairs",
    "ShardedIndex",
    "build_shards",
    "open_sharded",
]
