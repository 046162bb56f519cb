"""Shared configuration and helpers for the benchmark suite.

Every benchmark module regenerates one of the paper's tables or figures.
The paper runs on 4-64 million points in C++; this pure-Python reproduction
scales the dataset sizes down (default 16 000 points, scaling experiments up
to ~48 000) so that the whole suite completes in minutes on a laptop while
preserving the *relative* behaviour of the indexes — which is the claim the
reproduction checks.  All sizes can be raised via the environment variables
``REPRO_BENCH_SCALE`` (a multiplier) without touching the code.

Each module prints the regenerated rows/series (the same quantities the
paper reports) in addition to registering pytest-benchmark timings, so
``python -m pytest -s benchmarks/bench_fig*.py benchmarks/bench_table*.py
--benchmark-disable`` shows the tables (pytest does not collect
``bench_*.py`` by itself, so the modules are named explicitly).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import List, Sequence

from repro.engine import build_index
from repro.evaluation import (
    ComparisonResult,
    format_table,
    measure_build,
    measure_point_queries,
    measure_range_queries,
)
from repro.geometry import Point, Rect
from repro.workloads import (
    generate_dataset,
    generate_point_queries,
    generate_range_workload,
)

#: Multiplier applied to every dataset/workload size (for larger machines).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: The four datasets of the paper (Figure 5).
REGIONS = ("calinev", "newyork", "japan", "iberia")

#: The four selectivities of Table 2 / Figure 6, in percent of data space.
SELECTIVITIES = (0.0016, 0.0064, 0.0256, 0.1024)
MID_SELECTIVITY = 0.0256

#: The six indexes of the main experiments (Figures 6-10, Tables 3-5).
MAIN_INDEXES = ("Base", "CUR", "Flood", "QUASII", "STR", "WaZI")

#: Default experiment sizes (the paper's 4M-64M scaled down ~250x).
DEFAULT_NUM_POINTS = int(16_000 * SCALE)
SCALING_SIZES = tuple(int(n * SCALE) for n in (4_000, 8_000, 16_000, 32_000, 48_000))
DEFAULT_NUM_RANGE_QUERIES = int(150 * SCALE) or 1
DEFAULT_NUM_POINT_QUERIES = int(400 * SCALE) or 1
DEFAULT_LEAF_CAPACITY = 64
DEFAULT_SEED = 17

#: Mapping from the display names used in the tables to build_index() keys.
INDEX_KEYS = {
    "Base": "base",
    "Base+SK": "base+sk",
    "WaZI": "wazi",
    "WaZI-SK": "wazi-sk",
    "STR": "str",
    "CUR": "cur",
    "Flood": "flood",
    "QUASII": "quasii",
    "Zpgm": "zpgm",
    "R-tree": "rtree",
    "QuadTree": "quadtree",
    "k-d tree": "kdtree",
}


@lru_cache(maxsize=32)
def dataset(region: str, num_points: int = DEFAULT_NUM_POINTS, seed: int = DEFAULT_SEED):
    """A cached dataset so multiple benchmarks reuse the same points."""
    return generate_dataset(region, num_points, seed=seed)


@lru_cache(maxsize=64)
def range_workload(
    region: str,
    selectivity: float = MID_SELECTIVITY,
    num_queries: int = DEFAULT_NUM_RANGE_QUERIES,
    seed: int = DEFAULT_SEED,
):
    """A cached range-query workload."""
    return generate_range_workload(region, num_queries, selectivity, seed=seed)


@lru_cache(maxsize=16)
def point_workload(region: str, num_points: int = DEFAULT_NUM_POINTS, seed: int = DEFAULT_SEED):
    """A cached point-query workload sampled from the data distribution."""
    return tuple(
        generate_point_queries(
            region, DEFAULT_NUM_POINT_QUERIES, num_points=num_points, seed=seed
        )
    )


def build_named_index(
    display_name: str,
    points: Sequence[Point],
    queries: Sequence[Rect],
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    seed: int = DEFAULT_SEED,
):
    """Build one of the table indexes by its display name."""
    return build_index(
        INDEX_KEYS[display_name], points, queries, leaf_capacity=leaf_capacity, seed=seed
    )


def measure_index(
    display_name: str,
    points: Sequence[Point],
    range_queries: Sequence[Rect],
    point_queries: Sequence[Point] = (),
    leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
    seed: int = DEFAULT_SEED,
) -> ComparisonResult:
    """Build and fully measure one index (build time, size, range/point stats)."""
    index, build_seconds = measure_build(
        lambda: build_named_index(display_name, points, range_queries, leaf_capacity, seed)
    )
    result = ComparisonResult(
        index_name=display_name,
        build_seconds=build_seconds,
        size_bytes=index.size_bytes(),
        num_points=len(index),
    )
    if range_queries:
        result.range_stats = measure_range_queries(index, range_queries)
    if point_queries:
        result.point_stats = measure_point_queries(index, list(point_queries))
    return result


#: All regenerated tables are also appended here so the numbers survive a
#: run without ``-s`` (pytest captures stdout by default).
REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "results", "benchmark_report.txt")


def _emit(text: str) -> None:
    print(text)
    os.makedirs(os.path.dirname(REPORT_PATH), exist_ok=True)
    with open(REPORT_PATH, "a") as handle:
        handle.write(text + "\n")


def print_section(title: str) -> None:
    _emit("")
    _emit("=" * 72)
    _emit(title)
    _emit("=" * 72)


#: While a benchmark module runs under pytest, every table it prints is
#: also captured here (``{"module": str|None, "tables": [...]}``) so the
#: per-module JSON report can be written without each figure/table module
#: re-describing its own result structure.  ``benchmarks/conftest.py``
#: brackets each module with begin/flush.
_TABLE_CAPTURE: dict = {"module": None, "tables": []}


def begin_table_capture(module: str) -> None:
    """Start collecting printed tables on behalf of ``module``."""
    _TABLE_CAPTURE["module"] = module
    _TABLE_CAPTURE["tables"] = []


def flush_table_capture(module: str) -> str | None:
    """Write ``results/<module>.json`` from the captured tables, if any.

    Modules that assemble a bespoke payload call :func:`write_json_report`
    directly and never print tables, so the two paths cannot clobber each
    other's file.
    """
    tables = _TABLE_CAPTURE["tables"]
    _TABLE_CAPTURE["module"] = None
    _TABLE_CAPTURE["tables"] = []
    if not tables:
        return None
    return write_json_report(module, {"tables": tables})


def print_results_table(title: str, headers: List[str], rows: List[List[object]]) -> None:
    _emit("")
    _emit(format_table(headers, rows, title=title))
    if _TABLE_CAPTURE["module"] is not None:
        _TABLE_CAPTURE["tables"].append(
            {"title": title, "headers": list(headers), "rows": [list(row) for row in rows]}
        )


def write_json_report(name: str, payload: dict) -> str:
    """Write a benchmark's machine-readable summary next to its .txt report.

    ``name`` is the module-style benchmark name
    (``"bench_table1_properties"``); the summary lands in
    ``results/<name>.json`` with sorted keys.  Callers pass whatever they
    assert on; this helper only adds the benchmark name and returns the
    path written.
    """
    import json

    directory = os.path.dirname(REPORT_PATH)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    document = {"benchmark": name}
    document.update(payload)
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True, indent=2, default=float)
        handle.write("\n")
    return path
