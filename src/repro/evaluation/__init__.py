"""Measurement and comparison harness.

The paper's evaluation reports two kinds of numbers: wall-clock latencies
(nanoseconds on the authors' C++ testbed) and logical work counters
(bounding boxes checked, excess points filtered, pages scanned — Figure 13).
Because a pure-Python reproduction cannot match C++ constant factors, the
harness records *both*: wall-clock via :mod:`time.perf_counter` /
pytest-benchmark, and logical counters via :class:`CostCounters`, which
every index in the library increments while processing queries.

The subpackage also contains the experiment drivers shared by the
``benchmarks/`` directory: the comparison runner, the cost-redemption
calculation of Table 4, and plain-text table formatting.
"""

from repro.evaluation.metrics import CostCounters, PhaseTimer, QueryStats
from repro.evaluation.runner import (
    ComparisonResult,
    ComparisonRunner,
    IndexFactory,
    compare_indexes,
    measure_build,
    measure_join_workload,
    measure_knn_queries,
    measure_point_queries,
    measure_range_queries,
    measure_snapshot_roundtrip,
)
from repro.evaluation.cost_redemption import cost_redemption
from repro.evaluation.reporting import (
    format_table,
    index_properties_table,
    percent_improvement,
    workload_summary,
)

__all__ = [
    "CostCounters",
    "PhaseTimer",
    "QueryStats",
    "ComparisonResult",
    "ComparisonRunner",
    "IndexFactory",
    "compare_indexes",
    "measure_build",
    "measure_join_workload",
    "measure_knn_queries",
    "measure_point_queries",
    "measure_range_queries",
    "measure_snapshot_roundtrip",
    "cost_redemption",
    "format_table",
    "index_properties_table",
    "percent_improvement",
    "workload_summary",
]
