"""Plain-text reporting helpers shared by the benchmark drivers.

The benchmarks print the same rows and series the paper's tables and
figures report; these helpers keep the formatting (fixed-width tables,
percentage improvements, the Table 1 property matrix) in one place so every
benchmark's output looks the same.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.evaluation.metrics import QueryStats


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width text table.

    Floats are formatted with ``float_format``; everything else with ``str``.
    """
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered_rows = [[render(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def percent_improvement(baseline_value: float, candidate_value: float) -> float:
    """Percentage improvement of a candidate over a baseline (positive = better).

    This is the metric of Figure 7: ``100 * (base - candidate) / base``; a
    candidate twice as fast as the baseline scores +50 %, one twice as slow
    scores −100 %.
    """
    if baseline_value == 0:
        return 0.0
    return 100.0 * (baseline_value - candidate_value) / baseline_value


#: The property matrix of Table 1 in the paper.  ``True`` means the index has
#: the property; the rows cover the six indexes of the main experiments.
INDEX_PROPERTIES: Dict[str, Dict[str, bool]] = {
    "STR": {"sfc_based": False, "query_aware": False, "learned": False},
    "CUR": {"sfc_based": False, "query_aware": True, "learned": True},
    "Flood": {"sfc_based": False, "query_aware": True, "learned": True},
    "QUASII": {"sfc_based": False, "query_aware": True, "learned": False},
    "Base": {"sfc_based": True, "query_aware": False, "learned": False},
    "WaZI": {"sfc_based": True, "query_aware": True, "learned": True},
}


def index_properties_table() -> str:
    """Render Table 1 (key properties of the compared indexes)."""
    headers = ["Index", "SFC-based", "Query-Aware", "Learned"]
    rows = []
    for name, properties in INDEX_PROPERTIES.items():
        rows.append(
            [
                name,
                "yes" if properties["sfc_based"] else "no",
                "yes" if properties["query_aware"] else "no",
                "yes" if properties["learned"] else "no",
            ]
        )
    return format_table(headers, rows, title="Table 1: key properties of compared indexes")


def improvement_table(
    baseline_name: str,
    values: Mapping[str, float],
    title: str = "",
) -> str:
    """Render a Figure 7-style percentage-improvement table over a baseline."""
    baseline_value = values[baseline_name]
    headers = ["Index", "value", f"% improvement over {baseline_name}"]
    rows = []
    for name, value in values.items():
        rows.append([name, value, percent_improvement(baseline_value, value)])
    return format_table(headers, rows, title=title)


def workload_summary(stats) -> Dict[str, float]:
    """A compact dictionary summary of one measured workload.

    Accepts any :class:`~repro.evaluation.metrics.QueryStats` — range and
    point workloads, kNN workloads (``measure_knn_queries`` records ``k``
    in :attr:`QueryStats.extra`), join workloads (``measure_join_workload``
    records pair counts and selectivity) — as well as the plain
    measurement dict of
    :func:`~repro.evaluation.runner.measure_snapshot_roundtrip`.  Extra
    workload-specific scalars are merged into the summary verbatim, so the
    one helper covers every scenario the evaluation harness measures.
    """
    if isinstance(stats, Mapping):
        # measure_snapshot_roundtrip returns a flat measurement dict.
        summary = {"kind": "snapshot"}
        summary.update(stats)
        return summary
    if not isinstance(stats, QueryStats):
        raise TypeError(
            f"workload_summary expects QueryStats or a snapshot measurement "
            f"dict, got {type(stats).__name__}"
        )
    extra = dict(stats.extra)
    if "k" in extra:
        kind = "knn"
    elif "num_pairs" in extra:
        kind = "join"
    else:
        kind = "queries"
    summary = {
        "kind": kind,
        "index": stats.index_name,
        "queries": stats.num_queries,
        "mean_micros": stats.mean_micros,
        "bbs_checked_per_query": stats.per_query("bbs_checked"),
        "pages_scanned_per_query": stats.per_query("pages_scanned"),
        "points_filtered_per_query": stats.per_query("points_filtered"),
        "excess_points_per_query": stats.per_query("excess_points"),
    }
    summary.update(extra)
    return summary
