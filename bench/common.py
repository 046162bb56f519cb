"""Shared pieces of the benchmark: sizes, the metric vocabulary, seeds,
memory probes and the result record every workload fills in."""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The checkout the benchmark runs in: ``bench/`` and ``src/`` sit side by side.
ROOT = Path(__file__).resolve().parent.parent

#: Seconds one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 10

WORKLOADS = ("engine-paper", "http-tiles", "online-drift", "sharded-scan")

#: Every end-to-end metric as ``(name, unit)``.  A run with tracing off
#: reports exactly these, on every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("range_p50_us", "us"),
    ("range_p95_us", "us"),
    ("ops_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
    ("index_bytes_per_point", "B"),
)

#: Every per-layer metric as ``(name, unit)``.  A traced run reports
#: exactly these, on every workload; a layer the workload does not cross
#: reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("construction.build_s", "s"),
    ("persistence.save_s", "s"),
    ("persistence.serve_ready_s", "s"),
    ("serving.shard_build_s", "s"),
    ("serving.open_s", "s"),
    ("engine.self_us", "us"),
    ("zindex.project_us", "us"),
    ("kernels.scan_us", "us"),
    ("zindex.point_us", "us"),
    ("zindex.knn_us", "us"),
    ("zindex.nodes_visited_per_query", "count"),
    ("zindex.bbs_checked_per_query", "count"),
    ("zindex.leaves_skipped_per_query", "count"),
    ("zindex.pages_scanned_per_query", "count"),
    ("kernels.points_filtered_per_query", "count"),
    ("kernels.scan_precision", "ratio"),
    ("results.materialize_us", "us"),
    ("results.rows_per_query", "count"),
    ("service.decode_us", "us"),
    ("service.parse_us", "us"),
    ("service.render_us", "us"),
    ("service.response_bytes", "B"),
    ("service.transport_us", "us"),
    ("plancache.hit_rate", "ratio"),
    ("plancache.evictions", "count"),
    ("plancache.repeat_share", "ratio"),
    ("online.insert_us", "us"),
    ("online.merge_us", "us"),
    ("online.delta_rows", "count"),
    ("online.compact_s", "s"),
    ("online.compact_rows_per_s", "1/s"),
    ("online.adapt_s", "s"),
    ("online.adapt_scope", "ratio"),
    ("online.scan_cost_per_query", "count"),
    ("serving.shard_busy_us_per_query", "us"),
    ("serving.busy_imbalance", "ratio"),
    ("serving.fanout", "count"),
    ("serving.overhead_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)


@dataclass(frozen=True)
class Profile:
    """How big one run is.  :data:`FULL` is the benchmark; :data:`SMOKE`
    drives the same code paths at toy sizes for the test suite."""

    #: Points in the indexed dataset.
    points: int
    #: Range queries in the WaZI training workload.
    train_queries: int
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Base size of the generated operation pools; each workload scales it.
    pool: int
    #: Delta rows that trigger compaction on ``online-drift`` (the policy's
    #: default); the workload ticks maintenance once per this many rows.
    compact_rows: int = 4096


FULL = Profile(points=25_000, train_queries=400, setup_repeats=3, pool=4_000)
SMOKE = Profile(points=2_000, train_queries=100, setup_repeats=1, pool=40, compact_rows=16)


def require_library() -> None:
    """Put ``src/`` of this checkout first on the import path.

    Exits (code 1) when the sources are missing, so a checkout holding
    only the benchmark fails before it measures anything.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: the library sources are missing ({src}/repro)")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {src}")


def sub_seed(seed: int, stream: int) -> int:
    """An independent, deterministic seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def mean(values: Sequence[float]) -> float:
    return float(sum(values)) / len(values) if len(values) else 0.0


def peak_rss_bytes(pid: object = "self") -> int:
    """Peak resident set (``VmHWM``) of a process, in bytes.

    Falls back to ``getrusage`` for the calling process where ``/proc``
    is unavailable.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    if pid != "self":
        raise RuntimeError(f"cannot read the peak RSS of process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: Oracle comparisons made; a run that checked nothing is not correct.
    checked: int = 0
    #: The reported metrics (end-to-end, or per-layer when traced).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Further measurements printed for reading, never gated.
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per root span, per span name: count, total and self ns (traced runs).
    spans: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)
    #: The first spans of a traced run, column-wise.
    raw_spans: Dict[str, list] = field(default_factory=dict)
    #: The first few exceptions operations raised.
    errors: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checked > 0

    def line(self) -> Dict[str, object]:
        """The one-line verdict: correctness, op counts, metrics with units."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }

    def to_dict(self) -> Dict[str, object]:
        body = self.line()
        body.update(
            workload=self.workload, seed=self.seed, traced=self.traced,
            checked=self.checked,
            extra={k: {"value": v, "unit": u} for k, (v, u) in self.extra.items()},
        )
        if self.spans:
            body["spans"] = self.spans
            body["raw_spans"] = self.raw_spans
        return body

    def render(self) -> str:
        """Human-readable lines: every metric by name with its unit."""
        mode = "traced" if self.traced else "untraced"
        lines = [
            f"{self.workload} (seed {self.seed}, {mode}): {self.attempted} ops, "
            f"{self.failed} failed, {self.checked} checked against the oracle"
        ]
        for name, value in self.metrics.items():
            lines.append(f"  {name:<36} {value:>14.6g} {UNITS[name]}")
        for name, (value, unit) in self.extra.items():
            lines.append(f"  ({name}){'':<{max(0, 34 - len(name))}} {value:>14.6g} {unit}")
        return "\n".join(lines)
