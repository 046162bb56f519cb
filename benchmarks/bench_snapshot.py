"""Snapshot benchmark: load-vs-rebuild speedup + round-trip exactness canary.

Exercises the columnar snapshot subsystem the way a deployment would —
build the index offline once, then serve many processes from the binary
snapshot — and checks two things:

1. **Exactness** — a snapshot-loaded index returns *byte-identical*
   results to the freshly built one: same range/batch-range/kNN result
   lists (contents **and** ordering), same logical cost counters, across
   the Z-index family (WaZI, WaZI−SK, Base, Base+SK).  A rebuild-recipe
   snapshot of a non-Z-index baseline must replay to identical results as
   well.
2. **Speedup** — ``load_snapshot`` must be at least ``--min-speedup``
   times faster than rebuilding the index from the raw points (default
   5.0 full / 2.0 with ``--quick``).  The full run measures WaZI at 100k
   points, where construction pays the greedy split search and the RFDE
   forest while the load is an O(n) memcpy of the stored columns.

Usage::

    PYTHONPATH=src python benchmarks/bench_snapshot.py           # full, 100k points
    PYTHONPATH=src python benchmarks/bench_snapshot.py --quick   # CI-sized canary

Writes a report to ``results/bench_snapshot.txt`` and exits non-zero on a
correctness failure or when the load speedup falls below the threshold.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

# Script mode puts benchmarks/ (not the repo root) on sys.path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import write_json_report
from repro.engine import build_index
from repro.evaluation import measure_snapshot_roundtrip
from repro.persistence import load_snapshot, save_rebuild_snapshot
from repro.workloads import generate_dataset, generate_knn_workload, generate_range_workload

ZINDEX_NAMES = ("wazi", "wazi-sk", "base", "base+sk")
REBUILD_NAME = "str"


def check_exactness(built, loaded, queries, probes, k):
    """Byte-identical results + counters between a built and a loaded index."""
    failures = []
    built.reset_counters()
    loaded.reset_counters()
    for query in queries:
        if ([p.as_tuple() for p in built.range_query(query)]
                != [p.as_tuple() for p in loaded.range_query(query)]):
            failures.append(f"range_query mismatch at {query}")
            break
    built_batch = built.batch_range_query(queries)
    loaded_batch = loaded.batch_range_query(queries)
    if any(
        [p.as_tuple() for p in a] != [p.as_tuple() for p in b]
        for a, b in zip(built_batch, loaded_batch)
    ):
        failures.append("batch_range_query mismatch")
    if [[p.as_tuple() for p in r] for r in built.batch_knn(probes, k)] != [
        [p.as_tuple() for p in r] for r in loaded.batch_knn(probes, k)
    ]:
        failures.append("batch_knn mismatch")
    if built.counters.snapshot() != loaded.counters.snapshot():
        failures.append(
            f"counter mismatch: {built.counters.snapshot()} vs {loaded.counters.snapshot()}"
        )
    if len(built) != len(loaded):
        failures.append(f"cardinality mismatch: {len(built)} vs {len(loaded)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: 20k points, relaxed threshold")
    parser.add_argument("--region", default="newyork")
    parser.add_argument("--num-points", type=int, default=None)
    parser.add_argument("--num-queries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="Fail when the WaZI load-vs-rebuild speedup drops below "
                             "this (default 5.0, or 2.0 with --quick)")
    parser.add_argument("--report", default="results/bench_snapshot.txt")
    args = parser.parse_args(argv)

    num_points = args.num_points if args.num_points is not None else (
        20_000 if args.quick else 100_000
    )
    num_queries = args.num_queries if args.num_queries is not None else (
        30 if args.quick else 60
    )
    min_speedup = args.min_speedup if args.min_speedup is not None else (
        2.0 if args.quick else 5.0
    )
    load_repeats = 3 if args.quick else 5
    leaf_capacity = 64
    knn_k = 10

    lines = []

    def emit(text=""):
        print(text)
        lines.append(text)

    emit(f"snapshot benchmark: {args.region} n={num_points} "
         f"queries={num_queries} L={leaf_capacity} seed={args.seed}")
    points = generate_dataset(args.region, num_points, seed=args.seed)
    workload = generate_range_workload(
        args.region, num_queries, selectivity_percent=0.0256, seed=args.seed
    )
    queries = workload.queries
    probes = generate_knn_workload(
        args.region, 30 if args.quick else 60, k=knn_k, seed=args.seed
    ).probes

    tmpdir = Path(tempfile.mkdtemp(prefix="bench_snapshot_"))
    try:
        return _run(args, points, queries, probes, tmpdir, num_points,
                    leaf_capacity, knn_k, load_repeats, min_speedup, emit, lines)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, points, queries, probes, tmpdir, num_points,
         leaf_capacity, knn_k, load_repeats, min_speedup, emit, lines):
    failures = []
    wazi_speedup = None
    emit(f"\n{'index':>8} {'build':>9} {'save':>9} {'load':>9} "
         f"{'speedup':>8} {'bytes':>11}  exactness")
    for name in ZINDEX_NAMES:
        start = time.perf_counter()
        built = build_index(name, points, queries, leaf_capacity=leaf_capacity,
                            seed=args.seed)
        build_seconds = time.perf_counter() - start

        path = tmpdir / f"{name.replace('+', '_')}.snapshot"
        stats = measure_snapshot_roundtrip(
            built, path, build_seconds=build_seconds, repeats=load_repeats
        )
        save_seconds = stats["snapshot_save_seconds"]
        load_seconds = stats["snapshot_load_seconds"]
        speedup = stats["snapshot_load_speedup"]
        loaded = load_snapshot(path)

        index_failures = check_exactness(built, loaded, queries, probes, knn_k)
        failures.extend(f"{name}: {failure}" for failure in index_failures)
        emit(f"{name:>8} {build_seconds:>8.3f}s {save_seconds:>8.3f}s "
             f"{load_seconds:>8.4f}s {speedup:>7.1f}x {path.stat().st_size:>11}  "
             f"{'FAIL' if index_failures else 'byte-identical'}")
        if name == "wazi":
            wazi_speedup = speedup

    # Rebuild-recipe snapshot for a non-Z-index baseline: replay must be exact.
    path = tmpdir / f"{REBUILD_NAME}.snapshot"
    built = build_index(REBUILD_NAME, points, queries, leaf_capacity=leaf_capacity,
                        seed=args.seed)
    save_rebuild_snapshot(REBUILD_NAME, points, path, workload=queries,
                          leaf_capacity=leaf_capacity, seed=args.seed)
    replayed = load_snapshot(path)
    replay_failures = check_exactness(built, replayed, queries[:10], probes[:5], knn_k)
    failures.extend(f"{REBUILD_NAME} (rebuild recipe): {f}" for f in replay_failures)
    emit(f"\nrebuild-recipe snapshot ({REBUILD_NAME}): "
         f"{'FAIL' if replay_failures else 'replayed byte-identical'}")

    emit(f"\nWaZI load-vs-rebuild speedup at {num_points} points: "
         f"{wazi_speedup:.1f}x  (threshold {min_speedup:.1f}x)")

    status = 0
    if failures:
        emit("\nFAILED:")
        for failure in failures:
            emit(f"  {failure}")
        status = 1
    elif wazi_speedup < min_speedup:
        emit(f"\nFAILED: load speedup {wazi_speedup:.2f}x below {min_speedup:.1f}x")
        status = 1
    else:
        emit("\nOK")

    report = Path(args.report)
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text("\n".join(lines) + "\n")
    print(f"report written to {report}")
    write_json_report("bench_snapshot", {
        "num_points": num_points,
        "wazi_load_speedup": wazi_speedup,
        "min_speedup_threshold": min_speedup,
        "failures": len(failures),
    })
    return status


if __name__ == "__main__":
    sys.exit(main())
