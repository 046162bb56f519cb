#!/usr/bin/env python3
"""Quickstart: serve spatial queries through the columnar-first engine API.

This example walks through the core workflow of the library:

1. generate a dataset (a synthetic stand-in for the paper's OpenStreetMap
   points of interest),
2. describe the anticipated range-query workload (skewed "check-in"
   centers, as in the paper's semi-synthetic setup),
3. build a SpatialEngine around the workload-aware WaZI index (and one
   around the plain Base Z-index for comparison),
4. execute typed query plans — range, point, kNN — with lazy ResultSet
   views, count-only and array-consuming executions,
5. compare the logical work the two indexes perform,
6. persist the engine and serve from the snapshot (the paper's
   offline-build / online-serve deployment story).

Run with::

    python examples/quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro import (
    KnnQuery,
    Point,
    PointQuery,
    RangeQuery,
    SpatialEngine,
    generate_dataset,
    generate_range_workload,
    workload_summary,
)
from repro.evaluation import measure_range_queries


def main() -> None:
    # 1. A dataset: 20 000 points of interest from the synthetic NewYork region.
    data = generate_dataset("newyork", 20_000, seed=1)
    print(f"dataset: {len(data)} points, e.g. {data[0]}")

    # 2. An anticipated workload: 300 range queries whose centers follow a
    #    skewed check-in distribution, each covering 0.0256 % of the data space.
    workload = generate_range_workload(
        "newyork", 300, selectivity_percent=0.0256, seed=1
    )
    print(f"workload: {len(workload)} queries, first query = {workload[0]}")

    # 3. Build the engines.  WaZI consumes the workload; Base ignores it.
    wazi = SpatialEngine.build("wazi", data, workload.queries, leaf_capacity=64, seed=1)
    base = SpatialEngine.build("base", data, leaf_capacity=64)
    for engine in (wazi, base):
        index = engine.index
        print(f"{engine.name}: {len(engine)} points, "
              f"{len(index.leaflist)} leaves, depth {index.depth()}")

    # 4. Execute typed query plans.  Results come back as lazy ResultSet
    #    views: counting and the coordinate columns never box a Point.
    plan = RangeQuery(workload.queries[0])
    hits = wazi.execute(plan)
    xs, ys = hits.as_arrays()                      # NumPy columns, zero boxing
    print(f"range plan {plan.rect} -> {hits.count()} points, "
          f"centroid ({xs.mean():.3f}, {ys.mean():.3f})")
    print(f"count-only  -> {wazi.execute(plan, count_only=True)} (no materialisation)")
    print(f"first three -> {wazi.execute(plan, limit=3).points()}")

    probe = data[123]
    print(f"point plan {probe} -> {wazi.execute(PointQuery(probe))}")
    print(f"point plan (missing) -> {wazi.execute(PointQuery(Point(-1.0, -1.0)))}")

    neighbours = wazi.execute(KnnQuery(Point(30.0, 32.0), k=5))
    print("5 nearest neighbours of (30, 32):")
    for neighbour in neighbours:                   # iteration boxes on demand
        print(f"  {neighbour}")

    # 5. Compare the logical work on the full workload.  execute_many routes
    #    a homogeneous plan list through the amortised batch path.
    plans = [RangeQuery(query) for query in workload.queries]
    for engine in (base, wazi):
        engine.execute_many(plans)                 # warm-up + demonstration
        stats = measure_range_queries(engine, workload.queries)
        summary = workload_summary(stats)
        print(
            f"{summary['index']:>5s}: {summary['mean_micros']:8.1f} us/query, "
            f"{summary['excess_points_per_query']:7.1f} excess points/query, "
            f"{summary['bbs_checked_per_query']:6.1f} bounding boxes/query"
        )

    # 6. Build once, serve many: persist the engine and load it back without
    #    re-running construction.  The served engine answers every plan
    #    byte-identically; see docs/PERSISTENCE.md for the format.
    with tempfile.TemporaryDirectory() as tmpdir:
        snapshot_path = Path(tmpdir) / "wazi.snapshot"
        wazi.save(snapshot_path)
        start = time.perf_counter()
        serving = SpatialEngine.load(snapshot_path)
        load_ms = (time.perf_counter() - start) * 1e3
        assert serving.execute(plan) == hits
        print(
            f"snapshot: {snapshot_path.stat().st_size / 1024:.0f} KiB, "
            f"loaded {len(serving)} points in {load_ms:.1f} ms "
            f"(results identical to the built engine)"
        )


if __name__ == "__main__":
    main()
