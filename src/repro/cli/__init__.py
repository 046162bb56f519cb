# repro-lint: public-api
"""``python -m repro`` — build, serve, query, bench, adapt, export.

The command-line face of the library: one command builds a snapshot,
one serves it (optionally sharded across worker processes) over the
HTTP JSON API of :mod:`repro.service`, one fires queries at either a
running server or a snapshot, one replays a drift scenario end-to-end
(observe → advise → adapt) and prints the win, one adapts a snapshot
offline, and one exports observed workloads / metrics for offline
analysis.  ``repro <cmd> --help`` documents each.

Every command is deterministic given its ``--seed`` arguments, exits 0
on success, 1 on failure and 2 on bad usage / unmet preconditions, and
writes machine-parseable JSON to stdout where it makes sense (``serve``
announces ``{"event": "ready", "url": ...}`` so wrappers can find an
ephemeral port).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional

__all__ = ["main"]


def _build_engine(args):
    from repro.engine import SpatialEngine
    from repro.workloads import generate_dataset, generate_range_workload

    points = generate_dataset(args.region, args.num_points, seed=args.seed)
    workload = generate_range_workload(
        args.region, args.workload_queries, args.selectivity, seed=args.seed + 1
    )
    engine = SpatialEngine.build(
        args.index, points, workload,
        leaf_capacity=args.leaf_capacity, seed=args.seed,
    )
    return engine, workload


def _require_file(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"no such snapshot: {path}")
    return path


def cmd_build(args) -> int:
    from repro.query import RangeQuery

    engine, workload = _build_engine(args)
    # Replay the training workload with recording on so the snapshot
    # embeds an observed history: `repro adapt` / `repro export` work on
    # a freshly built snapshot without a serving session in between.
    engine.start_recording()
    engine.execute_many(
        [RangeQuery(rect) for rect in workload.queries], count_only=True
    )
    engine.stop_recording()
    out = Path(args.out)
    engine.save(out)
    print(json.dumps({
        "event": "built",
        "index": engine.name,
        "num_points": len(engine),
        "size_bytes": engine.size_bytes(),
        "snapshot": str(out),
    }, sort_keys=True))
    if args.shards:
        from repro.serving import build_shards

        shard_dir = Path(args.shard_dir or (str(out) + ".shards"))
        plan = build_shards(engine.index, shard_dir, args.shards)
        print(json.dumps({
            "event": "sharded",
            "num_shards": plan.num_shards,
            "directory": str(shard_dir),
        }, sort_keys=True))
    return 0


def _open_backend(path: Path, *, shards: int, workers: int, mmap: bool,
                  record: bool, plan_cache: Optional[int], cleanup: ExitStack):
    """A serving engine for a snapshot file or shard directory.

    A shard copy made for ``shards`` lives in a temporary directory that
    ``cleanup`` removes.
    """
    from repro.engine import SpatialEngine

    if not path.exists():
        raise FileNotFoundError(f"no such snapshot or shard directory: {path}")
    cache = plan_cache if plan_cache else None
    if path.is_dir():
        if not (path / "shards.json").exists():
            raise FileNotFoundError(f"{path} is a directory without shards.json")
        from repro.serving import open_sharded

        sharded = open_sharded(path, workers=workers, mmap=mmap)
        return SpatialEngine(sharded, record=record, plan_cache=cache)
    if shards:
        import tempfile

        from repro.serving import build_shards, open_sharded

        shard_dir = Path(cleanup.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-shards-")
        ))
        build_shards(path, shard_dir, shards)
        sharded = open_sharded(shard_dir, workers=workers, mmap=mmap)
        return SpatialEngine(sharded, record=record, plan_cache=cache)
    return SpatialEngine.load(path, record=record, mmap=mmap, plan_cache=cache)


def cmd_serve(args) -> int:
    with ExitStack() as cleanup:
        # SIGTERM leaves through the same cleanup as Ctrl-C.
        cleanup.callback(
            signal.signal, signal.SIGTERM,
            signal.signal(signal.SIGTERM, signal.default_int_handler),
        )
        return _serve(args, cleanup)


def _serve(args, cleanup: ExitStack) -> int:
    from repro.service import ServiceServer, SpatialService

    engine = _open_backend(
        Path(args.path), shards=args.shards, workers=args.workers,
        mmap=args.mmap, record=args.record, plan_cache=args.plan_cache,
        cleanup=cleanup,
    )
    close = getattr(engine.index, "close", None)
    if callable(close):
        cleanup.callback(close)
    service = SpatialService(engine, record=args.record, verbose=not args.quiet)
    if args.online:
        from repro.online import MaintenancePolicy
        from repro.zindex import ZIndex

        if not isinstance(engine.index, ZIndex):
            print(json.dumps({
                "event": "error",
                "message": "--online requires a Z-index-family snapshot "
                           "(sharded backends serve read-only)",
            }, sort_keys=True), file=sys.stderr)
            return 2
        policy = MaintenancePolicy(
            interval_seconds=args.maintenance_interval,
            compact_min_rows=args.compact_min_rows,
            window_size=args.window_size or None,
        )
        engine.online(policy)
    server = ServiceServer(service, host=args.host, port=args.port)
    if not args.quiet:
        mode = " online" if args.online else ""
        print(f"serving{mode} {engine.name} ({len(engine):,} points) at {server.url}",
              file=sys.stderr)
    try:
        # Inside the try: a signal that follows the ready line is a clean exit.
        print(json.dumps({
            "event": "ready", "url": server.url, "online": bool(args.online),
        }, sort_keys=True), flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if args.online:
            engine.offline()
    return 0


def _plan_payload(args) -> dict:
    if args.rect is not None:
        payload = {"kind": "range", "rect": args.rect}
    elif args.point is not None:
        payload = {"kind": "point", "point": args.point}
    elif args.center is not None and args.k is not None:
        payload = {"kind": "knn", "center": args.center, "k": args.k}
    elif args.center is not None and args.radius is not None:
        payload = {"kind": "radius", "center": args.center, "radius": args.radius}
    else:
        raise SystemExit(
            "specify a plan: --rect XMIN YMIN XMAX YMAX | --point X Y | "
            "--center X Y with --k K or --radius R"
        )
    if args.count_only:
        payload["count_only"] = True
    if args.limit is not None:
        payload["limit"] = args.limit
    return payload


def _http_post(url: str, path: str, payload: dict) -> dict:
    import urllib.request

    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def cmd_query(args) -> int:
    payload = _plan_payload(args)
    if args.url:
        body = _http_post(args.url, "/query", payload)
    else:
        from repro.engine import SpatialEngine
        from repro.service import SpatialService

        engine = SpatialEngine.load(
            _require_file(Path(args.snapshot)), mmap=True, validate=False
        )
        service = SpatialService(engine, record=False)
        body = service.handle_query(payload)
    print(json.dumps(body, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    from repro.engine import SpatialEngine
    from repro.query import RangeQuery
    from repro.workloads import drift_scenario, generate_dataset

    points = generate_dataset(args.region, args.num_points, seed=args.seed)
    phases = drift_scenario(
        args.scenario, args.region, num_queries=args.num_queries, seed=args.seed + 1
    )
    train, drifted = phases[0].workload, phases[1].workload
    engine = SpatialEngine.build(
        "wazi", points, train.queries, leaf_capacity=64, seed=args.seed,
        record=True,
    )
    plans = [RangeQuery(rect) for rect in drifted.queries]
    engine.batch_range_count(drifted.queries)  # warm flat-scan caches

    start = time.perf_counter()
    engine.execute_many(plans, count_only=True)
    stale_seconds = time.perf_counter() - start

    report = engine.advise()
    engine.adapt()
    engine.batch_range_count(drifted.queries)  # warm the adapted layout too

    start = time.perf_counter()
    engine.execute_many(plans, count_only=True)
    adapted_seconds = time.perf_counter() - start

    summary = {
        "scenario": args.scenario,
        "region": args.region,
        "num_points": args.num_points,
        "num_queries": len(plans),
        "drift_score": report.drift_score,
        "should_adapt": report.should_adapt,
        "stale_seconds": stale_seconds,
        "adapted_seconds": adapted_seconds,
        "speedup": stale_seconds / adapted_seconds if adapted_seconds else None,
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    if args.min_speedup is not None and (
        summary["speedup"] is None or summary["speedup"] < args.min_speedup
    ):
        print(f"FAIL: speedup below {args.min_speedup}", file=sys.stderr)
        return 1
    return 0


def cmd_adapt(args) -> int:
    from repro.engine import SpatialEngine

    path = _require_file(Path(args.snapshot))
    engine = SpatialEngine.load(path)
    try:
        report = engine.advise(min_improvement=args.min_improvement)
    except ValueError as exc:
        print(f"cannot advise: {exc}", file=sys.stderr)
        return 2
    print(report.render(), file=sys.stderr)
    if not report.should_adapt and not args.force:
        print(json.dumps({"event": "kept", "reason": report.reason}, sort_keys=True))
        return 0
    engine.adapt()
    out = Path(args.out) if args.out else path
    engine.save(out)
    print(json.dumps({
        "event": "adapted",
        "snapshot": str(out),
        "leaf_capacity": getattr(engine.index, "leaf_capacity", None),
    }, sort_keys=True))
    return 0


def cmd_export(args) -> int:
    out_dir = Path(args.out)
    if args.url:
        import urllib.request

        endpoint = "/metrics" if args.what == "metrics" else "/stats"
        with urllib.request.urlopen(args.url.rstrip("/") + endpoint) as response:
            data = response.read()
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "prom" if args.what == "metrics" else "json"
        target = out_dir / f"{args.what}.{suffix}"
        target.write_bytes(data)
        print(json.dumps({"event": "exported", "files": [str(target)]},
                         sort_keys=True))
        return 0
    from repro.obs import dump_workload
    from repro.persistence import load_workload_history
    from repro.workload_log import WorkloadLog

    history = load_workload_history(_require_file(Path(args.snapshot)))
    if history is None or not history:
        print(f"no workload history embedded in {args.snapshot}", file=sys.stderr)
        return 2
    log = WorkloadLog.from_workload(history)
    written = dump_workload(log, out_dir, fmt=args.format)
    print(json.dumps({"event": "exported", "files": [str(p) for p in written]},
                     sort_keys=True))
    return 0


def _add_build_parser(sub) -> None:
    p = sub.add_parser("build", help="build an index snapshot from a synthetic dataset")
    p.add_argument("out", help="snapshot path to write")
    p.add_argument("--region", default="newyork")
    p.add_argument("--num-points", type=int, default=100_000)
    p.add_argument("--index", default="wazi")
    p.add_argument("--leaf-capacity", type=int, default=64)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--workload-queries", type=int, default=200)
    p.add_argument("--selectivity", type=float, default=0.0256)
    p.add_argument("--shards", type=int, default=0,
                   help="also write an N-shard directory next to the snapshot")
    p.add_argument("--shard-dir", default=None)
    p.set_defaults(func=cmd_build)


def _add_serve_parser(sub) -> None:
    p = sub.add_parser("serve", help="serve a snapshot or shard directory over HTTP")
    p.add_argument("path", help="snapshot file or shard directory (shards.json)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="0 binds an ephemeral port (announced on stdout)")
    p.add_argument("--shards", type=int, default=0,
                   help="shard a snapshot on the fly before serving")
    p.add_argument("--workers", type=int, default=0,
                   help="shard-serving worker processes (0 = in-process)")
    p.add_argument("--mmap", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--record", action=argparse.BooleanOptionalAction, default=True,
                   help="record observed traffic (enables /advise, /adapt)")
    p.add_argument("--plan-cache", type=int, default=0,
                   help="attach a query-plan cache with this capacity")
    p.add_argument("--online", action="store_true",
                   help="enable the online lifecycle: /ingest + background "
                        "maintenance (LSM delta buffer, incremental adapt)")
    p.add_argument("--maintenance-interval", type=float, default=1.0,
                   help="background maintenance cadence in seconds (with --online)")
    p.add_argument("--compact-min-rows", type=int, default=4096,
                   help="delta rows that trigger compaction (with --online)")
    p.add_argument("--window-size", type=int, default=2048,
                   help="sliding workload-window size driving incremental "
                        "adapt (0 = unbounded, with --online)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_serve)


def _add_query_parser(sub) -> None:
    p = sub.add_parser("query", help="run one plan against a server or snapshot")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="base URL of a running repro serve")
    target.add_argument("--snapshot", help="query a snapshot in-process instead")
    p.add_argument("--rect", type=float, nargs=4, default=None,
                   metavar=("XMIN", "YMIN", "XMAX", "YMAX"))
    p.add_argument("--point", type=float, nargs=2, default=None, metavar=("X", "Y"))
    p.add_argument("--center", type=float, nargs=2, default=None, metavar=("X", "Y"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_query)


def _add_bench_parser(sub) -> None:
    p = sub.add_parser("bench", help="replay a drift scenario: observe, advise, adapt")
    p.add_argument("--region", default="newyork")
    p.add_argument("--num-points", type=int, default=100_000)
    p.add_argument("--num-queries", type=int, default=400)
    p.add_argument("--scenario", default="scan_heavy")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--min-speedup", type=float, default=None,
                   help="exit non-zero when the adapt win is below this")
    p.set_defaults(func=cmd_bench)


def _add_adapt_parser(sub) -> None:
    p = sub.add_parser("adapt", help="adapt a snapshot from its embedded history")
    p.add_argument("snapshot")
    p.add_argument("--out", default=None, help="write here instead of in place")
    p.add_argument("--min-improvement", type=float, default=1.2)
    p.add_argument("--force", action="store_true",
                   help="adapt even when the advisor says keep")
    p.set_defaults(func=cmd_adapt)


def _add_export_parser(sub) -> None:
    p = sub.add_parser("export", help="export observed workload / metrics")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--snapshot", help="dump the embedded workload history")
    source.add_argument("--url", help="scrape a running server instead")
    p.add_argument("--what", choices=("history", "metrics", "stats"),
                   default="history")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("npy", "csv", "both"), default="both",
                   help="history dump format")
    p.set_defaults(func=cmd_export)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WaZI reproduction: build, serve and adapt learned Z-indexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_build_parser(sub)
    _add_serve_parser(sub)
    _add_query_parser(sub)
    _add_bench_parser(sub)
    _add_adapt_parser(sub)
    _add_export_parser(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
