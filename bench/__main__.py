"""``python -m bench`` — run the benchmark and print every metric.

    python -m bench [--workload NAME]... [--seed N] [--seconds S]
                    [--trace [0|1]] [--json PATH] [--repeat K]

Runs the named workloads (all four by default) with inputs generated from
``--seed``, checks their outputs against the oracles and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or the per-layer ones with ``--trace``); with several
workloads, metric names gain a ``<workload>.`` prefix.  The exit code is 1
when any output failed its oracle.

Every workload run gets a process of its own, so ``rss_peak_mb`` is that
run's alone.  ``--repeat K`` runs each workload K times, with seeds N,
N+1, ..., and prints every metric's median and its spread (inter-quartile
range over median).  ``--json PATH`` adds each run, with the commit, seed
and environment, to a JSON document at PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from bench.common import FULL, ROOT, RUN_SECONDS, UNITS, WORKLOADS, require_library


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over median (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def commit() -> str:
    """The checkout's commit, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def append_json(path: Path, run: Dict) -> None:
    """Add one run, with its commit, to the document at ``path``."""
    document = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "runs": [],
    }
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    run["commit"] = commit()
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_here(args) -> int:
    """Run the one workload in this process; the last line is its verdict."""
    from bench.workloads import run_workload

    (name,) = args.workload
    result = run_workload(name, FULL, args.seed, args.seconds, bool(args.trace))
    print(result.render(), flush=True)
    for error in result.errors:
        print(f"{name}: {error}", file=sys.stderr)
    if args.json:
        append_json(Path(args.json), result.to_dict())
    verdict = result.line()
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["correct"] else 1


def run_child(args, name: str, seed: int) -> Tuple[int, List[str], Dict]:
    """One workload run in a child process: exit code, output, verdict."""
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.json:
        command += ["--json", args.json]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, lines, {}
    return proc.returncode, lines[:-1], verdict


def run_each(args) -> int:
    """Every workload once, each in its own process, then one verdict."""
    verdict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in args.workload:
        code, output, line = run_child(args, name, args.seed)
        print("\n".join(output), flush=True)
        verdict["correct"] &= code == 0 and bool(line.get("correct"))
        verdict["attempted"] += line.get("attempted", 0)
        verdict["failed"] += line.get("failed", 0)
        for metric, entry in line.get("metrics", {}).items():
            verdict["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["correct"] else 1


def repeat(args) -> int:
    """Each workload ``args.repeat`` times; median and spread per metric."""
    ok = True
    for name in args.workload:
        values: Dict[str, List[float]] = {}
        for seed in range(args.seed, args.seed + args.repeat):
            code, _, line = run_child(args, name, seed)
            if code != 0 or not line.get("correct"):
                print(f"{name} seed {seed}: failed (exit {code})", file=sys.stderr)
                ok = False
                continue
            for metric, entry in line["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':<36} {'median':>14} {'spread':>8}  unit")
        for metric, series in values.items():
            print(f"  {metric:<36} {statistics.median(series):>14.6g} "
                  f"{spread(series):>8.4f}  {UNITS[metric]}")
        sys.stdout.flush()
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds each run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer metrics from a traced run")
    parser.add_argument("--json", default=None, help="add the runs to this JSON document")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times, one seed each")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    if args.json:
        args.json = str(Path(args.json).resolve())
    require_library()
    if args.repeat:
        return repeat(args)
    if len(args.workload) > 1:
        return run_each(args)
    return run_here(args)


if __name__ == "__main__":
    sys.exit(main())
