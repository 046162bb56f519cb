"""The four workloads and the closed loop that drives them.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one returned, because the callers modelled
(a library call, a dashboard fetching a map tile) each wait for their
reply.  Each run builds WaZI from generated inputs, sets up the layer
under test :attr:`Profile.setup_repeats` times (``setup_s`` is the
median), then issues operations from a seeded, pre-generated sequence
until the run's seconds are used up.

The timed phase runs in *blocks* of a fixed number of operations until
the run's seconds are up.  After each block, outside the timer, its
sampled outputs are checked against the oracle and its latencies are
summarised per stretch (see :class:`Measurement`): twenty equal parts of
the seconds, or online-drift's first two episodes.  A latency
percentile and ``ops_per_s`` are reported from the quietest stretch.
Other tenants of the machine slow whole stretches of a run down,
sometimes most of it, and never speed one up; the number of stretches is
the same however fast the code is, so the statistic does not drift with
speed the way a minimum over a speed-dependent number of groups would.
Summarising stretches as they end keeps the harness's memory independent
of how fast the code under test is.

A traced run alternates untraced and traced blocks.  In traced blocks
span wrappers sit on the layer objects; in untraced blocks nothing does.
The traced blocks give the per-layer metrics, the throughput ratio of the
two kinds of block gives ``trace.overhead``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
from array import array
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import KnnQuery, PointQuery, RangeQuery, SpatialEngine, build_shards, open_sharded
from repro.geometry import Point, Rect, points_to_arrays
from repro.online import MaintenancePolicy
from repro.plancache import PlanCache
from repro.service import SpatialService, render_json_bytes
from repro.workloads import (
    dataset_extent,
    generate_checkin_centers,
    generate_dataset,
    generate_insert_points,
    hotspot_workload,
    moving_hotspot,
    range_queries_from_centers,
)

from bench.client import HttpClient, ServerProcess, server_env
from bench.common import (
    PER_LAYER,
    ROOT,
    Profile,
    Result,
    mean,
    peak_rss_bytes,
    sub_seed,
)
from bench.trace import SpanRecorder, assert_unwrapped

REGION = "newyork"
LEAF_CAPACITY = 64
#: The paper's check-in training workload: range queries at 0.0256 %.
TRAIN_SELECTIVITY = 0.0256
#: Table 2's selectivities (percent of the data space).
SELECTIVITIES = (0.0016, 0.0256, 0.1024, 2.0)
#: The indexed dataset, the training workload and the build are fixed, as
#: the paper's OSM extract and Gowalla workload are; ``--seed`` draws the
#: operations a run issues.  WaZI's layout is sensitive to its inputs:
#: re-drawing the data or the training sample per seed moves range p95 by
#: ~10 % between seeds, which would drown the regressions the bounds are
#: for, and one run has time to build only one layout.
INDEX_SEED = 2024
#: Which venues are popular is one fixed check-in population for the same
#: reason; the seed draws samples from it.
CHECKIN_POPULATION = 50_000
#: Equal stretches the timed seconds are cut into.  Their number is the
#: same however fast the code runs, so a statistic over them is too.
SLICES = 20
#: Fewest latency samples behind a percentile: ten beyond p95, the
#: highest gated one.
GROUP_MIN = 200
#: The Figure 9 split, read through the index's ``phase_timer`` hook.
PHASES = {"projection": "zindex.project", "scan": "kernels.scan"}
#: Raw spans a traced run keeps for its ``--json`` record.
RAW_SPANS = 200
#: The server's plan cache: the library's default capacity.
PLAN_CACHE = PlanCache().capacity
HTTP_BLOCK = 20
#: Tile requests generated per run, more than a run sends once the
#: server answers in well under a millisecond.
HTTP_REQUESTS = 50_000
#: Requests the in-process twin replays for the server-side layer split.
TWIN_REQUESTS = 2000
NUM_SHARDS = 4
SHARD_WORKERS = 2
#: The analytical scans' selectivity (``drift_scenario("scan_heavy")``'s).
SCAN_SELECTIVITY = 2.0
#: YCSB workload E ("short ranges"): 95 % scans, 5 % single-row inserts.
SCANS_PER_INSERT = 19
EPISODE_TICKS = 2
HOTSPOT_STEPS = 16

_FAILED = object()


@functools.cache
def _checkin_population():
    return generate_checkin_centers(REGION, CHECKIN_POPULATION, seed=INDEX_SEED)


def checkin_centers(num: int, seed: int) -> list:
    """``num`` check-in locations sampled (with replacement) by ``seed``."""
    population = _checkin_population()
    picks = np.random.default_rng(seed).integers(0, len(population), size=num)
    return [population[i] for i in picks.tolist()]


def build_wazi(points, train) -> SpatialEngine:
    """The index every workload serves: WaZI trained on ``train``."""
    return SpatialEngine.build("wazi", points, train, leaf_capacity=LEAF_CAPACITY, seed=INDEX_SEED)


def checkin_ranges(num: int, selectivity: float, seed: int) -> list:
    """Square range queries of ``selectivity`` % around check-in centers."""
    return range_queries_from_centers(
        checkin_centers(num, seed), dataset_extent(REGION), selectivity
    )


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def brute_range(xs: np.ndarray, ys: np.ndarray, rect) -> Tuple[np.ndarray, np.ndarray]:
    mask = (xs >= rect.xmin) & (xs <= rect.xmax) & (ys >= rect.ymin) & (ys <= rect.ymax)
    return xs[mask], ys[mask]


def same_rows(got, expected) -> bool:
    """Equal multisets of (x, y) rows, in any order."""
    gx, gy = (np.asarray(a, dtype=np.float64) for a in got)
    ex, ey = (np.asarray(a, dtype=np.float64) for a in expected)
    if gx.shape != ex.shape:
        return False
    g = np.lexsort((gy, gx))
    e = np.lexsort((ey, ex))
    return bool(np.array_equal(gx[g], ex[e]) and np.array_equal(gy[g], ey[e]))


def knn_matches(got, xs: np.ndarray, ys: np.ndarray, center, k: int) -> bool:
    """The result holds ``k`` rows whose distances are the ``k`` smallest."""
    gx, gy = got
    if len(gx) != min(k, len(xs)):
        return False
    got_d2 = np.sort((gx - center.x) ** 2 + (gy - center.y) ** 2)
    all_d2 = np.sort((xs - center.x) ** 2 + (ys - center.y) ** 2)[: len(gx)]
    return bool(np.array_equal(got_d2, all_d2))


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
class Measurement:
    """What the timed loop saw, summarised per stretch of the run.

    A stretch is one of :data:`SLICES` equal parts of the timed seconds,
    or, for a workload whose load changes within a block, one of its
    first ``stretch_blocks`` untraced blocks.  Their number is the same
    however fast the code runs.  A stretch's latencies are cut into
    groups of :data:`GROUP_MIN` samples per operation kind, and its
    percentile row is the median over those groups (what is left over
    joins the next stretch).  A stretch also gives a time per client
    call, with its maintenance time spread over its calls.  Operations
    past the last stretch count in the wall-clock totals only.
    """

    def __init__(
        self, seconds: float, maintenance: Tuple[str, ...] = (), stretch_blocks: int = 0
    ) -> None:
        self.origin = perf_counter_ns()
        #: Length of a time stretch, or ``None`` when blocks are the stretches.
        self.slice_ns = None if stretch_blocks else max(1, int(seconds * 1e9 / SLICES))
        self.stretches = stretch_blocks or SLICES
        #: Operation kinds that are maintenance rather than client calls.
        self.maintenance = maintenance
        #: Per stretch, per kind, the latency (ns) arrays of untraced blocks.
        self._open: Dict[int, Dict[str, List[array]]] = {}
        #: Per kind, µs samples short of a group, carried to the next stretch.
        self._pending: Dict[str, np.ndarray] = {}
        #: Per kind, one (p50, p95, p99) row in µs per stretch with a group.
        self.groups: Dict[str, List[np.ndarray]] = {}
        #: Time per client call of each stretch, maintenance included, µs.
        self.call_us: List[float] = []
        #: Per kind, untraced latency samples taken.
        self.sample_counts: Dict[str, int] = {}
        self.blocks = 0
        self.ops = 0
        self.wall_ns = 0
        self.traced_ops = 0
        self.traced_wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Per op kind, summed CostCounters deltas over traced blocks.
        self.counters: Dict[str, Dict[str, int]] = {}

    def stretch_of(self, t0: int) -> int:
        """The stretch an operation started at ``t0`` (ns) belongs to."""
        if self.slice_ns is None:
            return self.blocks
        return (t0 - self.origin) // self.slice_ns

    def add_block(
        self, latencies: Dict[Tuple[str, int], array], ops: int, wall_ns: int
    ) -> None:
        """Take an untraced block's latencies, keyed by (kind, stretch)."""
        self.blocks += 1
        self.ops += ops
        self.wall_ns += wall_ns
        for (kind, stretch), values in latencies.items():
            self.sample_counts[kind] = self.sample_counts.get(kind, 0) + len(values)
            self._open.setdefault(stretch, {}).setdefault(kind, []).append(values)
        self._fold(self.stretch_of(perf_counter_ns()))

    def add_traced_block(self, ops: int, wall_ns: int) -> None:
        self.traced_ops += ops
        self.traced_wall_ns += wall_ns

    def _fold(self, before: int) -> None:
        """Summarise every stretch that ended before stretch ``before``."""
        for stretch in sorted(k for k in self._open if k < before):
            kinds = self._open.pop(stretch)
            if stretch >= self.stretches:
                continue
            calls, call_us = 0, 0.0
            for kind, parts in kinds.items():
                values = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts]) / 1e3
                call_us += float(values.sum())
                if kind not in self.maintenance:
                    calls += len(values)
                samples = np.concatenate([self._pending.pop(kind, np.empty(0)), values])
                full = len(samples) - len(samples) % GROUP_MIN
                if full:
                    rows = np.percentile(
                        samples[:full].reshape(-1, GROUP_MIN), [50, 95, 99], axis=1
                    )
                    self.groups.setdefault(kind, []).append(np.median(rows, axis=1))
                self._pending[kind] = samples[full:]
            if calls:
                self.call_us.append(call_us / calls)

    def finish(self) -> None:
        """Summarise the remaining stretches.  Samples still short of a
        group are dropped, unless their kind has no row at all."""
        self._fold(self.stretches)
        self._open.clear()
        for kind, pending in self._pending.items():
            if kind not in self.groups and len(pending):
                self.groups[kind] = [np.percentile(pending, [50, 95, 99])]
        self._pending.clear()

    def percentile(self, kind: str, q: int) -> float:
        """Percentile ``q`` (50, 95 or 99) of the quietest stretch, µs."""
        groups = self.groups.get(kind)
        if not groups:
            return 0.0
        return min(float(row[(50, 95, 99).index(q)]) for row in groups)

    def call_rate(self) -> float:
        """Client calls per second in the quietest stretch."""
        return 1e6 / min(self.call_us) if self.call_us else 0.0

    def rate(self, traced: bool = False) -> float:
        """Operations per wall-clock second over untraced (or traced) blocks."""
        ops, wall = (self.traced_ops, self.traced_wall_ns) if traced else (self.ops, self.wall_ns)
        return ops / (wall / 1e9) if wall else 0.0


class Workload:
    """One workload: inputs, set-up, the timed operation, oracle, metrics."""

    name = ""
    #: Operation kinds that are maintenance rather than client calls: their
    #: time counts in ``ops_per_s``, the operations do not.
    maintenance_kinds: Tuple[str, ...] = ()
    #: Blocks whose load changes within them are the stretches of a run
    #: (see :class:`Measurement`): how many, 0 for time stretches.
    stretch_blocks = 0
    #: Hold sampled outputs until the run's metrics are taken, then check
    #: them (for an oracle whose memory must not count in ``rss_peak_mb``).
    check_at_end = False

    def __init__(self, profile: Profile, seed: int, workdir) -> None:
        self.profile = profile
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []
        self.next_op = 0
        self.engine: Optional[SpatialEngine] = None
        #: The span recorder while a traced block runs, else ``None``.
        self.rec: Optional[SpanRecorder] = None
        self.setups = 0
        self.setup_layers: Dict[str, List[float]] = {}
        #: Outputs kept for the oracle until the next check.
        self.samples: list = []
        self.checked = 0
        self.mismatches = 0

    # -- inputs --------------------------------------------------------
    def generate(self) -> None:
        profile = self.profile
        self.points = generate_dataset(REGION, profile.points, seed=INDEX_SEED)
        self.xs, self.ys = points_to_arrays(self.points)
        self.train = checkin_ranges(profile.train_queries, TRAIN_SELECTIVITY, INDEX_SEED)
        self.generate_ops()

    def generate_ops(self) -> None:
        raise NotImplementedError

    @property
    def block_ops(self) -> int:
        """Operations per block: one pass over the generated sequence."""
        return len(self.ops)

    def op(self, i: int):
        """The ``i``-th operation of the run, made outside the timer."""
        return self.ops[i % len(self.ops)]

    # -- set-up --------------------------------------------------------
    def timed_setup(self) -> float:
        """Tear down the previous set-up, set up afresh; returns the seconds."""
        self.discard()
        gc.collect()
        start = perf_counter()
        self.setup()
        seconds = perf_counter() - start
        self.setups += 1
        return seconds

    def record_layer(self, name: str, seconds: float) -> None:
        self.setup_layers.setdefault(name, []).append(seconds)

    def build(self) -> SpatialEngine:
        start = perf_counter()
        engine = build_wazi(self.points, self.train)
        self.record_layer("construction.build_s", perf_counter() - start)
        return engine

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Release what the last :meth:`setup` created (no-op before it)."""

    # -- the timed operation ---------------------------------------------
    def begin_block(self, first: bool) -> None:
        """Untimed preparation before a block."""

    def execute(self, op):
        raise NotImplementedError

    def observe(self, i: int, op, value, ns: int) -> None:
        """Untimed bookkeeping after each operation (oracle samples)."""

    def rows(self, result):
        """Pull a result's rows as coordinate columns."""
        rec = self.rec
        if rec is None:
            return result.as_arrays()
        span = rec.begin("results.materialize")
        try:
            return result.as_arrays()
        finally:
            rec.end(span)

    def counters(self):
        """The cost counters the timed operations advance, if in-process."""
        return None

    def measure(self, seconds: float, rec: Optional[SpanRecorder]) -> Measurement:
        """Run blocks until ``seconds`` have passed (a traced run: at least
        one untraced and one traced block)."""
        m = Measurement(seconds, self.maintenance_kinds, self.stretch_blocks)
        block_ops = self.block_ops
        min_blocks = max(1 if rec is None else 2, self.stretch_blocks)
        deadline = m.origin + int(seconds * 1e9)
        blocks = 0
        while True:
            traced = rec if rec is not None and blocks % 2 == 1 else None
            self.begin_block(blocks == 0)
            if traced is not None:
                self.rec = traced
                self.trace_on(traced)
            try:
                self._run_block(block_ops, traced, m)
            finally:
                if traced is not None:
                    self.trace_off()
                    traced.unwrap_all()
                    self.rec = None
            self.assert_untraced()
            if not self.check_at_end:
                self.check_block()
            blocks += 1
            if blocks >= min_blocks and perf_counter_ns() >= deadline:
                break
        m.finish()
        return m

    def _run_block(self, count: int, rec: Optional[SpanRecorder], m: Measurement) -> None:
        execute, observe, next_op, stretch_of = self.execute, self.observe, self.op, m.stretch_of
        counters = self.counters() if rec is not None else None
        latencies: Dict[Tuple[str, int], array] = {}
        i = self.next_op
        start = perf_counter_ns()
        for i in range(i, i + count):
            op = next_op(i)
            kind = op[0]
            if rec is not None:
                before = dict(vars(counters)) if counters is not None else None
                root = rec.request("op." + kind)
            t0 = perf_counter_ns()
            try:
                value = execute(op)
            except Exception as exc:  # a failed operation is counted, the loop goes on
                value = _FAILED
                m.failed += 1
                if len(m.errors) < 5:
                    m.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            t1 = perf_counter_ns()
            if rec is not None:
                rec.end(root)
                if before is not None:
                    sums = m.counters.setdefault(kind, {"ops": 0})
                    sums["ops"] += 1
                    for name, after in vars(counters).items():
                        sums[name] = sums.get(name, 0) + after - before[name]
            if value is not _FAILED:
                key = (kind, stretch_of(t0))
                samples = latencies.get(key)
                if samples is None:
                    samples = latencies[key] = array("q")
                samples.append(t1 - t0)
                observe(i, op, value, t1 - t0)
        wall = perf_counter_ns() - start
        self.next_op = i + 1
        m.attempted += count
        if rec is None:
            m.add_block(latencies, count, wall)
        else:
            m.add_traced_block(count, wall)

    # -- tracing -------------------------------------------------------
    def trace_on(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def trace_off(self) -> None:
        """Undo what :meth:`trace_on` set besides wrappers (phase timers)."""

    def traced_objects(self) -> list:
        return []

    def assert_untraced(self) -> None:
        objects = self.traced_objects()
        assert_unwrapped(*objects)
        for obj in objects:
            if getattr(obj, "phase_timer", None) is not None:
                raise RuntimeError(f"phase timer left on {type(obj).__name__}")

    # -- results -------------------------------------------------------
    def check_block(self) -> None:
        """Check the sampled outputs held so far against the oracle."""
        for sample in self.samples:
            self.checked += 1
            self.mismatches += not self.verify(*sample)
        self.samples = []

    def verify(self, *sample) -> bool:
        raise NotImplementedError

    def peak_rss(self) -> int:
        return peak_rss_bytes()

    def bytes_per_point(self) -> float:
        return self.engine.size_bytes() / len(self.engine)

    def end_to_end(self, m: Measurement, setup_seconds: List[float]) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(setup_seconds),
            "range_p50_us": m.percentile("range", 50),
            "range_p95_us": m.percentile("range", 95),
            "ops_per_s": m.call_rate(),
            "rss_peak_mb": self.peak_rss() / 1e6,
            "index_bytes_per_point": self.bytes_per_point(),
        }

    def extras(self, m: Measurement) -> Dict[str, Tuple[float, str]]:
        extra: Dict[str, Tuple[float, str]] = {}
        for kind in sorted(m.groups):
            for q in (50, 95, 99):
                if kind != "range" or q == 99:
                    extra[f"{kind}_p{q}_us"] = (m.percentile(kind, q), "us")
            extra[f"{kind}_samples"] = (float(m.sample_counts.get(kind, 0)), "count")
        extra["blocks"] = (float(m.blocks), "count")
        extra["wall_ops_per_s"] = (m.rate(), "1/s")
        return extra

    def layer_metrics(self, m: Measurement, summary) -> Dict[str, float]:
        raise NotImplementedError

    def coverage(self, summary) -> float:
        """Layer self time over end-to-end time, across all traced requests."""
        layers = roots = 0
        for root, spans in summary.items():
            for name, stats in spans.items():
                if name == root:
                    roots += stats["total_ns"]
                else:
                    layers += stats["self_ns"]
        return layers / roots if roots else 0.0

    def overhead(self, m: Measurement) -> float:
        """Share of throughput lost in traced blocks (``1 - traced/untraced``)."""
        untraced = m.rate()
        return 1.0 - m.rate(traced=True) / untraced if untraced else 0.0


def per_op_us(summary, kind: str, span: str, field: str = "self_ns") -> float:
    """Mean ``field`` of ``span`` per traced ``kind`` request, in µs."""
    spans = summary.get("op." + kind, {})
    requests = spans.get("op." + kind, {}).get("count", 0)
    if not requests:
        return 0.0
    return spans.get(span, {}).get(field, 0) / requests / 1e3


def per_call_us(summary, kind: str, span: str) -> float:
    """Mean duration of one ``span`` call inside ``kind`` requests, in µs."""
    stats = summary.get("op." + kind, {}).get(span)
    if not stats or not stats["count"]:
        return 0.0
    return stats["total_ns"] / stats["count"] / 1e3


def counter_layers(sums: Optional[Dict[str, int]]) -> Dict[str, float]:
    """Per-query CostCounters (Figure 13's vocabulary) from summed deltas."""
    if not sums or not sums.get("ops"):
        return {}
    n = sums["ops"]
    filtered = sums["points_filtered"]
    return {
        "zindex.nodes_visited_per_query": sums["nodes_visited"] / n,
        "zindex.bbs_checked_per_query": sums["bbs_checked"] / n,
        "zindex.leaves_skipped_per_query": sums["leaves_skipped"] / n,
        "zindex.pages_scanned_per_query": sums["pages_scanned"] / n,
        "kernels.points_filtered_per_query": filtered / n,
        "kernels.scan_precision": sums["points_returned"] / filtered if filtered else 0.0,
        "results.rows_per_query": sums["points_returned"] / n,
    }


# ----------------------------------------------------------------------
# engine-paper
# ----------------------------------------------------------------------
class EnginePaper(Workload):
    """The paper's experiment, in process.

    Range queries at Table 2's four selectivities around check-in centers,
    point queries (half of them hits) and kNN (k=10), interleaved in a
    seeded order at the mix 200 : 50 : 2.  Rows are pulled through
    ``ResultSet.as_arrays()``; the plan cache is off, so no two inputs
    share work.  Nearly all time is in ``zindex``, ``kernels`` and
    ``results``.
    """

    name = "engine-paper"
    ORACLE_EVERY = 97

    def generate_ops(self) -> None:
        seed, per_class = self.seed, self.profile.pool
        ops = []
        for j, selectivity in enumerate(SELECTIVITIES):
            for rect in checkin_ranges(per_class, selectivity, sub_seed(seed, 10 + j)):
                ops.append(("range", RangeQuery(rect)))
        num_ranges = len(ops)
        # Point queries: half are dataset points, half fresh draws that miss.
        rng = np.random.default_rng(sub_seed(seed, 21))
        hits = [self.points[k] for k in rng.integers(0, len(self.points), num_ranges // 8)]
        misses = generate_dataset(REGION, num_ranges // 8, seed=sub_seed(seed, 22))
        ops.extend(("point", PointQuery(point)) for point in hits + misses)
        for center in checkin_centers(max(1, num_ranges // 100), sub_seed(seed, 20)):
            ops.append(("knn", KnnQuery(center, 10)))
        order = rng.permutation(len(ops))
        self.ops = [ops[k] for k in order.tolist()]

    def setup(self) -> None:
        self.engine = self.build()
        self.engine.execute_many([RangeQuery(r) for r in self.train], count_only=True)

    def counters(self):
        return self.engine.counters

    def execute(self, op):
        kind, plan = op
        if kind == "point":
            return self.engine.execute(plan)
        return self.rows(self.engine.execute(plan))

    def observe(self, i, op, value, ns) -> None:
        if i % self.ORACLE_EVERY == 0:
            self.samples.append((op, value))

    def verify(self, op, value) -> bool:
        kind, plan = op
        xs, ys = self.xs, self.ys
        if kind == "range":
            return same_rows(value, brute_range(xs, ys, plan.rect))
        if kind == "point":
            return value == bool(np.any((xs == plan.point.x) & (ys == plan.point.y)))
        return knn_matches(value, xs, ys, plan.center, plan.k)

    def trace_on(self, rec: SpanRecorder) -> None:
        engine, index = self.engine, self.engine.index
        rec.wrap(engine, "execute", "engine.execute")
        rec.wrap(index, "range_query", "zindex.range_query")
        rec.wrap(index, "point_query", "zindex.point_query")
        rec.wrap(index, "knn", "zindex.knn")
        engine.phase_timer = rec.phase_timer(PHASES)

    def trace_off(self) -> None:
        self.engine.phase_timer = None

    def traced_objects(self) -> list:
        return [self.engine, self.engine.index]

    def layer_metrics(self, m, summary) -> Dict[str, float]:
        out = counter_layers(m.counters.get("range"))
        out.update({
            "engine.self_us": per_op_us(summary, "range", "engine.execute"),
            "zindex.project_us": per_op_us(summary, "range", "zindex.project"),
            "kernels.scan_us": per_op_us(summary, "range", "kernels.scan"),
            "results.materialize_us": per_op_us(summary, "range", "results.materialize"),
            "zindex.point_us": per_call_us(summary, "point", "zindex.point_query"),
            "zindex.knn_us": per_call_us(summary, "knn", "zindex.knn"),
        })
        return out


# ----------------------------------------------------------------------
# http-tiles
# ----------------------------------------------------------------------
class HttpTiles(Workload):
    """A dashboard fetching map tiles from ``python -m repro serve``.

    One keep-alive connection sends single-plan range requests that return
    rows.  Each request is the tile holding one check-in: tiles are the
    cells of a fixed grid over the extent, as in a web map tile scheme
    (OGC WMTS), one grid per Table 2 selectivity with tiles of that area.
    Which tiles repeat, and how often, therefore follows the check-in
    density alone; the server's plan cache keeps the library's default
    capacity.  The four selectivities take turns in seeded order, which
    keeps every seed's mix of response sizes the same: the largest
    responses exceed the loopback MSS and skip the Nagle stall that
    smaller ones pay, so an unbalanced draw would move every metric.  The
    only workload where ``service`` (decode, parse, render, transport)
    and ``plancache`` do work.  Server-side layers are measured on an
    in-process ``SpatialService`` twin replaying the same requests.
    """

    name = "http-tiles"

    def generate_ops(self) -> None:
        seed, extent = self.seed, dataset_extent(REGION)
        rng = np.random.default_rng(sub_seed(seed, 34))
        classes = np.concatenate([rng.permutation(4) for _ in range(HTTP_REQUESTS // 4)])
        spec_ids: Dict[Tuple[int, int, int], int] = {}
        self.specs: List[bytes] = []
        requests = np.empty(len(classes), dtype=np.int64)
        for j, selectivity in enumerate(SELECTIVITIES):
            side = float(np.sqrt(extent.area * selectivity / 100.0))
            at = np.flatnonzero(classes == j)
            centers = checkin_centers(len(at), sub_seed(seed, 30 + j))
            for k, center in zip(at.tolist(), centers):
                col = int((center.x - extent.xmin) // side)
                row = int((center.y - extent.ymin) // side)
                spec = spec_ids.get((j, col, row))
                if spec is None:
                    x, y = extent.xmin + col * side, extent.ymin + row * side
                    body = {"kind": "range", "rect": [x, y, x + side, y + side]}
                    spec = spec_ids[j, col, row] = len(self.specs)
                    self.specs.append(json.dumps(body).encode("utf-8"))
                requests[k] = spec
        self.ops = [("range", k) for k in requests.tolist()]
        self.sent: List[int] = []
        self.expected: Dict[int, bytes] = {}
        self.response_bytes = 0
        self.server: Optional[ServerProcess] = None
        self.oracle: Optional[SpatialService] = None

    @property
    def block_ops(self) -> int:
        return HTTP_BLOCK

    def setup(self) -> None:
        engine = self.build()
        self.snapshot = self.workdir / f"snapshot-{self.setups}.zip"
        start = perf_counter()
        engine.save(self.snapshot)
        self.record_layer("persistence.save_s", perf_counter() - start)
        del engine
        start = perf_counter()
        self.server = ServerProcess(
            [str(self.snapshot), "--port", "0", "--plan-cache", str(PLAN_CACHE), "--quiet"],
            cwd=ROOT, env=server_env(ROOT / "src", self.workdir),
        )
        self.client = HttpClient(self.server.host, self.server.port)
        self.client.get_json("/healthz")
        self.record_layer("persistence.serve_ready_s", perf_counter() - start)

    def discard(self) -> None:
        if self.server is not None:
            self.client.close()
            self.server.close()
            self.server = None

    def execute(self, op):
        return self.client.request("POST", "/query", self.specs[op[1]])

    def observe(self, i, op, value, ns) -> None:
        self.sent.append(op[1])
        self.response_bytes += len(value[1])
        self.samples.append((op[1], value))

    def twin(self) -> SpatialService:
        """A fresh in-process twin of the server (same snapshot and flags)."""
        engine = SpatialEngine.load(self.snapshot, record=True, mmap=True, plan_cache=PLAN_CACHE)
        return SpatialService(engine)

    def verify(self, spec, value) -> bool:
        """Every response byte-equals what the in-process twin renders."""
        status, body = value
        digest = hashlib.blake2b(body, digest_size=16).digest()
        if spec not in self.expected:
            if self.oracle is None:
                self.oracle = self.twin()
            payload = json.loads(self.specs[spec])
            expected = render_json_bytes(self.oracle.handle_query(payload))
            self.expected[spec] = hashlib.blake2b(expected, digest_size=16).digest()
        return status == 200 and digest == self.expected[spec]

    def trace_on(self, rec: SpanRecorder) -> None:
        pass  # the client has no layers; the twin replay is traced instead

    def peak_rss(self) -> int:
        return peak_rss_bytes(self.server.pid)

    def bytes_per_point(self) -> float:
        stats = self.client.get_json("/stats")
        return stats["size_bytes"] / stats["num_points"]

    def replay(self, twin: SpatialService, rec: Optional[SpanRecorder]) -> List[int]:
        """Send the server's first requests through the twin; per-request ns."""
        latencies = []
        for spec in self.sent[:TWIN_REQUESTS]:
            body = self.specs[spec]
            root = rec.request("op.request") if rec is not None else None
            start = perf_counter_ns()
            if rec is None:
                render_json_bytes(twin.handle_query(json.loads(body)))
            else:
                span = rec.begin("service.decode")
                payload = json.loads(body)
                rec.end(span)
                span = rec.begin("service.handle_query")
                result = twin.handle_query(payload)
                rec.end(span)
                span = rec.begin("service.render_json")
                render_json_bytes(result)
                rec.end(span)
            latencies.append(perf_counter_ns() - start)
            if rec is not None:
                rec.end(root)
        return latencies

    def layer_metrics(self, m, summary) -> Dict[str, float]:
        self.replay(self.twin(), None)  # warms the page cache for both replays
        twin = self.twin()
        rec = SpanRecorder()
        rec.wrap(twin, "parse_plan", "service.parse")
        rec.wrap(twin.engine, "execute", "engine.execute")
        rec.wrap(twin.engine.index, "range_query", "zindex.range_query")
        twin.engine.phase_timer = rec.phase_timer(PHASES)
        counters = twin.engine.counters
        before = dict(vars(counters))
        start = perf_counter_ns()
        self.replay(twin, rec)
        traced_ns = perf_counter_ns() - start
        rec.unwrap_all()
        twin.engine.phase_timer = None
        assert_unwrapped(twin, twin.engine, twin.engine.index)
        sums = {k: v - before[k] for k, v in vars(counters).items()}
        twin = self.twin()
        start = perf_counter_ns()
        plain = self.replay(twin, None)
        plain_ns = perf_counter_ns() - start
        sums["ops"] = len(plain)
        self.twin_summary = twin_summary = rec.summary()
        self.twin_overhead = 1.0 - plain_ns / traced_ns
        cache = self.client.get_json("/stats").get("plan_cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        seen: set = set()
        repeats = 0
        for spec in self.sent:
            repeats += spec in seen
            seen.add(spec)
        handler_p50 = float(np.percentile(plain, 50)) / 1e3
        out = counter_layers(sums)
        out.update({
            "engine.self_us": per_op_us(twin_summary, "request", "engine.execute"),
            "zindex.project_us": per_op_us(twin_summary, "request", "zindex.project"),
            "kernels.scan_us": per_op_us(twin_summary, "request", "kernels.scan"),
            "service.decode_us": per_op_us(twin_summary, "request", "service.decode"),
            "service.parse_us": per_op_us(twin_summary, "request", "service.parse"),
            "service.render_us": (
                per_op_us(twin_summary, "request", "service.handle_query")
                + per_op_us(twin_summary, "request", "service.render_json")
            ),
            "service.response_bytes": self.response_bytes / len(self.sent),
            "service.transport_us": m.percentile("range", 50) - handler_p50,
            "plancache.hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
            "plancache.evictions": float(cache.get("evictions", 0)),
            "plancache.repeat_share": repeats / len(self.sent),
        })
        return out

    def coverage(self, summary) -> float:
        return super().coverage(self.twin_summary)

    def overhead(self, m) -> float:
        return self.twin_overhead


# ----------------------------------------------------------------------
# online-drift
# ----------------------------------------------------------------------
class OnlineDrift(Workload):
    """Writes beside reads on one online index.

    The operation mix is YCSB workload E's ("short ranges"): 95 % range
    scans and 5 % single-row inserts, here in rounds of one insert
    through ``engine.insert`` and 19 scans.  The scans follow
    ``moving_hotspot``; the inserted rows are uniform over the data
    space, the paper's insert stream (``generate_insert_points``).
    ``loop.run_once()`` runs whenever the delta holds the compaction row
    trigger's rows (the policy's default), on this op-count clock rather
    than the background timer, and its time counts in ``ops_per_s``.  A
    block is one episode of two maintenance cycles that starts from the
    saved index: compaction cost grows with the index, so episodes of
    fixed length keep the work of a block the same however fast the code
    is.  A gain in ingest, merge-on-read or maintenance that costs query
    latency shows here.
    """

    name = "online-drift"
    maintenance_kinds = ("tick",)
    #: The hotspot moves through an episode, so a time stretch would hold
    #: a different load depending on speed; each episode is a stretch.
    stretch_blocks = 2
    ORACLE_EVERY = 199

    def generate_ops(self) -> None:
        seed = self.seed
        self.tick_every = self.profile.compact_rows
        rows = EPISODE_TICKS * self.tick_every
        self.inserts = generate_insert_points(REGION, rows, seed=sub_seed(seed, 40))
        self.fresh_xs, self.fresh_ys = points_to_arrays(self.inserts)
        self.rects = self.hotspot_rects(rows * SCANS_PER_INSERT, sub_seed(seed, 41))
        #: One cycle: ``tick_every`` rounds of an insert and its scans, then a tick.
        self.cycle = self.tick_every * (1 + SCANS_PER_INSERT) + 1
        self.ticks: list = []
        self.delta_rows: List[int] = []
        self.timed_bases: list = []
        self.full_delta_bytes_per_point: Optional[float] = None

    @staticmethod
    def hotspot_rects(num: int, seed: int) -> np.ndarray:
        """``moving_hotspot``'s ``num`` queries as an ``(num, 4)`` array.

        The steps are generated one at a time, with the generator's own
        per-step seeds, so that only one step's query objects are alive:
        a whole run's worth would hold tens of MB in the harness, which
        ``rss_peak_mb`` counts.
        """
        per_step = -(-num // HOTSPOT_STEPS)
        steps = moving_hotspot(REGION, num_steps=HOTSPOT_STEPS, queries_per_step=1, seed=seed)
        rects = []
        for step, phase in enumerate(steps):
            spec = phase.workload
            queries = hotspot_workload(
                REGION, per_step, spec.selectivity_percent,
                hotspot_center=tuple(spec.extra["hotspot_center"]),
                hotspot_fraction=spec.extra["hotspot_fraction"],
                seed=seed + step,
            ).queries
            rects.append(np.array([(q.xmin, q.ymin, q.xmax, q.ymax) for q in queries]))
        return np.concatenate(rects)[:num]

    @property
    def block_ops(self) -> int:
        return EPISODE_TICKS * self.cycle

    def op(self, i: int):
        """Position ``i`` of the episode: an insert, a scan or a tick."""
        cycle, at = divmod(i, self.cycle)
        if at == self.cycle - 1:
            return ("tick",)
        round_, k = divmod(at, 1 + SCANS_PER_INSERT)
        row = cycle * self.tick_every + round_
        if k == 0:
            return ("ingest", row)
        rect = Rect(*self.rects[row * SCANS_PER_INSERT + k - 1].tolist())
        return ("range", RangeQuery(rect), row)

    def setup(self) -> None:
        engine = self.build()
        self.snapshot = self.workdir / f"snapshot-{self.setups}.zip"
        start = perf_counter()
        engine.save(self.snapshot)
        self.record_layer("persistence.save_s", perf_counter() - start)
        self.start_episode()

    def start_episode(self) -> None:
        """Serve the saved index online, from a clean delta and log."""
        self.engine = SpatialEngine.load(self.snapshot)
        policy = MaintenancePolicy(compact_min_rows=self.profile.compact_rows)
        self.loop = self.engine.online(policy, start=False)
        self.engine.execute_many([RangeQuery(r) for r in self.train], count_only=True)
        self.next_op = 0
        self.ingested = 0

    def begin_block(self, first: bool) -> None:
        if not first:
            self.discard()
            self.start_episode()

    def discard(self) -> None:
        if self.engine is not None:
            self.engine.offline(compact=False)
            self.engine = None

    def counters(self):
        return self.engine.counters

    def execute(self, op):
        kind = op[0]
        if kind == "range":
            return self.rows(self.engine.execute(op[1]))
        if kind == "ingest":
            return self.engine.insert(self.inserts[op[1]])
        return self.loop.run_once()

    def observe(self, i, op, value, ns) -> None:
        kind = op[0]
        if kind == "ingest":
            self.ingested += 1
            if op[1] + 1 == self.tick_every and self.full_delta_bytes_per_point is None:
                self.full_delta_bytes_per_point = self.engine.size_bytes() / len(self.engine)
        elif kind == "range":
            # Sampled throughout, and every scan of the rounds beside a tick.
            if i % self.ORACLE_EVERY == 0 or op[2] % self.tick_every in (0, self.tick_every - 1):
                self.samples.append((op[1].rect, self.ingested, value))
            if self.rec is not None:
                self.delta_rows.append(self.engine.index.delta_stats()["live"])
        else:
            self.ticks.append((value, ns))
            if self.rec is not None:
                self.trace_base(self.rec)

    def verify(self, rect, ingested, value) -> bool:
        """Rows equal a brute force over the base plus the rows ingested so far."""
        xs = np.concatenate([self.xs, self.fresh_xs[:ingested]])
        ys = np.concatenate([self.ys, self.fresh_ys[:ingested]])
        return same_rows(value, brute_range(xs, ys, rect))

    def bytes_per_point(self) -> float:
        """Base plus delta, when the delta holds a full compaction's rows."""
        return self.full_delta_bytes_per_point

    def trace_on(self, rec: SpanRecorder) -> None:
        engine, online = self.engine, self.engine.index
        rec.wrap(engine, "execute", "engine.execute")
        rec.wrap(engine, "insert", "engine.insert")
        rec.wrap(online, "range_query", "online.range_query")
        rec.wrap(online, "insert", "online.insert")
        rec.wrap(self.loop, "run_once", "online.maintenance")
        self.timed_bases = []
        self.trace_base(rec)

    def trace_base(self, rec: SpanRecorder) -> None:
        """Trace the current base index (maintenance swaps it)."""
        base = self.engine.index.base
        if any(seen is base for seen in self.timed_bases):
            return
        rec.wrap(base, "range_query", "zindex.range_query")
        base.phase_timer = rec.phase_timer(PHASES)
        self.timed_bases.append(base)

    def trace_off(self) -> None:
        for base in self.timed_bases:
            base.phase_timer = None

    def traced_objects(self) -> list:
        online = self.engine.index
        return [self.engine, online, online.base, self.loop] + self.timed_bases

    def layer_metrics(self, m, summary) -> Dict[str, float]:
        out = counter_layers(m.counters.get("range"))
        delta_rows = mean(self.delta_rows)
        compactions = [s["compaction"] for s, _ in self.ticks if s.get("compacted")]
        compact_s = sum(c["seconds"] for c in compactions)
        merged = sum(c["merged_inserts"] + c["merged_tombstones"] for c in compactions)
        out.update({
            "engine.self_us": per_op_us(summary, "range", "engine.execute"),
            "online.merge_us": per_op_us(summary, "range", "online.range_query"),
            "zindex.project_us": per_op_us(summary, "range", "zindex.project"),
            "kernels.scan_us": per_op_us(summary, "range", "kernels.scan"),
            "results.materialize_us": per_op_us(summary, "range", "results.materialize"),
            "online.insert_us": per_call_us(summary, "ingest", "online.insert"),
            "online.delta_rows": delta_rows,
            "online.compact_s": compact_s / len(compactions) if compactions else 0.0,
            "online.compact_rows_per_s": merged / compact_s if compact_s else 0.0,
            "online.adapt_s": mean([
                ns / 1e9 - s.get("compaction", {}).get("seconds", 0.0) for s, ns in self.ticks
            ]),
            "online.adapt_scope": mean([s["scope"] for s, _ in self.ticks]),
        })
        if "kernels.points_filtered_per_query" in out:
            # The merged read counts delta rows as filtered; split them off.
            scan_cost = out["kernels.points_filtered_per_query"]
            out["online.scan_cost_per_query"] = scan_cost
            out["kernels.points_filtered_per_query"] = scan_cost - delta_rows
        return out


# ----------------------------------------------------------------------
# sharded-scan
# ----------------------------------------------------------------------
class ShardedScan(Workload):
    """Analytical scans over Z-range shards served by worker processes.

    ``build_shards(..., 4, workload=train)`` and ``open_sharded(workers=2,
    mmap=True)`` behind a ``SpatialEngine``; region-wide 2 % range
    queries that return rows, as ``drift_scenario("scan_heavy")``'s
    analytical phase issues them.  The only workload where ``serving``
    (scatter, IPC, merge) runs, and the one with the largest results.

    The index is built and cut into shards in a child process, outputs
    are kept as digests, and the oracle's unsharded twin is built only
    after the memory probe: ``rss_peak_mb`` counts the dispatcher and its
    workers, not the build's peak or the oracle.
    """

    name = "sharded-scan"
    ORACLE_EVERY = 49
    check_at_end = True

    def generate_ops(self) -> None:
        # One uniform center per cell of a grid over the extent: the same
        # distribution as drift_scenario("scan_heavy")'s analytical phase,
        # stratified so that a pool small enough to repeat ~30 times a run
        # still covers the extent evenly on every seed.
        rng = np.random.default_rng(sub_seed(self.seed, 50))
        side = max(2, int(np.sqrt(self.profile.pool * 0.4)))
        cells = np.arange(side * side)
        extent = dataset_extent(REGION)
        xs = extent.xmin + (cells % side + rng.random(cells.size)) * extent.width / side
        ys = extent.ymin + (cells // side + rng.random(cells.size)) * extent.height / side
        rects = range_queries_from_centers(
            [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())], extent, SCAN_SELECTIVITY
        )
        self.ops = [("range", RangeQuery(rects[k])) for k in rng.permutation(len(rects)).tolist()]
        self._twin: Optional[SpatialEngine] = None

    def setup(self) -> None:
        shard_dir = self.workdir / f"shards-{self.setups}"
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=fork) as pool:
            build_s, shard_s = pool.submit(
                build_sharded, self.points, self.train, shard_dir
            ).result()
        self.record_layer("construction.build_s", build_s)
        self.record_layer("serving.shard_build_s", shard_s)
        start = perf_counter()
        self.engine = SpatialEngine(open_sharded(shard_dir, workers=SHARD_WORKERS, mmap=True))
        pin_workers()
        self.engine.execute(RangeQuery(self.train[0]), count_only=True)
        self.record_layer("serving.open_s", perf_counter() - start)

    def discard(self) -> None:
        if self.engine is not None:
            self.engine.index.close()
            self.engine = None

    def twin(self) -> SpatialEngine:
        """The unsharded engine the shards are cut from, built on first use."""
        if self._twin is None:
            self._twin = build_wazi(self.points, self.train)
        return self._twin

    def counters(self):
        return self.engine.counters

    def execute(self, op):
        return self.rows(self.engine.execute(op[1]))

    def observe(self, i, op, value, ns) -> None:
        if i % self.ORACLE_EVERY == 0:
            self.samples.append((op[1], rows_digest(value)))

    def verify(self, plan, digest) -> bool:
        """Rows equal the unsharded engine's, in the same order."""
        return digest == rows_digest(self.twin().execute(plan).as_arrays())

    def trace_on(self, rec: SpanRecorder) -> None:
        rec.wrap(self.engine, "execute", "engine.execute")
        rec.wrap(self.engine.index, "range_query", "serving.range_query")

    def traced_objects(self) -> list:
        return [self.engine, self.engine.index]

    def peak_rss(self) -> int:
        workers = {child.pid for child in multiprocessing.active_children()}
        return peak_rss_bytes() + sum(peak_rss_bytes(pid) for pid in workers)

    def measure(self, seconds, rec) -> Measurement:
        self.engine.index.reset_busy()
        return super().measure(seconds, rec)

    def layer_metrics(self, m, summary) -> Dict[str, float]:
        sharded = self.engine.index
        busy = sharded.shard_busy_seconds
        ops = m.attempted
        route = [len(sharded.plan.route_rect(plan.rect)) for _, plan in self.ops]
        full, part = divmod(ops, len(route))
        fanout = (full * sum(route) + sum(route[:part])) / ops
        twin, latencies = self.twin(), []
        for _, plan in self.ops[:2000]:
            start = perf_counter_ns()
            twin.execute(plan).as_arrays()
            latencies.append(perf_counter_ns() - start)
        out = counter_layers(m.counters.get("range"))
        out.update({
            "engine.self_us": per_op_us(summary, "range", "engine.execute"),
            "results.materialize_us": per_op_us(summary, "range", "results.materialize"),
            "serving.shard_busy_us_per_query": sum(busy) / ops * 1e6,
            "serving.busy_imbalance": max(busy) / mean(busy) if mean(busy) else 0.0,
            "serving.fanout": fanout,
            "serving.overhead_us": (
                m.percentile("range", 50) - float(np.percentile(latencies, 50)) / 1e3
            ),
        })
        return out


def build_sharded(points, train, shard_dir) -> Tuple[float, float]:
    """Build WaZI and cut it into shards; ``(build_s, shard_build_s)``."""
    start = perf_counter()
    engine = build_wazi(points, train)
    built = perf_counter()
    build_shards(engine.index, shard_dir, NUM_SHARDS, workload=train)
    return built - start, perf_counter() - built


def rows_digest(rows) -> bytes:
    """A digest of a result's coordinate columns, values and order."""
    digest = hashlib.blake2b(digest_size=16)
    for column in rows:
        digest.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    return digest.digest()


def pin_workers() -> None:
    """Give each shard worker a core of its own.

    Left to the scheduler, both workers sometimes share one core for a
    whole run: one seed's range p50 read 184-246 µs over five runs that
    way, and 173-194 µs with the workers pinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    children = sorted(multiprocessing.active_children(), key=lambda child: child.pid)
    for k, child in enumerate(children):
        os.sched_setaffinity(child.pid, {cpus[k % len(cpus)]})


WORKLOAD_CLASSES = {cls.name: cls for cls in (EnginePaper, HttpTiles, OnlineDrift, ShardedScan)}


def run_workload(
    name: str, profile: Profile, seed: int, seconds: float, trace: bool
) -> Result:
    """Generate, set up, measure, check and report one workload run."""
    workdir = ROOT / ".bench_build" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_CLASSES[name](profile, seed, workdir)
    try:
        workload.generate()
        setup_seconds = [workload.timed_setup() for _ in range(profile.setup_repeats)]
        rec = SpanRecorder() if trace else None
        gc.collect()
        m = workload.measure(seconds, rec)
        result = Result(workload=name, seed=seed, traced=trace)
        result.attempted = m.attempted
        if rec is None:
            result.metrics = workload.end_to_end(m, setup_seconds)
            result.extra = workload.extras(m)
        else:
            summary = rec.summary()
            layers = dict.fromkeys((metric for metric, _ in PER_LAYER), 0.0)
            layers.update(
                {layer: statistics.median(v) for layer, v in workload.setup_layers.items()}
            )
            layers.update(workload.layer_metrics(m, summary))
            layers["trace.overhead"] = workload.overhead(m)
            layers["trace.coverage"] = workload.coverage(summary)
            result.metrics = layers
            result.spans = summary
            result.raw_spans = rec.raw(RAW_SPANS)
        workload.check_block()
        result.checked = workload.checked
        result.failed = m.failed + workload.mismatches
        result.errors = m.errors
        return result
    finally:
        workload.discard()
        shutil.rmtree(workdir, ignore_errors=True)
