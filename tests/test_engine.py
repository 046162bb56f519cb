"""SpatialEngine facade: plan execution, lifecycle, and the free functions.

Covers the redesigned public surface:

* ``execute`` / ``execute_many`` dispatch for every plan type, including
  ``count_only`` and ``limit`` execution options,
* zero ``Point`` boxing on the Z-index family's count-only and
  array-consuming paths (a constructor spy counts every boxing),
* build/load/open/save lifecycle (structural and rebuild snapshots),
* the engine-based ``compare_indexes`` path forwarding per-index
  constructor kwargs (regression: they used to be dropped silently),
* uniform ``seed=None`` handling in ``build_index`` (regression: flood
  coerced it to 0),
* ``workload_summary`` covering kNN/join/snapshot measurements.
"""

from __future__ import annotations

import pytest

from repro.engine import SpatialEngine, as_engine, build_index
from repro.evaluation import (
    compare_indexes,
    measure_join_workload,
    measure_knn_queries,
    measure_range_queries,
    measure_snapshot_roundtrip,
    workload_summary,
)
from repro.geometry import Point, Rect
from repro.interfaces import brute_force_range
from repro.joins import box_join, knn_join, radius_join
from repro.obs import MetricsRegistry
from repro.query import JoinQuery, KnnQuery, PointQuery, RadiusQuery, RangeQuery
from repro.results import ResultSet
from repro.zindex import ZIndex

ZINDEX_FAMILY = ("wazi", "wazi-sk", "base", "base+sk")


@pytest.fixture()
def engine(uniform_points, sample_queries):
    return SpatialEngine.build(
        "wazi", uniform_points, sample_queries, leaf_capacity=16, seed=7
    )


class TestPlanValidation:
    def test_range_query_needs_rect(self):
        with pytest.raises(TypeError):
            RangeQuery((0, 0, 1, 1))

    def test_point_query_rejects_nan(self):
        with pytest.raises(ValueError):
            PointQuery(Point(float("nan"), 0.0))

    def test_knn_query_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KnnQuery(Point(0, 0), -1)
        with pytest.raises(ValueError):
            KnnQuery(Point(float("inf"), 0.0), 3)
        with pytest.raises(ValueError):
            KnnQuery(Point(0, 0), 3, initial_radius=-0.5)

    def test_radius_query_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            RadiusQuery(Point(0, 0), float("nan"))
        with pytest.raises(ValueError):
            RadiusQuery(Point(0, 0), -1.0)

    def test_join_query_validates_per_kind(self):
        probe = (Point(0.0, 0.0),)
        with pytest.raises(ValueError):
            JoinQuery(probe, "box")
        with pytest.raises(ValueError):
            JoinQuery(probe, "radius")
        with pytest.raises(ValueError):
            JoinQuery(probe, "knn")
        with pytest.raises(ValueError):
            JoinQuery(probe, "hash", half_width=0.1)
        with pytest.raises(ValueError):
            JoinQuery(probe, "box", half_width=-1.0)


class TestExecuteDispatch:
    def test_range_plan(self, engine, uniform_points, sample_queries):
        query = sample_queries[0]
        result = engine.execute(RangeQuery(query))
        assert isinstance(result, ResultSet)
        assert sorted(result.points(), key=Point.as_tuple) == sorted(
            brute_force_range(uniform_points, query), key=Point.as_tuple
        )
        assert engine.execute(RangeQuery(query), count_only=True) == result.count()

    def test_point_plan(self, engine, uniform_points):
        assert engine.execute(PointQuery(uniform_points[3])) is True
        assert engine.execute(PointQuery(Point(-5.0, -5.0))) is False
        assert engine.execute(PointQuery(uniform_points[3]), count_only=True) == 1
        assert engine.execute(PointQuery(Point(-5.0, -5.0)), count_only=True) == 0

    def test_knn_plan(self, engine, uniform_points):
        plan = KnnQuery(uniform_points[0], 5)
        result = engine.execute(plan)
        assert isinstance(result, ResultSet)
        assert result.count() == 5
        assert result == engine.index.knn(uniform_points[0], 5)
        assert engine.execute(plan, count_only=True) == 5

    def test_radius_plan(self, engine, uniform_points):
        plan = RadiusQuery(uniform_points[0], 0.1)
        result = engine.execute(plan)
        assert result == engine.index.radius_query(uniform_points[0], 0.1)
        assert engine.execute(plan, count_only=True) == result.count()

    def test_join_plans(self, engine, uniform_points):
        probes = tuple(uniform_points[:8])
        box = engine.execute(JoinQuery(probes, "box", half_width=0.05))
        assert box == box_join(engine.index, probes, 0.05)
        radius = engine.execute(JoinQuery(probes, "radius", radius=0.05))
        assert radius == radius_join(engine.index, probes, 0.05)
        knn = engine.execute(JoinQuery(probes, "knn", k=3))
        expected = knn_join(engine.index, probes, 3)
        assert [(p, list(ns)) for p, ns in knn] == [
            (p, list(ns)) for p, ns in expected
        ]

    def test_join_count_only_matches_pair_count(self, engine, uniform_points):
        probes = tuple(uniform_points[:8])
        for plan in (
            JoinQuery(probes, "box", half_width=0.05),
            JoinQuery(probes, "radius", radius=0.05),
        ):
            pairs = engine.execute(plan)
            assert engine.execute(plan, count_only=True) == len(pairs)
        knn_plan = JoinQuery(probes, "knn", k=3)
        entries = engine.execute(knn_plan)
        assert engine.execute(knn_plan, count_only=True) == sum(
            ns.count() for _, ns in entries
        )

    def test_limit_truncates_joins_of_every_kind(self, engine, uniform_points):
        probes = tuple(uniform_points[:8])
        box = engine.execute(JoinQuery(probes, "box", half_width=0.05), limit=4)
        assert len(box) == 4
        radius = engine.execute(JoinQuery(probes, "radius", radius=0.05), limit=4)
        assert len(radius) == 4
        knn = engine.execute(JoinQuery(probes, "knn", k=3), limit=4)
        assert len(knn) == 4  # per-probe entries are the kNN join's rows

    def test_limit_truncates_in_result_order(self, engine, sample_queries):
        plan = RangeQuery(sample_queries[2])
        full = engine.execute(plan)
        limited = engine.execute(plan, limit=3)
        assert limited == full.points()[:3]
        assert engine.execute(plan, count_only=True, limit=3) == min(3, full.count())
        with pytest.raises(ValueError):
            engine.execute(plan, limit=-1)

    def test_unknown_plan_type_raises(self, engine):
        with pytest.raises(TypeError):
            engine.execute(Rect(0, 0, 1, 1))


class TestExecuteMany:
    def test_homogeneous_range_plans_match_batch(self, engine, sample_queries):
        plans = [RangeQuery(q) for q in sample_queries[:10]]
        results = engine.execute_many(plans)
        assert results == engine.index.batch_range_query(sample_queries[:10])
        counts = engine.execute_many(plans, count_only=True)
        assert counts == [r.count() for r in results]

    def test_homogeneous_knn_plans_match_batch(self, engine, uniform_points):
        centers = uniform_points[:6]
        plans = [KnnQuery(c, 4) for c in centers]
        results = engine.execute_many(plans)
        assert results == engine.index.batch_knn(centers, 4)

    def test_homogeneous_radius_plans_match_batch(self, engine, uniform_points):
        centers = uniform_points[:6]
        plans = [RadiusQuery(c, 0.08) for c in centers]
        results = engine.execute_many(plans)
        assert results == engine.index.batch_radius_query(centers, 0.08)

    def test_mixed_plans_fall_back_per_plan(self, engine, uniform_points, sample_queries):
        plans = [
            RangeQuery(sample_queries[0]),
            PointQuery(uniform_points[0]),
            KnnQuery(uniform_points[1], 2),
        ]
        results = engine.execute_many(plans)
        assert results[0] == engine.execute(plans[0])
        assert results[1] is True
        assert results[2] == engine.execute(plans[2])

    def test_heterogeneous_knn_parameters_fall_back(self, engine, uniform_points):
        plans = [KnnQuery(uniform_points[0], 2), KnnQuery(uniform_points[1], 5)]
        results = engine.execute_many(plans)
        assert [r.count() for r in results] == [2, 5]

    def test_empty_workload(self, engine):
        assert engine.execute_many([]) == []

    @pytest.mark.parametrize("with_metrics", [False, True])
    def test_negative_limit_rejected_for_empty_workload(self, engine, with_metrics):
        if with_metrics:
            engine.attach_metrics(MetricsRegistry())
        with pytest.raises(ValueError):
            engine.execute_many([], limit=-1)


def _recording_engine(points, queries, plan_cache=None):
    return SpatialEngine.build(
        "wazi", points, queries, leaf_capacity=16, seed=7,
        record=True, plan_cache=plan_cache,
    )


def _log_state(engine):
    log = engine.workload_log
    return (
        log.next_seq,
        log.range_rects.tolist(),
        log.range_counts.tolist(),
        log.range_seqs.tolist(),
        log.knn_probes.tolist(),
        log.radius_probes.tolist(),
    )


def _counter_delta(engine, before):
    return {name: value - before[name] for name, value in vars(engine.counters).items()}


def _observed_tables(engine):
    observed = engine.observed()
    return (
        observed.ranges.tolist(),
        observed.knn_probes.tolist(),
        observed.knn_k.tolist(),
        observed.radius_probes.tolist(),
        observed.radius_radii.tolist(),
        observed.extra,
    )


def _plans(kind, points, queries):
    if kind == "range":
        return [RangeQuery(q) for q in queries[:8]]
    if kind == "knn":
        return [KnnQuery(p, 5) for p in points[:8]]
    return [RadiusQuery(p, 0.08) for p in points[:8]]


class TestScalarBatchParity:
    """``execute_many(plans)`` and one ``execute`` per plan are observably
    the same: values, cost counters, recorded workload and cache stats."""

    @pytest.mark.parametrize("plan_cache", [None, True])
    @pytest.mark.parametrize("limit", [None, 0, 3])
    @pytest.mark.parametrize("count_only", [False, True])
    @pytest.mark.parametrize("kind", ["range", "knn", "radius"])
    def test_execute_many_matches_execute(
        self, uniform_points, sample_queries, kind, count_only, limit, plan_cache
    ):
        batch = _recording_engine(uniform_points, sample_queries, plan_cache)
        scalar = _recording_engine(uniform_points, sample_queries, plan_cache)
        plans = _plans(kind, uniform_points, sample_queries)
        for _ in range(2):  # the second pass hits the cache when there is one
            before_batch = vars(batch.counters).copy()
            before_scalar = vars(scalar.counters).copy()
            batched = batch.execute_many(plans, count_only=count_only, limit=limit)
            one_by_one = [
                scalar.execute(plan, count_only=count_only, limit=limit)
                for plan in plans
            ]
            assert batched == one_by_one
            assert _counter_delta(batch, before_batch) == _counter_delta(
                scalar, before_scalar
            )
            assert _log_state(batch) == _log_state(scalar)
            assert _observed_tables(batch) == _observed_tables(scalar)
            if plan_cache is not None:
                stats_batch = batch.plan_cache.stats
                stats_scalar = scalar.plan_cache.stats
                assert (stats_batch.hits, stats_batch.misses) == (
                    stats_scalar.hits, stats_scalar.misses
                )
        if plan_cache is not None:
            assert batch.plan_cache.stats.hits == len(plans)
            assert batch.plan_cache.keys() == scalar.plan_cache.keys()


class TestRejectedProbesLeaveLogUnchanged:
    """A probe the index rejects must not reach the workload log: a NaN kNN
    center or a negative radius there used to break every later
    ``advise()``/``observed()`` (and so ``adapt()``)."""

    @staticmethod
    def _reject(*_args, **_kwargs):
        raise ValueError("rejected by the index")

    @pytest.mark.parametrize("plan_cache", [None, True])
    def test_rejected_calls_record_nothing(
        self, uniform_points, sample_queries, monkeypatch, plan_cache
    ):
        engine = _recording_engine(uniform_points, sample_queries, plan_cache)
        for query in sample_queries[:10]:
            engine.execute(RangeQuery(query))
        engine.execute(KnnQuery(uniform_points[0], 4))
        engine.execute(RadiusQuery(uniform_points[1], 0.05))
        nan_center = Point(float("nan"), 0.5)
        center = Point(0.5, 0.5)
        rect = Rect(0.1, 0.1, 0.4, 0.4)
        # The real index accepts every range probe the log can record, so
        # range rejections come from an index method that refuses them.
        calls = [
            ("range_query", lambda: engine.range_query(rect)),
            ("batch_range_query", lambda: engine.batch_range_query([rect, rect])),
            ("range_count", lambda: engine.range_count(rect)),
            ("batch_range_count", lambda: engine.batch_range_count([rect, rect])),
            ("range_query", lambda: engine.execute(RangeQuery(rect))),
            ("range_count", lambda: engine.execute(RangeQuery(rect), count_only=True)),
            ("batch_range_query", lambda: engine.execute_many(
                [RangeQuery(rect), RangeQuery(rect)]
            )),
            (None, lambda: engine.knn(nan_center, 3)),
            (None, lambda: engine.batch_knn([center, nan_center], 3)),
            (None, lambda: engine.radius_query(center, -1.0)),
            (None, lambda: engine.batch_radius_query([center, center], -1.0)),
        ]
        for rejecting, call in calls:
            before = _log_state(engine)
            with monkeypatch.context() as patch:
                if rejecting is not None:
                    patch.setattr(engine.index, rejecting, self._reject)
                with pytest.raises(ValueError):
                    call()
            assert _log_state(engine) == before
            engine.observed()
            engine.advise()


class TestZeroBoxing:
    """Count-only and as_arrays paths never construct a Point (spy test)."""

    @pytest.fixture()
    def point_spy(self, monkeypatch):
        created = []
        original = Point.__init__

        def spying_init(self, *args, **kwargs):
            created.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Point, "__init__", spying_init)
        return created

    @pytest.mark.parametrize("name", ZINDEX_FAMILY)
    def test_columnar_paths_box_nothing(self, name, uniform_points, sample_queries,
                                        point_spy):
        engine = SpatialEngine.build(
            name, uniform_points, sample_queries, leaf_capacity=16, seed=7
        )
        center = uniform_points[0]
        point_spy.clear()

        plans = [RangeQuery(q) for q in sample_queries[:10]]
        counts = engine.execute_many(plans, count_only=True)
        assert sum(counts) > 0
        for result in engine.execute_many(plans):
            xs, ys = result.as_arrays()
            assert xs.shape == ys.shape
        knn = engine.execute(KnnQuery(center, 8))
        assert knn.count() == 8
        knn.as_arrays()
        assert engine.execute(KnnQuery(center, 8), count_only=True) == 8
        radius = engine.execute(RadiusQuery(center, 0.1))
        radius.as_arrays()
        assert engine.execute(
            JoinQuery(tuple(uniform_points[:5]), "box", half_width=0.05),
            count_only=True,
        ) >= 0

        assert point_spy == []  # not a single Point was boxed

    def test_boxed_consumption_still_works_after_spy(self, uniform_points,
                                                     sample_queries, point_spy):
        engine = SpatialEngine.build(
            "base", uniform_points, sample_queries[:4], leaf_capacity=16
        )
        point_spy.clear()
        result = engine.execute(RangeQuery(sample_queries[0]))
        result.points()
        assert len(point_spy) > 0  # explicit boxing does create points


class TestLifecycle:
    def test_build_wraps_named_index(self, uniform_points):
        engine = SpatialEngine.build("base", uniform_points, leaf_capacity=16)
        assert isinstance(engine.index, ZIndex)
        assert len(engine) == len(uniform_points)
        assert engine.size_bytes() > 0
        assert "Base" in repr(engine)

    def test_wrapping_requires_spatial_index(self):
        with pytest.raises(TypeError):
            SpatialEngine(object())

    def test_as_engine_idempotent(self, uniform_points):
        index = build_index("base", uniform_points)
        engine = as_engine(index)
        assert engine.index is index
        assert as_engine(engine) is engine

    def test_save_load_structural(self, engine, sample_queries, tmp_path):
        path = tmp_path / "engine.snapshot"
        engine.save(path)
        served = SpatialEngine.load(path)
        query = sample_queries[0]
        assert served.execute(RangeQuery(query)) == engine.execute(RangeQuery(query))

    def test_save_rebuild_recipe_and_load(self, uniform_points, sample_queries, tmp_path):
        engine = SpatialEngine.build(
            "str", uniform_points, sample_queries, leaf_capacity=16
        )
        path = tmp_path / "str.snapshot"
        engine.save(path)
        served = SpatialEngine.load(path)
        query = sample_queries[0]
        assert served.execute(RangeQuery(query)) == engine.execute(RangeQuery(query))

    def test_save_foreign_non_zindex_raises(self, uniform_points):
        index = build_index("str", uniform_points)
        with pytest.raises(TypeError):
            SpatialEngine(index).save("nowhere.snapshot")

    def test_open_builds_then_serves(self, uniform_points, sample_queries, tmp_path):
        path = tmp_path / "open.snapshot"
        first = SpatialEngine.open(
            "base", uniform_points, snapshot_path=path, leaf_capacity=16
        )
        assert path.exists()
        second = SpatialEngine.open(
            "base", uniform_points, snapshot_path=path, leaf_capacity=16
        )
        query = sample_queries[0]
        assert first.execute(RangeQuery(query)) == second.execute(RangeQuery(query))

    def test_updates_through_engine(self, uniform_points):
        engine = SpatialEngine.build("base", uniform_points, leaf_capacity=16)
        newcomer = Point(0.123, 0.456)
        engine.insert(newcomer)
        assert engine.execute(PointQuery(newcomer))
        assert engine.delete(newcomer)
        assert not engine.execute(PointQuery(newcomer))


class TestComparisonKwargsForwarding:
    """Regression: compare_indexes used to drop constructor **kwargs."""

    def test_shared_and_per_index_kwargs_reach_factories(self, uniform_points,
                                                         sample_queries, monkeypatch):
        seen = {}
        original = SpatialEngine.build.__func__

        def spying_build(cls, name, *args, **kwargs):
            seen[name] = kwargs
            return original(cls, name, *args, **kwargs)

        monkeypatch.setattr(SpatialEngine, "build", classmethod(spying_build))
        compare_indexes(
            ["base", "wazi"], uniform_points, sample_queries[:4],
            leaf_capacity=16, seed=3,
            max_depth=12,
            index_kwargs={"wazi": {"num_candidates": 4, "max_depth": 9}},
        )
        assert seen["base"]["max_depth"] == 12
        assert seen["wazi"]["max_depth"] == 9  # per-index wins over shared
        assert seen["wazi"]["num_candidates"] == 4

    def test_kwargs_change_the_built_index(self, uniform_points, sample_queries):
        shallow = compare_indexes(
            ["base"], uniform_points, sample_queries[:4],
            leaf_capacity=4, index_kwargs={"base": {"max_depth": 1}},
        )["base"]
        deep = compare_indexes(
            ["base"], uniform_points, sample_queries[:4], leaf_capacity=4,
        )["base"]
        assert shallow.size_bytes < deep.size_bytes

    def test_unknown_index_kwargs_rejected(self, uniform_points, sample_queries):
        with pytest.raises(ValueError):
            compare_indexes(
                ["base"], uniform_points, sample_queries[:4],
                index_kwargs={"wazi": {"num_candidates": 4}},
            )

    def test_batch_and_repeats_still_forwarded(self, uniform_points, sample_queries):
        results = compare_indexes(
            ["base"], uniform_points, sample_queries[:6],
            repeats=2, batch_ranges=True,
        )
        assert results["base"].range_stats.num_queries == 12


class TestSeedNoneUniformity:
    """Regression: flood silently coerced seed=None to 0."""

    @pytest.mark.parametrize("name", ["wazi", "wazi-sk", "flood"])
    def test_seed_none_forwarded_verbatim(self, name, uniform_points, sample_queries,
                                          monkeypatch):
        captured = {}
        import repro.engine as engine_mod

        target = {
            "wazi": "WaZI",
            "wazi-sk": "WaZIWithoutSkipping",
            "flood": "FloodIndex",
        }[name]
        original = getattr(engine_mod, target)

        class Spy(original):
            def __init__(self, *args, **kwargs):
                captured["seed"] = kwargs.get("seed", "MISSING")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_mod, target, Spy)
        build_index(name, uniform_points[:50], sample_queries[:2], seed=None)
        assert captured["seed"] is None

    def test_flood_builds_with_seed_none(self, uniform_points, sample_queries):
        index = build_index("flood", uniform_points, sample_queries[:4], seed=None)
        assert len(index) == len(uniform_points)


class TestWorkloadSummaryCoverage:
    def test_range_summary_unchanged_keys(self, uniform_points, sample_queries):
        index = build_index("base", uniform_points)
        summary = workload_summary(measure_range_queries(index, sample_queries[:5]))
        assert summary["kind"] == "queries"
        assert summary["index"] == "Base"
        assert summary["queries"] == 5

    def test_knn_summary_includes_k(self, uniform_points):
        index = build_index("base", uniform_points)
        summary = workload_summary(measure_knn_queries(index, uniform_points[:5], 3))
        assert summary["kind"] == "knn"
        assert summary["k"] == 3.0
        assert summary["queries"] == 5

    def test_join_summary_includes_pairs_and_selectivity(self, uniform_points):
        index = build_index("base", uniform_points)
        summary = workload_summary(
            measure_join_workload(index, uniform_points[:5], "radius", radius=0.05)
        )
        assert summary["kind"] == "join"
        assert summary["num_pairs"] >= 5
        assert 0.0 < summary["selectivity"] <= 1.0

    def test_snapshot_summary_passthrough(self, uniform_points, tmp_path):
        index = build_index("base", uniform_points)
        stats = measure_snapshot_roundtrip(index, tmp_path / "s.snapshot")
        summary = workload_summary(stats)
        assert summary["kind"] == "snapshot"
        assert summary["snapshot_bytes"] > 0
        assert summary["snapshot_load_seconds"] > 0

    def test_count_only_marker(self, uniform_points, sample_queries):
        index = build_index("base", uniform_points)
        summary = workload_summary(
            measure_range_queries(index, sample_queries[:5], count_only=True)
        )
        assert summary["count_only"] == 1.0

    def test_rejects_unknown_shapes(self):
        with pytest.raises(TypeError):
            workload_summary(42)


class TestOnlineLifecycle:
    def test_online_wraps_offline_drains(self, engine, uniform_points):
        from repro.online import MaintenancePolicy, OnlineIndex

        plain = engine.index
        before = len(engine)
        loop = engine.online(MaintenancePolicy(window_size=128), start=False)
        assert engine.is_online
        assert isinstance(engine.index, OnlineIndex)
        assert engine.index.base is plain
        assert engine.online_loop is loop
        assert engine.workload_log.window_size == 128
        # idempotent: a second call returns the same loop
        assert engine.online(start=False) is loop

        engine.index.insert(Point(0.123, 0.987))
        assert engine.index.delete(uniform_points[0])
        assert len(engine) == before

        engine.offline()
        assert not engine.is_online
        assert not isinstance(engine.index, OnlineIndex)
        assert engine.online_loop is None
        assert len(engine.index) == before  # buffered writes were compacted in
        assert engine.index.point_query(Point(0.123, 0.987))
        assert not engine.index.point_query(uniform_points[0])

    def test_offline_without_compact_discards(self, engine):
        from repro.online import OnlineIndex

        before = len(engine)
        engine.online(start=False)
        engine.index.insert(Point(0.222, 0.333))
        engine.offline(compact=False)
        assert len(engine.index) == before
        assert not engine.index.point_query(Point(0.222, 0.333))
        # offline on an offline engine is a no-op
        engine.offline()
        assert not isinstance(engine.index, OnlineIndex)

    def test_save_refuses_online_engine(self, engine, tmp_path):
        engine.online(start=False)
        try:
            with pytest.raises(ValueError):
                engine.save(tmp_path / "x.snapshot")
        finally:
            engine.offline()
        engine.save(tmp_path / "x.snapshot")  # fine once offline

    def test_adapt_keeps_online_wrapper(self, engine, sample_queries):
        from repro.online import OnlineIndex

        engine.online(start=False)
        try:
            engine.index.insert(Point(0.456, 0.654))
            with engine.recording():
                for query in sample_queries[:20]:
                    engine.execute(RangeQuery(query))
            engine.advise()
            engine.adapt()
            assert isinstance(engine.index, OnlineIndex)
            assert engine.index.point_query(Point(0.456, 0.654))
            assert engine.index.delta_stats()["rows"] == 0  # folded into rebuild
        finally:
            engine.offline()
