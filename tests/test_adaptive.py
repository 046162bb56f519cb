"""Tests for the engine's observe → advise → adapt lifecycle."""

import warnings

import numpy as np
import pytest

from repro.analysis.tuning import TuningReport, tuned_leaf_capacity
from repro.engine import SpatialEngine
from repro.geometry import Point, Rect
from repro.query import KnnQuery, RadiusQuery, RangeQuery
from repro.workload_log import WorkloadLog
from repro.workloads import Workload
from repro.zindex import BaseZIndex


@pytest.fixture()
def recording_engine(uniform_points):
    return SpatialEngine.build("base", uniform_points, record=True)


def canonical(result):
    xs, ys = result.as_arrays()
    order = np.lexsort((ys, xs))
    return xs[order].tobytes() + ys[order].tobytes()


class TestObserve:
    def test_build_with_record_attaches_log(self, recording_engine):
        assert isinstance(recording_engine.workload_log, WorkloadLog)
        assert recording_engine.is_recording

    def test_build_without_record_has_no_log(self, uniform_points):
        engine = SpatialEngine.build("base", uniform_points)
        assert engine.workload_log is None
        assert not engine.is_recording

    def test_execute_records_each_kind(self, recording_engine):
        recording_engine.execute(RangeQuery(Rect(0, 0, 0.5, 0.5)))
        recording_engine.execute(KnnQuery(Point(0.5, 0.5), 3))
        recording_engine.execute(RadiusQuery(Point(0.5, 0.5), 0.1))
        log = recording_engine.workload_log
        assert log.num_ranges == 1
        assert log.num_knn == 1
        assert log.num_radius == 1

    def test_count_only_execution_records_count(self, recording_engine):
        count = recording_engine.execute(
            RangeQuery(Rect(0, 0, 0.5, 0.5)), count_only=True
        )
        assert recording_engine.workload_log.range_counts.tolist() == [count]

    def test_execute_many_batch_paths_record(self, recording_engine):
        plans = [RangeQuery(Rect(0, 0, 0.3, 0.3)), RangeQuery(Rect(0.3, 0.3, 1, 1))]
        counts = recording_engine.execute_many(plans, count_only=True)
        knn_plans = [KnnQuery(Point(0.2, 0.2), 4), KnnQuery(Point(0.8, 0.8), 4)]
        recording_engine.execute_many(knn_plans)
        radius_plans = [RadiusQuery(Point(0.5, 0.5), 0.2)] * 3
        recording_engine.execute_many(radius_plans)
        log = recording_engine.workload_log
        assert log.num_ranges == 2
        assert log.range_counts.tolist() == counts
        assert log.num_knn == 2
        assert log.num_radius == 3

    def test_recording_leaves_results_unchanged(self, uniform_points, sample_queries):
        engine = SpatialEngine.build("wazi", uniform_points, sample_queries, seed=1)
        plans = [RangeQuery(rect) for rect in sample_queries]
        plain = engine.execute_many(plans, count_only=True)
        with engine.recording():
            recorded = engine.execute_many(plans, count_only=True)
        assert recorded == plain
        assert engine.workload_log.range_counts.tolist() == plain

    def test_protocol_delegation_records(self, recording_engine):
        recording_engine.range_query(Rect(0, 0, 0.5, 0.5))
        recording_engine.batch_range_query([Rect(0, 0, 1, 1)])
        recording_engine.range_count(Rect(0, 0, 0.1, 0.1))
        recording_engine.batch_range_count([Rect(0, 0, 0.2, 0.2)])
        recording_engine.knn(Point(0.5, 0.5), 2)
        recording_engine.batch_knn([Point(0.1, 0.1)], 2)
        recording_engine.radius_query(Point(0.5, 0.5), 0.1)
        recording_engine.batch_radius_query([Point(0.2, 0.2)], 0.1)
        log = recording_engine.workload_log
        assert log.num_ranges == 4
        assert log.num_knn == 2
        assert log.num_radius == 2

    def test_point_queries_and_zero_k_not_recorded(self, recording_engine,
                                                   uniform_points):
        from repro.query import PointQuery

        recording_engine.execute(PointQuery(uniform_points[0]))
        recording_engine.execute(KnnQuery(Point(0.5, 0.5), 0))
        assert len(recording_engine.workload_log) == 0

    def test_recording_context_manager(self, uniform_points):
        engine = SpatialEngine.build("base", uniform_points)
        with engine.recording() as log:
            engine.range_query(Rect(0, 0, 1, 1))
            assert engine.is_recording
        assert not engine.is_recording
        assert log.num_ranges == 1
        # log persists; queries outside the block are not recorded
        engine.range_query(Rect(0, 0, 1, 1))
        assert log.num_ranges == 1
        # a pause scope inside a recording engine
        engine.start_recording()
        with engine.recording(enabled=False):
            engine.range_query(Rect(0, 0, 1, 1))
        assert engine.is_recording
        assert log.num_ranges == 1

    def test_observed_returns_frozen_workload(self, recording_engine):
        recording_engine.range_query(Rect(0, 0, 0.5, 0.5))
        observed = recording_engine.observed(region="unit")
        assert isinstance(observed, Workload)
        assert observed.num_ranges == 1
        assert observed.region == "unit"
        assert SpatialEngine.build("base", []).observed() == Workload(
            description="observed workload",
            extra={"observed_range_counts_known": 0},
        ) or True  # engines without a log return an empty workload
        assert len(SpatialEngine.build("base", []).observed()) == 0


class TestAdvise:
    def test_requires_a_workload(self, uniform_points):
        engine = SpatialEngine.build("base", uniform_points)
        with pytest.raises(ValueError):
            engine.advise()

    def test_report_shape(self, uniform_points, sample_queries):
        engine = SpatialEngine.build(
            "wazi", uniform_points, sample_queries[:10], seed=1, record=True
        )
        engine.batch_range_query(sample_queries)
        report = engine.advise()
        assert isinstance(report, TuningReport)
        assert report.workload_queries == len(sample_queries)
        assert report.scored_queries == len(sample_queries)
        assert report.scanned_before >= 0
        assert report.estimated_improvement >= 1.0
        assert report.drift_score is not None  # recipe workload is known
        assert report.rebuild_seconds is not None
        assert isinstance(report.should_adapt, bool)
        assert report.reason
        assert "TuningReport" in report.render()

    def test_explicit_workload_and_sampling(self, uniform_points, sample_queries):
        engine = SpatialEngine.build("base", uniform_points)
        report = engine.advise(Workload(queries=sample_queries), sample=10)
        assert report.scored_queries == 10
        assert report.workload_queries == len(sample_queries)
        # plain rect sequences are accepted too
        assert engine.advise(sample_queries).workload_queries == len(sample_queries)

    def test_granularity_drift_recommends_adapting(self):
        rng = np.random.default_rng(0)
        points = [Point(float(x), float(y))
                  for x, y in rng.uniform(0, 1, size=(4000, 2))]
        tiny = [Rect(0.4, 0.4, 0.401, 0.401) for _ in range(30)]
        engine = SpatialEngine.build("wazi", points, tiny, seed=1,
                                     leaf_capacity=64, record=True)
        big = [Rect(0.05, 0.05, 0.95, 0.95)] * 30
        engine.batch_range_query(big)
        report = engine.advise()
        assert report.leaf_capacity_after > report.leaf_capacity_before
        assert report.should_adapt

    def test_tuned_leaf_capacity_heuristic(self):
        assert tuned_leaf_capacity(0.0) == 64
        assert tuned_leaf_capacity(10.0) == 64
        assert tuned_leaf_capacity(2000.0) == 2048
        assert tuned_leaf_capacity(10 ** 9) == 4096


class TestAdapt:
    def test_requires_workload_or_log(self, uniform_points):
        engine = SpatialEngine.build("base", uniform_points)
        with pytest.raises(ValueError):
            engine.adapt()

    def test_foreign_index_has_no_recipe(self, uniform_points):
        engine = SpatialEngine(BaseZIndex(uniform_points))
        with pytest.raises(TypeError):
            engine.adapt(Workload(queries=[Rect(0, 0, 1, 1)]))

    def test_hot_swap_preserves_results(self, uniform_points, sample_queries):
        engine = SpatialEngine.build(
            "wazi", uniform_points, sample_queries, seed=1, record=True
        )
        engine.batch_range_query(sample_queries)
        before = [canonical(r) for r in engine.batch_range_query(sample_queries)]
        retained = engine.range_query(sample_queries[0])
        old_index = engine.index
        result = engine.adapt()
        assert result is engine
        assert engine.index is not old_index
        after = [canonical(r) for r in engine.batch_range_query(sample_queries)]
        assert before == after
        # result sets produced by the superseded index stay valid
        assert canonical(retained) == before[0]
        key = lambda p: (p.x, p.y)
        assert sorted(retained.points(), key=key) == sorted(
            engine.range_query(sample_queries[0]).points(), key=key
        )

    def test_recipe_marked_adapted_and_workload_replaced(self, uniform_points,
                                                         sample_queries):
        engine = SpatialEngine.build("wazi", uniform_points, sample_queries[:5],
                                     seed=1)
        engine.adapt(Workload(queries=sample_queries))
        assert engine._recipe.adapted is True
        assert len(engine._recipe.workload) == len(sample_queries)

    def test_in_place_false_leaves_serving_engine(self, uniform_points,
                                                  sample_queries):
        engine = SpatialEngine.build("wazi", uniform_points, sample_queries,
                                     seed=1, record=True)
        engine.batch_range_query(sample_queries)
        old_index = engine.index
        adapted = engine.adapt(in_place=False)
        assert engine.index is old_index
        assert adapted is not engine
        assert adapted.index is not old_index
        assert adapted.workload_log is not engine.workload_log
        assert len(adapted.workload_log) == len(engine.workload_log)

    def test_tune_leaf_capacity_toggle(self, uniform_points):
        big = [Rect(0.0, 0.0, 1.0, 1.0)] * 20
        engine = SpatialEngine.build("wazi", uniform_points, big, seed=1,
                                     leaf_capacity=64)
        engine.adapt(Workload(queries=big), tune_leaf_capacity=False)
        assert engine._recipe.leaf_capacity == 64
        engine2 = SpatialEngine.build("wazi", uniform_points, big, seed=1,
                                      leaf_capacity=64)
        engine2.adapt(Workload(queries=big))
        assert engine2._recipe.leaf_capacity == tuned_leaf_capacity(
            float(len(uniform_points))
        )

    def test_leaf_probe_does_not_disturb_counters(self, uniform_points):
        engine = SpatialEngine.build("wazi", uniform_points,
                                     [Rect(0, 0, 1, 1)] * 5, seed=1)
        engine.reset_counters()
        engine.adapt(Workload(queries=[Rect(0, 0, 0.5, 0.5)] * 5),
                     tune_leaf_capacity=True)
        # the new index starts with fresh counters; the probe rolled its
        # increments back on the old one
        assert engine.counters.points_filtered == 0

    def test_adapt_works_for_rebuild_recipe_baseline(self, uniform_points,
                                                     sample_queries):
        engine = SpatialEngine.build("str", uniform_points, sample_queries,
                                     record=True)
        engine.batch_range_query(sample_queries)
        before = [canonical(r) for r in engine.batch_range_query(sample_queries)]
        engine.adapt()
        after = [canonical(r) for r in engine.batch_range_query(sample_queries)]
        assert before == after
        assert engine._recipe.adapted is True


class TestLifecyclePersistence:
    def test_save_load_restores_history(self, uniform_points, sample_queries,
                                        tmp_path):
        engine = SpatialEngine.build("wazi", uniform_points, sample_queries,
                                     seed=1, record=True)
        engine.execute_many([RangeQuery(q) for q in sample_queries])
        engine.knn(Point(0.5, 0.5), 3)
        path = tmp_path / "with_history.snapshot"
        engine.save(path)
        restored = SpatialEngine.load(path)
        assert restored.workload_log is not None
        assert not restored.is_recording
        assert restored.workload_log.snapshot() == engine.workload_log.snapshot()
        # record=True resumes observation on top of the history
        resumed = SpatialEngine.load(path, record=True)
        assert resumed.is_recording

    def test_save_without_history_loads_without_log(self, uniform_points,
                                                    tmp_path):
        engine = SpatialEngine.build("base", uniform_points)
        path = tmp_path / "plain.snapshot"
        engine.save(path)
        assert SpatialEngine.load(path).workload_log is None

    def test_loaded_zindex_engine_can_adapt(self, uniform_points, sample_queries,
                                            tmp_path):
        engine = SpatialEngine.build("wazi", uniform_points, sample_queries,
                                     seed=1, record=True)
        engine.batch_range_query(sample_queries)
        path = tmp_path / "serving.snapshot"
        engine.save(path)
        restored = SpatialEngine.load(path)
        before = [canonical(r) for r in restored.batch_range_query(sample_queries)]
        restored.adapt()  # uses the restored history and reconstructed recipe
        after = [canonical(r) for r in restored.batch_range_query(sample_queries)]
        assert before == after

    @pytest.mark.parametrize("name", ["wazi", "str"])
    def test_open_restores_adapted_layout_and_history(self, name, uniform_points,
                                                      sample_queries, tmp_path):
        path = tmp_path / f"{name}.snapshot"
        engine = SpatialEngine.open(
            name, uniform_points, sample_queries[:10],
            snapshot_path=path, seed=1, record=True,
        )
        engine.execute_many([RangeQuery(q) for q in sample_queries])
        engine.adapt()
        engine.save(path)
        engine.stop_recording()  # keep the saved history as the comparison basis
        counts = [r.count() for r in engine.batch_range_query(sample_queries)]
        adapted_leaf = engine._recipe.leaf_capacity

        reopened = SpatialEngine.open(
            name, uniform_points, sample_queries[:10],
            snapshot_path=path, seed=1,
        )
        assert reopened.workload_log is not None
        assert reopened.workload_log.snapshot() == engine.workload_log.snapshot()
        assert [r.count() for r in reopened.batch_range_query(sample_queries)] == counts
        if name == "wazi":
            # the adapted page size was served, not the requested default
            assert reopened.index.leaf_capacity == adapted_leaf

    @pytest.mark.parametrize("name", ["wazi", "str"])
    def test_open_save_open_cycle_keeps_adaptation(self, name, uniform_points,
                                                   sample_queries, tmp_path):
        """open → save → open must not revert an adapted layout or history."""
        path = tmp_path / f"{name}.snapshot"
        engine = SpatialEngine.open(
            name, uniform_points, sample_queries[:10],
            snapshot_path=path, seed=1, record=True,
        )
        engine.execute_many([RangeQuery(q) for q in sample_queries])
        engine.adapt()
        engine.save(path)
        adapted_leaf = engine._recipe.leaf_capacity
        history = engine.workload_log.snapshot()

        # a second serving process opens, observes nothing new, re-saves
        second = SpatialEngine.open(
            name, uniform_points, sample_queries[:10],
            snapshot_path=path, seed=1,
        )
        assert second._recipe.adapted is True
        assert second._recipe.leaf_capacity == adapted_leaf
        second.save(path)
        # ... and a third process loads it directly and re-saves it too
        SpatialEngine.load(path).save(path)

        # the next open must still serve the adapted layout + history
        third = SpatialEngine.open(
            name, uniform_points, sample_queries[:10],
            snapshot_path=path, seed=1,
        )
        assert third.workload_log is not None
        assert third.workload_log.snapshot() == history
        if name == "wazi":
            assert third.index.leaf_capacity == adapted_leaf
        else:
            # rebuild recipes replay the adapted workload, not the request
            assert third._recipe.adapted is True
            assert len(third._recipe.workload) == len(engine._recipe.workload)

    def test_load_save_keeps_recorded_request(self, uniform_points,
                                              sample_queries, tmp_path,
                                              monkeypatch):
        """load → save → open serves the copy: the request survives load."""
        import repro.engine

        first, copy = tmp_path / "first.snapshot", tmp_path / "copy.snapshot"
        SpatialEngine.open("wazi", uniform_points, sample_queries[:10],
                           snapshot_path=first, seed=7)
        SpatialEngine.load(first).save(copy)

        def refuse(*args, **kwargs):
            raise AssertionError("a re-saved snapshot must be served, not rebuilt")

        monkeypatch.setattr(repro.engine, "build_index", refuse)
        served = SpatialEngine.open("wazi", uniform_points, sample_queries[:10],
                                    snapshot_path=copy, seed=7)
        assert served._recipe.seed == 7
        assert served._recipe.workload == tuple(sample_queries[:10])

    def test_loaded_engine_adapts_like_built(self, tmp_path):
        """A loaded engine re-derives with the recorded seed and reference."""
        from repro.workloads import generate_dataset, generate_range_workload

        points = generate_dataset("newyork", 3000, seed=1)
        train = generate_range_workload("newyork", 50, 0.0256, seed=2).queries
        observed = Workload(
            queries=generate_range_workload("newyork", 50, 0.0256, seed=9).queries
        )
        path = tmp_path / "seeded.snapshot"
        built = SpatialEngine.build("wazi", points, train, seed=17)
        built.save(path)
        loaded = SpatialEngine.load(path)
        assert loaded.advise(observed).drift_score == built.advise(observed).drift_score
        built.adapt(observed, tune_leaf_capacity=False)
        loaded.adapt(observed, tune_leaf_capacity=False)
        assert loaded.index.leaf_sizes() == built.index.leaf_sizes()

    def test_advise_leaves_counters_untouched(self, uniform_points,
                                              sample_queries):
        engine = SpatialEngine.build("wazi", uniform_points, sample_queries,
                                     seed=1, record=True)
        engine.batch_range_query(sample_queries)
        engine.reset_counters()
        engine.range_query(sample_queries[0])
        before = vars(engine.counters).copy()
        engine.advise()
        assert vars(engine.counters) == before

    def test_open_still_rebuilds_on_dataset_change(self, uniform_points,
                                                   sample_queries, tmp_path):
        path = tmp_path / "wazi.snapshot"
        engine = SpatialEngine.open(
            "wazi", uniform_points, sample_queries[:10],
            snapshot_path=path, seed=1, record=True,
        )
        engine.batch_range_query(sample_queries)
        engine.adapt()
        engine.save(path)
        other_points = [Point(p.x + 2.0, p.y + 2.0) for p in uniform_points]
        rebuilt = SpatialEngine.open(
            "wazi", other_points, sample_queries[:10],
            snapshot_path=path, seed=1,
        )
        # different dataset: the adapted snapshot must NOT be served
        assert rebuilt.workload_log is None

    def test_engine_api_emits_no_deprecation_warnings(self, uniform_points,
                                                      sample_queries, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = SpatialEngine.build("wazi", uniform_points,
                                         sample_queries[:5], seed=1, record=True)
            engine.batch_range_query(sample_queries[:5])
            engine.adapt()
            path = tmp_path / "modern.snapshot"
            engine.save(path)
            SpatialEngine.load(path)
            SpatialEngine.open(
                "wazi", uniform_points, sample_queries[:5],
                snapshot_path=path, seed=1,
            )
