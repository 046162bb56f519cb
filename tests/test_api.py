"""Tests for the package-level free functions."""

import warnings

import pytest

import repro
import repro.engine
from repro import INDEX_NAMES, build_index, compare_indexes, workload_summary
from repro.baselines import FloodIndex, STRRTree
from repro.core import WaZI
from repro.evaluation import measure_range_queries
from repro.evaluation import reporting, runner
from repro.interfaces import brute_force_range
from repro.zindex import BaseZIndex


class TestBuildIndex:
    def test_unknown_name_rejected(self, uniform_points):
        with pytest.raises(ValueError):
            build_index("btree", uniform_points)

    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_every_registered_name_builds(self, name, clustered_points, small_workload):
        index = build_index(name, clustered_points[:600], small_workload.queries[:20], seed=1)
        assert len(index) == 600

    def test_returns_expected_types(self, clustered_points, small_workload):
        assert isinstance(build_index("wazi", clustered_points[:200], small_workload.queries), WaZI)
        assert isinstance(build_index("base", clustered_points[:200]), BaseZIndex)
        assert isinstance(build_index("str", clustered_points[:200]), STRRTree)
        assert isinstance(build_index("flood", clustered_points[:200]), FloodIndex)

    def test_name_case_insensitive(self, uniform_points):
        index = build_index("BASE", uniform_points[:100])
        assert isinstance(index, BaseZIndex)

    @pytest.mark.parametrize("name", ["wazi", "base", "str", "cur", "flood", "quasii"])
    def test_built_indexes_answer_queries_correctly(self, name, clustered_points, small_workload):
        data = clustered_points[:800]
        index = build_index(name, data, small_workload.queries, seed=2)
        for query in small_workload.queries[:10]:
            expected = sorted((p.x, p.y) for p in brute_force_range(data, query))
            got = sorted((p.x, p.y) for p in index.range_query(query))
            assert got == expected


class TestCompareIndexes:
    def test_compare_two_indexes(self, clustered_points, small_workload):
        results = compare_indexes(
            ["base", "wazi"],
            clustered_points[:800],
            small_workload.queries[:20],
            point_queries=clustered_points[:10],
            seed=1,
        )
        assert set(results) == {"base", "wazi"}
        for result in results.values():
            assert result.range_stats is not None
            assert result.point_stats is not None

    def test_forwards_repeats_and_batch_ranges(self, clustered_points, small_workload):
        """Regression: repeats/batch_ranges used to be silently dropped,
        making the batch engine unreachable from the top-level API."""
        results = compare_indexes(
            ["base"],
            clustered_points[:400],
            small_workload.queries[:6],
            seed=1,
            repeats=3,
            batch_ranges=True,
        )
        assert results["base"].range_stats.num_queries == 18

    def test_measures_knn_scenario(self, clustered_points, small_workload):
        results = compare_indexes(
            ["base", "str"],
            clustered_points[:400],
            small_workload.queries[:6],
            knn_queries=clustered_points[:8],
            knn_k=4,
            seed=1,
            batch_knn=True,
        )
        for result in results.values():
            assert result.knn_stats is not None
            assert result.knn_stats.num_queries == 8
            assert result.knn_stats.extra["k"] == 4.0


class TestWorkloadHelpers:
    def test_moved_helpers_keep_their_package_exports(self):
        assert repro.compare_indexes is runner.compare_indexes
        assert repro.workload_summary is reporting.workload_summary

    def test_batch_range_workload_counters_match_per_query(self, uniform_points,
                                                           sample_queries):
        index = build_index("base", uniform_points)
        single = measure_range_queries(index, sample_queries[:10])
        batch = measure_range_queries(index, sample_queries[:10], batch=True)
        assert batch.num_queries == single.num_queries == 10
        assert batch.counters.snapshot() == single.counters.snapshot()

    def test_count_only_range_workload_is_flagged(self, uniform_points, sample_queries):
        index = build_index("base", uniform_points)
        stats = measure_range_queries(index, sample_queries[:10], count_only=True)
        assert stats.num_queries == 10
        assert stats.extra == {"count_only": 1.0}
        assert workload_summary(stats)["count_only"] == 1.0

    def test_workload_summary_keys(self, uniform_points, sample_queries):
        index = build_index("base", uniform_points)
        stats = measure_range_queries(index, sample_queries[:10])
        summary = workload_summary(stats)
        assert summary["index"] == "Base"
        assert summary["queries"] == 10
        assert summary["mean_micros"] > 0
        assert summary["points_filtered_per_query"] >= summary["excess_points_per_query"]


class TestCanonicalFunctions:
    """The package exports the engine's free functions, which never warn."""

    def test_package_exports_are_the_engine_functions(self):
        assert repro.build_index is repro.engine.build_index
        assert repro.build_or_load_index is repro.engine.build_or_load_index

    def test_package_exports_do_not_warn(self, uniform_points, tmp_path):
        path = tmp_path / "package.snapshot"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.build_index("base", uniform_points[:50])
            for _ in range(2):  # fresh build, then the snapshot load
                repro.build_or_load_index("base", uniform_points[:50], snapshot_path=path)

    def test_loading_a_rebuild_snapshot_does_not_warn(self, uniform_points,
                                                      tmp_path):
        from repro.persistence import load_snapshot, save_rebuild_snapshot

        path = tmp_path / "recipe.snapshot"
        save_rebuild_snapshot("str", uniform_points[:50], path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load_snapshot(path)
