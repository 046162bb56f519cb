"""Tests for the benchmark suite's shared helpers (benchmarks/common.py).

The benchmark modules are the executable record of the paper's tables and
figures, so their shared plumbing (index name mapping, cached workloads,
report emission) deserves the same coverage as the library itself.
"""

import pytest

from benchmarks import common
from repro.engine import INDEX_NAMES
from repro.workloads import REGION_NAMES


class TestConfiguration:
    def test_regions_match_library(self):
        assert set(common.REGIONS) == set(REGION_NAMES)

    def test_selectivities_match_paper(self):
        assert common.SELECTIVITIES == (0.0016, 0.0064, 0.0256, 0.1024)
        assert common.MID_SELECTIVITY in common.SELECTIVITIES

    def test_main_indexes_are_the_papers_six(self):
        assert set(common.MAIN_INDEXES) == {"Base", "CUR", "Flood", "QUASII", "STR", "WaZI"}

    def test_index_keys_map_to_buildable_names(self):
        for display_name, key in common.INDEX_KEYS.items():
            assert key in INDEX_NAMES, f"{display_name} maps to unknown index {key!r}"

    def test_scaling_sizes_increasing(self):
        sizes = common.SCALING_SIZES
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


class TestCachedGenerators:
    def test_dataset_cached_and_sized(self):
        first = common.dataset("newyork", 500)
        second = common.dataset("newyork", 500)
        assert first is second
        assert len(first) == 500

    def test_range_workload_cached(self):
        first = common.range_workload("newyork", 0.0256, 20)
        second = common.range_workload("newyork", 0.0256, 20)
        assert first is second
        assert len(first) == 20

    def test_point_workload_is_tuple(self):
        queries = common.point_workload("newyork", 500)
        assert isinstance(queries, tuple)
        assert len(queries) == common.DEFAULT_NUM_POINT_QUERIES


class TestMeasurement:
    def test_measure_index_small(self):
        points = common.dataset("newyork", 500)
        workload = common.range_workload("newyork", 0.0256, 20)
        result = common.measure_index("Base", points, workload.queries,
                                      point_queries=points[:5], leaf_capacity=32)
        assert result.index_name == "Base"
        assert result.num_points == 500
        assert result.build_seconds > 0
        assert result.range_stats is not None
        assert result.point_stats is not None

    def test_micros(self):
        assert common.micros(0.001) == pytest.approx(1000.0)


class TestWarmQueryCaches:
    """warm_query_caches must leave an index with no first-query work left."""

    def _fresh_index(self):
        points = common.dataset("newyork", 800)
        workload = common.range_workload("newyork", 0.0256, 10)
        index = common.build_named_index("WaZI", points, workload.queries,
                                         leaf_capacity=32)
        return index, list(workload.queries)

    def test_primes_flat_scan_cache(self):
        index, rects = self._fresh_index()
        assert index._flat_x is None  # freshly built: lazy caches empty
        common.warm_query_caches(index, rects)
        assert index._flat_x is not None
        assert index._flat_starts is not None

    def test_primes_reusable_mask_buffers(self):
        index, rects = self._fresh_index()
        common.warm_query_caches(index, rects)
        assert index._mask_a is not None

    def test_warming_does_not_change_results(self):
        index, rects = self._fresh_index()
        cold = [r.count() for r in index.batch_range_query(rects)]
        common.warm_query_caches(index, rects)
        warm = [r.count() for r in index.batch_range_query(rects)]
        assert cold == warm

    def test_accepts_tuple_of_rects(self):
        index, rects = self._fresh_index()
        common.warm_query_caches(index, tuple(rects))
        assert index._flat_x is not None


class TestWorkerSeeds:
    def test_distinct_per_shard_and_deterministic(self):
        seeds = [common.worker_seed(common.DEFAULT_SEED, shard) for shard in range(16)]
        assert len(set(seeds)) == 16
        assert seeds == [common.worker_seed(common.DEFAULT_SEED, s) for s in range(16)]

    def test_distinct_across_base_seeds(self):
        # Nearby base seeds must not collide with other shards' streams.
        seeds = {
            common.worker_seed(base, shard)
            for base in range(common.DEFAULT_SEED, common.DEFAULT_SEED + 4)
            for shard in range(8)
        }
        assert len(seeds) == 4 * 8

    def test_negative_shard_rejected(self):
        with pytest.raises(ValueError):
            common.worker_seed(common.DEFAULT_SEED, -1)


class TestReportEmission:
    def test_tables_appended_to_report(self, tmp_path, monkeypatch):
        report = tmp_path / "report.txt"
        monkeypatch.setattr(common, "REPORT_PATH", str(report))
        common.print_section("demo section")
        common.print_results_table("demo table", ["a", "b"], [[1, 2.0]])
        content = report.read_text()
        assert "demo section" in content
        assert "demo table" in content
        assert "2.000" in content
