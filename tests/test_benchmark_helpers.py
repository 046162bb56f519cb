"""Tests for the benchmark suite's shared helpers (benchmarks/common.py).

The benchmark modules are the executable record of the paper's tables and
figures, so their shared plumbing (index name mapping, cached workloads,
report emission) deserves the same coverage as the library itself.
"""

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
