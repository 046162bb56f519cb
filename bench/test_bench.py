"""Every workload at toy size, through the same code paths as the benchmark.

Checks that the metrics a run prints are exactly the ones ``BENCHMARK.json``
declares (name and unit), that the oracles pass and that no operation
failed.  Runs in a few seconds.
"""

import json

import pytest

from bench.common import END_TO_END, PER_LAYER, ROOT, RUN_SECONDS, SMOKE, WORKLOADS, require_library

require_library()

from bench.trace import SpanRecorder, assert_unwrapped  # noqa: E402
from bench.workloads import run_workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["run_seconds"] == RUN_SECONDS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_smoke(name, trace):
    result = run_workload(name, SMOKE, seed=7, seconds=0.2, trace=trace)
    line = result.line()
    declared = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(declared)
    assert result.errors == []
    assert result.checked > 0
    assert line["attempted"] > 0
    assert line["failed"] / line["attempted"] == 0.0  # error_share
    assert line["correct"] is True


def test_recorder_self_time_and_unwrap():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer = Layer()
    rec = SpanRecorder()
    rec.wrap(layer, "outer", "outer")
    rec.wrap(layer, "inner", "inner")
    root = rec.request("op.call")
    assert layer.outer() == 2
    rec.end(root)
    with pytest.raises(RuntimeError):
        assert_unwrapped(layer)
    rec.unwrap_all()
    assert_unwrapped(layer)
    assert "outer" not in vars(layer)
    spans = rec.summary()["op.call"]
    assert spans["outer"]["count"] == spans["inner"]["count"] == 1
    assert spans["outer"]["self_ns"] == spans["outer"]["total_ns"] - spans["inner"]["total_ns"]
