"""Tests for workload-drift detection."""

import pytest

from repro.analysis import WorkloadDriftDetector
from repro.geometry import Rect
from repro.workloads import blend_workloads, generate_range_workload, uniform_range_workload


@pytest.fixture(scope="module")
def original_workload():
    return generate_range_workload("newyork", 150, selectivity_percent=0.0256, seed=1)


@pytest.fixture(scope="module")
def replacement_workload():
    return generate_range_workload("newyork", 150, selectivity_percent=0.0256, seed=777)


class TestWorkloadDriftDetector:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkloadDriftDetector(Rect(0, 0, 1, 1), grid=0)
        with pytest.raises(ValueError):
            WorkloadDriftDetector(Rect(0, 0, 1, 1), rebuild_threshold=0.0)

    def test_from_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadDriftDetector.from_workload([])

    def test_unfitted_detector_raises(self):
        detector = WorkloadDriftDetector(Rect(0, 0, 1, 1))
        with pytest.raises(RuntimeError):
            detector.drift_score([Rect(0, 0, 1, 1)])

    def test_zero_drift_for_identical_workload(self, original_workload):
        detector = WorkloadDriftDetector.from_workload(original_workload.queries)
        assert detector.drift_score(original_workload.queries) == pytest.approx(0.0, abs=1e-9)
        assert not detector.should_rebuild(original_workload.queries)

    def test_score_bounded_between_zero_and_one(self, original_workload, replacement_workload):
        detector = WorkloadDriftDetector.from_workload(original_workload.queries)
        score = detector.drift_score(replacement_workload.queries)
        assert 0.0 <= score <= 1.0

    def test_disjoint_workloads_have_high_drift(self):
        left = [Rect(0.0, 0.0, 0.1, 0.1)] * 20
        right = [Rect(0.9, 0.9, 1.0, 1.0)] * 20
        detector = WorkloadDriftDetector.from_workload(left, extent=Rect(0, 0, 1, 1))
        assert detector.drift_score(right) > 0.9
        assert detector.should_rebuild(right)

    def test_drift_increases_with_change_fraction(self, original_workload, replacement_workload):
        detector = WorkloadDriftDetector.from_workload(original_workload.queries, grid=12)
        scores = []
        for fraction in (0.0, 0.5, 1.0):
            blended = blend_workloads(original_workload, replacement_workload, fraction, seed=3)
            scores.append(detector.drift_score(blended.queries))
        assert scores[0] <= scores[1] <= scores[2]

    def test_uniform_drift_detected(self, original_workload):
        detector = WorkloadDriftDetector.from_workload(original_workload.queries, grid=12)
        uniform = uniform_range_workload("newyork", 150, 0.0256, seed=5)
        assert detector.drift_score(uniform.queries) > 0.2

    def test_refit_resets_reference(self, original_workload, replacement_workload):
        detector = WorkloadDriftDetector.from_workload(original_workload.queries)
        detector.fit(replacement_workload.queries)
        assert detector.drift_score(replacement_workload.queries) == pytest.approx(0.0, abs=1e-9)
