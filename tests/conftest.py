"""Shared fixtures: small deterministic datasets and workloads.

All fixtures are seeded and sized for fast unit tests; the scaling
behaviour of the indexes is exercised by the benchmark suite instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devtools.invariants import (
    install_sanitizer,
    sanitize_enabled,
    uninstall_sanitizer,
)


@pytest.fixture(scope="session", autouse=True)
def runtime_sanitizer():
    """Deep-check every index the suite builds when REPRO_SANITIZE=1.

    With the variable unset this fixture is a no-op and the library entry
    points stay pristine (TestDisabledModeIsFree asserts the identity).
    """
    if not sanitize_enabled():
        yield
        return
    install_sanitizer()
    try:
        yield
    finally:
        uninstall_sanitizer()

from repro.geometry import Point, Rect
from repro.workloads import (
    generate_dataset,
    generate_range_workload,
)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def uniform_points():
    """500 uniform points in the unit square."""
    generator = np.random.default_rng(7)
    coordinates = generator.uniform(0.0, 1.0, size=(500, 2))
    return [Point(float(x), float(y)) for x, y in coordinates]


@pytest.fixture(scope="session")
def clustered_points():
    """A small clustered dataset from the synthetic NewYork region."""
    return generate_dataset("newyork", 2000, seed=11)


@pytest.fixture(scope="session")
def small_workload():
    """A small skewed range-query workload over the NewYork region."""
    return generate_range_workload("newyork", 60, selectivity_percent=0.0256, seed=11)


@pytest.fixture(scope="session")
def unit_square():
    return Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def sample_queries(unit_square, rng):
    """40 random rectangles inside the unit square."""
    queries = []
    for _ in range(40):
        x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2))
        y1, y2 = sorted(rng.uniform(0.0, 1.0, size=2))
        queries.append(Rect(float(x1), float(y1), float(x2), float(y2)))
    return queries
