"""Piecewise-stationary drifting-workload scenarios.

The workload-change experiment of Section 6.8 blends two fixed workloads;
a *serving* system instead sees traffic that shifts in phases — a hotspot
moves, users zoom in, the query mix tilts towards kNN.  This module
generates such piecewise-stationary scenarios as lists of
:class:`DriftPhase` objects (each phase a frozen
:class:`~repro.workloads.Workload`), shared by the benchmark
(``bench/workloads.py``), the workload tests and
``examples/adaptive_serving.py``.

Scenario kinds (:data:`SCENARIO_KINDS`):

* ``"hotspot_shift"`` — broad uniform traffic, then small queries
  concentrated in one hotspot, then the hotspot jumps elsewhere;
* ``"zoom_in"`` — traffic narrows from region-wide queries to ever
  smaller queries inside one shrinking focus area;
* ``"knn_heavy"`` — range-only traffic tilts into a phase dominated by
  kNN probes over the hotspot (exercising the kNN columns of the
  workload log and their equivalent-range conversion);
* ``"scan_heavy"`` — tiny interactive hotspot lookups give way to
  region-wide analytical scans: the observed result sizes jump by three
  orders of magnitude, so the layout's *page granularity* (not just its
  split points) is wrong for the new traffic.

Every generator threads an explicit ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry import Point, Rect
from repro.workloads.datasets import dataset_extent
from repro.workloads.queries import range_queries_from_centers
from repro.workloads.workload import Workload

__all__ = [
    "SCENARIO_KINDS",
    "DriftPhase",
    "drift_scenario",
    "hotspot_workload",
    "moving_hotspot",
    "uniform_centers_workload",
]

#: The scenario kinds :func:`drift_scenario` understands.
SCENARIO_KINDS = ("hotspot_shift", "zoom_in", "knn_heavy", "scan_heavy")


@dataclass(frozen=True)
class DriftPhase:
    """One stationary phase of a drifting scenario."""

    name: str
    workload: Workload

    def __len__(self) -> int:
        return len(self.workload)


def _sub_extent(extent: Rect, center: Tuple[float, float], fraction: float) -> Rect:
    """A sub-rectangle of ``extent``: ``fraction`` of each side around a
    relative center (coordinates in ``[0, 1]`` of the extent)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    cx = extent.xmin + center[0] * extent.width
    cy = extent.ymin + center[1] * extent.height
    half_w = extent.width * fraction / 2.0
    half_h = extent.height * fraction / 2.0
    xmin = min(max(extent.xmin, cx - half_w), extent.xmax - 2 * half_w)
    ymin = min(max(extent.ymin, cy - half_h), extent.ymax - 2 * half_h)
    return Rect(xmin, ymin, xmin + 2 * half_w, ymin + 2 * half_h)


def _uniform_points_in(rect: Rect, num: int, rng: np.random.Generator) -> List[Point]:
    xs = rng.uniform(rect.xmin, rect.xmax, size=num)
    ys = rng.uniform(rect.ymin, rect.ymax, size=num)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


def uniform_centers_workload(
    region: str,
    num_queries: int,
    selectivity_percent: float,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Workload:
    """Region-wide queries with uniformly placed centers (the broad phase)."""
    extent = dataset_extent(region)
    rng = rng if rng is not None else np.random.default_rng(seed)
    centers = _uniform_points_in(extent, num_queries, rng)
    queries = range_queries_from_centers(centers, extent, selectivity_percent, rng=rng)
    return Workload(
        queries=queries,
        region=region,
        selectivity_percent=selectivity_percent,
        seed=seed,
        description=f"{region} uniform phase @ {selectivity_percent}%",
    )


def hotspot_workload(
    region: str,
    num_queries: int,
    selectivity_percent: float,
    *,
    hotspot_center: Tuple[float, float] = (0.5, 0.5),
    hotspot_fraction: float = 0.15,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Workload:
    """Queries whose centers concentrate in one hotspot sub-rectangle.

    ``hotspot_center`` is in relative ``[0, 1]`` coordinates of the
    region's extent; ``hotspot_fraction`` is the hotspot's side length as
    a fraction of the extent's.
    """
    extent = dataset_extent(region)
    rng = rng if rng is not None else np.random.default_rng(seed)
    hotspot = _sub_extent(extent, hotspot_center, hotspot_fraction)
    centers = _uniform_points_in(hotspot, num_queries, rng)
    queries = range_queries_from_centers(centers, extent, selectivity_percent, rng=rng)
    return Workload(
        queries=queries,
        region=region,
        selectivity_percent=selectivity_percent,
        seed=seed,
        description=(
            f"{region} hotspot phase @ {selectivity_percent}% around "
            f"{hotspot_center} ({hotspot_fraction:.0%} of extent)"
        ),
        extra={"hotspot_center": list(hotspot_center),
               "hotspot_fraction": hotspot_fraction},
    )


def _knn_heavy_workload(
    region: str,
    num_queries: int,
    selectivity_percent: float,
    *,
    hotspot_center: Tuple[float, float],
    hotspot_fraction: float,
    k: int,
    knn_share: float,
    seed: int,
) -> Workload:
    """A mixed phase: mostly kNN probes in the hotspot, some ranges."""
    rng = np.random.default_rng(seed)
    num_knn = int(round(knn_share * num_queries))
    extent = dataset_extent(region)
    hotspot = _sub_extent(extent, hotspot_center, hotspot_fraction)
    probes = _uniform_points_in(hotspot, num_knn, rng)
    ranges = hotspot_workload(
        region, num_queries - num_knn, selectivity_percent,
        hotspot_center=hotspot_center, hotspot_fraction=hotspot_fraction,
        rng=rng, seed=seed,
    )
    return Workload(
        queries=ranges.queries,
        region=region,
        selectivity_percent=selectivity_percent,
        seed=seed,
        description=f"{region} kNN-heavy phase (k={k}, {knn_share:.0%} kNN)",
        extra={"k": k, "knn_share": knn_share},
        knn_probes=probes,
        knn_k=k if num_knn else None,
    )


def moving_hotspot(
    region: str = "newyork",
    num_steps: int = 10,
    queries_per_step: int = 100,
    selectivity_percent: float = 0.0064,
    *,
    start: Tuple[float, float] = (0.15, 0.15),
    end: Tuple[float, float] = (0.85, 0.85),
    hotspot_fraction: float = 0.12,
    seed: int = 0,
) -> List[DriftPhase]:
    """Continuous drift: a hotspot translating smoothly across the extent.

    Where the piecewise-stationary scenarios model abrupt regime changes,
    this one models the traffic a *continuously* adapting engine must
    track: every step the hotspot's (relative) center moves one linear
    interpolation increment from ``start`` towards ``end``, and a fresh
    batch of ``queries_per_step`` small range queries concentrates around
    the new position.  A one-shot adapted layout fits step 0 and decays
    as the hotspot walks away from it — the scans of the ``online-drift``
    workload of ``python3 -m bench``.

    Returns ``num_steps`` single-batch :class:`DriftPhase` objects
    (``step-00``, ``step-01``, …), deterministic given ``seed``.
    """
    if num_steps <= 0:
        raise ValueError(f"num_steps must be positive, got {num_steps}")
    if queries_per_step <= 0:
        raise ValueError(
            f"queries_per_step must be positive, got {queries_per_step}"
        )
    phases: List[DriftPhase] = []
    for step in range(num_steps):
        t = step / (num_steps - 1) if num_steps > 1 else 0.0
        center = (
            start[0] + t * (end[0] - start[0]),
            start[1] + t * (end[1] - start[1]),
        )
        phases.append(DriftPhase(
            f"step-{step:02d}",
            hotspot_workload(
                region, queries_per_step, selectivity_percent,
                hotspot_center=center, hotspot_fraction=hotspot_fraction,
                seed=seed + step,
            ),
        ))
    return phases


def drift_scenario(
    kind: str,
    region: str = "newyork",
    num_queries: int = 400,
    selectivity_percent: float = 0.0256,
    seed: int = 0,
    *,
    hotspot_fraction: float = 0.15,
    k: int = 10,
) -> List[DriftPhase]:
    """A piecewise-stationary scenario as a list of :class:`DriftPhase`.

    Each phase holds ``num_queries`` queries.  See the module docstring
    for what each ``kind`` models; phases are deterministic given ``seed``.
    """
    if num_queries <= 0:
        raise ValueError(f"num_queries must be positive, got {num_queries}")
    if kind == "hotspot_shift":
        return [
            DriftPhase("broad-uniform", uniform_centers_workload(
                region, num_queries, selectivity_percent, seed=seed,
            )),
            DriftPhase("hotspot-A", hotspot_workload(
                region, num_queries, selectivity_percent / 4.0,
                hotspot_center=(0.22, 0.3), hotspot_fraction=hotspot_fraction,
                seed=seed + 1,
            )),
            DriftPhase("hotspot-B", hotspot_workload(
                region, num_queries, selectivity_percent / 4.0,
                hotspot_center=(0.75, 0.7), hotspot_fraction=hotspot_fraction,
                seed=seed + 2,
            )),
        ]
    if kind == "zoom_in":
        phases = []
        focus = (0.6, 0.55)
        for step, (sel_scale, fraction) in enumerate(
            ((1.0, 1.0), (0.25, 0.4), (1 / 16.0, 0.15))
        ):
            phases.append(DriftPhase(
                f"zoom-{step}",
                hotspot_workload(
                    region, num_queries, selectivity_percent * sel_scale,
                    hotspot_center=focus, hotspot_fraction=fraction,
                    seed=seed + step,
                ),
            ))
        return phases
    if kind == "scan_heavy":
        return [
            DriftPhase("interactive", hotspot_workload(
                region, num_queries, selectivity_percent / 16.0,
                hotspot_center=(0.75, 0.7), hotspot_fraction=hotspot_fraction,
                seed=seed,
            )),
            DriftPhase("analytical", uniform_centers_workload(
                region, num_queries, max(selectivity_percent, 2.0), seed=seed + 1,
            )),
        ]
    if kind == "knn_heavy":
        return [
            DriftPhase("range-only", uniform_centers_workload(
                region, num_queries, selectivity_percent, seed=seed,
            )),
            DriftPhase("knn-heavy", _knn_heavy_workload(
                region, num_queries, selectivity_percent / 4.0,
                hotspot_center=(0.4, 0.45), hotspot_fraction=hotspot_fraction,
                k=k, knn_share=0.7, seed=seed + 1,
            )),
        ]
    raise ValueError(f"Unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
