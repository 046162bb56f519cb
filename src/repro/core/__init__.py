"""WaZI — the paper's contribution.

The :mod:`repro.core` package layers the workload-aware machinery of the
paper on top of the generic Z-index structure from :mod:`repro.zindex`:

* :mod:`repro.core.cost` — the retrieval-cost model of Section 4.2
  (Eq. 1–5): which quadrants a range query forces the index to scan or skip
  under the "abcd" and "acbd" orderings, and the aggregate workload cost.
* :mod:`repro.core.construction` — the greedy construction of Section 4.3
  (Algorithm 3): sample candidate split points per node, evaluate the cost
  against learned density estimates, keep the best split and ordering.
* :mod:`repro.core.wazi` — the :class:`WaZI` index itself and its ablation
  variants (``Base+SK`` and ``WaZI−SK`` from Section 6.9).
"""

from repro.core.cost import (
    QuadrantCounts,
    ordering_cost,
    overlapping_quadrants,
    query_pair_counts,
    workload_cost,
)
from repro.core.construction import GreedySplitStrategy
from repro.core.wazi import WaZI, BaseWithSkipping, WaZIWithoutSkipping

__all__ = [
    "QuadrantCounts",
    "overlapping_quadrants",
    "ordering_cost",
    "query_pair_counts",
    "workload_cost",
    "GreedySplitStrategy",
    "WaZI",
    "BaseWithSkipping",
    "WaZIWithoutSkipping",
]
