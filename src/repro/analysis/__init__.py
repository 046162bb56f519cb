"""Workload analysis: drift detection and layout advice.

Section 6.8 of the paper shows that WaZI degrades when the query workload
drifts away from the workload it was built for, and the conclusion lists
"mechanisms to decide when to retrain an index" as future work, pointing at
the concept-drift literature.  This subpackage provides a concrete,
lightweight realisation of that direction:

* :class:`~repro.analysis.drift.WorkloadDriftDetector` — summarises a
  training workload as a coarse spatial histogram of query footprints and
  scores how far an observed workload has drifted (total-variation
  distance), with a configurable rebuild threshold.
* :func:`~repro.analysis.tuning.advise_layout` /
  :class:`~repro.analysis.tuning.TuningReport` — the advise stage of the
  engine's observe → advise → adapt lifecycle: a measured count-only
  replay of the observed workload plus a density-model estimate of a
  re-derived layout's cost and the cost-redemption arithmetic of
  Table 4, folded into a single actionable verdict (this is what
  :meth:`repro.engine.SpatialEngine.advise` returns).
"""

from repro.analysis.drift import WorkloadDriftDetector
from repro.analysis.tuning import TuningReport, advise_layout, tuned_leaf_capacity

__all__ = [
    "WorkloadDriftDetector",
    "TuningReport",
    "advise_layout",
    "tuned_leaf_capacity",
]
