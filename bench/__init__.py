"""The repository's benchmark: four workloads over the WaZI stack.

``python -m bench`` builds a WaZI index from generated inputs, drives it
through one of four workloads (``engine-paper``, ``http-tiles``,
``online-drift``, ``sharded-scan``), checks every workload's outputs
against an oracle and prints each metric by name with its unit.  The
metric set is declared in ``BENCHMARK.json`` at the repository root and in
:mod:`bench.common`; ``bench/README.md`` explains what each metric
measures, which layer should move it and on which workload.

The package imports the library under test from ``src/`` next to it and
refuses to run without it.
"""
