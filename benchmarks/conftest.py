"""Shared pytest wiring for the figure/table benchmark modules.

Each module's printed tables are captured by ``benchmarks.common`` while
its tests run and flushed to ``results/<module>.json`` afterwards, so
every regenerated figure/table has a machine-readable twin next to the
text report without per-module boilerplate.
"""

import os

import pytest

from benchmarks import common


@pytest.fixture(autouse=True, scope="session")
def _fresh_text_report():
    """Start each session with an empty ``results/benchmark_report.txt``.

    ``common._emit`` appends, so without this the report would keep every
    earlier run's tables too.
    """
    os.makedirs(os.path.dirname(common.REPORT_PATH), exist_ok=True)
    open(common.REPORT_PATH, "w").close()


@pytest.fixture(autouse=True, scope="module")
def _json_table_report(request):
    module = request.module.__name__.rpartition(".")[2]
    common.begin_table_capture(module)
    yield
    common.flush_table_capture(module)
