"""The classify rows and Weyl orders that `perfbench/workloads.py` pins.

The benchmark's gate rejects a pass whose classify rows or Weyl orders differ
from `EXPECTED_ROWS`; checking the same pins here makes a change that moves
one fail the tests too, not only the benchmark.  The workloads module is
loaded from its file and not modified.
"""

import importlib.util
import pathlib

from gradecat.classify import classify

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classify_keeps_the_pinned_rows_and_weyl_orders():
    expected_rows = _load_workloads().EXPECTED_ROWS
    assert len(expected_rows) == 7
    for algebra, expected in expected_rows.items():
        found = classify(algebra)
        rows = {(row.k, row.division.type_tag, row.division.support.torsion): row
                for row in found}
        assert len(rows) == len(found) and set(rows) == set(expected), algebra
        for key, order in expected.items():
            assert order is None or rows[key].weyl_finite_order == order, (algebra, key)
