"""One traced round of each in-process benchmark workload, checked by its oracles.

bench/workloads.py builds each workload's operations and bench/oracles.py
checks their answers against references that do not come from zecknum; a
kernel change that breaks one of those answers fails here, not only in a
benchmark run.  Both files are imported as they are, with no bytecode
written next to them.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode


@pytest.mark.parametrize("name", ["Codec", "Walk", "Carriers"])
def test_trace_round_passes_the_oracles(workloads, name):
    w = getattr(workloads, name)(1)
    w.setup(workloads.import_zecknum())
    w.check_setup()
    ops = w.trace_ops()
    assert ops
    for run, check in ops:
        check(run())
