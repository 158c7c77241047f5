"""The benchmark's workloads find what they call.

bench/workloads.py reaches zecknum as ``zk.<module>.<name>`` (or
``self.zk.<module>.<name>``), where ``zk`` holds the imported modules; a trim
of the library's names would otherwise only show as a failed benchmark run.
The file is parsed, not imported, so this needs nothing from bench/ at run
time.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def is_zk(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "zk") or (isinstance(node, ast.Attribute) and node.attr == "zk")


def called_names() -> list[tuple[str, str]]:
    """(module, name) of every zk.<module>.<name> in the workloads."""
    found = {
        (node.value.attr, node.attr)
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and is_zk(node.value.value)
    }
    return sorted(found)


def test_workloads_reach_zecknum():
    assert called_names()


@pytest.mark.parametrize("module,name", called_names())
def test_workload_name_resolves(module, name):
    target = importlib.import_module(f"zecknum.{module}")
    assert callable(getattr(target, name, None)), f"zecknum.{module}.{name} is gone"
