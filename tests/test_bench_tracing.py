"""The benchmark's tracer finds what it wraps.

bench/tracing.py names zecknum functions and methods by (module, attribute);
a rename in src/ would otherwise only show as a traced run that fails or
silently stops counting.  The tables are read from the file, not imported,
so this needs nothing from bench/ at run time.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
TABLES = ("FUNCTION_SPANS", "METHOD_SPANS", "METHOD_COUNTERS")


def tables() -> dict[str, tuple]:
    found = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                found[name] = ast.literal_eval(node.value)
    return found


def entries() -> list[tuple[str, tuple]]:
    return [(table, entry) for table, rows in tables().items() for entry in rows]


def test_every_table_is_read():
    assert sorted(tables()) == sorted(TABLES)
    assert all(tables().values())


@pytest.mark.parametrize("table,entry", entries(), ids=lambda x: x if isinstance(x, str) else ".".join(x[:-1]))
def test_traced_name_resolves(table, entry):
    module, *attrs, _span = entry
    target = importlib.import_module(module)
    for attr in attrs:
        assert hasattr(target, attr), f"{table}: {module}.{'.'.join(attrs)} is gone"
        target = getattr(target, attr)
    assert callable(target)
