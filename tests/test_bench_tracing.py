"""The benchmark's tracer finds what it wraps.

bench/tracing.py names zecknum functions and methods by (module, attribute);
a rename in src/ would otherwise only show as a traced run that fails or
silently stops counting.  The tables are read from the file, not imported.
One test installs the tracer itself, imported as it is with no bytecode
written next to it, and checks that a counted class still builds.
"""

from __future__ import annotations

import ast
import importlib
import sys
from itertools import islice
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


@pytest.fixture
def tracing():
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(TRACING.parent))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode


def test_construction_counter_wraps_init(tracing):
    # CoeffFn is built in __new__; the counter wraps __init__, which must
    # still take the constructor's argument.  Members a walk wraps unchecked
    # are not constructed, so not counted.
    from zecknum import blocks, coeff, integers, padic, real  # noqa: F401  the modules the tracer patches
    from zecknum.recurrences import MultiplicityList

    init, fam = coeff.CoeffFn.__init__, MultiplicityList((1, 1)).predecessor_family()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert coeff.CoeffFn.__init__ is not init
        f = coeff.CoeffFn({1: 2})
        members = list(islice(blocks.enumerate_asc(fam), 50))
    finally:
        tracer.uninstall()
    assert tracer.counts["coeff.CoeffFn.init.calls"] == 1
    assert f.items() == ((1, 2),) and len(set(members)) == 50
    assert all(type(m) is coeff.CoeffFn for m in members)
    assert coeff.CoeffFn.__init__ is init and coeff.CoeffFn({1: 2}) == f
    assert tracer.counts["coeff.CoeffFn.init.calls"] == 1
