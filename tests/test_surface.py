"""Every public name the library defines has a caller in the program.

A public function, class, method or property defined in src/zecknum/*.py
must be named somewhere in src/ outside its own definition, in bench/*.py,
or in the frozen tests/test_acceptance.py; the other test modules do not
count, so API only they call belongs in tests/conftest.py.  Names are read
with ``ast``: ``Name`` and ``Attribute`` nodes, import aliases, and string
constants made of dotted identifiers (``config._BY_KIND`` names its
evaluators as strings, bench/tracing.py the functions it wraps).  Names
starting with ``_``, dunders included, are out of scope.

The same walk over src/ finds every ``localcontext()`` call made without an
argument: such a context copies the caller's, whose precision, rounding and
traps would then reach the result.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "zecknum").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined(tree: ast.Module) -> list[str]:
    """Public module-level functions and classes, and the methods and
    properties of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [m.name for m in node.body if isinstance(m, DEFS) and not m.name.startswith("_")]
    return names


def named(node: ast.AST, enclosing: tuple[str, ...], out: set[str]) -> None:
    """Add to ``out`` every name ``node`` mentions outside a definition of
    that same name (``enclosing`` holds the definitions around ``node``)."""
    if isinstance(node, ast.Name):
        found = [node.id]
    elif isinstance(node, ast.Attribute):
        found = [node.attr]
    elif isinstance(node, ast.alias):
        found = [node.name.rpartition(".")[2], node.asname or ""]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
        found = node.value.split(".")
    else:
        found = []
    out.update(n for n in found if n and n not in enclosing)
    if isinstance(node, DEFS):
        enclosing += (node.name,)
    for child in ast.iter_child_nodes(node):
        named(child, enclosing, out)


def unused() -> list[str]:
    used: set[str] = set()
    for path in CALLERS:
        named(ast.parse(path.read_text()), (), used)
    return sorted(
        f"{path.stem}.{name}"
        for path in SRC
        for name in defined(ast.parse(path.read_text()))
        if name not in used
    )


def test_scan_finds_definitions():
    assert "encode_int" in defined(ast.parse((ROOT / "src" / "zecknum" / "integers.py").read_text()))


def test_every_public_name_has_a_caller():
    assert unused() == []


def bare_localcontexts(tree: ast.Module) -> list[int]:
    """Lines of the ``localcontext()`` calls in ``tree`` that pass no context."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "localcontext"
        and not node.args
        and not node.keywords
    ]


def test_scan_finds_bare_localcontexts():
    code = "with localcontext(Context(prec=9)):\n    pass\nwith decimal.localcontext() as ctx:\n    pass\n"
    assert bare_localcontexts(ast.parse(code)) == [3]


def test_no_decimal_work_in_a_copy_of_the_callers_context():
    found = [f"{path.name}:{line}" for path in SRC for line in bare_localcontexts(ast.parse(path.read_text()))]
    assert found == []
