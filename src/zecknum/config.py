"""Build numeration systems from JSON descriptions.

A system file names a kind (integer, real, padic), a family, and one or
more sequences.  Bundled fixtures live next to this module; user files use
the same schema via an explicit path.  Fractions appear in JSON as strings
like "3/7".  A kind's layer is imported the first time a system of that kind
is built, so loading a system pulls in only the modules it uses.
"""

from __future__ import annotations

import json
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

from .coeff import CoeffFn, FamilyError

FIXTURES = Path(__file__).parent / "fixtures"


class System(NamedTuple):
    """A loaded numeration system: family plus named sequences."""

    name: str
    kind: str
    family: object
    sequences: dict[str, object]
    multiplicities: tuple[int, ...] | None = None

    @property
    def sequence(self):
        return self.sequences["main"]

    def seq(self, label: str = "main"):
        """The sequence named ``label``, or a FamilyError listing the labels."""
        if label not in self.sequences:
            raise FamilyError(
                f"system {self.name!r} has no sequence {label!r}; it has {sorted(self.sequences)}"
            )
        return self.sequences[label]

    def value(self, fn: CoeffFn, label: str = "main"):
        """Value of ``fn`` under sequence ``label`` on this system's carrier: an
        integer, a residue mod p**prec, or an exact or decimal number in (0,1)."""
        module, name = _BY_KIND[self.kind].value
        return getattr(import_module(f".{module}", __package__), name)(fn, self.seq(label))


def _ints(v) -> bool:
    return isinstance(v, list) and all(type(x) is int for x in v)  # a JSON true is no integer


def _number(v) -> bool:
    """A JSON integer, a finite float or a numeric string such as "3/7": what Fraction reads."""
    from fractions import Fraction
    try:
        return type(v) in (int, float, str) and Fraction(v) is not None  # a JSON true or null is no number
    except (ValueError, ArithmeticError):  # "ab", "1/0", Infinity, NaN
        return False


_KINDS = {  # kind -> (what a value must be, check); kind "int" reads an integer or a numeric string instead
    "ints": ("a list of integers", _ints),
    "rows": ("a list of integer lists", lambda v: isinstance(v, list) and all(map(_ints, v))),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "number": ("a number", _number),
    "numbers": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v))),
}


def _need(entry: dict, path: str, key: str, kind: str = "ints"):
    """entry[key] checked against ``kind``, or a FamilyError naming the key path."""
    where = f"{path}.{key}" if path else key
    if key not in entry:
        raise FamilyError(f"missing key {where}")
    v = entry[key]
    if kind == "int":
        try:
            if type(v) in (int, str):  # a JSON true or 3.7 is no integer; "3" is read as 3
                return int(v)
        except ValueError:
            pass
        raise FamilyError(f"{where} must be an integer, got {v!r}")
    what, ok = _KINDS[kind]
    if not ok(v):
        raise FamilyError(f"{where} must be {what}, got {v!r}")
    return v


def _integer_family(entry: dict):
    from .recurrences import (MultiplicityList, factorial_family, family_from_blocks, family_from_neg_recurrence,
                              family_from_sequence, family_from_table, index_bounded_family, j_plus_family)
    t = entry.get("type")
    if t == "multiplicity":
        ml = MultiplicityList(tuple(_need(entry, "family", "e")))
        return ml.predecessor_family(), ml.e
    if t == "index-bounded":
        return index_bounded_family(), None
    if t == "neg-recurrence":
        return family_from_neg_recurrence(_need(entry, "family", "c")), None
    if t == "factorial":
        return factorial_family(), None
    if t == "pin":
        return j_plus_family(_need(entry, "family", "j", "int")), None
    if t == "blocks":
        blocks = _need(entry, "family", "blocks", "rows")
        return family_from_blocks([tuple(b) for b in blocks], entry.get("name", "blocks")), None
    if t == "table":
        rows = _need(entry, "family", "rows", "rows")
        fam = family_from_table(rows)
        for n in range(2, len(rows) + 2):  # every row checked at load, before any output
            fam.parts(n)
        return fam, None
    if t == "greedy":
        return family_from_sequence(_need(entry, "family", "values")), None
    raise FamilyError(f"unknown family type {t!r}")


def _real_family(entry: dict):
    from .real import harmonic_maximal_family, periodic_maximal_family
    t = entry.get("type")
    if t == "harmonic":
        return harmonic_maximal_family(), None
    if t == "periodic":
        return periodic_maximal_family(_need(entry, "family", "rows", "rows")), None
    if t == "multiplicity":
        from .recurrences import MultiplicityList
        ml = MultiplicityList(tuple(_need(entry, "family", "e")))
        return ml.maximal_family(), ml.e
    raise FamilyError(f"unknown real family type {t!r}")


def _integer_seq(entry: dict, path: str, doc: dict, fam, e, precision: int):
    from .integers import FundamentalSeq
    from .recurrences import pinned_radix_seq
    t = entry.get("type")
    if t == "derived":
        return FundamentalSeq.from_family(fam)
    if t == "linear":
        seeds, coeffs = _need(entry, path, "seeds"), _need(entry, path, "coeffs")
        return FundamentalSeq.from_linear(seeds, coeffs, name=entry.get("name", "Q"))
    if t == "table":
        return FundamentalSeq(_need(entry, path, "values"), name=entry.get("name", "Q"))
    if t == "pinned-radix":
        return pinned_radix_seq(_need(entry, path, "j", "int"))
    raise FamilyError(f"unknown sequence type {t!r}")


def _real_seq(entry: dict, path: str, doc: dict, fam, e, precision: int):
    from .real import BlockGeometricSeq, HarmonicSeq, geometric_fundamental
    t = entry.get("type")
    if t == "harmonic":
        return HarmonicSeq()
    if t == "geometric":  # e defaults to the family's multiplicities
        ml = tuple(_need(entry, path, "e") if "e" in entry else e or ())
        if not ml:
            raise FamilyError("geometric sequence needs multiplicities")
        return geometric_fundamental(ml, digits=precision)
    if t == "block-geometric":
        return BlockGeometricSeq(_need(entry, path, "seeds", "numbers"), _need(entry, path, "ratio", "number"))
    raise FamilyError(f"unknown real sequence type {t!r}")


def _padic_seq(entry: dict, path: str, doc: dict, fam, e, precision: int):
    from .padic import golden_padic_seq, power_padic_seq
    p, prec = _need(doc, "", "p", "int"), _need(doc, "", "prec", "int")
    t, entry = entry.get("type"), {"unit": 1, "mix": 3, "seed": 7, **entry}
    if t == "power":
        return power_padic_seq(p, prec, _need(entry, path, "unit", "int"), name=entry.get("name"))
    if t == "golden":
        mix, seed = _need(entry, path, "mix", "int"), _need(entry, path, "seed", "int")
        return golden_padic_seq(p, prec, mix=mix, seed=seed)
    raise FamilyError(f"unknown padic sequence type {t!r}")


class _Kind(NamedTuple):
    """How one system kind is built and evaluated.  The builders import the
    kind's layer when first called; ``value`` names the evaluator in it as
    (module, function), looked up at each call."""

    family: Callable  # family entry -> (family, multiplicities or None)
    sequence: Callable  # (entry, key path, document, family, multiplicities, precision) -> sequence
    value: tuple[str, str]  # a function of (digit function, sequence)


_BY_KIND = {
    "integer": _Kind(_integer_family, _integer_seq, ("integers", "decode_int")),
    "real": _Kind(_real_family, _real_seq, ("real", "eval_expansion")),
    "padic": _Kind(_integer_family, _padic_seq, ("padic", "eval_padic")),
}


def build_system(doc: dict, precision: int = 60) -> System:
    """The system a JSON document describes; FamilyError names the key path
    of a missing or mistyped entry."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _BY_KIND:
        raise FamilyError(f"unknown system kind {kind!r}")
    if "sequences" in doc:
        labels = _need(doc, "", "sequences", "object")
        entries = {k: (f"sequences.{k}", _need(labels, "sequences", k, "object")) for k in labels}
    else:
        entries = {"main": ("sequence", _need(doc, "", "sequence", "object"))}
    build = _BY_KIND[kind]
    fam, e = build.family(_need(doc, "", "family", "object"))
    seqs = {label: build.sequence(s, path, doc, fam, e, precision) for label, (path, s) in entries.items()}
    return System(doc.get("name", "unnamed"), kind, fam, seqs, multiplicities=e)


def load_config(path: str | Path, precision: int = 60) -> System:
    with open(path, encoding="utf-8") as fh:
        return build_system(json.load(fh), precision)


def fixture_names() -> list[str]:
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def load_fixture(name: str, precision: int = 60) -> System:
    path = FIXTURES / f"{name}.json"
    if not path.is_file():
        raise FamilyError(f"no fixture {name!r}; available: {', '.join(fixture_names())}")
    return load_config(path, precision)
