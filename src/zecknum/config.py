"""Build numeration systems from JSON descriptions.

A system file names a kind (integer, real, padic), a family, and one or
more sequences.  Bundled fixtures live next to this module; user files use
the same schema via an explicit path.  Fractions appear in JSON as strings
like "3/7".
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .blocks import FamilyError
from .coeff import CoeffFn
from .integers import FundamentalSeq, decode_int
from .padic import PadicSeq, eval_padic, golden_padic_seq, power_padic_seq
from .real import (
    BlockGeometricSeq,
    HarmonicSeq,
    eval_expansion,
    geometric_fundamental,
    harmonic_maximal_family,
    periodic_maximal_family,
)
from .recurrences import (
    MultiplicityList,
    factorial_family,
    family_from_blocks,
    family_from_neg_recurrence,
    family_from_sequence,
    family_from_table,
    index_bounded_family,
    j_plus_family,
    pinned_radix_seq,
)


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
        seq = self.seq(label)
        if self.kind == "integer":
            return decode_int(fn, seq)
        if self.kind == "padic":
            return eval_padic(fn, seq)
        return eval_expansion(fn, seq)


def _ints(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, int) for x in v)


_KINDS = {  # kind -> (what a value must be, check); kind "int" coerces with int() instead
    "ints": ("a list of integers", _ints),
    "rows": ("a list of integer lists", lambda v: isinstance(v, list) and all(map(_ints, v))),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "any": ("anything", lambda v: True),
}


def _need(entry: dict, path: str, key: str, kind: str = "ints"):
    """entry[key] checked against ``kind``, or a FamilyError naming the key path."""
    where = f"{path}.{key}" if path else key
    if key not in entry:
        raise FamilyError(f"missing key {where}")
    v = entry[key]
    if kind == "int":
        try:
            return int(v)
        except (TypeError, ValueError, OverflowError):
            raise FamilyError(f"{where} must be an integer, got {v!r}") from None
    what, ok = _KINDS[kind]
    if not ok(v):
        raise FamilyError(f"{where} must be {what}, got {v!r}")
    return v


def _build_integer_family(entry: dict):
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
        return family_from_blocks([tuple(b) for b in blocks], entry.get("name", "blocks")).family, None
    if t == "table":
        return family_from_table(_need(entry, "family", "rows", "rows")), None
    if t == "greedy":
        return family_from_sequence(_need(entry, "family", "values")), None
    raise FamilyError(f"unknown family type {t!r}")


def _build_real_family(entry: dict):
    t = entry.get("type")
    if t == "harmonic":
        return harmonic_maximal_family(), None
    if t == "periodic":
        return periodic_maximal_family(_need(entry, "family", "rows", "rows")), None
    if t == "multiplicity":
        ml = MultiplicityList(tuple(_need(entry, "family", "e")))
        return ml.maximal_family(), ml.e
    raise FamilyError(f"unknown real family type {t!r}")


def _build_integer_seq(entry: dict, fam, path: str) -> FundamentalSeq:
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


def _build_real_seq(entry: dict, e, precision: int, path: str):
    t = entry.get("type")
    if t == "harmonic":
        return HarmonicSeq()
    if t == "geometric":
        ml = tuple(entry.get("e", e or ()))
        if not ml:
            raise FamilyError("geometric sequence needs multiplicities")
        return geometric_fundamental(ml, digits=precision)
    if t == "block-geometric":
        seeds, ratio = _need(entry, path, "seeds", "any"), _need(entry, path, "ratio", "any")
        return BlockGeometricSeq([Fraction(s) for s in seeds], Fraction(ratio))
    raise FamilyError(f"unknown real sequence type {t!r}")


def _build_padic_seq(entry: dict, p: int, prec: int, path: str) -> PadicSeq:
    t, entry = entry.get("type"), {"unit": 1, "mix": 3, "seed": 7, **entry}
    if t == "power":
        return power_padic_seq(p, prec, _need(entry, path, "unit", "int"), name=entry.get("name"))
    if t == "golden":
        mix, seed = _need(entry, path, "mix", "int"), _need(entry, path, "seed", "int")
        return golden_padic_seq(p, prec, mix=mix, seed=seed)
    raise FamilyError(f"unknown padic sequence type {t!r}")


def build_system(doc: dict, precision: int = 60) -> System:
    """The system a JSON document describes; FamilyError names the key path
    of a missing or mistyped entry."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("integer", "real", "padic"):
        raise FamilyError(f"unknown system kind {kind!r}")
    if "sequences" in doc:
        labels = _need(doc, "", "sequences", "object")
        entries = {k: (f"sequences.{k}", _need(labels, "sequences", k, "object")) for k in labels}
    else:
        entries = {"main": ("sequence", _need(doc, "", "sequence", "object"))}
    family = _need(doc, "", "family", "object")
    name = doc.get("name", "unnamed")

    if kind == "real":
        fam, e = _build_real_family(family)
        seqs = {label: _build_real_seq(s, e, precision, path) for label, (path, s) in entries.items()}
        return System(name, kind, fam, seqs, multiplicities=e)
    fam, e = _build_integer_family(family)
    if kind == "integer":
        seqs = {label: _build_integer_seq(s, fam, path) for label, (path, s) in entries.items()}
        return System(name, kind, fam, seqs, multiplicities=e)
    p, prec = _need(doc, "", "p", "int"), _need(doc, "", "prec", "int")
    seqs = {label: _build_padic_seq(s, p, prec, path) for label, (path, s) in entries.items()}
    return System(name, kind, fam, seqs, multiplicities=e)


def load_config(path: str | Path, precision: int = 60) -> System:
    with open(path, encoding="utf-8") as fh:
        return build_system(json.load(fh), precision)


def fixture_names() -> list[str]:
    pkg = resources.files("zecknum.fixtures")
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str, precision: int = 60) -> System:
    pkg = resources.files("zecknum.fixtures")
    res = pkg / f"{name}.json"
    if not res.is_file():
        raise FamilyError(f"no fixture {name!r}; available: {', '.join(fixture_names())}")
    return build_system(json.loads(res.read_text(encoding="utf-8")), precision)
