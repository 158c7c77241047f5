"""Command-line front end.

Records are tab-separated, headers and summaries start with '#', and a
lone '-' argument reads one token per line from stdin.  Exit codes: 0 on
success, 1 when a check fails or a value has no representation, 2 on
configuration errors.  ZECKNUM_PRECISION sets the decimal working
precision for real systems (default 60 digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .blocks import (
    AtMaximumError,
    FamilyError,
    NotMemberError,
    check_horizon,
    decompose_asc,
    enumerate_asc,
    enumerate_desc,
)
from .coeff import CoeffFn
from .config import System, fixture_names, load_config, load_fixture
from .integers import NotRepresentableError, encode_int, enumerate_subset, shift_value
from .padic import check_unique_padic, decode_padic, weak_converse_probe
from .real import (
    dominance_criterion,
    expand_real,
    multiplicity_list_dominant,
    verify_maximal_identity,
)
from .recurrences import verify_recurrence
from .uniqueness import check_unique, default_order_cap


def _precision() -> int:
    raw = os.environ.get("ZECKNUM_PRECISION", "60")
    try:
        p = int(raw)
        if p < 5:
            raise ValueError
    except ValueError:
        raise FamilyError(f"ZECKNUM_PRECISION must be an integer >= 5, got {raw!r}")
    return p


def _system(args) -> System:
    """The system named by -f or -c, if the verb's wiring accepts its kind."""
    if args.fixture:
        sys_ = load_fixture(args.fixture, precision=_precision())
    elif args.config:
        sys_ = load_config(args.config, precision=_precision())
    else:
        raise FamilyError("pass --fixture NAME or --config PATH (see 'zecknum fixtures')")
    if sys_.kind not in args.kinds:
        kinds = " and ".join(args.kinds)
        raise FamilyError(f"{args.verb} works on {kinds} systems, {sys_.name} is {sys_.kind}")
    return sys_


def _tokens(values: list[str]) -> list[str]:
    if values == ["-"]:
        return [line.strip() for line in sys.stdin if line.strip()]
    return values


def _parse_int_csv(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _number(text: str) -> Fraction | Decimal:
    """``p/q`` as a Fraction, anything else as a finite Decimal."""
    try:
        x = Fraction(text) if "/" in text else Decimal(text)
        if isinstance(x, Fraction) or x.is_finite():
            return x
    except (ArithmeticError, ValueError):
        pass
    raise ValueError(f"not a number: {text!r}")


# -- verb handlers -----------------------------------------------------------


def cmd_fixtures(args) -> int:
    for name in fixture_names():
        print(name)
    return 0


def cmd_encode(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    print(f"# {sys_.name}: value\tdigits")
    for tok in _tokens(args.values):
        mu = encode_int(int(tok), sys_.family, seq)
        print(f"{tok}\t{mu.render()}")
    return 0


def cmd_decode(args) -> int:
    sys_ = _system(args)
    sys_.seq(args.seq)  # an unknown label fails before the header
    print(f"# {sys_.name}: digits\tvalue")
    for tok in _tokens(args.values):
        fn = CoeffFn.parse(tok)
        print(f"{tok}\t{sys_.value(fn, args.seq)}")
    return 0


def cmd_shift(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    print(f"# {sys_.name}: digits\tshifted value")
    for tok in _tokens(args.values):
        fn = CoeffFn.parse(tok)
        print(f"{tok}\t{shift_value(fn, seq)}")
    return 0


def _walk(sys_: System, args) -> tuple[str, Iterator[CoeffFn]]:
    """enumerate's header and walk; on (0,1), increasing value within the horizon."""
    if sys_.kind != "real":
        return f"first {args.count} members, lex order", enumerate_asc(sys_.family)
    title = f"members restricted to [1, {args.horizon}], increasing order"
    return title, enumerate_desc(sys_.family, args.horizon)


def cmd_enumerate(args) -> int:
    sys_ = _system(args)
    sys_.seq(args.seq)
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    check_horizon(args.horizon)
    title, walk = _walk(sys_, args)
    print(f"# {sys_.name}: {title}")
    for i, fn in enumerate(islice(walk, args.count)):
        print(f"{i}\t{fn.render()}\t{sys_.value(fn, args.seq)}")
    return 0


def cmd_subset(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    report = enumerate_subset(sys_.family, seq, args.bound)
    print(f"# {sys_.name}: members with value <= {args.bound} under {args.seq}")
    if args.list:
        for mu, v in report.pairs:
            print(f"{mu.render()}\t{v}")
    vals = report.values()
    print(f"# members: {len(report.pairs)}, distinct values: {len(set(vals))}")
    if report.collision:
        v, a, b = report.collision
        print(f"# collision: {a.render()} and {b.render()} both reach {v}")
        return 1
    print("# no collision")
    return 0


def cmd_verify_unique(args) -> int:
    sys_ = _system(args)
    cap = default_order_cap(sys_.multiplicities, args.shortcut) if args.cap is None else args.cap
    check = {"integer": check_unique, "padic": check_unique_padic}[sys_.kind]
    report = check(sys_.family, sys_.seq(args.seq), cap, stop_at_collision=not args.full)
    print(f"# {sys_.name}: members of order <= {cap} under {args.seq}")
    print(f"# seen: {report.members_seen} (nonzero {report.nonzero_members}), distinct values: {report.distinct_values}")
    if report.collision:
        v, a, b = report.collision
        print(f"# collision at value {v}: {a.render()} then {b.render()}")
        return 1
    print("# unique on this range")
    return 0


def cmd_converse_probe(args) -> int:
    sys_ = _system(args)
    probe = weak_converse_probe(sys_.family, sys_.seq(args.seq), sys_.seq(args.other), args.cap)
    print(f"# {sys_.name}: value sets match: {probe.values_match}")
    print(f"# first differing term: {probe.first_difference}")
    print(f"# max digit seen: {probe.max_digit_seen}, digit bound for the converse: {probe.digit_bound}")
    return 0


def cmd_verify_recurrence(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    coeffs = _parse_int_csv(args.coeffs)
    bad = verify_recurrence(seq, coeffs, args.start, args.stop)
    if bad:
        for n, lhs, rhs in bad:
            print(f"# mismatch at n={n}: Q_n={lhs}, recurrence gives {rhs}")
        return 1
    print(f"# {sys_.name}: Q_n = {args.coeffs} recurrence holds for n in [{args.start}, {args.stop}]")
    return 0


def cmd_verify_maximal(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    report = verify_maximal_identity(sys_.family, seq, args.n, args.horizon, _number(args.tol))
    print(f"# {sys_.name}: maximal row at {args.n} summed to {args.horizon}")
    print(f"# lhs={report.lhs}  rhs={report.rhs}  error={report.error}")
    if not report.ok:
        print(f"# FAIL: error above {report.tol}")
        return 1
    print(f"# ok within {report.tol}")
    return 0


def cmd_real_expand(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    if args.max_blocks < 0:
        raise ValueError(f"--max-blocks must be nonnegative, got {args.max_blocks}")
    print(f"# {sys_.name}: x\tdigits\tresidual\texact")
    for tok in _tokens(args.values):
        res = expand_real(_number(tok), sys_.family, seq, max_blocks=args.max_blocks,
                          residual_tol=Fraction(1, 10 ** (_precision() // 2)))
        print(f"{tok}\t{res.fn.render()}\t{res.residual}\t{res.exact}")
    return 0


def cmd_padic_expand(args) -> int:
    sys_ = _system(args)
    seq = sys_.seq(args.seq)
    fam = None if args.no_check else sys_.family
    print(f"# {sys_.name}: residue\tdigits")
    for tok in _tokens(args.values):
        fn = decode_padic(int(tok), seq, fam)
        print(f"{tok}\t{fn.render()}")
    return 0


def cmd_dominant_check(args) -> int:
    if args.multiplicity:
        res = multiplicity_list_dominant(_parse_int_csv(args.multiplicity))
    elif args.coeffs:
        res = dominance_criterion(_parse_int_csv(args.coeffs))
    else:
        raise FamilyError("pass --coeffs a0,...,an or --multiplicity e1,...,eN")
    if res.dominant:
        print(f"# dominant (witness positions {res.witness})")
        return 0
    print("# inconclusive: no coprime pair of interior coefficients")
    return 0


def cmd_decompose(args) -> int:
    sys_ = _system(args)
    print(f"# {sys_.name}: digits\tblocks")
    for tok in _tokens(args.values):
        fn = CoeffFn.parse(tok)
        dec = decompose_asc(fn, sys_.family)
        parts = []
        for b in dec.blocks:
            tag = "max" if b.maximal else "proper"
            parts.append(f"[{b.support.lo},{b.support.hi}]{tag}")
        print(f"{tok}\t{' '.join(parts) if parts else 'empty'}")
    return 0


# -- wiring ------------------------------------------------------------------


def _add_system_args(p: argparse.ArgumentParser, seq_default: str = "main"):
    p.add_argument("-f", "--fixture", help="bundled fixture name")
    p.add_argument("-c", "--config", help="path to a system JSON file")
    p.add_argument("--seq", default=seq_default, help="sequence label (default: main)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="zecknum", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("fixtures", help="list bundled fixtures")
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("encode", help="integer values to digit functions")
    _add_system_args(p)
    p.add_argument("values", nargs="+", help="integers, or - for stdin")
    p.set_defaults(fn=cmd_encode, kinds=("integer",))

    p = sub.add_parser("decode", help="digit functions to values")
    _add_system_args(p)
    p.add_argument("values", nargs="+", help="digit functions like 1:1,3:2, or - for stdin")
    p.set_defaults(fn=cmd_decode, kinds=("integer", "padic", "real"))

    p = sub.add_parser("shift", help="value of digits moved up one index")
    _add_system_args(p)
    p.add_argument("values", nargs="+")
    p.set_defaults(fn=cmd_shift, kinds=("integer",))

    p = sub.add_parser("enumerate", help="members in order")
    _add_system_args(p)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--horizon", type=int, default=6, help="index cap for real systems")
    p.set_defaults(fn=cmd_enumerate, kinds=("integer", "padic", "real"))

    p = sub.add_parser("decompose", help="split digit functions into blocks")
    _add_system_args(p)
    p.add_argument("values", nargs="+")
    p.set_defaults(fn=cmd_decompose, kinds=("integer", "padic"))

    p = sub.add_parser("subset", help="members under a value bound, with collision check")
    _add_system_args(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--list", action="store_true", help="print every member")
    p.set_defaults(fn=cmd_subset, kinds=("integer",))

    p = sub.add_parser("verify-unique", help="walk members looking for a repeated value")
    _add_system_args(p)
    p.add_argument("--cap", type=int, default=None, help="order cap (default: 4 periods)")
    p.add_argument("--shortcut", action="store_true", help="2 periods instead of 4")
    p.add_argument("--full", action="store_true", help="keep walking past a collision")
    p.set_defaults(fn=cmd_verify_unique, kinds=("integer", "padic"))

    p = sub.add_parser("converse-probe", help="compare two sequences through one family")
    _add_system_args(p)
    p.add_argument("--other", default="alt", help="second sequence label (default: alt)")
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(fn=cmd_converse_probe, kinds=("padic",))

    p = sub.add_parser("verify-recurrence", help="check Q against a linear recurrence")
    _add_system_args(p)
    p.add_argument("--coeffs", required=True, help="comma-separated, may be negative")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--stop", type=int, required=True)
    p.set_defaults(fn=cmd_verify_recurrence, kinds=("integer",))

    p = sub.add_parser("verify-maximal", help="maximal row mass against Q_{n-1}")
    _add_system_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--tol", default="1e-30")
    p.set_defaults(fn=cmd_verify_maximal, kinds=("real",))

    p = sub.add_parser("real-expand", help="greedy expansion of numbers in (0,1)")
    _add_system_args(p)
    p.add_argument("--max-blocks", type=int, default=8)
    p.add_argument("values", nargs="+", help="decimals or fractions, or - for stdin")
    p.set_defaults(fn=cmd_real_expand, kinds=("real",))

    p = sub.add_parser("padic-expand", help="digit extraction for residues")
    _add_system_args(p)
    p.add_argument("--no-check", action="store_true", help="skip the family membership check")
    p.add_argument("values", nargs="+", help="integer residues, or - for stdin")
    p.set_defaults(fn=cmd_padic_expand, kinds=("padic",))

    p = sub.add_parser("dominant-check", help="root dominance tests")
    p.add_argument("--coeffs", help="a0,...,an of a_n z^n - ... - a_0")
    p.add_argument("--multiplicity", help="e1,...,eN")
    p.set_defaults(fn=cmd_dominant_check)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _precision()  # a malformed ZECKNUM_PRECISION fails every verb
        return args.fn(args)
    except (NotRepresentableError, NotMemberError, AtMaximumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FamilyError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
