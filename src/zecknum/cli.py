"""Command-line front end.

Records are tab-separated, headers and summaries start with '#', and a
lone '-' argument reads one token per line from stdin.  Exit codes: 0 on
success, 1 when a check fails or a value has no representation, 2 on
configuration errors.  ZECKNUM_PRECISION sets the decimal working
precision for real systems (default 60 digits).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from itertools import islice
from typing import Callable

from .coeff import CoeffFn, FamilyError, NotMemberError, NotRepresentableError
from .config import System, fixture_names, load_config, load_fixture

# Each handler imports the layers it calls when it runs, so a command loads
# only what its verb and its system's kind use.


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
        sys_ = load_fixture(args.fixture, precision=args.precision)
    elif args.config:
        sys_ = load_config(args.config, precision=args.precision)
    else:
        raise FamilyError("pass --fixture NAME or --config PATH (see 'zecknum fixtures')")
    if sys_.kind not in args.kinds:
        kinds = " and ".join(args.kinds)
        raise FamilyError(f"{args.verb} works on {kinds} systems, {sys_.name} is {sys_.kind}")
    return sys_


def _parse_int_csv(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _number(text: str):
    """``p/q`` as a Fraction, anything else as a finite Decimal."""
    from decimal import Decimal
    from fractions import Fraction
    try:
        x = Fraction(text) if "/" in text else Decimal(text)
        if isinstance(x, Fraction) or x.is_finite():
            return x
    except (ArithmeticError, ValueError) as exc:
        _check_digit_limit(text, exc)
    raise ValueError(f"not a number: {text!r}")


def _check_digit_limit(tok: str, exc: Exception, shown: str | None = None) -> None:
    """Turn the ValueError int() and str() raise past Python's int/str
    conversion limit into one line naming ``shown``, or ``tok`` shortened."""
    if "integer string conversion" in str(exc):
        if shown is None:
            shown = repr(tok) if len(tok) <= 40 else f"{tok[:30]!r}... ({len(tok):,} characters)"
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{shown} needs an integer longer than Python's {limit}-digit conversion limit") from None


# -- verb handlers -----------------------------------------------------------


def cmd_fixtures(args) -> int:
    for name in fixture_names():
        print(name)
    return 0


def _records(sys_: System, header: str, values: list[str], parse: Callable, record: Callable) -> int:
    """The value verbs' output: every token parsed (form and range), then a header and one
    ``token<TAB>record`` line per token; a lone '-' reads the tokens from stdin, one per line."""
    if values == ["-"]:
        values = [line.strip() for line in sys.stdin if line.strip()]
    parsed = []
    try:
        for tok in values:
            parsed.append(parse(tok))
        print(f"# {sys_.name}: {header}")
        for tok, x in zip(values, parsed):
            print(f"{tok}\t{record(x)}")
    except ValueError as exc:
        _check_digit_limit(tok, exc)
        raise
    return 0


def cmd_encode(args, sys_: System, seq) -> int:
    from .integers import encode_int

    def parse(tok: str) -> int:
        if (x := int(tok)) < 0:
            raise ValueError(f"cannot encode negative value {x}")
        return x

    return _records(sys_, "value\tdigits", args.values, parse,
                    lambda x: encode_int(x, sys_.family, seq).render())


def cmd_decode(args, sys_: System, seq) -> int:
    return _records(sys_, "digits\tvalue", args.values, CoeffFn.parse, lambda fn: sys_.value(fn, args.seq))


def cmd_shift(args, sys_: System, seq) -> int:
    from .integers import shift_value
    return _records(sys_, "digits\tshifted value", args.values, CoeffFn.parse, lambda fn: shift_value(fn, seq))


def cmd_decompose(args, sys_: System, seq) -> int:
    from .blocks import decompose_asc

    def record(fn: CoeffFn) -> str:
        dec = decompose_asc(fn, sys_.family)
        parts = []
        for b in dec.blocks:
            tag = "max" if b.maximal else "proper"
            parts.append(f"[{b.lo},{b.hi}]{tag}")
        return " ".join(parts) if parts else "empty"

    return _records(sys_, "digits\tblocks", args.values, CoeffFn.parse, record)


def cmd_real_expand(args, sys_: System, seq) -> int:
    from fractions import Fraction
    from .real import expand_real
    if args.max_blocks < 0:
        raise ValueError(f"--max-blocks must be nonnegative, got {args.max_blocks}")
    tol = Fraction(1, 10 ** (args.precision // 2))

    def parse(tok: str):
        if not 0 <= (x := _number(tok)) < 1:
            raise ValueError(f"need 0 < x < 1, got {x}")
        return x

    def record(x) -> str:
        res = expand_real(x, sys_.family, seq, max_blocks=args.max_blocks, residual_tol=tol)
        return f"{res.fn.render()}\t{res.residual}\t{res.exact}"

    return _records(sys_, "x\tdigits\tresidual\texact", args.values, parse, record)


def cmd_padic_expand(args, sys_: System, seq) -> int:
    from .padic import decode_padic
    fam = None if args.no_check else sys_.family
    return _records(sys_, "residue\tdigits", args.values, int,
                    lambda x: decode_padic(x, seq, fam).render())


def cmd_enumerate(args, sys_: System, seq) -> int:
    from .blocks import check_horizon, enumerate_asc, enumerate_desc
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    check_horizon(args.horizon)
    if sys_.kind == "real":  # on (0,1), increasing value within the horizon
        title = f"members restricted to [1, {args.horizon}], increasing order"
        walk = enumerate_desc(sys_.family, args.horizon)
    else:
        title, walk = f"first {args.count} members, lex order", enumerate_asc(sys_.family)
    print(f"# {sys_.name}: {title}")
    for i, fn in enumerate(islice(walk, args.count)):
        print(f"{i}\t{fn.render()}\t{sys_.value(fn, args.seq)}")
    return 0


def cmd_subset(args, sys_: System, seq) -> int:
    from .integers import enumerate_subset
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


def cmd_verify_unique(args, sys_: System, seq) -> int:
    from .uniqueness import check_unique, default_order_cap
    cap = default_order_cap(sys_.multiplicities, args.shortcut) if args.cap is None else args.cap
    report = check_unique(sys_.family, seq, cap, stop_at_collision=not args.full)
    print(f"# {sys_.name}: members of order <= {cap} under {args.seq}")
    print(f"# seen: {report.members_seen} (nonzero {report.nonzero_members}), distinct values: {report.distinct_values}")
    if report.collision:
        v, a, b = report.collision
        print(f"# collision at value {v}: {a.render()} then {b.render()}")
        return 1
    print("# unique on this range")
    return 0


def cmd_converse_probe(args, sys_: System, seq) -> int:
    from .padic import weak_converse_probe
    probe = weak_converse_probe(sys_.family, seq, sys_.seq(args.other), args.cap)
    print(f"# {sys_.name}: value sets match: {probe.values_match}")
    print(f"# first differing term: {probe.first_difference}")
    print(f"# max digit seen: {probe.max_digit_seen}, digit bound for the converse: {probe.digit_bound}")
    return 0


def cmd_verify_recurrence(args, sys_: System, seq) -> int:
    from .recurrences import verify_recurrence
    coeffs = _parse_int_csv(args.coeffs)
    bad = verify_recurrence(seq, coeffs, args.start, args.stop)
    if bad:
        for n, lhs, rhs in bad:
            try:
                print(f"# mismatch at n={n}: Q_n={lhs}, recurrence gives {rhs}")
            except ValueError as exc:
                _check_digit_limit("", exc, f"the mismatch at n={n}")
                raise
        return 1
    print(f"# {sys_.name}: Q_n = {args.coeffs} recurrence holds for n in [{args.start}, {args.stop}]")
    return 0


def cmd_verify_maximal(args, sys_: System, seq) -> int:
    from .real import verify_maximal_identity
    report = verify_maximal_identity(sys_.family, seq, args.n, args.horizon, _number(args.tol))
    print(f"# {sys_.name}: maximal row at {args.n} summed to {args.horizon}")
    print(f"# lhs={report.lhs}  rhs={report.rhs}  error={report.error}")
    if not report.ok:
        print(f"# FAIL: error above {report.tol}")
        return 1
    print(f"# ok within {report.tol}")
    return 0


def cmd_dominant_check(args) -> int:
    from .real import dominance_criterion, multiplicity_list_dominant
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


# -- wiring ------------------------------------------------------------------


def _arg(*names: str, **kw) -> tuple[tuple[str, ...], dict]:
    return names, kw


# verb: (handler, summary, the system kinds it accepts, its own arguments); a verb
# wired with kinds names its system by -f or -c, the others name none
VERBS = {
    "fixtures": (cmd_fixtures, "list bundled fixtures", None),
    "encode": (cmd_encode, "integer values to digit functions", ("integer",),
               _arg("values", nargs="+", help="integers, or - for stdin")),
    "decode": (cmd_decode, "digit functions to values", ("integer", "padic", "real"),
               _arg("values", nargs="+", help="digit functions like 1:1,3:2, or - for stdin")),
    "shift": (cmd_shift, "value of digits moved up one index", ("integer",), _arg("values", nargs="+")),
    "enumerate": (cmd_enumerate, "members in order", ("integer", "padic", "real"),
                  _arg("--count", type=int, default=20),
                  _arg("--horizon", type=int, default=6, help="index cap for real systems")),
    "decompose": (cmd_decompose, "split digit functions into blocks", ("integer", "padic"),
                  _arg("values", nargs="+")),
    "subset": (cmd_subset, "members under a value bound, with collision check", ("integer",),
               _arg("--bound", type=int, required=True),
               _arg("--list", action="store_true", help="print every member")),
    "verify-unique": (cmd_verify_unique, "walk members looking for a repeated value", ("integer", "padic"),
                      _arg("--cap", type=int, default=None, help="order cap (default: 4 periods)"),
                      _arg("--shortcut", action="store_true", help="2 periods instead of 4"),
                      _arg("--full", action="store_true", help="keep walking past a collision")),
    "converse-probe": (cmd_converse_probe, "compare two sequences through one family", ("padic",),
                       _arg("--other", default="alt", help="second sequence label (default: alt)"),
                       _arg("--cap", type=int, required=True)),
    "verify-recurrence": (cmd_verify_recurrence, "check Q against a linear recurrence", ("integer",),
                          _arg("--coeffs", required=True, help="comma-separated, may be negative"),
                          _arg("--start", type=int, required=True),
                          _arg("--stop", type=int, required=True)),
    "verify-maximal": (cmd_verify_maximal, "maximal row mass against Q_{n-1}", ("real",),
                       _arg("--n", type=int, required=True),
                       _arg("--horizon", type=int, required=True),
                       _arg("--tol", default="1e-30")),
    "real-expand": (cmd_real_expand, "greedy expansion of numbers in (0,1)", ("real",),
                    _arg("--max-blocks", type=int, default=8),
                    _arg("values", nargs="+", help="decimals or fractions, or - for stdin")),
    "padic-expand": (cmd_padic_expand, "digit extraction for residues", ("padic",),
                     _arg("--no-check", action="store_true", help="skip the family membership check"),
                     _arg("values", nargs="+", help="integer residues, or - for stdin")),
    "dominant-check": (cmd_dominant_check, "root dominance tests", None,
                       _arg("--coeffs", help="a0,...,an of a_n z^n - ... - a_0"),
                       _arg("--multiplicity", help="e1,...,eN")),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for ``verb`` alone, or for every verb when ``verb`` names none: a command
    builds only the subparser it runs, and its usage line still lists every verb."""
    top = argparse.ArgumentParser(prog="zecknum", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [verb] if verb in VERBS else list(VERBS)
    # the full build leaves the metavar unset: argparse names the verb in its invalid-choice error
    usage = {} if len(names) > 1 else {"metavar": "{" + ",".join(VERBS) + "}"}
    sub = top.add_subparsers(dest="verb", required=True, **usage)
    for name in names:
        fn, summary, kinds, *args = VERBS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn, kinds=kinds)
        if kinds:
            p.add_argument("-f", "--fixture", help="bundled fixture name")
            p.add_argument("-c", "--config", help="path to a system JSON file")
            p.add_argument("--seq", default="main", help="sequence label (default: main)")
        for flags, kw in args:
            p.add_argument(*flags, **kw)
    return top


def main(argv: list[str] | None = None) -> int:
    """Run one verb with its stdout held.  It is written when the verb returns or exits 1, so an
    exit-1 answer follows the records before it; an exit-2 refusal writes none of it."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    out = io.StringIO()
    try:
        args.precision = _precision()  # a malformed ZECKNUM_PRECISION fails every verb
        with contextlib.redirect_stdout(out):
            sys_ = args.kinds and _system(args)  # fixtures and dominant-check name no system
            rc = args.fn(args, sys_, sys_.seq(args.seq)) if sys_ else args.fn(args)
    except (NotRepresentableError, NotMemberError) as exc:
        sys.stdout.write(out.getvalue())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # FamilyError, and a malformed JSON file, raise a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("config error: out of memory", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return rc


if __name__ == "__main__":
    sys.exit(main())
