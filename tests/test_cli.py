from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
from decimal import getcontext
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from conftest import AMBIENT, ambient_context
from test_blocks import TABLE_ROWS

from zecknum.blocks import enumerate_asc
from zecknum.cli import VERBS, build_parser, main
from zecknum.integers import FundamentalSeq, decode_int
from zecknum.recurrences import family_from_table


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out.splitlines(), out.err


class TestFixturesVerb:
    def test_lists_all(self, capsys):
        rc, lines, _ = run(capsys, "fixtures")
        assert rc == 0
        assert len(lines) == 15
        assert "fib" in lines
        assert lines == sorted(lines)


class TestEncodeDecode:
    def test_encode_fib(self, capsys):
        rc, lines, _ = run(capsys, "encode", "-f", "fib", "100")
        assert rc == 0
        assert lines[0].startswith("#")
        assert lines[1] == "100\t3:1,5:1,10:1"

    def test_decode_round_trip(self, capsys):
        rc, lines, _ = run(capsys, "decode", "-f", "fib", "3:1,5:1,10:1")
        assert rc == 0
        assert lines[1] == "3:1,5:1,10:1\t100"

    def test_encode_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("100\n50\n"))
        rc, lines, _ = run(capsys, "encode", "-f", "fib", "-")
        assert rc == 0
        assert lines[1] == "100\t3:1,5:1,10:1"
        assert lines[2].startswith("50\t")

    def test_encode_not_representable(self, capsys):
        rc, _, err = run(capsys, "encode", "-f", "seven-scaled", "10")
        assert rc == 1
        assert "error" in err

    def test_shift(self, capsys):
        rc, lines, _ = run(capsys, "shift", "-f", "fib", "3:1,5:1,10:1")
        assert rc == 0
        assert lines[1] == "3:1,5:1,10:1\t162"


class TestEnumerate:
    def test_integer(self, capsys):
        rc, lines, _ = run(capsys, "enumerate", "-f", "fib", "--count", "5")
        assert rc == 0
        assert lines[1:] == ["0\t0\t0", "1\t1:1\t1", "2\t2:1\t2", "3\t3:1\t3", "4\t1:1,3:1\t4"]

    # sha256 of the whole stdout, pinned from the walker that stepped to every member
    @pytest.mark.parametrize("argv,digest", [
        ("enumerate -f fib --count 10000", "68c5f2590ed1b5a6bb1bc5243400cac04a096af899b17ac853942eec58acb282"),
        ("enumerate -f sevenths --horizon 14 --count 10000",
         "2f2199fb18a05ec47a99c0f45d55a634e910a945922dc8a506e3f89863272567"),
    ])
    def test_long_walks_are_pinned(self, capsys, argv, digest):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_real(self, capsys):
        rc, lines, _ = run(capsys, "enumerate", "-f", "sevenths",
                           "--horizon", "4", "--count", "6")
        assert rc == 0
        assert lines[1] == "0\t0\t0"
        values = [Fraction(line.split("\t")[2]) for line in lines[1:]]
        assert values == sorted(values)

    def test_decompose(self, capsys):
        rc, lines, _ = run(capsys, "decompose", "-f", "fib", "1:1,4:1")
        assert rc == 0
        assert lines[1] == "1:1,4:1\t[1,1]max [2,4]proper"


class TestSubset:
    def test_clean(self, capsys):
        rc, lines, _ = run(capsys, "subset", "-f", "blocks7", "--bound", "50")
        assert rc == 0
        assert "# members: 51, distinct values: 51" in lines
        assert "# no collision" in lines

    def test_collision(self, capsys):
        rc, lines, _ = run(capsys, "subset", "-f", "mult-11-3", "--bound", "200")
        assert rc == 1
        assert any("both reach 114" in line for line in lines)

    def test_list_flag(self, capsys):
        rc, lines, _ = run(capsys, "subset", "-f", "fib", "--bound", "5", "--list")
        assert rc == 0
        assert "0\t0" in lines
        assert "1:1,3:1\t4" in lines


class TestVerifyUnique:
    def test_clean(self, capsys):
        rc, lines, _ = run(capsys, "verify-unique", "-f", "mult-2-3")
        assert rc == 0
        assert "# seen: 6561 (nonzero 6560), distinct values: 6561" in lines
        assert "# unique on this range" in lines

    def test_collision(self, capsys):
        rc, lines, _ = run(capsys, "verify-unique", "-f", "mult-11-3")
        assert rc == 1
        assert any("collision at value 114" in line for line in lines)

    def test_shortcut_cap(self, capsys):
        rc, lines, _ = run(capsys, "verify-unique", "-f", "mult-2-3", "--shortcut")
        assert rc == 0
        assert "# seen: 81 (nonzero 80), distinct values: 81" in lines

    def test_padic(self, capsys):
        rc, lines, _ = run(capsys, "verify-unique", "-f", "golden-41", "--cap", "8")
        assert rc == 0
        assert "# seen: 55 (nonzero 54), distinct values: 55" in lines

    def test_full_counts_past_the_collision(self, capsys):
        rc, lines, _ = run(capsys, "verify-unique", "-f", "mult-11-3", "--cap", "3", "--full")
        assert rc == 1
        assert "# seen: 1521 (nonzero 1520), distinct values: 1086" in lines
        assert "# collision at value 114: 1:6 then 2:8,3:1" in lines

    @pytest.mark.parametrize("full,seen", [([], "6 (nonzero 5), distinct values: 5"),
                                           (["--full"], "9 (nonzero 8), distinct values: 7")], ids=["stop", "full"])
    def test_padic_residues_that_wrap(self, capsys, tmp_path, full, seen):
        # terms 1, 6, 4 mod 2^3: the integer sum 2*1 + 6 = 8 is the residue 0, the zero member's value
        doc = {"kind": "padic", "p": 2, "prec": 3, "family": {"type": "multiplicity", "e": [3]},
               "sequence": {"type": "power", "unit": 3}}
        path = tmp_path / "wrap.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, _ = run(capsys, "verify-unique", "-c", str(path), "--cap", "2", *full)
        assert rc == 1
        assert lines[1:] == [f"# seen: {seen}", "# collision at value 0: 0 then 1:2,2:1"]


class TestConverseProbe:
    def test_frozen(self, capsys):
        rc, lines, _ = run(capsys, "converse-probe", "-f", "padic-5-20", "--cap", "4")
        assert rc == 0
        assert "# padic-5-20: value sets match: True" in lines
        assert "# first differing term: 2" in lines
        assert "# max digit seen: 4, digit bound for the converse: 2" in lines

    def test_wrong_kind(self, capsys):
        rc, _, err = run(capsys, "converse-probe", "-f", "fib", "--cap", "4")
        assert rc == 2
        assert "config error" in err


class TestVerifyRecurrence:
    def test_holds(self, capsys):
        rc, lines, _ = run(capsys, "verify-recurrence", "-f", "fib",
                           "--coeffs", "1,1", "--start", "3", "--stop", "30")
        assert rc == 0
        assert any("holds" in line for line in lines)

    def test_mismatch(self, capsys):
        rc, lines, _ = run(capsys, "verify-recurrence", "-f", "fib",
                           "--coeffs", "2,1", "--start", "3", "--stop", "10")
        assert rc == 1
        assert any("mismatch at n=3" in line for line in lines)

    def test_mismatch_past_the_digit_limit(self, capsys):
        # at n = 3063 the recurrence's 2*Q_3062 + Q_3061 is the first value
        # past a 640-digit conversion limit (Q_3063 has 640 digits)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rc, lines, err = run(capsys, "verify-recurrence", "-f", "fib",
                                 "--coeffs", "2,1", "--start", "2990", "--stop", "3100")
        finally:
            sys.set_int_max_str_digits(saved)
        assert rc == 2
        assert err == "config error: the mismatch at n=3063 needs an integer longer than Python's 640-digit conversion limit\n"
        assert lines == []  # not the 73 mismatch lines before it


class TestVerifyMaximal:
    def test_golden(self, capsys):
        rc, lines, _ = run(capsys, "verify-maximal", "-f", "golden-real",
                           "--n", "3", "--horizon", "200", "--tol", "1e-25")
        assert rc == 0
        assert any("ok within" in line for line in lines)

    def test_fails_on_tight_tol(self, capsys):
        rc, lines, _ = run(capsys, "verify-maximal", "-f", "sevenths",
                           "--n", "2", "--horizon", "5", "--tol", "1/1000000")
        assert rc == 1
        assert any("FAIL" in line for line in lines)

    @pytest.mark.parametrize("ambient", AMBIENT)
    def test_independent_of_the_callers_decimal_context(self, capsys, ambient):
        argv = ["verify-maximal", "-f", "golden-real", "--n", "2", "--horizon", "200", "--tol", "1e-25"]
        with ambient_context(ambient) as ctx:
            held = (ctx.prec, ctx.rounding, dict(ctx.traps))
            rc, lines, _ = run(capsys, *argv)
            assert getcontext() is ctx and (ctx.prec, ctx.rounding, dict(ctx.traps)) == held
        assert rc == 0
        assert lines[1] == (
            "# lhs=0.618033988749894848204586834365638117720308194696710844880056"
            "  rhs=0.618033988749894848204586834365638117720309179805762862135449"
            "  error=9.85109052017255393E-43"
        )


class TestRealExpand:
    def test_sevenths_exact(self, capsys):
        rc, lines, _ = run(capsys, "real-expand", "-f", "sevenths", "100/343")
        assert rc == 0
        assert lines[1] == "100/343\t2:1,8:1\t0\tTrue"

    def test_decimal_input(self, capsys):
        rc, lines, _ = run(capsys, "real-expand", "-f", "golden-real",
                           "--max-blocks", "30", "0.25")
        assert rc == 0
        fields = lines[1].split("\t")
        assert fields[0] == "0.25"
        assert fields[3] == "False"

    @pytest.mark.parametrize(
        "fixture,x,same_as",
        [
            ("sevenths", "0.5", "1/2"),
            ("harmonic", "0.5", "1/2"),
            ("golden-real", "1/3", "0." + "3" * 60),  # 1/3 divided out at 60 digits
        ],
    )
    def test_decimal_and_fraction_inputs_mix(self, capsys, fixture, x, same_as):
        rc, lines, err = run(capsys, "real-expand", "-f", fixture, x, same_as)
        assert rc == 0 and err == ""
        got, want = (line.split("\t") for line in lines[1:])
        assert got[0] == x and got[1:] == want[1:]

    @pytest.mark.parametrize(
        "argv",
        [
            ["real-expand", "-f", "sevenths", "abc"],
            ["real-expand", "-f", "sevenths", "1/0"],
            ["real-expand", "-f", "golden-real", "nan"],
            ["verify-maximal", "-f", "sevenths", "--n", "2", "--horizon", "5", "--tol", "abc"],
        ],
    )
    def test_malformed_number(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err == f"config error: not a number: {argv[-1]!r}\n"

    def test_harmonic_expansions(self, capsys):
        # the third value's search climbs to index 928070897443645831695369104
        rc, lines, err = run(capsys, "real-expand", "-f", "harmonic", "5/6", "0.999", "0.9999999")
        assert rc == 0 and err == ""
        assert lines[1:] == [
            "5/6\t1:1,2:1\t0\tTrue",
            "0.999\t1:1,2:1,6:1,43:1,12157:1,1404248999:1\t0\tTrue",
            "0.9999999\t1:1,2:1,6:1,42:1,1806:1,4844376:1,23829471219456:1,928070897443645831695369104:1"
            "\t43339/38847840525137830654735198527922615796444519629566610000000\tFalse",
        ]

    def test_negative_max_blocks(self, capsys):
        rc, lines, err = run(capsys, "real-expand", "-f", "sevenths", "--max-blocks", "-1", "1/2")
        assert rc == 2 and lines == []
        assert err == "config error: --max-blocks must be nonnegative, got -1\n"


class TestDigitLimit:
    """A value verb whose token needs an integer past Python's int/str digit
    limit exits 2 with one line naming the token, shortened, and the limit."""

    @pytest.mark.parametrize(
        "argv,shown",
        [
            # the exact residual's denominator, 10^20000, cannot be printed
            (["real-expand", "-f", "sevenths", "1e-20000"], "'1e-20000'"),
            # the denominator cannot be parsed
            (["real-expand", "-f", "sevenths", "1/1" + "0" * 20000],
             "'1/1000000000000000000000000000'... (20,003 characters)"),
            (["decode", "-f", "factorial", "2000:1"], "'2000:1'"),
            (["encode", "-f", "fib", "9" * 5000], "'999999999999999999999999999999'... (5,000 characters)"),
            (["verify-maximal", "-f", "sevenths", "--n", "2", "--horizon", "5", "--tol", "1/1" + "0" * 5000],
             "'1/1000000000000000000000000000'... (5,003 characters)"),
        ],
    )
    def test_names_the_token_and_the_limit(self, capsys, argv, shown):
        rc, lines, err = run(capsys, *argv)
        assert rc == 2
        assert lines == []  # no header either, though decode's token parses and only its value cannot print
        limit = sys.get_int_max_str_digits()
        assert err == f"config error: {shown} needs an integer longer than Python's {limit}-digit conversion limit\n"


class TestPadicExpand:
    def test_member(self, capsys, golden_41):
        x = golden_41.sequence.value(1)
        rc, lines, _ = run(capsys, "padic-expand", "-f", "golden-41", str(x))
        assert rc == 0
        assert lines[1] == f"{x}\t1:1"

    def test_non_member_rejected(self, capsys, golden_41):
        x = 2 * golden_41.sequence.value(1) % golden_41.sequence.modulus
        rc, _, err = run(capsys, "padic-expand", "-f", "golden-41", str(x))
        assert rc == 1
        assert "error" in err

    def test_no_check(self, capsys, golden_41):
        x = 2 * golden_41.sequence.value(1) % golden_41.sequence.modulus
        rc, lines, _ = run(capsys, "padic-expand", "-f", "golden-41", "--no-check", str(x))
        assert rc == 0
        assert lines[1] == f"{x}\t1:2"


    @pytest.mark.parametrize("argv", [["9223372036854775812", "5"], ["--no-check", "5", "9223372036854775812"]])
    def test_p_past_the_digit_bound_refused_before_output(self, capsys, tmp_path, argv):
        path = tmp_path / "padic.json"
        path.write_text(json.dumps({**PADIC_POWER, "p": 9223372036854775813, "prec": 2}), encoding="utf-8")
        rc, lines, err = run(capsys, "padic-expand", "-c", str(path), *argv)
        assert rc == 2 and lines == []
        assert err == "config error: p=9223372036854775813 exceeds the digit bound 9223372036854775808\n"


class TestDominantCheck:
    def test_coeffs_inconclusive(self, capsys):
        rc, lines, _ = run(capsys, "dominant-check", "--coeffs", "1,1,1")
        assert rc == 0
        assert lines[0].startswith("# inconclusive")

    def test_multiplicity(self, capsys):
        rc, lines, _ = run(capsys, "dominant-check", "--multiplicity", "1,1")
        assert rc == 0
        assert lines[0] == "# dominant (witness positions (1, 2))"

    def test_needs_an_argument(self, capsys):
        rc, _, err = run(capsys, "dominant-check")
        assert rc == 2
        assert "config error" in err


class TestErrors:
    def test_unknown_fixture(self, capsys):
        rc, _, err = run(capsys, "encode", "-f", "nope", "5")
        assert rc == 2
        assert "no fixture" in err

    def test_wrong_kind(self, capsys):
        rc, _, err = run(capsys, "encode", "-f", "sevenths", "5")
        assert rc == 2
        assert "integer systems" in err

    def test_no_system(self, capsys):
        rc, _, err = run(capsys, "encode", "5")
        assert rc == 2
        assert "--fixture" in err

    def test_unknown_sequence_label(self, capsys):
        rc, _, err = run(capsys, "encode", "-f", "fib", "--seq", "alt", "5")
        assert rc == 2
        assert "no sequence" in err

    def test_bad_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ZECKNUM_PRECISION", "three")
        rc, _, err = run(capsys, "encode", "-f", "fib", "5")
        assert rc == 2
        assert "ZECKNUM_PRECISION" in err

    def test_small_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ZECKNUM_PRECISION", "3")
        rc, _, err = run(capsys, "encode", "-f", "fib", "5")
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify-unique", "-f", "fib", "--cap", "-1"], "order cap must be nonnegative, got -1"),
            (["converse-probe", "-f", "padic-5-20", "--cap", "-1"], "order cap must be nonnegative"),
            (["enumerate", "-f", "fib", "--count", "-1"], "--count must be nonnegative, got -1"),
            (["enumerate", "-f", "sevenths", "--count", "-1"], "--count must be nonnegative"),
        ],
    )
    def test_negative_cap_or_count(self, capsys, argv, message):
        rc, lines, err = run(capsys, *argv)
        assert rc == 2
        assert lines == []
        assert err.count("\n") == 1 and err.startswith("config error") and message in err

    @pytest.mark.parametrize(
        "argv,horizon",
        [
            (["enumerate", "-f", "sevenths"], "0"),
            (["enumerate", "-f", "sevenths"], "-2"),
            (["enumerate", "-f", "fib"], "0"),
            (["verify-maximal", "-f", "golden-real", "--n", "2"], "0"),
            (["verify-maximal", "-f", "golden-real", "--n", "2"], "-2"),
        ],
    )
    def test_horizon_below_one(self, capsys, argv, horizon):
        rc, lines, err = run(capsys, *argv, "--horizon", horizon)
        assert rc == 2
        assert lines == []
        assert err == f"config error: horizon must be positive, got {horizon}\n"

    def test_walk_past_member_limit(self, capsys, monkeypatch):
        # the default cap 8 has about 14^8 members; cap 3 has exactly 1521
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 1000)
        rc, lines, err = run(capsys, "verify-unique", "-f", "mult-11-3", "--full")
        assert rc == 2
        assert lines == []
        assert err == "config error: order cap 8 walks more than 1,000 members; lower the cap\n"
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 1520)
        rc, lines, err = run(capsys, "verify-unique", "-f", "mult-11-3", "--cap", "3", "--full")
        assert rc == 2 and "order cap 3 walks more than 1,520 members" in err
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 1521)
        rc, lines, _ = run(capsys, "verify-unique", "-f", "mult-11-3", "--cap", "3", "--full")
        assert rc == 1 and lines[1].startswith("# seen: 1521 ")

    def test_subset_past_member_limit_names_the_bound(self, capsys, monkeypatch):
        # mult-11-3 keeps 188 members worth at most 200, of 1521 up to its order cap 3
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 187)
        rc, lines, err = run(capsys, "subset", "-f", "mult-11-3", "--bound", "200")
        assert rc == 2
        assert lines == []
        assert err == "config error: more than 187 members have value <= 200; lower the bound\n"
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 188)
        rc, lines, _ = run(capsys, "subset", "-f", "mult-11-3", "--bound", "200")
        assert rc == 1 and lines[1] == "# members: 188, distinct values: 162"

    def test_encode_past_member_limit_names_the_value(self, capsys, monkeypatch):
        # pin-3's sequence is not the derived one, so encode searches, counting
        # its nodes against MEMBER_LIMIT: 5000 and 200 take 5 each
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 4)
        rc, lines, err = run(capsys, "encode", "-f", "pin-3", "5000")
        assert rc == 2
        assert err == "config error: pin-3: encoding 5000 visits more than 4 nodes\n"
        assert "order cap" not in err and "lower the cap" not in err
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 5)
        rc, lines, err = run(capsys, "encode", "-f", "pin-3", "5000", "200")
        assert rc == 0 and err == "" and lines[1].startswith("5000\t") and lines[2].startswith("200\t")

    def test_a_long_refusal_names_the_value_by_its_length(self, capsys):
        rc, lines, err = run(capsys, "encode", "-f", "mult-2-3", str(10**999))
        assert rc == 1
        assert err == "error: no admissible function of order <= 2094 has value 10000000000000000000... (1,000 digits)\n"
        assert len(err) < 200


# each value verb on a fixture of its kind: a good token, then a malformed one
VALUE_VERBS = [
    ("encode", "fib", "5", "-5"),
    ("decode", "fib", "1:1", "1:x"),
    ("decode", "sevenths", "1:1", "2:1,1:1"),
    ("shift", "fib", "1:1", "0:1"),
    ("decompose", "fib", "1:1", "1:1,x"),
    ("real-expand", "golden-real", "1/2", "1.5"),
    ("real-expand", "sevenths", "1/2", "1e-20000"),
    ("padic-expand", "golden-41", "0", "abc"),
]


@pytest.mark.parametrize("verb,fixture,good,bad", VALUE_VERBS, ids=[f"{v}-{f}" for v, f, _, _ in VALUE_VERBS])
def test_tokens_are_parsed_before_any_output(capsys, verb, fixture, good, bad):
    rc, lines, err = run(capsys, verb, "-f", fixture, "--", good, bad)
    assert rc == 2
    assert lines == []
    assert err.count("\n") == 1 and err.startswith("config error: ")
    rc, lines, _ = run(capsys, verb, "-f", fixture, "--", good)
    assert rc == 0 and len(lines) == 2 and lines[1].startswith(f"{good}\t")


# every verb bound to a system, run on a fixture of a kind its wiring rejects
WRONG_KIND = [
    (["encode", "-f", "sevenths", "5"], "real"),
    (["shift", "-f", "sevenths", "1:1"], "real"),
    (["decompose", "-f", "harmonic", "1:1"], "real"),
    (["subset", "-f", "golden-41", "--bound", "5"], "padic"),
    (["verify-unique", "-f", "sevenths"], "real"),
    (["converse-probe", "-f", "fib", "--cap", "4"], "integer"),
    (["verify-recurrence", "-f", "golden-41", "--coeffs", "1,1", "--start", "3", "--stop", "5"], "padic"),
    (["verify-maximal", "-f", "fib", "--n", "2", "--horizon", "5"], "integer"),
    (["real-expand", "-f", "golden-41", "1/2"], "padic"),
    (["padic-expand", "-f", "fib", "3"], "integer"),
]


def _verb_kinds() -> dict[str, tuple[str, ...]]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {verb: p.get_default("kinds") for verb, p in sub.choices.items()}


@pytest.mark.parametrize("argv,kind", WRONG_KIND, ids=[a[0] for a, _ in WRONG_KIND])
def test_wrong_kind_names_verb_and_kind(capsys, argv, kind):
    rc, lines, err = run(capsys, *argv)
    assert rc == 2
    assert lines == []
    assert err.count("\n") == 1 and err.startswith("config error")
    assert f"{argv[0]} works on " in err and f"is {kind}" in err
    assert kind not in _verb_kinds()[argv[0]]


def test_wrong_kind_cases_cover_every_restricted_verb():
    kinds = _verb_kinds()
    assert {v for v, k in kinds.items() if k is None} == {"fixtures", "dominant-check"}
    restricted = {v for v, k in kinds.items() if k is not None and len(k) < 3}
    assert restricted == {argv[0] for argv, _ in WRONG_KIND}


class TestConfigFile:
    def test_load_from_path(self, capsys, tmp_path):
        doc = {
            "name": "base3",
            "kind": "integer",
            "family": {"type": "multiplicity", "e": [3]},
            "sequence": {"type": "derived"},
        }
        path = tmp_path / "base3.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, _ = run(capsys, "encode", "-c", str(path), "10")
        assert rc == 0
        assert lines[1] == "10\t1:1,3:1"

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        rc, _, err = run(capsys, "encode", "-c", str(path), "10")
        assert rc == 2

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "encode", "-c", "/does/not/exist.json", "10")
        assert rc == 2

    @pytest.mark.parametrize(
        "family,message",
        [
            (None, "missing key family"),
            ({"type": "multiplicity", "e": 3}, "family.e must be a list of integers"),
            ({"type": "blocks", "blocks": [1, 2]}, "family.blocks must be a list of integer lists"),
            ({"type": "neg-recurrence", "c": [[2], [1]]}, "family.c must be a list of integers"),
            ({"type": "table", "rows": [3]}, "family.rows must be a list of integer lists"),
            ({"type": "pin", "j": "three"}, "family.j must be an integer"),
        ],
    )
    def test_bad_schema_names_the_key(self, capsys, tmp_path, family, message):
        doc = {"name": "bad", "kind": "integer", "sequence": {"type": "derived"}}
        if family is not None:
            doc["family"] = family
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, err = run(capsys, "encode", "-c", str(path), "10")
        assert rc == 2
        assert lines == []
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "key,doc",
        [
            ("family.e", {"family": {"type": "multiplicity", "e": [True, True]}}),
            ("family.c", {"family": {"type": "neg-recurrence", "c": [3, True]}}),
            ("family.rows", {"family": {"type": "table", "rows": [[True], [False, True]]}}),
            ("family.rows", {"kind": "real", "family": {"type": "periodic", "rows": [[True, False], [True]]}}),
            ("family.blocks", {"family": {"type": "blocks", "blocks": [[0, 0], [True, 0]]}}),
            ("family.values", {"family": {"type": "greedy", "values": [True, 2, 3]}}),
            ("sequence.seeds", {"sequence": {"type": "linear", "seeds": [True, 2], "coeffs": [1, 1]}}),
            ("sequence.coeffs", {"sequence": {"type": "linear", "seeds": [1, 2], "coeffs": [True, True]}}),
            ("sequence.values", {"sequence": {"type": "table", "values": [True, 2, 3]}}),
        ],
    )
    def test_booleans_are_not_integers(self, capsys, tmp_path, key, doc):
        # JSON true and false parse as Python bools, an int subclass; every
        # integer list refuses them at load
        doc = {"kind": "integer", "family": {"type": "multiplicity", "e": [1, 1]}, "sequence": {"type": "derived"}, **doc}
        if doc["kind"] == "real":
            doc["sequence"] = {"type": "block-geometric", "seeds": ["1/3", "1/4"], "ratio": "1/9"}
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["real-expand", "1/4"] if doc["kind"] == "real" else ["encode", "7"]
        rc, lines, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
        assert rc == 2
        assert lines == []
        assert err.count("\n") == 1 and err.startswith(f"config error: {key} must be a list of integer")


    @pytest.mark.parametrize("verb", [["real-expand", "1/4"], ["enumerate"], ["verify-maximal", "--n", "2", "--horizon", "9"]])
    def test_periodic_own_row_one_all_zeros(self, capsys, tmp_path, verb):
        # rows past their own period repeat own row 1, so their support would
        # be finite and a scan along it would never end
        doc = {
            "kind": "real",
            "family": {"type": "periodic", "rows": [[0, 0], [1]]},
            "sequence": {"type": "block-geometric", "seeds": ["1/3", "1/4"], "ratio": "1/9"},
        }
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, err = run(capsys, verb[0], "-c", str(path), *verb[1:])
        assert rc == 2
        assert lines == []
        assert err == "config error: periodic: own row 1 has digit 0 at its own index\n"

    def test_integer_keys_accept_numeric_strings(self, capsys, tmp_path):
        doc = {"kind": "integer", "family": {"type": "pin", "j": "3"}, "sequence": {"type": "derived"}}
        path = tmp_path / "pin.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, _ = run(capsys, "encode", "-c", str(path), "4")
        assert rc == 0 and lines[-1].startswith("4\t")


    @pytest.mark.parametrize("unit,rc", [("4", 0), ([4], 2)])
    def test_padic_integer_keys(self, capsys, tmp_path, unit, rc):
        doc = {
            "kind": "padic",
            "p": "5",
            "prec": 4,
            "family": {"type": "multiplicity", "e": [4, 5]},
            "sequence": {"type": "power", "unit": unit},
        }
        path = tmp_path / "padic.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got, _, err = run(capsys, "padic-expand", "-c", str(path), "3")
        assert got == rc
        assert rc == 0 or "sequence.unit must be an integer" in err


FIB_FAMILY = {"type": "multiplicity", "e": [1, 1]}


def fib_config(tmp_path, sequence) -> str:
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"kind": "integer", "family": FIB_FAMILY, "sequence": sequence}), encoding="utf-8")
    return str(path)


INT_DERIVED = {"kind": "integer", "family": FIB_FAMILY, "sequence": {"type": "derived"}}
REAL_HARMONIC = {"kind": "real", "family": {"type": "harmonic"}, "sequence": {"type": "harmonic"}}
PADIC_POWER = {"kind": "padic", "p": 5, "prec": 4, "family": {"type": "multiplicity", "e": [4, 5]},
               "sequence": {"type": "power"}}


class TestConfigTypes:
    @pytest.mark.parametrize(
        "doc,argv,message",
        [
            ({**INT_DERIVED, "family": {"type": "nope"}}, ["decode", "1:1"], "unknown family type 'nope'"),
            ({**REAL_HARMONIC, "family": {"type": "nope"}}, ["real-expand", "1/3"], "unknown real family type 'nope'"),
            ({**INT_DERIVED, "sequence": {"type": "nope"}}, ["decode", "1:1"], "unknown sequence type 'nope'"),
            ({**REAL_HARMONIC, "sequence": {"type": "nope"}}, ["real-expand", "1/3"],
             "unknown real sequence type 'nope'"),
            ({**PADIC_POWER, "sequence": {"type": "nope"}}, ["padic-expand", "3"], "unknown padic sequence type 'nope'"),
            ({**INT_DERIVED, "kind": "nope"}, ["decode", "1:1"], "unknown system kind 'nope'"),
            ({**REAL_HARMONIC, "sequence": {"type": "geometric"}}, ["real-expand", "1/3"],
             "geometric sequence needs multiplicities"),
        ],
        ids=["integer-family", "real-family", "integer-sequence", "real-sequence", "padic-sequence", "kind",
             "geometric-without-multiplicities"],
    )
    def test_unknown_types(self, capsys, tmp_path, doc, argv, message):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
        assert rc == 2
        assert lines == []
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "doc,argv,key,value",
        [
            ({**INT_DERIVED, "family": {"type": "pin", "j": 3.7}}, ["encode", "4"], "family.j", 3.7),
            ({**INT_DERIVED, "family": {"type": "pin", "j": True}}, ["encode", "4"], "family.j", True),
            ({**INT_DERIVED, "family": {"type": "pin", "j": 3},
              "sequence": {"type": "pinned-radix", "j": 3.0}}, ["encode", "4"], "sequence.j", 3.0),
            ({**PADIC_POWER, "p": 5.0}, ["padic-expand", "3"], "p", 5.0),
            ({**PADIC_POWER, "prec": 20.9}, ["padic-expand", "3"], "prec", 20.9),
            ({**PADIC_POWER, "prec": False}, ["padic-expand", "3"], "prec", False),
            ({**PADIC_POWER, "sequence": {"type": "power", "unit": True}}, ["padic-expand", "3"], "sequence.unit", True),
            ({**PADIC_POWER, "sequences": {"main": {"type": "power", "unit": 2.0}}}, ["padic-expand", "3"],
             "sequences.main.unit", 2.0),
            ({**PADIC_POWER, "p": 41, "prec": 8, "family": FIB_FAMILY, "sequence": {"type": "golden", "mix": 3.5}},
             ["padic-expand", "3"], "sequence.mix", 3.5),
            ({**PADIC_POWER, "p": 41, "prec": 8, "family": FIB_FAMILY, "sequence": {"type": "golden", "seed": True}},
             ["padic-expand", "3"], "sequence.seed", True),
        ],
        ids=["j-float", "j-bool", "pinned-radix-j", "p", "prec-float", "prec-bool", "unit", "labelled-unit", "mix",
             "seed"],
    )
    def test_integer_keys_refuse_booleans_and_floats(self, capsys, tmp_path, doc, argv, key, value):
        # int() would read 3.7 as 3 and true as 1, building another system
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
        assert rc == 2
        assert lines == []
        assert err == f"config error: {key} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize(
        "sequence,message",
        [
            ({"type": "geometric", "e": "ab"}, "sequence.e must be a list of integers, got 'ab'"),
            ({"type": "geometric", "e": 5}, "sequence.e must be a list of integers, got 5"),
            ({"type": "geometric", "e": [1.5, 1]}, "sequence.e must be a list of integers, got [1.5, 1]"),
            ({"type": "geometric", "e": [True, 1]}, "sequence.e must be a list of integers, got [True, 1]"),
            ({"type": "block-geometric", "seeds": [[1]], "ratio": "1/9"},
             "sequence.seeds must be a list of numbers, got [[1]]"),
            ({"type": "block-geometric", "seeds": 5, "ratio": "1/9"}, "sequence.seeds must be a list of numbers, got 5"),
            ({"type": "block-geometric", "seeds": [float("inf")], "ratio": "1/9"},
             "sequence.seeds must be a list of numbers, got [inf]"),
            ({"type": "block-geometric", "seeds": ["1/3", "1/0"], "ratio": "1/9"},
             "sequence.seeds must be a list of numbers, got ['1/3', '1/0']"),
            ({"type": "block-geometric", "seeds": ["1/3", "1/4"], "ratio": None},
             "sequence.ratio must be a number, got None"),
            ({"type": "block-geometric", "seeds": ["1/3", "1/4"], "ratio": True},
             "sequence.ratio must be a number, got True"),
            ({"type": "block-geometric", "seeds": ["1/3", "1/4"], "ratio": "ab"},
             "sequence.ratio must be a number, got 'ab'"),
        ],
        ids=["e-string", "e-int", "e-float", "e-bool", "seeds-nested", "seeds-int", "seeds-infinity", "seeds-zero-division",
             "ratio-null", "ratio-bool", "ratio-string"],
    )
    def test_real_sequence_keys_typed_at_load(self, capsys, tmp_path, sequence, message):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"kind": "real", "family": FIB_FAMILY, "sequence": sequence}), encoding="utf-8")
        rc, lines, err = run(capsys, "real-expand", "-c", str(path), "1/4")
        assert rc == 2
        assert lines == []
        assert err == f"config error: {message}\n"

    def test_labelled_real_sequence_key_names_its_label(self, capsys, tmp_path):
        doc = {"kind": "real", "family": FIB_FAMILY, "sequences": {"main": {"type": "geometric"},
                                                                  "alt": {"type": "geometric", "e": [1.0, 1]}}}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, err = run(capsys, "real-expand", "-c", str(path), "1/4")
        assert rc == 2 and lines == []
        assert err == "config error: sequences.alt.e must be a list of integers, got [1.0, 1]\n"

    @pytest.mark.parametrize(
        "sequence",
        [
            {"type": "geometric", "e": [1, 1]},
            {"type": "block-geometric", "seeds": [0.5, "1/4"], "ratio": "1/9"},
            {"type": "block-geometric", "seeds": ["1/2", 0.25], "ratio": 0.0625},
        ],
        ids=["geometric-e", "seeds-float", "ratio-float"],
    )
    def test_real_sequence_keys_accept_numbers(self, capsys, tmp_path, sequence):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"kind": "real", "family": FIB_FAMILY, "sequence": sequence}), encoding="utf-8")
        rc, lines, _ = run(capsys, "real-expand", "-c", str(path), "1/4")
        assert rc == 0 and lines[1].startswith("1/4\t")

    def test_table_family_from_a_config(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        doc = {"kind": "integer", "family": {"type": "table", "rows": TABLE_ROWS}, "sequence": {"type": "derived"}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        values = [str(x) for x in range(0, 400, 7)]
        rc, lines, _ = run(capsys, "encode", "-c", str(path), *values)
        assert rc == 0
        encoded = [line.split("\t") for line in lines[1:]]
        assert [x for x, _ in encoded] == values
        rc, lines, _ = run(capsys, "decode", "-c", str(path), *(fn for _, fn in encoded))
        assert rc == 0
        assert [line.split("\t")[1] for line in lines[1:]] == values
        fam = family_from_table(TABLE_ROWS)
        derived = FundamentalSeq.from_family(fam)
        want = [f"{i}\t{fn.render()}\t{decode_int(fn, derived)}" for i, fn in enumerate(islice(enumerate_asc(fam), 300))]
        rc, lines, _ = run(capsys, "enumerate", "-c", str(path), "--count", "300")
        assert rc == 0
        assert lines[1:] == want

    def test_greedy_family_over_its_table(self, capsys, tmp_path):
        values = [1, 3, 7, 12, 20]
        path = tmp_path / "greedy.json"
        doc = {"kind": "integer", "family": {"type": "greedy", "values": values},
               "sequence": {"type": "table", "values": values}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, _ = run(capsys, "encode", "-c", str(path), "11", "19")
        assert rc == 0
        assert lines[1:] == ["11\t1:1,2:1,3:1", "19\t3:1,4:1"]
        rc, lines, _ = run(capsys, "decode", "-c", str(path), "1:1,2:1,3:1", "3:1,4:1")
        assert rc == 0
        assert lines[1:] == ["1:1,2:1,3:1\t11", "3:1,4:1\t19"]

    @pytest.mark.parametrize(
        "family,message",
        [
            # reduced list (2^63, 0): every row carries 2^63 at its top index, and decode 1:1 reads no row
            ({"type": "multiplicity", "e": [2**63, 1]},
             "multiplicity list (9223372036854775808, 1): digit 9223372036854775808 is not below the digit bound"),
            # head digit 2^63, tail digit 0
            ({"type": "neg-recurrence", "c": [2**63 + 1, -(2**63)]},
             "recurrence (9223372036854775809, -9223372036854775808): digit 9223372036854775808 is not below "
             "the digit bound"),
            # head digit 1, tail digit 2^63: only rows from 3 on carry it
            ({"type": "neg-recurrence", "c": [2, 2**63 - 1]},
             "recurrence (2, 9223372036854775807): digit 9223372036854775808 is not below the digit bound"),
        ],
        ids=["multiplicity", "neg-recurrence-head", "neg-recurrence-tail"],
    )
    @pytest.mark.parametrize("argv", [["encode", "5"], ["decode", "1:1"], ["shift", "1:1"], ["decompose", "1:1"]])
    def test_digit_past_the_bound_refused_at_load(self, capsys, tmp_path, family, message, argv):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({**INT_DERIVED, "family": family}), encoding="utf-8")
        rc, lines, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
        assert rc == 2 and lines == []
        assert err == f"config error: {message} 9223372036854775808\n"


class TestSequenceGrowth:
    """Configs whose sequences dip, end or fall past their seeds."""

    # Q_22 = 2 after twenty terms of 1000; a depth-21 recurrence whose last
    # seed Q_21 = 1 follows nineteen of them
    DIP_TABLE = {"type": "table", "values": [1, *[1000] * 20, 2]}
    DEPTH_21 = {"type": "linear", "seeds": [3, *[1000] * 19, 1], "coeffs": [*[0] * 19, 1, 1]}

    def test_encode_past_a_long_dip(self, capsys, tmp_path):
        rc, lines, _ = run(capsys, "encode", "-c", fib_config(tmp_path, self.DIP_TABLE), "2", "3")
        assert rc == 0
        assert lines[1:] == ["2\t22:1", "3\t1:1,22:1"]

    def test_subset_past_a_long_dip(self, capsys, tmp_path):
        rc, lines, _ = run(capsys, "subset", "-c", fib_config(tmp_path, self.DIP_TABLE), "--bound", "5")
        assert rc == 0
        assert "# members: 4, distinct values: 4" in lines

    def test_encode_below_a_deep_recurrence(self, capsys, tmp_path):
        rc, lines, _ = run(capsys, "encode", "-c", fib_config(tmp_path, self.DEPTH_21), "1", "4")
        assert rc == 0
        assert lines[1:] == ["1\t21:1", "4\t1:1,21:1"]

    @pytest.mark.parametrize(
        "verb", [["encode", "5"], ["encode", "7"], ["subset", "--bound", "5"], ["subset", "--bound", "9"]]
    )
    def test_negative_coefficients_without_a_growth_rule(self, capsys, tmp_path, verb):
        # 1, 5, 2, 6, 3, 7, 4, ...: the seeds fall, so nothing bounds the later terms
        # the refusal comes before any output: no header
        config = fib_config(tmp_path, {"type": "linear", "seeds": [1, 5, 2], "coeffs": [1, 1, -1]})
        rc, lines, err = run(capsys, verb[0], "-c", config, *verb[1:])
        assert rc == 2
        assert lines == []
        assert err == (
            "config error: Q: no growth rule: a negative-coefficient recurrence needs coefficient sum >= 1, "
            "tail sums <= 0 and nondecreasing last seeds\n"
        )

    @pytest.mark.parametrize("verb", [["encode", "0", "1", "7", "100", "1000"], ["subset", "--bound", "100", "--list"]])
    def test_negative_coefficients_with_a_growth_rule(self, capsys, tmp_path, verb):
        # Q_n = 2 Q_{n-1} - Q_{n-3} from 1, 2, 3 is fib's own sequence
        config = fib_config(tmp_path, {"type": "linear", "seeds": [1, 2, 3], "coeffs": [2, 0, -1]})
        rc, lines, _ = run(capsys, verb[0], "-c", config, *verb[1:])
        assert rc == 0
        assert lines[1:] == run(capsys, verb[0], "-f", "fib", *verb[1:])[1][1:]

    @pytest.mark.parametrize(
        "argv,index",
        [
            (["decode", "6:1"], 6),
            (["shift", "4:1"], 5),
            (["enumerate", "--count", "12"], 5),
            (["verify-unique", "--cap", "6"], 5),
            (["verify-recurrence", "--coeffs", "1,1", "--start", "3", "--stop", "9"], 5),
        ],
    )
    def test_bounded_table_read_past_its_end(self, tmp_path, argv, index):
        config = fib_config(tmp_path, {"type": "table", "values": [1, 2, 3, 5]})
        proc = subprocess.run(
            [sys.executable, "-m", "zecknum.cli", argv[0], "-c", config, *argv[1:]],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"config error: Q: bounded table of 4 terms, index {index}\n"

    def test_encode_past_an_increasing_table_reach(self, capsys, tmp_path):
        # 100 takes all of row 5 (4:1, 2:1) and leaves 93, which no block below
        # it may take; no fib member of order <= 4 is worth 100 on this table
        config = fib_config(tmp_path, {"type": "table", "values": [1, 2, 3, 5]})
        rc, lines, err = run(capsys, "encode", "-c", config, "6", "100")
        assert rc == 1
        assert lines[1:] == ["6\t1:1,4:1"]
        assert err == "error: no admissible function of order <= 4 has value 100\n"

    def test_extension_refusal_after_a_record_writes_nothing(self, capsys, monkeypatch):
        # 5 encodes within the first 50 terms; 1000 lies past Q_50 = 188
        monkeypatch.setattr("zecknum.integers.EXTENSION_LIMIT", 50)
        rc, lines, err = run(capsys, "encode", "-f", "pin-3", "5", "1000")
        assert rc == 2
        assert lines == []
        assert err == "config error: pin-3-values: refusing to extend past 50 terms\n"

    def test_fewer_seeds_than_coefficients(self, capsys, tmp_path):
        config = fib_config(tmp_path, {"type": "linear", "seeds": [1, 2], "coeffs": [1, 1, -1]})
        rc, lines, err = run(capsys, "decode", "-c", config, "3:1")
        assert rc == 2
        assert lines == []
        assert err == "config error: Q: 2 seeds for 3 coefficients; a linear sequence needs a seed per coefficient\n"

    @pytest.mark.parametrize("argv", [["encode", "7"], ["decode", "5:1"], ["subset", "--bound", "9"]])
    def test_linear_without_coefficients(self, capsys, tmp_path, argv):
        # a sequence of fixed terms is a table; a linear one with no recurrence is refused at load
        config = fib_config(tmp_path, {"type": "linear", "seeds": [1, 2], "coeffs": []})
        rc, lines, err = run(capsys, argv[0], "-c", config, *argv[1:])
        assert rc == 2
        assert lines == []
        assert err == "config error: Q: a linear sequence needs at least one coefficient\n"

    @pytest.mark.parametrize("argv", [["decode", "1:1", "2:1"], ["encode", "1", "2", "3"], ["subset", "--bound", "9"]])
    def test_linear_with_zero_coefficients(self, capsys, tmp_path, argv):
        # Q_2 = 0 * Q_1 would be 0: refused at load, not at the first record reading it
        config = fib_config(tmp_path, {"type": "linear", "seeds": [3], "coeffs": [0]})
        rc, lines, err = run(capsys, argv[0], "-c", config, *argv[1:])
        assert rc == 2
        assert lines == []
        assert err == "config error: Q: every coefficient is 0; a linear sequence needs a positive one\n"

    @pytest.mark.parametrize(
        "argv", [["decode", "1:1", "3:1"], ["shift", "1:1", "2:1"], ["enumerate", "--count", "10"]]
    )
    def test_nonpositive_term_refused_before_output(self, capsys, tmp_path, argv):
        # Q_3 = Q_2 - 3 Q_1 = -1: the second token's value, or the fourth member's
        # (3:1), reads it, and the refusal writes none of the records before it
        config = fib_config(tmp_path, {"type": "linear", "seeds": [1, 2], "coeffs": [1, -3]})
        rc, lines, err = run(capsys, argv[0], "-c", config, *argv[1:])
        assert rc == 2
        assert lines == []
        assert err == "config error: Q: term 3 is -1, need a positive integer\n"

    @pytest.mark.parametrize("argv", [["encode", "1", "2", "3", "4", "5"], ["enumerate", "--count", "12"], ["decode", "1:1"]])
    def test_malformed_table_refused_at_load(self, capsys, tmp_path, argv):
        # row 4 has order 2; the walk and the encoder would meet it only after
        # printing the records and members below it
        doc = {"kind": "integer", "family": {"type": "table", "rows": [[1], [0, 1], [1, 1, 0]]},
               "sequence": {"type": "derived"}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc, lines, err = run(capsys, argv[0], "-c", str(path), *argv[1:])
        assert rc == 2
        assert lines == []
        assert err == "config error: table: row 4 has order 2, expected 3\n"

    def test_other_index_errors_keep_their_traceback(self, monkeypatch):
        monkeypatch.setattr(FundamentalSeq, "value", lambda self, n: [][n])  # a fault in the code, not the config
        with pytest.raises(IndexError, match="list index out of range"):
            main(["decode", "-f", "fib", "3:1"])


@pytest.mark.skipif(shutil.which("zecknum") is None, reason="entry point not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(["zecknum", "fixtures"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fib" in proc.stdout.split()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_maps_to_main(capsys):
    import importlib
    import tomllib
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zecknum"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    assert entry(["fixtures"]) == 0
    assert "fib" in capsys.readouterr().out.split()


def test_cold_module_run_matches_readme():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "zecknum.cli", "encode", "-f", "fib", "100", "144"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "# fib: value\tdigits\n100\t3:1,5:1,10:1\n144\t11:1\n"


def test_out_of_memory_exits_2():
    # 10^5 fib terms take about half a gigabyte; under a 256 MB address-space
    # cap on the child alone the build runs out part way
    cap = 256 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "zecknum.cli", "decode", "-f", "fib", "100000:1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: out of memory\n"
    assert proc.stdout == ""


SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted("zecknum" if p.stem == "__init__" else f"zecknum.{p.stem}" for p in (SRC / "zecknum").glob("*.py"))


def fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter on src/, with no site hooks
    loading modules of their own."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_out_dataclasses():
    """The records are NamedTuples: importing every layer pulls in neither
    dataclasses nor the inspect, ast and dis modules behind it (about 1 MB
    of resident memory and 20 ms of start-up)."""
    probe = f"import sys, {', '.join(MODULES)}; print(sorted({{'dataclasses', 'inspect', 'ast', 'dis'}} & set(sys.modules)))"
    assert fresh_python(probe) == "[]\n"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    """Each module imports on its own in a new interpreter: the lazy imports
    leave no cycle that only one import order resolves."""
    assert fresh_python(f"import {module}; print('ok')") == "ok\n"


def _layers(*names: str) -> set[str]:
    return {f"zecknum.{n}" for n in names}


# (command, modules it must leave unloaded): a cold command loads only the
# layers its verb and its system's kind use
LOAD_SETS = [
    (["encode", "-f", "fib", "5"], _layers("real", "padic", "uniqueness") | {"decimal", "fractions"}),
    (["real-expand", "-f", "sevenths", "1/3"], _layers("padic", "uniqueness", "integers")),
    (["fixtures"], set(MODULES) - _layers("cli", "config", "coeff") - {"zecknum"}),
    (["dominant-check", "--multiplicity", "1,1"], _layers("blocks", "integers", "recurrences", "uniqueness", "padic")),
    (["padic-expand", "-f", "golden-41", "6141377528281"], _layers("uniqueness", "real", "integers")),
    (["converse-probe", "-f", "padic-5-20", "--cap", "4"], _layers("uniqueness", "real", "integers")),
    (["verify-maximal", "-f", "golden-real", "--n", "2", "--horizon", "200"], _layers("padic", "uniqueness", "integers")),
]


@pytest.mark.parametrize("argv,absent", LOAD_SETS, ids=[" ".join(a) for a, _ in LOAD_SETS])
def test_command_loads_only_its_layers(argv, absent):
    probe = (
        "import contextlib, io, sys\n"
        "from zecknum.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    rc = main({argv!r})\n"
        f"print(rc, sorted(set(sys.modules).intersection({sorted(absent)!r})))"
    )
    assert fresh_python(probe) == "0 []\n"


@pytest.mark.parametrize("argv,parsers", [(["encode", "-f", "fib", "5"], 2), (["--help"], 15)])
def test_command_builds_only_its_verbs_parser(argv, parsers):
    """A command naming a verb builds the top-level parser and that verb's;
    one naming none, such as --help, builds all of them."""
    probe = (
        "import argparse, contextlib, io\n"
        "from zecknum.cli import main\n"
        "calls, init = [], argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: calls.append(1) or init(self, *a, **k)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    main({argv!r})\n"
        "print(len(calls))"
    )
    assert fresh_python(probe) == f"{parsers}\n"


@pytest.mark.parametrize("verb", VERBS)
def test_one_verb_parser_help_matches_full(monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for parser in (build_parser(verb), build_parser()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            parser.parse_args([verb, "--help"])
        pages.append(out.getvalue())
    assert pages[0] == pages[1]
    assert pages[0].startswith(f"usage: zecknum {verb} [-h]")


README = Path(__file__).resolve().parents[1] / "README.md"
ORDINALS = ("first", "second", "third", "fourth", "fifth")


def readme_transcripts() -> list[tuple[str, list[str], int]]:
    """(command, expected stdout lines, exit code) for every `$ zecknum` line
    in README.md's text blocks.  A command exits 0 unless the prose after its
    block says "The <ordinal> command exits with status N"."""
    found = []
    text = README.read_text(encoding="utf-8")
    for block, prose in re.findall(r"```text\n(.*?)```\n(.*?)(?=```|\Z)", text, re.S):
        codes = re.findall(r"The (\w+) command exits with status (\d)", prose)
        codes = {ORDINALS.index(word): int(code) for word, code in codes}
        for i, chunk in enumerate(re.split(r"^\$ ", block, flags=re.M)[1:]):
            command, *lines = chunk.rstrip("\n").split("\n")
            found.append((command, lines, codes.get(i, 0)))
    return found


def _matches(want: str, got: str) -> bool:
    """'...' inside a README line stands for a run of non-space characters."""
    return re.fullmatch(r"\S*".join(map(re.escape, want.split("..."))), got) is not None


README_TRANSCRIPTS = readme_transcripts()


def test_readme_transcripts_found():
    assert len(README_TRANSCRIPTS) == 15
    failing = [c for c, _, code in README_TRANSCRIPTS if code]
    assert failing == ["zecknum subset -f mult-11-3 --bound 200"]


@pytest.mark.parametrize("command,want,code", README_TRANSCRIPTS, ids=[c for c, _, _ in README_TRANSCRIPTS])
def test_readme_transcript(capsys, monkeypatch, command, want, code):
    monkeypatch.delenv("ZECKNUM_PRECISION", raising=False)
    prog, *argv = shlex.split(command)
    assert prog == "zecknum"
    rc, got, _ = run(capsys, *argv)
    assert rc == code
    if "..." in want:  # a '...' line cuts the listing short
        want = want[: want.index("...")]
        got = got[: len(want)]
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert _matches(w, g), (w, g)


def test_readme_library_block(capsys):
    """README's "Library use" block runs, and each print gives its `# expected` comment."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    want = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 5
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want


# Golden CLI table: each (command, stdin) runs in-process and must give the
# stdout, stderr and exit code stored at the same position in cli_golden.json,
# byte for byte.  `PYTHONPATH=src python tests/test_cli.py --record` rewrites
# that file from the code under src/.
GOLDEN_JSON = Path(__file__).with_name("cli_golden.json")
GOLDEN = [(command.removeprefix("zecknum "), None) for command, _, _ in README_TRANSCRIPTS] + [
    (" ".join(argv), None) for argv, _ in WRONG_KIND
] + [
    # stdin
    ("encode -f fib -", "100\n144\n\n7\n"),
    ("decode -f fib -", "3:1,5:1,10:1\n0\n"),
    ("shift -f fib -", "1:1\n2:1,4:1\n"),
    ("decompose -f fib -", "1:1,4:1\n0\n3:2\n"),
    ("real-expand -f sevenths -", "100/343\n0.5\n"),
    ("padic-expand -f golden-41 -", "6141377528281\n0\n"),
    # an unknown --seq, or --other
    ("encode -f fib --seq nope 5", None),
    ("decode -f fib --seq nope 1:1", None),
    ("shift -f fib --seq nope 1:1", None),
    ("enumerate -f fib --seq nope", None),
    ("decompose -f fib --seq nope 1:1,4:1", None),
    ("subset -f fib --seq nope --bound 5", None),
    ("verify-unique -f mult-2-3 --seq nope", None),
    ("converse-probe -f padic-5-20 --seq nope --cap 4", None),
    ("converse-probe -f padic-5-20 --other nope --cap 4", None),
    ("verify-recurrence -f fib --seq nope --coeffs 1,1 --start 3 --stop 5", None),
    ("verify-maximal -f golden-real --seq nope --n 2 --horizon 5", None),
    ("real-expand -f sevenths --seq nope 1/2", None),
    ("padic-expand -f golden-41 --seq nope 3", None),
    # malformed or negative arguments, and other failures
    ("encode 5", None),
    ("encode -f nope 5", None),
    ("encode -f fib -5", None),
    ("encode -f fib abc", None),
    ("encode -f seven-scaled 10", None),
    ("decode -f fib 3:1,1:1", None),
    ("decode -f fib 1:x", None),
    ("shift -f fib 0:1", None),
    ("enumerate -f fib --count -1", None),
    ("enumerate -f sevenths --horizon 0", None),
    ("decompose -f fib 1:1,2:1", None),
    ("subset -f fib --bound -1", None),
    ("verify-unique -f fib --cap -1", None),
    ("converse-probe -f padic-5-20 --cap -1", None),
    ("verify-recurrence -f fib --coeffs 1,x --start 3 --stop 5", None),
    ("verify-recurrence -f fib --coeffs 2,1 --start 3 --stop 5", None),
    ("verify-recurrence -f fib --coeffs , --start 3 --stop 5", None),
    ("verify-recurrence -f fib --coeffs 1,1 --start 5 --stop 2", None),
    ("verify-maximal -f golden-real --n 2 --horizon 0", None),
    ("verify-maximal -f sevenths --n 2 --horizon 5 --tol abc", None),
    ("real-expand -f sevenths --max-blocks -1 1/2", None),
    ("real-expand -f sevenths 1/0", None),
    ("real-expand -f sevenths 1e-20000", None),
    ("real-expand -f sevenths -", "1/1" + "0" * 20000 + "\n"),
    ("real-expand -f sevenths -- -1/2", None),
    ("real-expand -f golden-real 1.5", None),
    ("padic-expand -f golden-41 -5", None),
    ("padic-expand -f golden-41 abc", None),
    ("dominant-check", None),
    ("dominant-check --coeffs 1,x", None),
    # real-side walks at several horizons, and the sparse harmonic row
    *((f"enumerate -f {name} --horizon {h} --count 40", None)
      for name in ("sevenths", "golden-real", "harmonic") for h in (1, 5, 8)),
    ("verify-maximal -f harmonic --n 2 --horizon 2000 --tol 1e-6", None),
    # the argparse wiring, at 80 columns: every help page and an unknown verb
    ("--help", None),
    *((f"{verb} --help", None) for verb in _verb_kinds()),
    ("nope", None),
    # arguments no verb takes: the usage line names every verb
    ("encode -f fib 5 --bogus", None),
    ("fixtures extra", None),
    ("decode -f fib --bogus 1:1", None),
]


def golden_run(command: str, stdin: str | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(shlex.split(command))
            except SystemExit as exc:  # argparse's help pages and usage errors
                rc = exc.code
    finally:
        sys.stdin = saved
    return {"command": command, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("i", range(len(GOLDEN)), ids=[c[:60] for c, _ in GOLDEN])
def test_golden(monkeypatch, i):
    monkeypatch.delenv("ZECKNUM_PRECISION", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))
    assert len(want) == len(GOLDEN)
    assert golden_run(*GOLDEN[i]) == want[i]


def test_golden_table_has_an_unknown_seq_for_every_system_verb():
    want = json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))
    cases = {g["command"].split()[0]: g for g in want if "--seq nope" in g["command"]}
    assert set(cases) == {verb for verb, kinds in _verb_kinds().items() if kinds}
    for g in cases.values():
        assert g["rc"] == 2 and g["stdout"] == "" and "has no sequence 'nope'" in g["stderr"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.environ.pop("ZECKNUM_PRECISION", None)
    os.environ["COLUMNS"] = "80"
    table = [golden_run(command, stdin) for command, stdin in GOLDEN]
    GOLDEN_JSON.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
