from __future__ import annotations

import argparse
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zecknum.cli import build_parser, main


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

    def test_encode_past_member_limit_names_the_value(self, capsys, monkeypatch):
        # pin-3's sequence is not increasing, so encode walks the members
        monkeypatch.setattr("zecknum.blocks.MEMBER_LIMIT", 1000)
        rc, lines, err = run(capsys, "encode", "-f", "pin-3", "5000")
        assert rc == 2
        assert err == (
            "config error: pin-3: encoding 5000 walks more than 1,000 members"
            " (sequence is not increasing)\n"
        )
        assert "order cap" not in err and "lower the cap" not in err
        rc, lines, err = run(capsys, "encode", "-f", "pin-3", "200")
        assert rc == 0 and err == "" and lines[1].startswith("200\t")


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


@pytest.mark.skipif(shutil.which("zecknum") is None, reason="entry point not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(["zecknum", "fixtures"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fib" in proc.stdout.split()


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
