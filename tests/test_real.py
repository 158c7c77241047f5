from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from conftest import (
    AMBIENT,
    PI_100,
    ambient_context,
    expand_real_ref,
    is_member_desc,
    maximal_row,
    positive_root_ref,
    rational_root_ref,
)

import zecknum.real
from zecknum.blocks import FamilyError
from zecknum.coeff import CoeffFn
from zecknum.config import build_system, load_fixture
from zecknum.recurrences import MultiplicityList
from zecknum.real import (
    TERM_CACHE,
    BlockGeometricSeq,
    GeometricSeq,
    HarmonicSeq,
    _first_below,
    dominance_criterion,
    eval_expansion,
    expand_real,
    find_first_below,
    geometric_fundamental,
    harmonic_maximal_family,
    multiplicity_list_dominant,
    periodic_maximal_family,
    positive_root,
    rational_root,
    verify_maximal_identity,
)


class TestSequences:
    def test_geometric(self):
        seq = GeometricSeq(Fraction(1, 2))
        assert seq.value(0) == 1
        assert seq.value(3) == Fraction(1, 8)
        with pytest.raises(FamilyError):
            GeometricSeq(Fraction(3, 2))
        with pytest.raises(FamilyError):
            GeometricSeq(Fraction(0))

    def test_harmonic(self):
        seq = HarmonicSeq()
        assert seq.value(0) == 1
        assert seq.value(4) == Fraction(1, 5)

    def test_block_geometric_frozen(self, sevenths):
        seq = sevenths.sequence
        assert seq.value(0) == 1
        assert [seq.value(n) for n in range(1, 7)] == [
            Fraction(3, 7), Fraction(2, 7), Fraction(1, 7),
            Fraction(3, 49), Fraction(2, 49), Fraction(1, 49),
        ]

    def test_block_geometric_validation(self):
        with pytest.raises(FamilyError):
            BlockGeometricSeq([Fraction(1, 7), Fraction(2, 7)], Fraction(1, 7))
        with pytest.raises(FamilyError):
            BlockGeometricSeq([Fraction(1, 2)], Fraction(2))
        with pytest.raises(FamilyError):
            # next period would overlap: 3/7 * 1/2 >= 1/7
            BlockGeometricSeq(
                [Fraction(3, 7), Fraction(2, 7), Fraction(1, 7)], Fraction(1, 2)
            )


class TestFindFirstBelow:
    def test_harmonic_frozen(self):
        seq = HarmonicSeq()
        assert find_first_below(seq, Fraction(1, 3)) == 2
        assert find_first_below(seq, Fraction(3, 10)) == 3
        assert find_first_below(seq, Fraction(99, 100)) == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            find_first_below(HarmonicSeq(), Fraction(3, 2))
        with pytest.raises(ValueError):
            find_first_below(HarmonicSeq(), Fraction(0))

    def test_geometric(self):
        seq = GeometricSeq(Fraction(1, 2))
        for n in range(1, 12):
            x = Fraction(1, 2**n)
            assert find_first_below(seq, x) == n

    @pytest.mark.parametrize("ambient", [5, 28, 100])
    def test_decimal_geometric_ignores_the_callers_precision(self, golden_real, ambient):
        seq = GeometricSeq(golden_real.sequence.omega)  # nothing computed yet
        with localcontext(seq.context):
            q7, q30 = seq.omega**7, seq.omega**30
        with localcontext() as ctx:
            ctx.prec = ambient
            assert seq.value(7) == q7 and len(seq.value(7).as_tuple().digits) == 60
            assert find_first_below(seq, q30) == 30


class TestFirstBelowHelper:
    @pytest.mark.parametrize(
        "above, answer",
        [(0, 1), (7, 8), (0, 2**20), (0, 2**20 + 1), (5, 5 + 2**20 + 1), (0, 10**70), (0, 10**70 + 1), (3, 10**70 - 1)],
    )
    def test_answer_and_its_cost(self, above, answer):
        """The first n past ``above`` where the test fails, at one more than
        ``above``, at and just past a power of two, and near 10^70, in at most
        two evaluations per bit of the distance."""
        calls = []

        def holds(n):
            calls.append(n)
            return n < answer

        assert _first_below(holds, above) == answer
        assert len(calls) <= 2 * (answer - above).bit_length() + 1
        assert all(n > above for n in calls)


class TestRoots:
    def test_rational_root(self):
        assert rational_root((1, 2)) == Fraction(1, 2)
        assert rational_root((1, 1)) is None
        assert rational_root((2, 4)) is None

    def test_positive_root_golden_prefix(self):
        root = positive_root((1, 1), 25)
        assert str(root).startswith("0.618033988749894848204586")

    def test_positive_root_against_sqrt(self):
        root = positive_root((1, 1), 50)
        with localcontext() as ctx:
            ctx.prec = 60
            oracle = (Decimal(5).sqrt() - 1) / 2
        assert abs(root - oracle) < Decimal("1e-45")

    @pytest.mark.parametrize("ambient", AMBIENT)
    def test_positive_root_ignores_the_callers_context(self, ambient):
        with ambient_context(ambient):
            root = positive_root((1, 1), 60)
        assert str(root) == "0.618033988749894848204586834365638117720309179805762862135449"

    def test_positive_root_solves_rational_case(self):
        root = positive_root((1, 2), 30)
        assert abs(root - Decimal("0.5")) < Decimal("1e-28")

    def test_validation(self):
        with pytest.raises(FamilyError):
            positive_root((0, 1))
        with pytest.raises(FamilyError):
            positive_root(())

    def test_geometric_fundamental_prefers_exact(self):
        seq = geometric_fundamental((1, 2))
        assert seq.omega == Fraction(1, 2)
        seq2 = geometric_fundamental((1, 1), digits=20)
        assert isinstance(seq2.omega, Decimal)

    # lists with entries 0-3 and positive ends, lengths 1-6, at every precision below
    DIGITS = (5, 10, 28, 60, 100)

    @staticmethod
    def lists(rng, count):
        found = []
        while len(found) < count:
            e = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
            if e[0] and e[-1]:
                found.append(tuple(e))
        return found

    @pytest.mark.parametrize("digits", DIGITS)
    def test_roots_match_the_bisection_and_divisor_scan(self, digits):
        """Both integer searches give the reference's exact strings on 62
        seeded lists per precision, 310 cases in all."""
        for e in self.lists(random.Random(digits), 62):
            assert str(positive_root(e, digits)) == str(positive_root_ref(e, digits)), (e, digits)
            assert rational_root(e) == rational_root_ref(e), e

    @pytest.mark.parametrize("digits", [5, 25, 45, 50, 60])
    def test_golden_root_matches_the_bisection(self, digits):
        assert str(positive_root((1, 1), digits)) == str(positive_root_ref((1, 1), digits))

    def test_golden_real_loads_the_reference_root(self, golden_real):
        assert str(golden_real.sequence.omega) == str(positive_root_ref((1, 1), 60))

    @pytest.mark.parametrize("e, q", [((1, 999000), 1000), ((2, 4), None), ((1, 2), 2), ((3,), 3), ((1,), None)])
    def test_rational_root_read_off_one_candidate(self, e, q):
        assert rational_root(e) == (q and Fraction(1, q)) == rational_root_ref(e)

    def test_a_large_top_multiplicity_loads_at_once(self):
        """The only rational candidate is found by bisection, not by trying
        every q up to e_N: 10^9 + 7 took about 45 s that way."""
        start = time.perf_counter()
        seq = geometric_fundamental((1, 10**9 + 7))
        assert time.perf_counter() - start < 1
        assert str(seq.omega) == str(positive_root_ref((1, 10**9 + 7), 60))


class TestDominance:
    def test_interior_pair_found(self):
        res = dominance_criterion((1, 1, 1, 1))
        assert res.dominant is True
        assert res.witness == (1, 2)

    def test_silent_cases(self):
        assert dominance_criterion((1, 1)).dominant is None
        assert dominance_criterion((1, 1, 1)).dominant is None
        assert dominance_criterion((1, 0, 1, 0, 0, 1)).dominant is None

    def test_coprime_needed(self):
        # interior powers 2 and 4 share a factor; 1 and 3 do not
        assert dominance_criterion((1, 0, 1, 0, 1, 0, 1)).dominant is None
        assert dominance_criterion((1, 2, 0, 3, 1)).witness == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            dominance_criterion((0, 1, 1))
        with pytest.raises(ValueError):
            dominance_criterion((1,))

    def test_multiplicity_list_always_decided(self):
        assert multiplicity_list_dominant((1, 1)) .dominant is True
        assert multiplicity_list_dominant((1, 1)).witness == (1, 2)
        assert multiplicity_list_dominant((5,)).witness is None
        with pytest.raises(FamilyError):
            multiplicity_list_dominant((0, 1))


class TestMaximalIdentity:
    def test_harmonic_exact_error(self):
        fam = harmonic_maximal_family()
        seq = HarmonicSeq()
        # chain from 2: 2, 6, 42, 1806; truncation error is exactly 1/3263442
        report = verify_maximal_identity(fam, seq, 2, 2 * 10**6, Fraction(1, 3 * 10**6))
        assert report.ok
        assert report.rhs == Fraction(1, 2)
        assert report.rhs - report.lhs == Fraction(1, 3263442)
        tight = verify_maximal_identity(fam, seq, 2, 2 * 10**6, Fraction(1, 10**7))
        assert not tight.ok

    def test_golden_decimal(self, golden_real):
        report = verify_maximal_identity(
            golden_real.family, golden_real.sequence, 3, 300, Decimal("1e-30")
        )
        assert report.ok
        assert report.error <= Decimal("1e-30")

    def test_sevenths_identities(self, sevenths):
        # the tail past a horizon h divisible by 3 carries mass exactly 7^(-h/3)
        for n in range(1, 6):
            report = verify_maximal_identity(
                sevenths.family, sevenths.sequence, n, 150, Fraction(1, 10**40)
            )
            assert report.ok, n


class TestExpand:
    def test_harmonic_exact(self):
        fam = harmonic_maximal_family()
        seq = HarmonicSeq()
        res = expand_real(Fraction(5, 6), fam, seq, residual_tol=None)
        assert res.fn == CoeffFn.parse("1:1,2:1")
        assert res.exact
        assert res.residual == 0
        assert res.blocks_used == 1
        assert eval_expansion(res.fn, seq) == Fraction(5, 6)

    def test_harmonic_pi_over_8_prefix(self):
        fam = harmonic_maximal_family()
        seq = HarmonicSeq()
        x = Fraction(Decimal(PI_100)) / 8
        res = expand_real(x, fam, seq, max_blocks=3, residual_tol=None)
        assert res.fn.support == (2, 16, 1844)
        assert not res.exact
        assert eval_expansion(res.fn, seq) + res.residual == x

    def test_max_blocks_cuts(self):
        fam = harmonic_maximal_family()
        seq = HarmonicSeq()
        x = Fraction(Decimal(PI_100)) / 8
        res = expand_real(x, fam, seq, max_blocks=1, residual_tol=None)
        assert res.fn == CoeffFn.parse("2:1")
        assert res.blocks_used == 1

    def test_sevenths_frozen(self, sevenths):
        res = expand_real(Fraction(100, 343), sevenths.family, sevenths.sequence,
                          residual_tol=None)
        assert res.fn == CoeffFn.parse("2:1,8:1")
        assert res.exact

    @pytest.mark.parametrize("x", [Fraction(-1, 2), Decimal("-0.001"), Fraction(1), Decimal("1.5")])
    def test_outside_the_unit_interval(self, sevenths, x):
        with pytest.raises(ValueError, match="need 0 < x < 1"):
            expand_real(x, sevenths.family, sevenths.sequence)

    def test_zero_is_the_empty_expansion(self, sevenths):
        res = expand_real(Fraction(0), sevenths.family, sevenths.sequence)
        assert res.fn == CoeffFn() and res.exact and res.blocks_used == 0

    def test_sevenths_members(self, sevenths):
        for k in (1, 6, 49, 113, 342):
            res = expand_real(Fraction(k, 343), sevenths.family, sevenths.sequence,
                              residual_tol=None)
            assert res.exact
            assert eval_expansion(res.fn, sevenths.sequence) == Fraction(k, 343)
            assert is_member_desc(res.fn, sevenths.family, res.fn.order_asc + 3)

    def test_golden_decimal_tolerance(self, golden_real):
        x = Decimal("0.137")
        res = expand_real(x, golden_real.family, golden_real.sequence,
                          max_blocks=40, residual_tol=Fraction(1, 10**25))
        assert res.residual <= Fraction(1, 10**25)
        err = abs(eval_expansion(res.fn, golden_real.sequence) - x)
        assert err < Decimal("1e-24")
        assert is_member_desc(res.fn, golden_real.family, res.fn.order_asc + 2)

    def test_a_term_under_the_precision_ends_the_expansion(self):
        # at 4 digits, golden-real's remainder stops falling past index 81 while
        # block 11's digits stay affordable: the expansion ends there, not exact,
        # instead of running on; it is run apart so that a hang fails, not stalls
        code = (
            "from decimal import Decimal\n"
            "from zecknum.config import load_fixture\n"
            "from zecknum.real import GeometricSeq, expand_real, positive_root\n"
            "seq = GeometricSeq(positive_root((1, 1), 4), 4)\n"
            "res = expand_real(Decimal('0.8087'), load_fixture('golden-real').family, seq, 16)\n"
            "print(res.fn.support[-3:], res.residual, res.exact, res.blocks_used)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(77, 79, 81) 2.825E-14 False 11\n"

    def test_an_endless_block_ends_under_the_precision(self):
        # every row is all ones and sums to about 0.434 on omega = 0.3028 (3x + x^2 = 1),
        # so from 0.9 the first block takes every digit and closes only at the
        # first term that no longer moves the remainder at 60 digits
        seq = geometric_fundamental((3, 1))
        res = expand_real(Decimal("0.9"), periodic_maximal_family([[1]]), seq, residual_tol=None)
        assert (res.blocks_used, res.exact) == (1, False)
        assert res.fn == CoeffFn((k, 1) for k in range(1, 117))
        with localcontext(seq.context):
            assert res.residual - seq.value(117) == res.residual


def _inputs(name: str, seed: int, count: int = 6) -> list:
    """Seeded points of (0,1) in the number type each system reads exactly."""
    rng = random.Random(seed)
    if name == "golden-real":
        return [Decimal(f"0.{rng.randrange(1, 10**60):060d}") for _ in range(count)]
    if name == "harmonic":  # small denominators keep the exact expansion short
        return [Fraction(rng.randrange(1, b), b) for b in (rng.randrange(2, 60) for _ in range(count))]
    return [Fraction(rng.randrange(1, 10**12), 10**12) for _ in range(count - 2)] + [
        Fraction(rng.randrange(1, 343**2), 343**2) for _ in range(2)]


def _half_system():
    """Q_n = (1/2)^n: a geometric sequence with a rational ratio."""
    ml = MultiplicityList((1, 2))
    return ml.maximal_family(), geometric_fundamental(ml.e)


class TestResumedSearch:
    """expand_real starts each block's top search above the last block's
    short digit; it must give what a search from index 1 gives."""

    SYSTEMS = ("golden-real", "harmonic", "sevenths", "half")

    @staticmethod
    def system(name):
        if name == "half":
            return _half_system()
        s = load_fixture(name)
        return s.family, s.sequence

    @pytest.mark.parametrize("name", SYSTEMS)
    @pytest.mark.parametrize("max_blocks", [8, 64])
    @pytest.mark.parametrize("residual_tol", [Fraction(1, 10**30), None])
    def test_same_expansion_as_the_search_from_scratch(self, monkeypatch, name, max_blocks, residual_tol):
        fam, seq = self.system(name)
        resumed = [expand_real(x, fam, seq, max_blocks, residual_tol) for x in _inputs(name, 16)]
        # both kernels, decimal and rational, search through this one helper
        scratch = zecknum.real._first_below
        monkeypatch.setattr(zecknum.real, "_first_below", lambda above_x, above: scratch(above_x, 0))
        fam, seq = self.system(name)
        assert [expand_real(x, fam, seq, max_blocks, residual_tol) for x in _inputs(name, 16)] == resumed
        assert max(r.blocks_used for r in resumed) > 1  # some search did resume

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_every_start_above_gives_the_same_index(self, name):
        _, seq = self.system(name)
        for x in _inputs(name, 17, 12):
            with localcontext(getattr(seq, "context", None)):
                n = find_first_below(seq, x)
                assert seq.value(n) <= x < seq.value(n - 1)
                assert [find_first_below(seq, x, a) for a in range(n)] == [n] * n

    def test_a_resumed_expansion_reads_fewer_terms(self):
        # 64 blocks of golden-real read 1,157 terms searching each block's top
        # from index 1, and 350 resuming past the previous block
        fam, seq = self.system("golden-real")
        calls, value = [], seq.value

        def counted(n):
            calls.append(n)
            return value(n)

        seq.value = counted
        res = expand_real(Decimal("0.137"), fam, seq, max_blocks=64, residual_tol=None)
        assert res.blocks_used == 64
        assert len(calls) < 700


# period 2 with digits above 1: Q = 1/3, 1/15, 1/45, 1/225, ...
BASE_15 = {
    "name": "base-15",
    "kind": "real",
    "family": {"type": "periodic", "rows": [[2, 4], [4]]},
    "sequence": {"type": "block-geometric", "seeds": ["1/3", "1/15"], "ratio": "1/15"},
}


class TestAgainstTheReference:
    """Both kernels, the rational one in integers and the decimal loop, give
    every field the one-loop reference gives."""

    @staticmethod
    def system(name):
        if name == "silver":  # Q_n = (sqrt 2 - 1)^n, digits up to 2
            ml = MultiplicityList((2, 1))
            return ml.maximal_family(), geometric_fundamental(ml.e)
        if name != "base-15":
            return TestResumedSearch.system(name)
        s = build_system(BASE_15)
        return s.family, s.sequence

    @staticmethod
    def inputs(name: str, seq) -> list:
        """Seeded points as Fractions, and three-digit ones also as Decimals; each
        of them ends exactly on harmonic within a few blocks, which keeps its 64 short.
        On golden-real, exact sums of its terms, and the terms themselves.  On
        silver, sums of its terms with digits 1 and 2, and 2 Q_1 - 10^-61: read
        at 60 digits, that x over Q_1 rounds to 2, and the digit must drop to 1."""
        rng = random.Random(name)
        if name == "golden-real":
            with localcontext(seq.context):
                return [seq.value(k) for k in (1, 2, 7)] + [
                    sum(seq.value(k) for k in rng.sample(range(2, 60), 3)) for _ in range(4)]
        if name == "silver":
            with localcontext(seq.context):
                return [seq.value(k) for k in (1, 2)] + [
                    sum(rng.randint(1, 2) * seq.value(k) for k in rng.sample(range(2, 60), 3)) for _ in range(3)
                ] + [Context(prec=100).fma(2, seq.value(1), Decimal("-1e-61"))]
        den = {"harmonic": 60, "sevenths": 343**2, "half": 2**20, "base-15": 15**6}[name]
        thousandths = [rng.randrange(1, 1000) for _ in range(4)]
        return ([Fraction(rng.randrange(1, den), den) for _ in range(3)] + [Fraction(0)]
                + [Fraction(k, 1000) for k in thousandths] + [Decimal(k) / 1000 for k in thousandths])

    @pytest.mark.parametrize("name", ["sevenths", "harmonic", "half", "base-15", "golden-real", "silver"])
    def test_every_field_matches(self, name):
        fam, seq = self.system(name)
        term = type(seq.value(1))
        assert (term is Decimal) == (name in ("golden-real", "silver"))
        exact = set()
        for x in self.inputs(name, seq):
            for max_blocks in (*range(9), 64):
                for tol in (None, Fraction(1, 10**12), Decimal("1e-9"), 0):
                    got = expand_real(x, fam, seq, max_blocks, tol)
                    want = expand_real_ref(x, fam, seq, max_blocks, tol)
                    assert got == want, (x, max_blocks, tol)
                    assert type(got.residual) is term and type(got.exact) is bool and got.residual >= 0
                    exact.add(got.exact)
        assert exact == {True, False}


class TestTermCache:
    def test_warmed_under_a_low_ambient_precision(self):
        x = Decimal("0.4142135623730950488016887242096980785696718753769480731766")
        fresh = load_fixture("golden-real")
        want = expand_real(x, fresh.family, fresh.sequence, max_blocks=64)
        s = load_fixture("golden-real")
        with localcontext() as ctx:
            ctx.prec = 5
            for k in range(1, 300):
                s.sequence.value(k)
            find_first_below(s.sequence, Decimal("0.41421"))
            expand_real(Decimal("0.41421"), s.family, s.sequence, max_blocks=64)
            verify_maximal_identity(s.family, s.sequence, 3, 400, Decimal("1e-25"))
        assert expand_real(x, s.family, s.sequence, max_blocks=64) == want

    @pytest.mark.parametrize("name", ["golden-real", "harmonic", "sevenths"])
    def test_bounded_after_a_long_horizon(self, name):
        s = load_fixture(name)
        verify_maximal_identity(s.family, s.sequence, 2, 5000, Fraction(1, 10**20))
        info = s.sequence._term.cache_info()
        assert info.currsize <= TERM_CACHE == 1024
        if name != "harmonic":  # its rows skip to m(m+1), so few terms are read
            assert info.misses > TERM_CACHE


class TestFamilies:
    def test_harmonic_digits(self):
        fam = harmonic_maximal_family()
        assert [k for k, _ in islice(fam.support(2), 4)] == [2, 6, 42, 1806]
        row = maximal_row(fam, 2, 42)
        assert row.get(5, 0) == 0
        assert row.get(42, 0) == 1
        assert maximal_row(fam, 3, 12).get(12, 0) == 1

    def test_periodic_validation(self):
        with pytest.raises(FamilyError):
            periodic_maximal_family([[1], [1]])
        with pytest.raises(FamilyError):
            periodic_maximal_family([[1, -1], [1]])
        with pytest.raises(FamilyError, match="own row 2 has digit 0 at its own index"):
            periodic_maximal_family([[1, 0], [0]])
        with pytest.raises(FamilyError, match="own row 1 has digit 0 at its own index"):
            periodic_maximal_family([[0, 0], [1]])  # row 2's support would end at 2
        with pytest.raises(FamilyError, match="own-row lengths"):
            periodic_maximal_family([])

    @pytest.mark.parametrize("own_rows", [[[1, 1, 1], [1, 0], [1]], [[1, 0, 2], [2, 1], [1]], [[2, 0], [1]]])
    def test_periodic_support_follows_the_digit_rule(self, own_rows):
        # the rule the family was first written as: the own row through its
        # period's end, then own row 1 repeated period-aligned
        N = len(own_rows)
        fam = periodic_maximal_family(own_rows)
        for n in range(1, 3 * N + 1):
            own = own_rows[(n - 1) % N]
            end = n + len(own) - 1
            want = [own[k - n] if k <= end else own_rows[0][(k - end - 1) % N] for k in range(n, 40)]
            row = maximal_row(fam, n, 39)
            assert [row.get(k, 0) for k in range(n, 40)] == want, n

    def test_sevenths_rows_frozen(self, sevenths):
        row1 = maximal_row(sevenths.family, 1, 7)
        assert [row1.get(k, 0) for k in range(1, 8)] == [1, 1, 1, 1, 1, 1, 1]
        row2 = maximal_row(sevenths.family, 2, 7)
        assert [row2.get(k, 0) for k in range(2, 8)] == [1, 0, 1, 1, 1, 1]
        row3 = maximal_row(sevenths.family, 3, 7)
        assert [row3.get(k, 0) for k in range(3, 8)] == [1, 1, 1, 1, 1]
