from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from conftest import PI_100

from zecknum.blocks import FamilyError, is_member_desc
from zecknum.coeff import CoeffFn
from zecknum.real import (
    BlockGeometricSeq,
    GeometricSeq,
    HarmonicSeq,
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


class TestFamilies:
    def test_harmonic_digits(self):
        fam = harmonic_maximal_family()
        row = fam.row(2)
        assert [k for k, _ in zip((p for p, _ in row.support_iter()), range(4))] == [
            2, 6, 42, 1806,
        ]
        assert row.digit(5) == 0
        assert row.digit(42) == 1
        assert fam.row(3).digit(12) == 1

    def test_periodic_validation(self):
        with pytest.raises(FamilyError):
            periodic_maximal_family([[1], [1]])
        with pytest.raises(FamilyError):
            periodic_maximal_family([[1, -1], [1]])
        fam = periodic_maximal_family([[1, 0], [0]])
        with pytest.raises(FamilyError):
            fam.row(2)  # its own digit is zero

    def test_sevenths_rows_frozen(self, sevenths):
        row1 = sevenths.family.row(1)
        assert [row1.digit(k) for k in range(1, 8)] == [1, 1, 1, 1, 1, 1, 1]
        row2 = sevenths.family.row(2)
        assert [row2.digit(k) for k in range(2, 8)] == [1, 0, 1, 1, 1, 1]
        row3 = sevenths.family.row(3)
        assert [row3.digit(k) for k in range(3, 8)] == [1, 1, 1, 1, 1]
