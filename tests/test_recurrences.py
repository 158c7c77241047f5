from __future__ import annotations

import random
import re
from itertools import accumulate

import pytest
from conftest import derived_by_row_sums, maximal_row

from zecknum import load_fixture
from zecknum.blocks import FamilyError
from zecknum.coeff import DIGIT_LIMIT, CoeffFn, from_dense
from zecknum.integers import FundamentalSeq, decode_int, enumerate_subset
from zecknum.recurrences import (
    MultiplicityList,
    factorial_family,
    family_from_blocks,
    family_from_neg_recurrence,
    family_from_sequence,
    family_from_table,
    family_from_tail_rule,
    index_bounded_family,
    j_plus_family,
    neg_recurrence_params,
    pinned_radix_seq,
    verify_recurrence,
)


class TestMultiplicityList:
    def test_validation(self):
        for bad in [(), (0, 1), (1, 0), (-1, 2), (1,), (2, -1, 3)]:
            with pytest.raises(FamilyError):
                MultiplicityList(bad)
        MultiplicityList((2,))
        MultiplicityList((1, 0, 3))

    def test_digit_bound(self):
        # the reduced list's digits are row digits: (e_1, ..., e_N - 1) below DIGIT_LIMIT
        MultiplicityList((DIGIT_LIMIT - 1, DIGIT_LIMIT))
        for bad in [(DIGIT_LIMIT, 1), (1, DIGIT_LIMIT + 1), (DIGIT_LIMIT + 1,)]:
            with pytest.raises(FamilyError, match="is not below the digit bound"):
                MultiplicityList(bad)

    def test_period_and_reduced(self):
        ml = MultiplicityList((2, 3))
        assert ml.period == 2
        assert ml.reduced == (2, 2)
        assert ml.predecessor_family().recurrence == (2, 3)

    def test_predecessor_rows_frozen(self):
        assert MultiplicityList((1, 1)).predecessor_family().row(6) == CoeffFn(
            {1: 1, 3: 1, 5: 1}
        )
        assert MultiplicityList((2, 3)).predecessor_family().row(4) == CoeffFn(
            {1: 2, 2: 2, 3: 2}
        )
        assert MultiplicityList((11, 3)).predecessor_family().row(5) == CoeffFn(
            {1: 2, 2: 11, 3: 2, 4: 11}
        )

    def test_maximal_rows_frozen(self):
        row = maximal_row(MultiplicityList((2, 3)).maximal_family(), 3, 7)
        assert [row.get(k, 0) for k in range(1, 8)] == [0, 0, 2, 2, 2, 2, 2]

    def test_derived_sequence_matches_recurrence(self):
        ml = MultiplicityList((2, 3))
        seq = FundamentalSeq.from_family(ml.predecessor_family())
        assert verify_recurrence(seq, ml.predecessor_family().recurrence, 3, 30) == []


class TestTailRule:
    def test_factorial_rows(self):
        fam = factorial_family()
        assert fam.row(5) == CoeffFn({1: 1, 2: 2, 3: 3, 4: 4})
        seq = FundamentalSeq.from_family(fam)
        assert seq.upto(6) == [1, 2, 6, 24, 120, 720]

    def test_callable_head(self):
        fam = family_from_tail_rule([lambda n: n], lambda j: 0)
        assert fam.row(4) == CoeffFn({3: 4})

    def test_head_clipped_at_bottom(self):
        fam = family_from_tail_rule([1, 7], lambda j: 0)
        assert fam.row(2) == CoeffFn({1: 1})


class TestNegRecurrence:
    def test_params_frozen(self):
        assert neg_recurrence_params((3, -1)) == ((2,), 1)
        assert neg_recurrence_params((8, -2, -3)) == ((7, 5), 2)

    def test_params_validation(self):
        with pytest.raises(FamilyError):
            neg_recurrence_params((3,))
        with pytest.raises(FamilyError):
            neg_recurrence_params((1, 1))
        with pytest.raises(FamilyError):
            neg_recurrence_params((2, -3))

    def test_params_digit_bound(self):
        assert neg_recurrence_params((DIGIT_LIMIT, 1 - DIGIT_LIMIT)) == ((DIGIT_LIMIT - 1,), 0)
        assert neg_recurrence_params((2, DIGIT_LIMIT - 2)) == ((1,), DIGIT_LIMIT - 1)
        for bad in [(DIGIT_LIMIT + 1, -DIGIT_LIMIT), (2, DIGIT_LIMIT - 1), (3, DIGIT_LIMIT, -DIGIT_LIMIT)]:
            with pytest.raises(FamilyError, match="is not below the digit bound"):
                neg_recurrence_params(bad)

    def test_rows_frozen(self):
        fam = family_from_neg_recurrence((3, -1))
        assert fam.row(4) == CoeffFn({1: 1, 2: 1, 3: 2})
        fam2 = family_from_neg_recurrence((8, -2, -3))
        assert fam2.row(5) == CoeffFn({1: 2, 2: 2, 3: 5, 4: 7})

    def test_derived_values(self):
        seq = FundamentalSeq.from_family(family_from_neg_recurrence((3, -1)))
        assert seq.upto(5) == [1, 3, 8, 21, 55]
        seq2 = FundamentalSeq.from_family(family_from_neg_recurrence((8, -2, -3)))
        assert seq2.upto(4) == [1, 8, 62, 477]
        assert verify_recurrence(seq2, (8, -2, -3), 4, 40) == []


class TestIndexBounded:
    def test_rows_frozen(self):
        fam = index_bounded_family()
        assert fam.row(2) == CoeffFn({1: 1})
        assert fam.row(3) == CoeffFn({2: 2})
        assert fam.row(7) == CoeffFn({2: 2, 4: 4, 6: 6})
        assert fam.row(8) == CoeffFn({1: 1, 3: 3, 5: 5, 7: 7})

    def test_derived_values_frozen(self):
        seq = FundamentalSeq.from_family(index_bounded_family())
        assert seq.upto(8) == [1, 2, 5, 17, 73, 382, 2365, 16937]


class TestPinned:
    def test_family_rows(self):
        fam = j_plus_family(3)
        assert fam.row(2) == CoeffFn({1: 1})
        assert fam.row(4) == CoeffFn({3: 1})
        assert fam.row(5) == CoeffFn({3: 1, 4: 1})
        assert fam.row(8) == CoeffFn({3: 1, 7: 1})

    def test_seq_frozen(self):
        assert pinned_radix_seq(3).upto(8) == [5, 6, 7, 4, 8, 12, 16, 20]

    def test_validation(self):
        with pytest.raises(FamilyError):
            j_plus_family(0)
        with pytest.raises(FamilyError):
            pinned_radix_seq(0)


class TestTableFamily:
    def test_rows(self):
        fam = family_from_table([[1], [0, 1]])
        assert fam.row(2) == CoeffFn({1: 1})
        assert fam.row(3) == CoeffFn({2: 1})
        with pytest.raises(FamilyError):
            fam.row(4)

    def test_row_order_must_match(self):
        fam = family_from_table([[1, 1]])  # order 2 where row 2 needs order 1
        with pytest.raises(FamilyError):
            fam.row(2)


class TestGreedyFamily:
    def test_matches_golden_rows(self, fib):
        vals = fib.sequence.upto(10)
        fam = family_from_sequence(vals)
        for n in range(2, 11):
            assert fam.row(n) == fib.family.row(n)

    def test_primes_with_one(self):
        fam = family_from_sequence([1, 2, 3, 5, 7, 11, 13])
        assert fam.row(5) == CoeffFn({1: 1, 4: 1})
        seq = FundamentalSeq([1, 2, 3, 5, 7, 11, 13])
        # keep the walk below the table's top row: find_top(10) is 5
        report = enumerate_subset(fam, seq, 10)
        assert report.collision is None
        assert report.covers_all_below_bound()

    def test_validation(self):
        with pytest.raises(FamilyError):
            family_from_sequence([2, 3])
        with pytest.raises(FamilyError):
            family_from_sequence([1, 3, 3])
        fam = family_from_sequence([1, 2])
        with pytest.raises(FamilyError):
            fam.row(3)
        for values, bad in [([True, 2, 4], "True"), ([1, 2.9, 4], "2.9")]:  # not read as 1, 2, 4
            with pytest.raises(FamilyError, match=f"^greedy: sequence term {bad} is not an integer$"):
                family_from_sequence(values)


BLOCKS7 = [
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
    (1, 0, 0), (1, 0, 1), (1, 1, 1),
]


class TestFixedBlocks:
    def test_system_shape(self):
        fam = family_from_blocks(BLOCKS7)
        assert fam.recurrence[-1] == 7  # the base
        assert len(fam.recurrence) == 3  # the width
        values = {b: decode_int(from_dense(b), fam.derived) for b in BLOCKS7}
        assert sorted(values.values()) == list(range(7))
        assert values[(1, 1, 1)] == 6

    def test_rows_frozen(self):
        fam = family_from_blocks(BLOCKS7)
        assert fam.row(2) == CoeffFn({1: 1})
        assert fam.row(3) == CoeffFn({2: 1})
        assert fam.row(4) == CoeffFn({1: 1, 2: 1, 3: 1})
        assert fam.row(5) == CoeffFn({1: 1, 2: 1, 3: 1, 4: 1})
        assert fam.row(7) == CoeffFn({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
        assert fam.row(8) == CoeffFn({1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1})

    def test_derived_values_frozen(self):
        seq = FundamentalSeq.from_family(family_from_blocks(BLOCKS7))
        assert seq.upto(9) == [1, 2, 3, 7, 14, 21, 49, 98, 147]

    def test_validation(self):
        with pytest.raises(FamilyError):
            family_from_blocks([])
        with pytest.raises(FamilyError):
            family_from_blocks([(0, 0), (0, 1, 0)])
        with pytest.raises(FamilyError):
            family_from_blocks([(0, 0), (0, -1)])
        with pytest.raises(FamilyError):
            family_from_blocks([(0, 1), (1, 0)])  # zero block missing
        with pytest.raises(FamilyError):
            family_from_blocks([(0, 0), (0, 1), (0, 1)])
        with pytest.raises(FamilyError):
            family_from_blocks([(0, 0), (0, 1)])  # nothing with top at position 1
        with pytest.raises(FamilyError):
            family_from_blocks([(0,), (2,)])  # values {0, 2} are not 0..base-1
        for digit in (1.5, True):  # not read as BLOCKS7's block (1, 0, 0)
            with pytest.raises(FamilyError, match=f"^blocks: block digit {digit} is not an integer$"):
                family_from_blocks([(digit, 0, 0) if b == (1, 0, 0) else b for b in BLOCKS7])


class TestVerifyRecurrence:
    def test_holds(self, fib):
        assert verify_recurrence(fib.sequence, (1, 1), 3, 40) == []

    def test_mismatches_reported(self, fib):
        bad = verify_recurrence(fib.sequence, (2, 1), 3, 6)
        assert [n for n, _, _ in bad] == [3, 4, 5, 6]
        n, lhs, rhs = bad[0]
        assert (lhs, rhs) == (3, 5)

    def test_callable_coeffs(self, index_bounded):
        assert verify_recurrence(
            index_bounded.sequence, [lambda n: n - 1, 1], 3, 40
        ) == []

    def test_start_too_low(self, fib):
        with pytest.raises(ValueError):
            verify_recurrence(fib.sequence, (1, 1), 2, 10)

    def test_nothing_to_check_is_refused(self, fib):
        # no coefficients would compare every term with 0, and an empty range
        # would claim the recurrence holds without reading a term
        with pytest.raises(ValueError, match=re.escape("nothing to check: 0 coefficients on [3, 10]")):
            verify_recurrence(fib.sequence, (), 3, 10)
        with pytest.raises(ValueError, match=re.escape("nothing to check: 2 coefficients on [5, 2]")):
            verify_recurrence(fib.sequence, (1, 1), 5, 2)
        assert verify_recurrence(fib.sequence, (1, 1), 5, 5) == []


def random_multiplicity_lists(count: int) -> list[tuple[int, ...]]:
    """Distinct valid multiplicity lists, N <= 5 and entries <= 9, from a fixed seed."""
    rng, found = random.Random(11), []
    while len(found) < count:
        e = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5)))
        if e[0] and e[-1] and (len(e) > 1 or e[0] >= 2) and e not in found:
            found.append(e)
    return found


def random_neg_recurrences(count: int) -> list[tuple[int, ...]]:
    """Distinct valid neg-recurrence coefficients, 2 to 5 of them in [-9, 9], c_1 >= 2
    and every partial sum positive, from a fixed seed."""
    rng, found = random.Random(12), []
    while len(found) < count:
        c = (rng.randint(2, 9),) + tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if min(accumulate(c)) >= 1 and c not in found:
            found.append(c)
    return found


STATED = {
    "fib": lambda: load_fixture("fib").family,
    "mult-2-3": lambda: MultiplicityList((2, 3)).predecessor_family(),
    "mult-11-3": lambda: MultiplicityList((11, 3)).predecessor_family(),
    "rec-3-1": lambda: load_fixture("rec-3-1").family,
    "rec-8-2-3": lambda: load_fixture("rec-8-2-3").family,
    "blocks7": lambda: load_fixture("blocks7").family,
    **{f"L{e}": (lambda e=e: MultiplicityList(e).predecessor_family()) for e in random_multiplicity_lists(50)},
    **{f"rec{c}": (lambda c=c: family_from_neg_recurrence(c)) for c in random_neg_recurrences(50)},
}


class TestStatedRecurrence:
    """The recurrence a builder states, against every term as its row sum."""

    def test_stated_coefficients(self):
        assert STATED["fib"]().recurrence == (1, 1)
        assert STATED["mult-11-3"]().recurrence == (11, 3)
        assert STATED["rec-8-2-3"]().recurrence == (8, -2, -3)
        assert STATED["blocks7"]().recurrence == (0, 0, 7)
        unstated = [factorial_family(), index_bounded_family(), j_plus_family(3), family_from_table([[1], [0, 1]]),
                    family_from_sequence([1, 2, 4]), family_from_tail_rule([1], lambda j: j % 2)]
        assert [fam.recurrence for fam in unstated] == [None] * 6

    @pytest.mark.parametrize("name", list(STATED))
    def test_matches_the_row_sums(self, name):
        fam = STATED[name]()
        assert FundamentalSeq.from_family(fam).upto(2000) == derived_by_row_sums(STATED[name](), 2000)
        # rows 2..r at most: every later term is the recurrence's (blocks: the seed rows 2..N+1)
        assert len(fam._parts) <= len(fam.recurrence)

    def test_a_cold_term_builds_no_row(self):
        fam = load_fixture("fib").family
        FundamentalSeq.from_family(fam).value(2000)
        assert len(fam._parts) <= 2
