from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecknum import blocks, load_fixture
from zecknum.blocks import FamilyError, WalkLimitError, is_member_asc
from zecknum.coeff import ZERO, CoeffFn, TableEndError
from zecknum.integers import (
    FundamentalSeq,
    NotRepresentableError,
    decode_int,
    encode_int,
    enumerate_subset,
    shift_value,
)
from zecknum.recurrences import pinned_radix_seq

from conftest import INTEGER_FIXTURES, get_system, reconstruct_sequence, top_ref

# dips longer than 16 terms: Q_22 = 2 after twenty terms of 1000, and a
# depth-21 recurrence whose last seed Q_21 = 1 follows nineteen of them
LONG_DIPS = {
    "table": lambda: FundamentalSeq([1, *[1000] * 20, 2]),
    "depth-21": lambda: FundamentalSeq.from_linear([3, *[1000] * 19, 1], [*[0] * 19, 1, 1]),
}

# linear recurrences with a negative coefficient whose terms past the seeds
# provably never fall: every other Fibonacci number, fib's own sequence, the odd numbers
NEGATIVE_WITH_A_RULE = {
    "3,-1": lambda: FundamentalSeq.from_linear([1, 2], [3, -1]),
    "2,0,-1": lambda: FundamentalSeq.from_linear([1, 2, 3], [2, 0, -1]),
    "1,1,-1": lambda: FundamentalSeq.from_linear([1, 3, 5], [1, 1, -1]),
}


class TestFundamentalSeq:
    def test_rejects_bad_terms(self):
        with pytest.raises(FamilyError):
            FundamentalSeq([1, 0, 3])
        with pytest.raises(FamilyError):
            FundamentalSeq([1, -2])
        with pytest.raises(FamilyError):
            FundamentalSeq([1, 2.5])  # type: ignore[list-item]
        with pytest.raises(FamilyError):
            FundamentalSeq([])
        with pytest.raises(FamilyError, match=r"^Q: term 1 is True, need a positive integer$"):
            FundamentalSeq([True, 2, 3])  # an int subclass, but no term

    def test_bounded_table(self):
        seq = FundamentalSeq([1, 2, 3])
        assert seq.value(3) == 3
        with pytest.raises(IndexError):
            seq.value(4)
        with pytest.raises(IndexError):
            seq.value(0)

    def test_table_end_is_its_own_error(self):
        # a config fault, so a FamilyError; an IndexError still, for the readers that catch one
        with pytest.raises(TableEndError, match="^Q: bounded table of 3 terms, index 4$") as exc:
            FundamentalSeq([1, 2, 3]).value(4)
        assert isinstance(exc.value, FamilyError) and isinstance(exc.value, IndexError)
        with pytest.raises(IndexError) as exc:
            FundamentalSeq([1, 2, 3]).value(0)
        assert not isinstance(exc.value, ValueError)  # an index below 1 is the caller's bug

    def test_upto_and_len(self):
        seq = FundamentalSeq([1], lambda n, s: s.value(n - 1) * 2)
        assert seq.upto(5) == [1, 2, 4, 8, 16]
        assert len(seq) == 5

    def test_increasing_flag(self):
        assert FundamentalSeq([1, 2, 3]).increasing
        assert not FundamentalSeq([5, 6, 7, 4]).increasing

    def test_from_linear(self):
        seq = FundamentalSeq.from_linear([1, 2], [1, 1])
        assert seq.upto(8) == [1, 2, 3, 5, 8, 13, 21, 34]

    @pytest.mark.parametrize("seeds,coeffs", [([1, 2], [1, 1, -1]), ([], [1]), ([4], [0, 1])])
    def test_from_linear_needs_a_seed_per_coefficient(self, seeds, coeffs):
        # the first term past the seeds would read Q_0
        message = f"Q: {len(seeds)} seeds for {len(coeffs)} coefficients; a linear sequence needs a seed per coefficient"
        with pytest.raises(FamilyError, match=f"^{re.escape(message)}$"):
            FundamentalSeq.from_linear(seeds, coeffs)

    @pytest.mark.parametrize("seeds", [[], [1, 2]])
    def test_from_linear_needs_a_coefficient(self, seeds):
        with pytest.raises(FamilyError, match="^Q: a linear sequence needs at least one coefficient$"):
            FundamentalSeq.from_linear(seeds, [])

    def test_derived_fibonacci(self, fib):
        assert fib.sequence.upto(10) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


class TestFindTop:
    def test_frozen(self, fib):
        seq = fib.sequence
        assert seq.find_top(0) == 0
        assert seq.find_top(1) == 1
        assert seq.find_top(4) == 3
        assert seq.find_top(5) == 4
        assert seq.find_top(100) == 10

    def test_bounded_table_edge(self):
        seq = FundamentalSeq([1, 2, 3])
        assert seq.find_top(99) == 3
        assert seq.find_top(2) == 2

    def test_requires_increasing(self):
        # a bounded table is scanned whole, in any order
        assert FundamentalSeq([5, 3]).find_top(4) == 2

    def test_lazy_dip_stops_the_search(self):
        seq = FundamentalSeq([1, 2], lambda n, s: 1 if n == 6 else 10 * n)
        with pytest.raises(FamilyError):
            seq.find_top(50)
        assert len(seq) == 6  # extension stopped at the first decreasing term

    @given(st.integers(0, 10**6))
    def test_against_scan(self, x):
        seq = FundamentalSeq.from_linear([1, 2], [1, 1])
        n = seq.find_top(x)
        if n == 0:
            assert x < seq.value(1)
        else:
            assert seq.value(n) <= x
            assert seq.value(n + 1) > x

    @pytest.mark.parametrize("name", INTEGER_FIXTURES)
    def test_top_below_is_find_top_on_increasing_sequences(self, name):
        """find_top against the oracle on every sequence of the fixture."""
        for label in get_system(name).sequences:
            self.check_against_oracle(load_fixture(name).seq(label), load_fixture(name).seq(label), name)

    def test_top_below_is_find_top_on_a_bounded_table(self):
        seq = FundamentalSeq([1, 2, 3, 5, 8])
        for x in range(12):
            assert seq.find_top(x) == top_ref(seq, x), x

    def test_top_below_non_monotone(self):
        seq = pinned_radix_seq(3)
        assert seq.upto(8) == [5, 6, 7, 4, 8, 12, 16, 20]
        assert seq.find_top(7) == 4
        assert seq.find_top(3) == 0
        assert seq.find_top(100) == 28  # Q_28 = 4 * 25 = 100 is the last hit
        assert seq.value(28) == 100

    @pytest.mark.parametrize("name", LONG_DIPS)
    def test_long_dips_match_the_oracle(self, name):
        self.check_against_oracle(LONG_DIPS[name](), LONG_DIPS[name](), name)

    @pytest.mark.parametrize("name", NEGATIVE_WITH_A_RULE)
    def test_negative_coefficients_with_a_rule_match_the_oracle(self, name):
        self.check_against_oracle(NEGATIVE_WITH_A_RULE[name](), NEGATIVE_WITH_A_RULE[name](), name)

    @pytest.mark.parametrize(
        "seeds,coeffs",
        [
            ([1, 5, 2], [1, 1, -1]),  # falling seeds: 1, 5, 2, 6, 3, 7, 4, ...
            ([3, 2], [3, -1]),  # falling seeds, then 3, 7, 18, ...
            ([1, 2], [2, -2]),  # coefficient sum 0
            ([1, 2, 3], [1, -1, 1]),  # tail sum T_1 = 0, T_2 = 1 > 0
        ],
    )
    def test_negative_coefficients_without_a_rule_are_refused(self, seeds, coeffs):
        seq = FundamentalSeq.from_linear(seeds, coeffs)
        for x in (0, 5, 10**6):
            with pytest.raises(FamilyError, match="no growth rule"):
                seq.find_top(x)
        assert len(seq) == len(seeds)  # refused before any term is computed

    def test_forward_scan_stops_at_the_window(self):
        # blocks7's alt sequence drops past its seeds (14, 7, 21, 98, 49, ...):
        # a small top after a large one reads only the first terms
        seq = FundamentalSeq.from_linear([2, 1, 3], [0, 0, 7])
        assert seq.find_top(10**40) == top_ref(seq, 10**40)
        seq._vals[60:] = [1] * (len(seq) - 60)  # a scan past the window would see these
        assert seq.find_top(13) == 5

    @staticmethod
    def check_against_oracle(fresh, long, seed):
        """find_top on a sequence it extends itself, and on one the oracle has
        extended to its horizon: for x up to 3000, at and next to each of the
        first 30 terms, and seeded larger x below the horizon's last term."""
        top_ref(long, 0)
        rng, last = random.Random(seed), long.value(len(long))
        near = {v + d for v in long.upto(min(30, len(long))) for d in (-1, 0, 1)}
        large = {rng.getrandbits(rng.randrange(1, last.bit_length())) for _ in range(200)}
        for x in sorted({*range(3001), *near, *large}):
            assert fresh.find_top(x) == long.find_top(x) == top_ref(long, x), x


class TestDecode:
    def test_decode_is_plain_sum(self, fib):
        assert decode_int(ZERO, fib.sequence) == 0
        assert decode_int(CoeffFn.parse("3:1,5:1,10:1"), fib.sequence) == 100
        # decode does not check membership
        assert decode_int(CoeffFn.parse("1:1,2:1"), fib.sequence) == 3

    def test_shift_value(self, fib):
        assert shift_value(CoeffFn.parse("3:1,5:1,10:1"), fib.sequence) == 162
        assert shift_value(ZERO, fib.sequence) == 0


class TestEncode:
    def test_fibonacci_frozen(self, fib):
        assert encode_int(100, fib.family, fib.sequence).render() == "3:1,5:1,10:1"
        assert encode_int(0, fib.family, fib.sequence) == ZERO

    def test_negative_rejected(self, fib):
        with pytest.raises(ValueError):
            encode_int(-1, fib.family, fib.sequence)

    @pytest.mark.parametrize("name", ["fib", "index-bounded", "rec-3-1",
                                      "rec-8-2-3", "blocks7", "factorial"])
    def test_round_trip_derived(self, name):
        sys_ = get_system(name)
        for x in list(range(200)) + [991, 5000, 48271, 10**5]:
            mu = encode_int(x, sys_.family, sys_.sequence)
            assert decode_int(mu, sys_.sequence) == x
            assert is_member_asc(mu, sys_.family)

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_round_trip_large_fib(self, x):
        sys_ = get_system("fib")
        mu = encode_int(x, sys_.family, sys_.sequence)
        assert decode_int(mu, sys_.sequence) == x
        assert is_member_asc(mu, sys_.family)

    def test_scaled_values_not_representable(self, seven_scaled):
        fam, seq = seven_scaled.family, seven_scaled.sequence
        assert decode_int(encode_int(700, fam, seq), seq) == 700
        for x in (1, 6, 10, 705):
            with pytest.raises(NotRepresentableError):
                encode_int(x, fam, seq)

    def test_walk_fallback_frozen(self, pin_3):
        fam, seq = pin_3.family, pin_3.sequence
        assert encode_int(23, fam, seq).render() == "3:1,7:1"
        assert encode_int(0, fam, seq) == ZERO
        for x in (1, 2, 3):
            with pytest.raises(NotRepresentableError):
                encode_int(x, fam, seq)

    def test_walk_fallback_round_trip(self, pin_3):
        fam, seq = pin_3.family, pin_3.sequence
        for x in range(4, 60):
            mu = encode_int(x, fam, seq)
            assert decode_int(mu, seq) == x
            assert is_member_asc(mu, fam)


class TestEnumerateSubset:
    def test_blocks7_covers(self, blocks7):
        report = enumerate_subset(blocks7.family, blocks7.sequence, 200)
        assert report.collision is None
        assert report.covers_all_below_bound()
        assert len(report.pairs) == 201

    def test_pin3_covers_with_offset(self, pin_3):
        report = enumerate_subset(pin_3.family, pin_3.sequence, 40)
        assert report.collision is None
        assert report.values() == [0] + list(range(4, 41))
        assert not report.covers_all_below_bound()

    def test_collision_detected(self, mult_11_3):
        report = enumerate_subset(mult_11_3.family, mult_11_3.sequence, 200)
        assert report.collision is not None
        value, first, second = report.collision
        assert value == 114
        assert first.render() == "1:6"
        assert second.render() == "2:8,3:1"

    def test_bad_bound(self, fib):
        with pytest.raises(ValueError):
            enumerate_subset(fib.family, fib.sequence, -1)


class TestLongValues:
    """Values past Python's int/str conversion limit are named in messages by
    their first 20 digits and their digit count."""

    def test_refusal_reaches_the_greedy(self, seven_scaled):
        # the bounded search's refusal names x, then the greedy names its remainder
        with pytest.raises(NotRepresentableError, match="^4 is below every basis value of Q$"):
            encode_int(10**5000 + 2, seven_scaled.family, seven_scaled.sequence)

    def test_node_budget_names_a_long_value(self, monkeypatch, mult_2_3):
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 4)
        with pytest.raises(WalkLimitError) as exc:
            encode_int(10**5000 + 1, mult_2_3.family, mult_2_3.sequence)
        msg = str(exc.value)
        assert len(msg) < 200 and "encoding 10000000000000000000... (5,001 digits) visits" in msg


class TestReconstruct:
    def test_fibonacci(self, fib):
        values = [v for _, v in enumerate_subset(fib.family, fib.sequence, 100).pairs]
        assert reconstruct_sequence(fib.family, values, 10) == fib.sequence.upto(10)

    def test_fibonacci_20_terms(self, fib):
        values = range(fib.sequence.value(20) + 1)
        assert reconstruct_sequence(fib.family, values, 20) == fib.sequence.upto(20)

    def test_scaled(self, seven_scaled):
        values = range(0, 701, 7)
        rebuilt = reconstruct_sequence(seven_scaled.family, values, 8)
        assert rebuilt == seven_scaled.sequence.upto(8)

    def test_exhausted_value_set(self, fib):
        with pytest.raises(NotRepresentableError):
            reconstruct_sequence(fib.family, [0, 1, 2], 4)
