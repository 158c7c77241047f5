from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecknum import load_fixture
from zecknum.blocks import FamilyError, is_member_asc
from zecknum.coeff import ZERO, CoeffFn
from zecknum.integers import (
    FundamentalSeq,
    NotRepresentableError,
    decode_int,
    encode_int,
    enumerate_subset,
    reconstruct_sequence,
    shift_value,
)
from zecknum.recurrences import pinned_radix_seq

from conftest import INTEGER_FIXTURES, get_system


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

    def test_bounded_table(self):
        seq = FundamentalSeq([1, 2, 3])
        assert seq.bounded
        assert seq.value(3) == 3
        with pytest.raises(IndexError):
            seq.value(4)
        with pytest.raises(IndexError):
            seq.value(0)

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
        with pytest.raises(FamilyError):
            FundamentalSeq([5, 3]).find_top(4)

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
        seq = load_fixture(name).sequence  # fresh: the samples extend it
        seq.upto(30)
        if not seq.increasing:
            with pytest.raises(FamilyError):
                seq.find_top(seq.value(1))
            return
        samples = {0} | {seq.value(n) + d for n in range(1, 31) for d in (-1, 0, 1)}
        for x in sorted(samples):
            assert seq.top_below(x) == seq.find_top(x), x

    def test_top_below_is_find_top_on_a_bounded_table(self):
        seq = FundamentalSeq([1, 2, 3, 5, 8])
        for x in range(12):
            assert seq.top_below(x) == seq.find_top(x), x

    def test_top_below_non_monotone(self):
        seq = pinned_radix_seq(3)
        assert seq.upto(8) == [5, 6, 7, 4, 8, 12, 16, 20]
        assert seq.top_below(7) == 4
        assert seq.top_below(3) == 0
        assert seq.top_below(100) == 28  # Q_28 = 4 * 25 = 100 is the last hit
        assert seq.value(28) == 100


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
