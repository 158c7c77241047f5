from __future__ import annotations

import pytest
from conftest import count_upto_order, members_upto_order
from hypothesis import given, settings
from hypothesis import strategies as st

from zecknum.coeff import CoeffFn
from zecknum.integers import FundamentalSeq, decode_int
from zecknum.recurrences import MultiplicityList
from zecknum.uniqueness import check_unique, check_unique_multiplicity


class TestCheckUnique:
    def test_fibonacci_clean(self, fib):
        report = check_unique(fib.family, fib.sequence, 8)
        assert report.ok
        assert report.complete
        assert report.collision is None
        assert report.members_seen == 55
        assert report.nonzero_members == 54
        assert report.distinct_values == 55

    def test_collision_stops_walk(self, mult_11_3):
        report = check_unique(mult_11_3.family, mult_11_3.sequence, 8)
        assert not report.ok
        assert not report.complete
        value, first, second = report.collision
        assert value == 114
        assert first == CoeffFn.parse("1:6")
        assert second == CoeffFn.parse("2:8,3:1")
        # the walk stopped at the collision, well short of four periods
        assert report.members_seen < 1000

    def test_collision_walk_can_continue(self, mult_11_3):
        report = check_unique(
            mult_11_3.family, mult_11_3.sequence, 2, stop_at_collision=False
        )
        assert report.complete
        assert report.collision is None or report.collision[0] >= 114

    def test_full_walk_counts_every_distinct_value(self, mult_11_3):
        fam, seq = mult_11_3.family, mult_11_3.sequence
        report = check_unique(fam, seq, 3, stop_at_collision=False)
        values = [decode_int(mu, seq) for mu in members_upto_order(fam, 3)]
        assert report.complete
        assert report.members_seen == len(values) == 1521
        assert report.distinct_values == len(set(values)) == 1086
        assert report.collision[0] == 114


class TestCheckUniqueMultiplicity:
    def test_clean_pair(self):
        report = check_unique_multiplicity((2, 3), (5, 3))
        assert report.order_cap == 8
        assert report.members_seen == 6561
        assert report.nonzero_members == 6560
        assert report.distinct_values == 6561
        assert report.ok

    def test_shortcut_cap(self):
        report = check_unique_multiplicity((2, 3), (5, 3), shortcut=True)
        assert report.order_cap == 4
        assert report.members_seen == 81
        assert report.ok

    def test_colliding_pair(self):
        report = check_unique_multiplicity((11, 3), (19, 3))
        assert report.collision is not None
        assert report.collision[0] == 114

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
            lambda e: len(e) > 1 or e[0] >= 2
        )
    )
    def test_derived_sequences_always_unique(self, e):
        # a sequence derived from its own family never collides
        ml = MultiplicityList(tuple(e))
        fam = ml.predecessor_family()
        seq = FundamentalSeq.from_family(fam)
        report = check_unique(fam, seq, 2 * ml.period)
        assert report.ok
        # derived values make the members count the integers exactly
        assert report.distinct_values == seq.value(2 * ml.period + 1)


class TestCountUptoOrder:
    def test_fibonacci_counts(self, fib):
        got = [count_upto_order(fib.family, k) for k in range(7)]
        assert got == [1, 2, 3, 5, 8, 13, 21]

    def test_filtered(self, fib):
        # the members of order exactly 4: those of order <= 4 less those of order <= 3
        assert count_upto_order(fib.family, 4) - count_upto_order(fib.family, 3) == 3

    def test_negative_cap_rejected(self, fib):
        with pytest.raises(ValueError, match="order cap"):
            count_upto_order(fib.family, -1)
