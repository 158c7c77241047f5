"""The order kernel against walking the members and decoding each one.

order_values (order_members, under a value bound) builds the members' values
one order at a time; the walk (walk_asc), with each member's value summed
here from its digits, is the reference, failures included.  The probes built
on the kernel (collision checks, subsets, the converse probe, the encoder for
sequences that are not increasing) must answer, and fail, exactly as the
walk-and-decode references in conftest.
"""

from __future__ import annotations

import random
import re
from itertools import islice

import pytest
from conftest import (
    INTEGER_FIXTURES,
    check_unique_padic_ref,
    check_unique_ref,
    encode_int_ref,
    enumerate_subset_ref,
    get_system,
    top_ref,
    weak_converse_probe_ref,
)

from zecknum import blocks, uniqueness
from zecknum.blocks import (
    FamilyError,
    WalkLimitError,
    enumerate_asc,
    members_upto_order,
    order_members,
    order_values,
    successor_asc,
    walk_asc,
)
from zecknum.coeff import CoeffFn
from zecknum.integers import (
    FundamentalSeq,
    NotRepresentableError,
    SubsetReport,
    decode_int,
    encode_int,
    enumerate_subset,
)
from zecknum.padic import check_unique_padic, eval_padic, weak_converse_probe
from zecknum.recurrences import MultiplicityList, family_from_table
from zecknum.uniqueness import check_unique, count_upto_order

FIB = MultiplicityList((1, 1)).predecessor_family()

# order caps that keep each full walk to a few thousand members
CAPS = {"fib": 16, "index-bounded": 6, "rec-3-1": 8, "rec-8-2-3": 4, "blocks7": 12, "factorial": 6,
        "mult-2-3": 8, "mult-11-3": 3, "pin-3": 500, "seven-scaled": 13, "golden-41": 16, "padic-5-20": 5}
PADIC_FIXTURES = ("golden-41", "padic-5-20")
# the integer fixtures whose sequence is not increasing, each with the values
# its encode sweeps run to (a pin-3 encode near 3,000 takes about 25 ms)
NOT_INCREASING = {"pin-3": 1000, "mult-11-3": 1500, "mult-2-3": 3000}


def counts(fam, cap):
    """Members of order < n for n = 1..cap+1: the derived sequence's terms."""
    return FundamentalSeq.from_family(fam).upto(cap + 1)


def labelled(names):
    return [(name, label) for name in names for label in get_system(name).sequences]


def outcome(call, *args):
    """A call's result, or its exception's class and message."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def summed_walk(fam, q, **kwargs):
    """The walk's (value, digits top first), each value summed here from the
    digits: Q_n is first read at basis(n), as the kernels read it."""
    return ((sum(d * q(k) for k, d in digits), digits) for digits in walk_asc(fam, **kwargs))


class TestCarriedValue:
    """The walk resumed at any member, with its members' values summed from
    their digits, against the members walked from zero and decoded."""

    @pytest.mark.parametrize("name", INTEGER_FIXTURES)
    def test_integer_fixtures(self, name):
        s = get_system(name)
        members = list(islice(enumerate_asc(s.family), 10**4))
        for label, seq in s.sequences.items():
            for i in (0, 1234, 5000, 8765):
                walk = islice(summed_walk(s.family, seq.value, start=members[i]), 10**4 - i)
                got = [(v, CoeffFn._trusted(tuple(digits[::-1]))) for v, digits in walk]
                assert got == [(decode_int(mu, seq), mu) for mu in members[i:]], (label, i)

    @pytest.mark.parametrize("name", ["golden-41", "padic-5-20"])
    def test_padic_fixtures(self, name):
        s = get_system(name)
        members = list(islice(enumerate_asc(s.family), 10**4))
        for seq in s.sequences.values():
            got = [v % seq.modulus for v, _ in islice(summed_walk(s.family, seq.value), 10**4)]
            assert got == [eval_padic(mu, seq) for mu in members]


def flat(orders):
    """order_values' steps as one stream: each step's new tail, in order."""
    start = 0
    for values in orders:
        yield from values[start:]
        start = len(values)


class TestOrderValues:
    """order_values against the walk: the same values in the same order,
    each step ending where the walk's next order begins."""

    def steps(self, fam, q, cap, modulus=None):
        lengths = [len(values) for values in order_values(fam, q, cap, modulus)]
        *_, values = order_values(fam, q, cap, modulus)
        return lengths, values

    def walked(self, fam, q, cap):
        walk = [(v, digits[0][0] if digits else 0) for v, digits in summed_walk(fam, q, cap=cap)]
        return [sum(order <= n for _, order in walk) for n in range(cap + 1)], [v for v, _ in walk]

    @pytest.mark.parametrize("name,label", labelled(INTEGER_FIXTURES))
    def test_integer_fixtures(self, name, label):
        s = get_system(name)
        fam, q, cap = s.family, s.seq(label).value, CAPS[name]
        lengths, values = self.steps(fam, q, cap)
        assert (lengths, values) == self.walked(fam, q, cap)
        assert counts(fam, cap) == lengths

    @pytest.mark.parametrize("name,label", labelled(["golden-41", "padic-5-20"]))
    def test_padic_fixtures(self, name, label):
        s = get_system(name)
        fam, seq = s.family, s.seq(label)
        for cap in range(6):
            lengths, values = self.steps(fam, seq.value, cap, seq.modulus)
            walk_lengths, walked_values = self.walked(fam, seq.value, cap)
            assert lengths == walk_lengths
            assert values == [v % seq.modulus for v in walked_values]


class TestCounts:
    """The derived Q_{k+1} counts the members of order <= k: count_upto_order
    and order_values' steps read it off, the walk agrees."""

    @pytest.mark.parametrize("name", INTEGER_FIXTURES + PADIC_FIXTURES)
    def test_every_fixture_family(self, name):
        s = get_system(name)
        fam, cap = s.family, CAPS[name]
        want = counts(fam, cap)
        assert [count_upto_order(fam, k) for k in range(cap + 1)] == want
        assert sum(1 for _ in members_upto_order(fam, cap)) == want[-1]
        for seq in s.sequences.values():
            modulus = getattr(seq, "modulus", None)
            assert [len(values) for values in order_values(fam, seq.value, cap, modulus)] == want


class TestUnrank:
    """A member's lex rank is its derived value: the collision witnesses are
    encode_int of their ranks on the derived sequence."""

    @pytest.mark.parametrize("name", INTEGER_FIXTURES)
    def test_every_rank_of_the_walk(self, name):
        fam, cap = get_system(name).family, CAPS[name]
        derived, walk = FundamentalSeq.from_family(fam), list(members_upto_order(fam, cap))
        assert [encode_int(rank, fam, derived) for rank in range(len(walk))] == walk
        assert [decode_int(mu, derived) for mu in walk] == list(range(len(walk)))

    @pytest.mark.parametrize("name", INTEGER_FIXTURES + PADIC_FIXTURES)
    def test_random_ranks_at_twice_the_cap(self, name):
        # rank r + 1 is the lex successor of rank r, and the last rank below
        # Q_{cap+1} is the last member of order <= cap
        fam, cap = get_system(name).family, 2 * CAPS[name]
        derived, rng = FundamentalSeq.from_family(fam), random.Random(name)
        end = derived.value(cap + 1)
        for rank in (*(rng.randrange(end - 1) for _ in range(200)), end - 1):
            mu = encode_int(rank, fam, derived)
            assert decode_int(mu, derived) == rank
            assert successor_asc(mu, fam) == encode_int(rank + 1, fam, derived)
        assert (mu.order_asc, encode_int(end, fam, derived).order_asc) == (cap, cap + 1)


class TestOrderMembers:
    """order_members, under enumerate_subset, against the filtered walk."""

    @pytest.mark.parametrize("name,label", labelled(INTEGER_FIXTURES))
    def test_random_bounds(self, name, label):
        s = get_system(name)
        fam, seq = s.family, s.seq(label)
        rng = random.Random(f"{name}/{label}")
        for bound in (0, seq.value(1) - 1, *(rng.randrange(5001) for _ in range(24))):
            assert enumerate_subset(fam, seq, bound) == enumerate_subset_ref(fam, seq, bound), bound

    @pytest.mark.parametrize("name,label", labelled(INTEGER_FIXTURES))
    def test_a_bound_over_every_value_keeps_every_member(self, name, label):
        s = get_system(name)
        fam, q, cap = s.family, s.seq(label).value, CAPS[name]
        *_, values = order_values(fam, q, cap)
        kept = order_members(fam, q, cap, max(values))
        assert [v for _, v in kept] == values
        assert [CoeffFn._trusted(pairs) for pairs, _ in kept] == list(members_upto_order(fam, cap))

    def test_member_limit_counts_the_members_kept(self, monkeypatch):
        s = get_system("mult-11-3")  # 188 members worth at most 200, of 1521 up to order 3
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 188)
        assert len(enumerate_subset(s.family, s.sequence, 200).pairs) == 188
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 187)
        with pytest.raises(WalkLimitError, match="^more than 187 members have value <= 200; lower the bound$"):
            enumerate_subset(s.family, s.sequence, 200)


class TestLimitAtLevelBoundaries:
    """MEMBER_LIMIT on each order's last member and either side of it: the
    collision checks, stopping or not, and the plain count refuse or answer
    as the walk does."""

    @staticmethod
    def limits(fam, cap):
        return sorted({b + d for b in counts(fam, cap) for d in (-1, 0, 1)} - {0})

    @staticmethod
    def outcome(f):
        try:
            return f()
        except WalkLimitError as exc:
            return str(exc)

    @pytest.mark.parametrize("name", ["fib", "mult-2-3", "mult-11-3"])
    @pytest.mark.parametrize("stop", [True, False])
    def test_check_unique(self, monkeypatch, name, stop):
        s = get_system(name)
        fam, seq = s.family, s.sequence
        for limit in self.limits(fam, 3):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            got = self.outcome(lambda: check_unique(fam, seq, 3, stop))
            assert got == self.outcome(lambda: check_unique_ref(fam, seq, 3, stop)), limit

    @pytest.mark.parametrize("name", ["golden-41", "padic-5-20"])
    @pytest.mark.parametrize("stop", [True, False])
    def test_check_unique_padic(self, monkeypatch, name, stop):
        s = get_system(name)
        fam, seq = s.family, s.sequence
        for limit in self.limits(fam, 3):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            got = self.outcome(lambda: check_unique_padic(fam, seq, 3, stop))
            assert got == self.outcome(lambda: check_unique_padic_ref(fam, seq, 3, stop)), limit

    @pytest.mark.parametrize("name", ["fib", "mult-11-3"])
    def test_count_upto_order(self, monkeypatch, name):
        fam = get_system(name).family
        for limit in self.limits(fam, 3):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            got = self.outcome(lambda: count_upto_order(fam, 3))
            assert got == self.outcome(lambda: sum(1 for _ in members_upto_order(fam, 3))), limit


class TestRefusalBeforeWork:
    """Past MEMBER_LIMIT, a check that goes on past a collision and the plain
    count refuse from the member count alone: no value is summed, no member
    walked."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("refused only after starting the work")

        monkeypatch.setattr(uniqueness, "order_values", work)
        monkeypatch.setattr(blocks, "walk_asc", work)

    def test_check_unique(self):
        s = get_system("mult-11-3")  # 2,175,057 members of order <= 6
        with pytest.raises(WalkLimitError, match="^order cap 6 walks more than 1,000,000 members; lower the cap$"):
            check_unique(s.family, s.sequence, 6, stop_at_collision=False)

    def test_check_unique_padic(self):
        s = get_system("golden-41")
        with pytest.raises(WalkLimitError, match="^order cap 40 walks more than"):
            check_unique_padic(s.family, s.sequence, 40, stop_at_collision=False)

    def test_count_upto_order(self):
        with pytest.raises(WalkLimitError, match="^order cap 12 walks more than"):
            count_upto_order(get_system("factorial").family, 12)


class TestProbesAgainstReference:
    @pytest.mark.parametrize("name,label", labelled(INTEGER_FIXTURES))
    @pytest.mark.parametrize("stop", [True, False])
    def test_check_unique(self, name, label, stop):
        s = get_system(name)
        fam, seq, cap = s.family, s.seq(label), CAPS[name]
        assert check_unique(fam, seq, cap, stop) == check_unique_ref(fam, seq, cap, stop)

    @pytest.mark.parametrize("name,label", labelled(["golden-41", "padic-5-20"]))
    @pytest.mark.parametrize("stop", [True, False])
    def test_check_unique_padic(self, name, label, stop):
        s = get_system(name)
        fam, seq = s.family, s.seq(label)
        for cap in (0, 1, 3, 5):
            assert check_unique_padic(fam, seq, cap, stop) == check_unique_padic_ref(fam, seq, cap, stop)

    @pytest.mark.parametrize("name,label", labelled(INTEGER_FIXTURES))
    def test_enumerate_subset(self, name, label):
        s = get_system(name)
        fam, seq = s.family, s.seq(label)
        for bound in (0, 1, 200, 1000):
            assert enumerate_subset(fam, seq, bound) == enumerate_subset_ref(fam, seq, bound)

    def test_encode_by_walk(self):
        # these sequences are not increasing, so encode_int searches the
        # order kernel by rank; the reference is the first member, in lex
        # order, that decodes to the value (conftest's walk, run once here;
        # the low-limit sweep below compares the refusals' texts)
        for name, end in NOT_INCREASING.items():
            s = get_system(name)
            fam, seq = s.family, s.sequence
            first = {}
            for mu in members_upto_order(fam, top_ref(seq, end - 1)):
                first.setdefault(decode_int(mu, seq), mu)
            for x in range(end):
                got = outcome(encode_int, x, fam, seq)
                if x in first:
                    assert got == first[x], (name, x)
                else:
                    assert got[0] is NotRepresentableError, (name, x)

    @pytest.mark.parametrize("name", NOT_INCREASING)
    def test_encode_by_walk_past_a_low_member_limit(self, monkeypatch, name):
        # limits at the end of the first order with 30 members or more, and
        # either side of it: each x gives the reference's member, or its
        # WalkLimitError naming the value
        s = get_system(name)
        fam, seq = s.family, s.sequence
        level = next(q for q in FundamentalSeq.from_family(fam).upto(40) if q >= 30)  # members of order < n
        for limit in (level - 1, level, level + 1):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            got = [outcome(encode_int, x, fam, seq) for x in range(600)]
            assert got == [outcome(encode_int_ref, x, fam, seq) for x in range(600)], limit
            assert got[-1] == (WalkLimitError, f"{fam.name}: encoding 599 walks more than {limit:,} members "
                               "(sequence is not increasing)")

    @pytest.mark.parametrize("cap", [0, 1, 2, 4])
    def test_weak_converse_probe(self, cap):
        pd, g = get_system("padic-5-20"), get_system("golden-41")
        for fam, a, b in ((pd.family, pd.sequences["main"], pd.sequences["alt"]),
                          (pd.family, pd.sequences["alt"], pd.sequences["alt"]),
                          (g.family, g.sequence, g.sequence)):
            assert weak_converse_probe(fam, a, b, cap) == weak_converse_probe_ref(fam, a, b, cap)


def until_error(values):
    """The values a walk gives before it raises, and the exception's type and text."""
    seen = []
    with pytest.raises(Exception) as exc:
        for v in values:
            seen.append(v)
    return seen, type(exc.value), str(exc.value)


class TestFailuresAtTheSameMember:
    """A failing walk raises the reference's exception after the same members."""

    # rows 2..4 only: stepping past basis(4) reads the missing row 5
    TABLE = family_from_table([[1], [0, 1], [1, 0, 1]])
    FIB_Q = FundamentalSeq.from_linear((1, 2), (1, 1))
    # Q_1..Q_4 only: basis(5) is the first member whose value needs a missing term
    SHORT_Q = FundamentalSeq([1, 2, 3, 5], name="short")
    # Q_4 past every bound below 100 but Q_5 under it: row 5 is read all the same
    DIP_Q = FundamentalSeq([1, 2, 3, 100, 4], name="dip")

    def both(self, fam, seq, cap):
        ref = until_error(decode_int(mu, seq) for mu in members_upto_order(fam, cap))
        assert until_error(v for v, _ in summed_walk(fam, seq.value, cap=cap)) == ref
        assert until_error(flat(order_values(fam, seq.value, cap))) == ref
        return ref[1:]

    def test_bounded_table_family(self):
        assert self.both(self.TABLE, self.FIB_Q, 6)[0] is FamilyError
        for stop in (True, False):
            with pytest.raises(FamilyError) as ref:
                check_unique_ref(self.TABLE, self.FIB_Q, 6, stop)
            with pytest.raises(FamilyError, match=re.escape(str(ref.value))):
                check_unique(self.TABLE, self.FIB_Q, 6, stop)

    def test_bounded_sequence(self):
        assert self.both(FIB, self.SHORT_Q, 6)[0] is IndexError
        with pytest.raises(IndexError) as ref:
            check_unique_ref(FIB, self.SHORT_Q, 6)
        with pytest.raises(IndexError, match=re.escape(str(ref.value))):
            check_unique(FIB, self.SHORT_Q, 6)

    @pytest.mark.parametrize("limit,error", [(8, WalkLimitError), (9, IndexError)])
    def test_member_limit_before_the_value(self, monkeypatch, limit, error):
        # fib has 8 members of order <= 4, then basis(5): the limit, when it
        # falls there, is raised before that member's missing Q_5 is read
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
        assert self.both(FIB, self.SHORT_Q, 5)[0] is error
        # a cap past the limit too: refusing from the order sizes still reads Q_5 first
        for stop in (True, False):
            with pytest.raises(error) as ref:
                check_unique_ref(FIB, self.SHORT_Q, 6, stop)
            with pytest.raises(error, match=re.escape(str(ref.value))):
                check_unique(FIB, self.SHORT_Q, 6, stop)

    @pytest.mark.parametrize(
        "fam,seq", [(TABLE, FIB_Q), (TABLE, DIP_Q), (FIB, SHORT_Q)], ids=["table", "table-dip", "short-q"]
    )
    def test_subsets(self, fam, seq):
        got = [outcome(enumerate_subset, fam, seq, bound) for bound in range(40)]
        assert got == [outcome(enumerate_subset_ref, fam, seq, bound) for bound in range(40)]
        assert (fam is self.TABLE) == any(not isinstance(g, SubsetReport) for g in got)  # the table family fails

    @pytest.mark.parametrize("values", [[1, 2, 3, 5, 4, 7], [3, 2, 5, 9]], ids=["dip", "seeds"])
    def test_encode_by_walk(self, values):
        # basis(4), the first member of order 4, is worth Q_4 and is found
        # before the walk needs the missing row 5
        seq = FundamentalSeq(values, name="not-increasing")
        got = [outcome(encode_int, x, self.TABLE, seq) for x in range(40)]
        assert got == [outcome(encode_int_ref, x, self.TABLE, seq) for x in range(40)]
        assert got[values[3]] == CoeffFn.parse("4:1")
        assert any(isinstance(g, tuple) and g[0] is FamilyError for g in got)

    def test_negative_cap(self):
        with pytest.raises(ValueError, match="order cap must be nonnegative, got -1"):
            next(walk_asc(FIB, cap=-1))


class TestWorkCounters:
    """The collision checks build only the members they report."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"trusted": 0, "init": 0}
        trusted, init = CoeffFn._trusted.__func__, CoeffFn.__init__

        def counting_trusted(cls, pairs):
            counts["trusted"] += 1
            return trusted(cls, pairs)

        def counting_init(self, *args, **kwargs):
            counts["init"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoeffFn, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(CoeffFn, "__init__", counting_init)
        return counts

    def test_clean_check_builds_nothing_per_member(self, built):
        s = get_system("mult-2-3")
        report = check_unique(s.family, s.sequence, 8)
        assert report.ok and report.members_seen == 6561
        assert built["trusted"] + built["init"] <= 2

    @pytest.mark.parametrize("stop", [True, False])
    def test_collision_builds_its_two_members(self, built, stop):
        s = get_system("mult-11-3")
        report = check_unique(s.family, s.sequence, 3, stop)
        assert built["trusted"] + built["init"] <= 2
        assert report.collision == (114, CoeffFn.parse("1:6"), CoeffFn.parse("2:8,3:1"))
        assert report.members_seen == 1521 if not stop else report.members_seen < 1521

    def test_counters_see_the_walk(self, built):
        # the counters are live: a walk that builds its members is counted
        list(islice(enumerate_asc(FIB), 50))
        assert built["trusted"] == 50
