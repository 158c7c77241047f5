"""The order kernel against walking the members and decoding each one.

order_values (order_members, under a value bound) builds the members' values
one order at a time; the walk (walk_asc, conftest's members_upto_order up to
an order cap), with each member's value summed here from its digits, is the
reference, failures included.  The probes built on the kernel (collision
checks, subsets, the converse probe) and the encoder's search for sequences
that are not increasing must answer, and fail, exactly as the
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
    members_upto_order,
    top_ref,
    weak_converse_probe_ref,
)
from test_integers import LONG_DIPS

from zecknum import blocks, load_fixture, uniqueness
from zecknum.blocks import (
    FamilyError,
    WalkLimitError,
    enumerate_asc,
    order_members,
    order_values,
    successor_asc,
    walk_asc,
)
from zecknum.coeff import CoeffFn, TableEndError
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
# the integer fixtures whose sequence is not increasing
NOT_INCREASING = ("pin-3", "mult-11-3", "mult-2-3")


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


def summed_members(fam, q, cap):
    """members_upto_order's (value, order), each value summed as summed_walk sums it."""
    members = members_upto_order(fam, cap)
    return ((sum(d * q(k) for k, d in reversed(mu.items())), mu.order_asc) for mu in members)


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
        walk = list(summed_members(fam, q, cap))
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


class TestOneDerivedSequence:
    """A family keeps its derived sequence: the counts, the unranks and a
    derived fixture's sequence are one object, built once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count, init = [0], FundamentalSeq.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(FundamentalSeq, "__init__", counting_init)
        return count

    @pytest.mark.parametrize("name", ["fib", "index-bounded", "rec-3-1", "rec-8-2-3", "blocks7", "factorial"])
    def test_derived_fixture(self, name):
        s = load_fixture(name)
        assert FundamentalSeq.from_family(s.family) is FundamentalSeq.from_family(s.family) is s.sequence

    def test_collision_checks_and_counts_build_it_once(self, builds):
        s = load_fixture("mult-11-3")
        fam, seq = s.family, s.sequence
        before = builds[0]
        for stop in (True, False, True):
            assert check_unique(fam, seq, 3, stop).collision == (114, CoeffFn.parse("1:6"), CoeffFn.parse("2:8,3:1"))
        assert count_upto_order(fam, 3) == 1521
        assert encode_int(114, fam, seq) == CoeffFn.parse("1:6")
        assert builds[0] - before == 1

    def test_encode_off_it_builds_none(self, builds):
        # the search on a sequence that is not the derived one unranks nothing
        s = load_fixture("pin-3")
        fam, seq = s.family, s.sequence
        before = builds[0]
        for x in (2900, 2950, 2999):
            mu = encode_int(x, fam, seq)
            assert decode_int(mu, seq) == x
        assert builds[0] == before and fam.derived is None


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
        assert [mu for mu, _ in kept] == list(members_upto_order(fam, cap))

    def test_member_limit_counts_the_members_kept(self, monkeypatch):
        s = get_system("mult-11-3")  # 188 members worth at most 200, of 1521 up to order 3
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 188)
        assert len(enumerate_subset(s.family, s.sequence, 200).pairs) == 188
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 187)
        with pytest.raises(WalkLimitError, match="^more than 187 members have value <= 200; lower the bound$"):
            enumerate_subset(s.family, s.sequence, 200)

    def test_member_limit_counts_the_last_run(self, monkeypatch):
        # fib's 13 members worth at most 12 end with order 5's last run, row
        # 6 over zero: 1:1,3:1,5:1 = 12, the one member of that run
        s = get_system("fib")
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 13)
        report = enumerate_subset(s.family, s.sequence, 12)
        assert len(report.pairs) == 13 and report.pairs[-1] == (CoeffFn.parse("1:1,3:1,5:1"), 12)
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", 12)
        with pytest.raises(WalkLimitError, match="^more than 12 members have value <= 12; lower the bound$"):
            enumerate_subset(s.family, s.sequence, 12)

    @pytest.mark.parametrize("name", ["fib", "pin-3", "mult-11-3", "blocks7"])
    def test_every_bound(self, name):
        # every bound up to 200 ends the build at another run of some row
        s = get_system(name)
        fam, seq = s.family, s.sequence
        for bound in range(201):
            assert enumerate_subset(fam, seq, bound) == enumerate_subset_ref(fam, seq, bound), bound


class TestLimitAtLevelBoundaries:
    """MEMBER_LIMIT on each order's last member and either side of it: the
    collision checks, stopping or not, refuse or answer as the walk does, and
    the plain count, one derived term, answers whatever the limit."""

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

    @pytest.mark.parametrize("name", ["fib", "mult-11-3", "golden-41"])
    def test_order_values_builds_whole_orders(self, monkeypatch, name):
        # each step's length is a derived count: an order past the limit is
        # refused before any of it is built, never cut at the limit
        s = get_system(name)
        fam, seq, want = s.family, s.sequence, counts(s.family, 3)
        modulus = getattr(seq, "modulus", None)
        for limit in self.limits(fam, 3):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            lengths = []
            got = self.outcome(lambda: lengths.extend(len(v) for v in order_values(fam, seq.value, 3, modulus)))
            assert lengths == [c for c in want if c <= limit], limit
            assert got == (None if want[-1] <= limit else f"order cap 3 walks more than {limit:,} members; lower the cap")

    @pytest.mark.parametrize("name", ["fib", "mult-11-3"])
    def test_count_upto_order(self, monkeypatch, name):
        fam = get_system(name).family
        want = sum(1 for _ in members_upto_order(fam, 3))
        for limit in self.limits(fam, 3):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            assert count_upto_order(fam, 3) == want, limit
            walked = self.outcome(lambda: sum(1 for _ in members_upto_order(fam, 3)))
            assert walked == (want if limit >= want else f"order cap 3 walks more than {limit:,} members; lower the cap")


class TestRefusalBeforeWork:
    """Past MEMBER_LIMIT, a check that goes on past a collision refuses from
    the member count alone, and the plain count is that count: no value is
    summed, no member walked."""

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
        # 13! members of order <= 12, far past the limit: the derived Q_13
        assert count_upto_order(get_system("factorial").family, 12) == 6_227_020_800


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
        # sequences that are not increasing: the reference is the first
        # member, in lex order, that decodes to the value, for every x < 10^4
        # from one walk of conftest's; on fib's family with a long dip, out of
        # the walk's reach, from order_members, at every 37th x (every 31st
        # below 3,100 on depth-21: a search there takes milliseconds).  A
        # refusal names the value and the order cap.
        fib = get_system("fib").family
        cases = [(get_system(name).family, get_system(name).sequence, range(10**4)) for name in NOT_INCREASING]
        cases += [(fib, LONG_DIPS["table"](), range(0, 10**4, 37)), (fib, LONG_DIPS["depth-21"](), range(0, 3100, 31))]
        for fam, seq, xs in cases:
            cap, bound = top_ref(seq, xs[-1]), xs[-1]
            if xs.step == 1:
                members = ((mu, decode_int(mu, seq)) for mu in members_upto_order(fam, cap))
            else:
                members = order_members(fam, seq.value, cap, bound)
            first = {}
            for mu, v in members:
                first.setdefault(v, mu)
            for x in xs:
                top = top_ref(seq, x)
                refusal = f"no admissible function of order <= {top} has value {x}" if top else (
                    f"{x} is below every basis value of {seq.name}")
                got, want = outcome(encode_int, x, fam, seq), first.get(x, (NotRepresentableError, refusal))
                assert got == want and str(got) == str(want), (seq.name, x)

    @pytest.mark.parametrize("name", NOT_INCREASING)
    def test_encode_by_walk_past_a_low_member_limit(self, monkeypatch, name):
        # the search's node budget, MEMBER_LIMIT: under each limit every x <
        # 600 gives the reference's answer or a WalkLimitError naming the value
        # and the limit; a higher limit refuses fewer values, and 64 none
        s = get_system(name)
        fam, seq = s.family, s.sequence
        want = [outcome(encode_int_ref, x, fam, seq) for x in range(600)]
        refused = set(range(600))
        for limit in (1, 4, 16, 64):
            monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
            got = [outcome(encode_int, x, fam, seq) for x in range(600)]
            over = {x for x, (g, w) in enumerate(zip(got, want)) if g != w}
            for x in over:
                assert got[x] == (WalkLimitError, f"{fam.name}: encoding {x} visits more than {limit:,} nodes"), x
            assert over <= refused, limit
            refused = over
        assert not refused

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
        assert until_error(v for v, _ in summed_members(fam, seq.value, cap)) == ref
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
        assert self.both(FIB, self.SHORT_Q, 6)[0] is TableEndError
        with pytest.raises(IndexError) as ref:
            check_unique_ref(FIB, self.SHORT_Q, 6)
        with pytest.raises(IndexError, match=re.escape(str(ref.value))):
            check_unique(FIB, self.SHORT_Q, 6)

    @pytest.mark.parametrize("limit,error", [(8, WalkLimitError), (9, WalkLimitError), (13, TableEndError)])
    def test_member_limit_before_the_value(self, monkeypatch, limit, error):
        # fib has 8 members of order <= 4, then the 5 of order 5 from basis(5):
        # an order past the limit is refused whole, before its missing Q_5 is
        # read, and one within it reads Q_5 and fails there
        monkeypatch.setattr(blocks, "MEMBER_LIMIT", limit)
        assert self.both(FIB, self.SHORT_Q, 5)[0] is error
        # a cap past the limit too (21 members of order <= 6): stopping at a
        # collision fails as at cap 5, going on past one refuses from the count
        for stop in (True, False):
            ref = outcome(check_unique_ref, FIB, self.SHORT_Q, 6, stop)
            assert outcome(check_unique, FIB, self.SHORT_Q, 6, stop) == ref
            assert ref[0] is (error if stop else WalkLimitError)

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
        # refused at the call, before the first member is asked for
        with pytest.raises(ValueError, match="order cap must be nonnegative, got -1"):
            members_upto_order(FIB, -1)


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

    @pytest.mark.parametrize("name,bound,members", [("pin-3", 1000, 998), ("mult-11-3", 200, 188)])
    def test_subset_builds_each_member_once(self, built, name, bound, members):
        s = get_system(name)
        report = enumerate_subset(s.family, s.sequence, bound)
        assert len(report.pairs) == members
        assert built["trusted"] <= members and built["init"] == 0

    def test_counters_see_the_walk(self, built):
        # the counters are live: a walk that builds its members is counted
        list(islice(enumerate_asc(FIB), 50))
        assert built["trusted"] == 50
