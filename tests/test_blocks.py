from __future__ import annotations

from collections import deque
from itertools import islice, product

import pytest
from conftest import INTEGER_FIXTURES, get_system, lex_compare_asc, lex_compare_desc
from hypothesis import given
from hypothesis import strategies as st

from zecknum.blocks import (
    MEMBER_LIMIT,
    AtMaximumError,
    FamilyError,
    MaximalFamily,
    NotMemberError,
    PredecessorFamily,
    decompose_asc,
    decompose_desc,
    enumerate_asc,
    enumerate_desc,
    first_collision,
    is_member_asc,
    is_member_desc,
    members_upto_order,
    predecessor_asc,
    successor_asc,
    successor_desc,
)
from zecknum.coeff import INFINITE, ZERO, CoeffFn, basis, from_dense
from zecknum.integers import encode_int
from zecknum.recurrences import MultiplicityList, family_from_table, index_bounded_family

FIB = MultiplicityList((1, 1)).predecessor_family()
FIB_MAX = MultiplicityList((1, 1)).maximal_family()
IB = index_bounded_family()


def fib_ok(v: tuple[int, ...]) -> bool:
    """Direct admissibility condition: 0/1 digits, no two adjacent ones."""
    return all(d <= 1 for d in v) and all(
        not (a and b) for a, b in zip(v, v[1:])
    )


def ib_ok(v: tuple[int, ...]) -> bool:
    """Direct condition: digit at k at most k; a full digit forces a zero below."""
    if any(d > k for k, d in enumerate(v, start=1)):
        return False
    return all(v[k] < k + 1 or v[k - 1] == 0 for k in range(1, len(v)))


def assert_tiles(mu, dec):
    """A decomposition must tile [1, top] contiguously and carry mu's digits."""
    if not mu:
        assert dec.blocks == ()
        return
    assert dec.blocks[0].support.lo == 1
    assert dec.blocks[-1].support.hi == mu.order_asc
    for a, b in zip(dec.blocks, dec.blocks[1:]):
        assert b.support.lo == a.support.hi + 1
    for b in dec.blocks:
        assert b.digits == mu.restrict(b.support.lo, b.support.hi)
    # only the bottom block of an ascending decomposition may be maximal
    assert all(not b.maximal for b in dec.blocks[1:])


class TestPredecessorFamily:
    def test_rows_start_at_two(self):
        with pytest.raises(FamilyError):
            FIB.row(1)

    def test_row_order_validated(self):
        bad = PredecessorFamily(lambda n: basis(n), name="bad")
        with pytest.raises(FamilyError):
            bad.row(2)

    def test_rows_memoized(self):
        calls = []

        def row_fn(n):
            calls.append(n)
            return basis(n - 1)

        fam = PredecessorFamily(row_fn)
        fam.row(4)
        fam.row(4)
        assert calls == [4]

    def test_fib_rows_frozen(self):
        assert FIB.row(2) == CoeffFn({1: 1})
        assert FIB.row(3) == CoeffFn({2: 1})
        assert FIB.row(4) == CoeffFn({1: 1, 3: 1})
        assert FIB.row(5) == CoeffFn({2: 1, 4: 1})
        assert FIB.row(6) == CoeffFn({1: 1, 3: 1, 5: 1})


class TestAscendingScan:
    def test_zero_decomposition_is_empty(self):
        dec = decompose_asc(ZERO, FIB)
        assert dec.blocks == ()
        assert dec.bottom is None and dec.last is None

    @pytest.mark.parametrize(
        "text,spans",
        [
            ("1:1", [(1, 1, True)]),
            ("2:1", [(1, 2, True)]),
            ("3:1", [(1, 3, False)]),
            ("1:1,3:1", [(1, 3, True)]),
            ("4:1", [(1, 1, False), (2, 4, False)]),
            ("1:1,4:1", [(1, 1, True), (2, 4, False)]),
            ("2:1,4:1", [(1, 4, True)]),
            ("2:1,4:1,7:1", [(1, 4, True), (5, 7, False)]),
        ],
    )
    def test_fib_decompositions_frozen(self, text, spans):
        mu = CoeffFn.parse(text)
        dec = decompose_asc(mu, FIB)
        got = [(b.support.lo, b.support.hi, b.maximal) for b in dec.blocks]
        assert got == spans
        assert_tiles(mu, dec)

    @pytest.mark.parametrize(
        "text,spans",
        [
            ("2:2,4:4,6:6", [(1, 6, True)]),
            ("2:2,4:4,6:6,7:3", [(1, 6, True), (7, 7, False)]),
            ("2:1,4:1,7:1", [(k, k, False) for k in range(1, 8)]),
        ],
    )
    def test_index_bounded_decompositions_frozen(self, text, spans):
        mu = CoeffFn.parse(text)
        dec = decompose_asc(mu, IB)
        got = [(b.support.lo, b.support.hi, b.maximal) for b in dec.blocks]
        assert got == spans
        assert_tiles(mu, dec)

    @pytest.mark.parametrize("text,witness", [("1:1,2:1", 1), ("2:2", 2)])
    def test_fib_non_members(self, text, witness):
        with pytest.raises(NotMemberError) as exc:
            decompose_asc(CoeffFn.parse(text), FIB)
        assert exc.value.witness == witness

    def test_fib_membership_exhaustive(self):
        for v in product(range(3), repeat=4):
            assert is_member_asc(from_dense(v), FIB) == fib_ok(v), v

    def test_index_bounded_membership_exhaustive(self):
        for v in product(range(4), repeat=3):
            assert is_member_asc(from_dense(v), IB) == ib_ok(v), v


class TestAscendingOrder:
    def test_fib_first_members_frozen(self):
        want = ["0", "1:1", "2:1", "3:1", "1:1,3:1", "4:1", "1:1,4:1",
                "2:1,4:1", "5:1", "1:1,5:1", "2:1,5:1", "3:1,5:1"]
        walk = enumerate_asc(FIB)
        assert [next(walk).render() for _ in want] == want

    def test_index_bounded_first_members_frozen(self):
        want = ["0", "1:1", "2:1", "1:1,2:1", "2:2", "3:1", "1:1,3:1",
                "2:1,3:1", "1:1,2:1,3:1"]
        walk = enumerate_asc(IB)
        assert [next(walk).render() for _ in want] == want

    def test_members_upto_order(self):
        members = list(members_upto_order(FIB, 4))
        assert len(members) == 8
        assert members[0] == ZERO
        assert all(mu.order_asc <= 4 for mu in members)

    def test_members_upto_order_is_lazy_and_rejects_negative_caps(self):
        walk = members_upto_order(FIB, 10**6)
        assert iter(walk) is walk
        assert [next(walk).render() for _ in range(3)] == ["0", "1:1", "2:1"]
        with pytest.raises(ValueError, match="order cap"):
            members_upto_order(FIB, -1)

    def test_first_collision(self):
        a, b, c = CoeffFn.parse("1:1"), CoeffFn.parse("2:1"), CoeffFn.parse("3:1")
        pairs = [(ZERO, 0), (a, 1), (b, 1), (c, 2)]
        assert first_collision([]) == (0, 0, None, True)
        assert first_collision(pairs) == (3, 2, (1, a, b), False)
        assert first_collision(pairs, stop=False) == (4, 3, (1, a, b), True)

    def test_successor_clears_maximal_bottom(self):
        assert successor_asc(CoeffFn.parse("2:2,4:4,6:6,7:3,8:2"), IB).render() == "7:4,8:2"

    def test_predecessor_of_basis_is_row(self):
        assert predecessor_asc(basis(7), IB) == IB.row(7)
        assert predecessor_asc(basis(5), FIB) == FIB.row(5)

    def test_predecessor_of_zero(self):
        with pytest.raises(ValueError):
            predecessor_asc(ZERO, FIB)

    def test_enumerate_from_start(self):
        walk = enumerate_asc(FIB, start=basis(4))
        assert next(walk) == basis(4)
        assert next(walk).render() == "1:1,4:1"


# rows 2..40 with digits 0..2 below a top digit of 1 or 2: far more members
# below order 40 than the walks below take
TABLE = family_from_table(
    [[(n + 2 * j) % 3 for j in range(1, n - 1)] + [1 + n % 2] for n in range(2, 41)], name="table"
)
WALKED = (*INTEGER_FIXTURES, "golden-41", "padic-5-20", "table")


def walked_family(name: str):
    return TABLE if name == "table" else get_system(name).family


def successor_chain(fam, start, count):
    chain = [start]
    while len(chain) < count:
        chain.append(successor_asc(chain[-1], fam))
    return chain


class TestWalkerAgainstSuccessor:
    """enumerate_asc keeps its own block stack; successor_asc rescans each
    member and is the reference."""

    @pytest.mark.parametrize("name", WALKED)
    def test_first_members(self, name):
        fam = walked_family(name)
        chain = successor_chain(fam, ZERO, 10**4)
        assert all(lex_compare_asc(a, b) < 0 for a, b in zip(chain[:2000], chain[1:2000]))
        assert list(islice(enumerate_asc(fam), 10**4)) == chain
        for i in (1234, 5000, 8765):
            assert list(islice(enumerate_asc(fam, chain[i]), 10**4 - i)) == chain[i:]

    # fixtures whose greedy encoder reaches every integer
    @given(
        st.sampled_from(["fib", "index-bounded", "rec-3-1", "rec-8-2-3", "blocks7", "factorial"]),
        st.integers(0, 10**12),
    )
    def test_from_encoded_start(self, name, x):
        s = get_system(name)
        start = encode_int(x, s.family, s.sequence)
        assert list(islice(enumerate_asc(s.family, start), 200)) == successor_chain(s.family, start, 200)

    def test_table_end(self):
        # both read row 5 first when stepping past basis(4), the table's last member
        fam = family_from_table([[1], [0, 1], [1, 0, 1]])

        def until_family_error(walk):
            seen = []
            with pytest.raises(FamilyError):
                seen.extend(walk)
            return seen

        def chain_walk():
            cur = ZERO
            while True:
                yield cur
                cur = successor_asc(cur, fam)

        walked = until_family_error(enumerate_asc(fam))
        assert walked == until_family_error(chain_walk())
        assert walked[-1] == basis(4)

    def test_non_member_start(self):
        walk = enumerate_asc(FIB, CoeffFn.parse("1:1,2:1,9:1"))
        assert next(walk).render() == "1:1,2:1,9:1"
        with pytest.raises(NotMemberError) as exc:
            next(walk)
        assert exc.value.witness == 1

    @pytest.mark.parametrize("name", ["fib", "factorial", "pin-3", "blocks7"])
    def test_members_are_ordinary(self, name):
        for mu in islice(enumerate_asc(get_system(name).family), 3000):
            same = CoeffFn.parse(mu.render())
            assert mu == same and hash(mu) == hash(same)
            indices = [i for i, _ in mu.items()]
            assert indices == sorted(set(indices)) and all(d >= 1 for _, d in mu.items())

    def test_member_limit(self):
        walk = members_upto_order(get_system("mult-11-3").family, 8)
        with pytest.raises(ValueError, match=f"order cap 8 walks more than {MEMBER_LIMIT:,} members; lower the cap"):
            deque(walk, maxlen=0)


def no_adjacent(bits: list[int]) -> CoeffFn:
    out = []
    prev = 0
    for b in bits:
        b = b if not prev else 0
        out.append(b)
        prev = b
    return from_dense(out)


fib_members = st.lists(st.sampled_from([0, 1]), max_size=12).map(no_adjacent)


class TestAscendingProperties:
    @given(fib_members)
    def test_decompose_tiles(self, mu):
        assert_tiles(mu, decompose_asc(mu, FIB))

    @given(fib_members)
    def test_successor_predecessor_inverse(self, mu):
        nxt = successor_asc(mu, FIB)
        assert is_member_asc(nxt, FIB)
        assert predecessor_asc(nxt, FIB) == mu


class TestMaximalFamily:
    def test_rows_start_at_one(self):
        with pytest.raises(FamilyError):
            FIB_MAX.row(0)

    def test_own_digit_validated(self):
        bad = MaximalFamily(lambda n, k: 0, name="bad")
        with pytest.raises(FamilyError):
            bad.row(1)

    def test_golden_row_digits(self):
        row = FIB_MAX.row(2)
        assert [row.digit(k) for k in range(1, 7)] == [0, 1, 0, 1, 0, 1]

    def test_support_iter(self):
        row = FIB_MAX.row(3)
        it = row.support_iter()
        assert [next(it) for _ in range(3)] == [(3, 1), (5, 1), (7, 1)]
        later = row.support_iter(start=6)
        assert next(later) == (7, 1)


class TestDescendingScan:
    def test_enumeration_frozen(self):
        got = [eps.render() for eps in enumerate_desc(FIB_MAX, 3)]
        assert got == ["0", "3:1", "2:1", "1:1", "1:1,3:1"]

    def test_decomposition_frozen(self):
        dec = decompose_desc(CoeffFn.parse("2:1"), FIB_MAX, 3)
        got = [(b.support.lo, b.support.hi, b.truncated) for b in dec.blocks]
        assert got == [(1, 1, False), (2, 3, True)]

    def test_non_member(self):
        with pytest.raises(NotMemberError) as exc:
            decompose_desc(CoeffFn.parse("1:1,2:1"), FIB_MAX, 3)
        assert exc.value.witness == 2
        assert not is_member_desc(CoeffFn.parse("1:1,2:1"), FIB_MAX, 3)

    @pytest.mark.parametrize("horizon", [0, -2])
    def test_horizon_below_one(self, horizon):
        message = f"horizon must be positive, got {horizon}"
        with pytest.raises(ValueError, match=message):
            enumerate_desc(FIB_MAX, horizon)
        with pytest.raises(ValueError, match=message):
            decompose_desc(ZERO, FIB_MAX, horizon)

    def test_support_beyond_horizon(self):
        with pytest.raises(ValueError):
            decompose_desc(basis(9), FIB_MAX, 3)

    def test_maximum_has_no_successor(self):
        with pytest.raises(AtMaximumError):
            successor_desc(CoeffFn.parse("1:1,3:1"), FIB_MAX, 3)

    def test_counts_against_fibonacci(self):
        # members restricted to [1, M] for the golden system count Q_{M+1}
        for horizon, count in [(1, 2), (2, 3), (3, 5), (4, 8), (5, 13)]:
            assert sum(1 for _ in enumerate_desc(FIB_MAX, horizon)) == count

    def test_enumeration_hits_every_member(self):
        members = list(enumerate_desc(FIB_MAX, 4))
        assert all(lex_compare_desc(a, b) < 0 for a, b in zip(members, members[1:]))
        got = set(members)
        want = {
            from_dense(v)
            for v in product(range(2), repeat=4)
            if fib_ok(v)
        }
        assert got == want
