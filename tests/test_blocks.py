from __future__ import annotations

import gc
import hashlib
import random
import weakref
from collections import deque
from contextlib import suppress
from itertools import islice, pairwise, product

import pytest
from conftest import (
    INTEGER_FIXTURES,
    AtMaximumError,
    basis,
    count_collisions_ref,
    decompose_desc,
    enumerate_desc_ref,
    get_system,
    is_member_desc,
    lex_compare_asc,
    lex_compare_desc,
    members_upto_order,
    maximal_row,
    plus_basis,
    restrict,
    scan_asc_ref,
    scan_desc_ref,
    successor_desc_ref,
    successor_ref,
)
from hypothesis import given
from hypothesis import strategies as st

from zecknum import blocks, load_fixture
from zecknum.blocks import (
    MEMBER_LIMIT,
    FamilyError,
    MaximalFamily,
    NotMemberError,
    PredecessorFamily,
    decompose_asc,
    enumerate_asc,
    enumerate_desc,
    first_collision,
    is_member_asc,
    predecessor_asc,
    successor_asc,
)
from zecknum.coeff import ZERO, CoeffFn, from_dense
from zecknum.integers import FundamentalSeq, encode_int, enumerate_subset
from zecknum.real import harmonic_maximal_family, periodic_maximal_family
from zecknum.recurrences import MultiplicityList, family_from_sequence, family_from_table, index_bounded_family

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
    assert dec.blocks[0].lo == 1
    assert dec.blocks[-1].hi == mu.order_asc
    for a, b in zip(dec.blocks, dec.blocks[1:]):
        assert b.lo == a.hi + 1
    for b in dec.blocks:
        assert b.digits == restrict(mu, b.lo, b.hi)
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

    def test_plain_pairs_checked(self):
        # a row function hands over plain pairs; the family checks each index and digit
        for pairs, witness in [([(2, 1), (0, 1)], "1 at index 0"), ([(2, 1), (1, -1)], "-1 at index 1")]:
            with pytest.raises(FamilyError, match=f"digit {witness} is out of range"):
                PredecessorFamily(lambda n: pairs, name="plain").row(3)

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

    @pytest.mark.parametrize("name", INTEGER_FIXTURES)
    def test_memoized_rows_match_their_parts(self, name):
        """Row n, n <= 40 or up to a table's end, is its parts read densely on
        a fresh family, and every later call returns the same object."""
        fam, fresh = load_fixture(name).family, load_fixture(name).family
        for n in range(2, 41):
            try:
                head, top, tail, _ = fresh.parts(n)
            except FamilyError:  # past a table's end the memo builds nothing
                with pytest.raises(FamilyError):
                    fam.row(n)
                break
            row = fam.row(n)
            assert row == CoeffFn({**dict(enumerate(tail[1 : top + 1], 1)), **head}), (name, n)
            assert fam.row(n) is row

    def test_rows_keep_no_parts(self):
        """A subset reads its rows through row() alone: the memoized CoeffFn is
        the only copy of each, and no parts are kept beside it."""
        s = load_fixture("pin-3")
        fam = s.family
        enumerate_subset(fam, s.sequence, 5000)
        assert len(fam._rows) > 1000 and not fam._parts
        assert all(fam.row(n) is fam.row(n) for n in fam._rows)


class TestAscendingScan:
    def test_zero_decomposition_is_empty(self):
        dec = decompose_asc(ZERO, FIB)
        assert dec.blocks == ()

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
        got = [(b.lo, b.hi, b.maximal) for b in dec.blocks]
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
        got = [(b.lo, b.hi, b.maximal) for b in dec.blocks]
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
        assert first_collision([]) is None
        assert first_collision(pairs) == (1, a, b)
        assert first_collision(pairs[:2] + pairs[3:]) is None
        assert count_collisions_ref([]) == (0, 0, None, True)
        assert count_collisions_ref(pairs) == (3, 2, (1, a, b), False)
        assert count_collisions_ref(pairs, stop=False) == (4, 3, (1, a, b), True)

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
TABLE_ROWS = [[(n + 2 * j) % 3 for j in range(1, n - 1)] + [1 + n % 2] for n in range(2, 41)]
TABLE = family_from_table(TABLE_ROWS, name="table")
WALKED = (*INTEGER_FIXTURES, "golden-41", "padic-5-20", "table")


def walked_family(name: str):
    return TABLE if name == "table" else get_system(name).family


def successor_chain(fam, start, count):
    chain = [start]
    while len(chain) < count:
        chain.append(successor_ref(chain[-1], fam))
    return chain


def step_or_error(successor, mu, fam):
    """successor(mu, fam), or the type and text of the error it raises."""
    try:
        return successor(mu, fam)
    except ValueError as exc:
        return type(exc), str(exc)


def until_error(walk, most: int = 10**5):
    """The members a walk yields before it raises, and the error's type and text."""
    seen = []
    try:
        seen.extend(islice(walk, most))
    except Exception as exc:
        return seen, (type(exc), str(exc))
    raise AssertionError(f"no error in {most} members")


def chain_ref(fam, start):
    """successor_ref's chain from ``start``, without end."""
    cur = start
    while True:
        yield cur
        cur = successor_ref(cur, fam)


class TestWalkerAgainstSuccessor:
    """enumerate_asc keeps its own block stack; conftest's successor_ref
    rescans each member and is the reference."""

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
        walked, error = until_error(enumerate_asc(fam))
        assert (walked, error) == until_error(chain_ref(fam, ZERO))
        assert issubclass(error[0], FamilyError) and walked[-1] == basis(4)
        # successor_asc, one walker step, raises the rescan's FamilyError at the table's end
        assert [step_or_error(successor_asc, mu, fam) for mu in walked] == [
            step_or_error(successor_ref, mu, fam) for mu in walked
        ]
        assert step_or_error(successor_asc, basis(4), fam)[0] is FamilyError

    @pytest.mark.parametrize("name", (*INTEGER_FIXTURES, "golden-41", "padic-5-20"))
    def test_successor_is_one_walker_step(self, name):
        # each member's successor is the rescan's; a member with one digit
        # raised is one too or fails the same way, with the same witness
        fam, rng = get_system(name).family, random.Random(name)
        non_members = 0
        for mu in islice(enumerate_asc(fam), 3000):
            assert successor_asc(mu, fam) == successor_ref(mu, fam)
            bumped = plus_basis(mu, rng.randint(1, mu.order_asc + 1), rng.randint(1, 3))
            got = step_or_error(successor_asc, bumped, fam)
            assert got == step_or_error(successor_ref, bumped, fam)
            non_members += type(got) is tuple
        assert non_members > 100

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


class TestRunWalker:
    """Below a block closed at lo > 1, the walker copies the members of order
    < lo from the family's prefix of first members, at most PREFIX_CAP of
    them, and steps on past it.  Each case loads a fresh family, so the walks
    here fill its prefix: 3x the cap from zero and from 20 seeded starts,
    against successor_ref's chain and the order-capped walk, at the module's
    cap and at one that most runs outgrow."""

    @pytest.mark.parametrize("cap", [None, 8])
    @pytest.mark.parametrize("name", INTEGER_FIXTURES)
    def test_against_successor_chain(self, monkeypatch, name, cap):
        if cap:
            monkeypatch.setattr(blocks, "PREFIX_CAP", cap)
        fam, count, rng = load_fixture(name).family, 3 * blocks.PREFIX_CAP, random.Random(name)
        chain = successor_chain(fam, ZERO, 2 * count)
        assert list(islice(enumerate_asc(fam), count)) == chain[:count]
        for i in sorted(rng.sample(range(count), 20)):
            assert list(islice(enumerate_asc(fam, chain[i]), count)) == chain[i : i + count]
        below = chain[count - 1].order_asc - 1  # every order up to this one is whole in the chain
        assert list(members_upto_order(fam, below)) == [mu for mu in chain if mu.order_asc <= below]
        # a non-member start is yielded, then refused as the rescan refuses it
        top = chain[count - 1].order_asc
        bad = plus_basis(chain[count - 1], top, 10**6)
        walk = enumerate_asc(fam, bad)
        assert next(walk) == bad
        with pytest.raises(NotMemberError) as exc:
            next(walk)
        assert (NotMemberError, str(exc.value)) == step_or_error(successor_ref, bad, fam)

    # factorial's runs outgrow the cap, pin-3's hold 4 members
    @pytest.mark.parametrize("name", ["fib", "factorial", "pin-3", "mult-11-3"])
    def test_prefix_holds_at_most_the_cap(self, name):
        fam = load_fixture(name).family
        walked = [mu.items() for mu in islice(enumerate_asc(fam), 3 * blocks.PREFIX_CAP)]
        assert 1 < len(fam._prefix) <= blocks.PREFIX_CAP
        assert fam._prefix == walked[: len(fam._prefix)]


def bad_row_family(k: int) -> PredecessorFamily:
    """TABLE's rows from a row function, with row k's top pair dropped: row k
    has the wrong order, and reading it raises FamilyError every time."""

    def row(n: int):
        pairs = from_dense(TABLE_ROWS[n - 2]).items()
        return pairs[:-1] if n == k else pairs

    return PredecessorFamily(row, name=f"bad-row-{k}")


class TestRunWalkerErrors:
    """A row of the wrong order raises the rescanning chain's FamilyError
    after its members, whether the walk steps onto the row or the prefix
    fill meets it first (from basis(12), every run below it copies members
    from zero), and again on a second walk of the same family: a fill walk
    that died is started afresh, never seen as a short walk, RuntimeError or
    StopIteration."""

    @pytest.mark.parametrize("k", range(3, 13))
    def test_bad_row(self, k):
        for starts in ((ZERO, basis(12)), (basis(12), ZERO)):
            fam = bad_row_family(k)
            for start in starts * 2:
                want = until_error(chain_ref(bad_row_family(k), start))
                assert want[1][0] is FamilyError and f"row {k} has order" in want[1][1]
                assert until_error(enumerate_asc(fam, start)) == want, start


ROW_FN_FAMILIES = ("table", "greedy", "sevenths@8", "sevenths@11")


def row_fn_family(name: str):
    """A fresh family whose rows come from a row function (no row built yet),
    its last row read below (at most 12), and a reference for row n."""
    if name == "table":
        return family_from_table(TABLE_ROWS), 12, lambda n: from_dense(TABLE_ROWS[n - 2])
    if name == "greedy":
        return family_from_sequence(FundamentalSeq.from_family(FIB).upto(30)), 12, FIB.row
    horizon, sevenths = int(name.partition("@")[2]), load_fixture("sevenths").family

    def mirrored(m: int) -> CoeffFn:
        return CoeffFn((horizon + 1 - k, d) for k, d in maximal_row(sevenths, horizon + 2 - m, horizon).items())

    return sevenths.mirror(horizon), min(horizon + 1, 12), mirrored


class TestRowFunctionFamilies:
    """table, greedy and mirrored (0,1) rows are plain pairs checked once, by
    the family's own digit check; the digit functions built from them are
    wrapped, not checked again."""

    @pytest.mark.parametrize("name", ROW_FN_FAMILIES)
    def test_rows_build_no_checked_digit_function(self, monkeypatch, name):
        fam, last, ref = row_fn_family(name)
        built, init = [], CoeffFn.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoeffFn, "__init__", counted)
        rows = [fam.row(n) for n in range(2, last + 1)]
        assert built == []
        monkeypatch.undo()
        assert rows == [ref(n) for n in range(2, last + 1)]

    @pytest.mark.parametrize("name", ROW_FN_FAMILIES)
    def test_predecessor_inverts_successor(self, name):
        fam, members = row_fn_family(name)[0], []
        with suppress(FamilyError):  # sevenths@8 walks its 196 members and basis(9), then runs out of rows
            members.extend(islice(enumerate_asc(fam), 501))
        assert len(members) == (197 if name == "sevenths@8" else 501)
        for mu, following in pairwise(members):
            nxt = successor_asc(mu, fam)
            assert nxt == following
            assert predecessor_asc(nxt, fam) == mu


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
            FIB_MAX.support(0)

    def test_own_digit_validated(self):
        bad = MaximalFamily(lambda n: iter([(n + 1, 1)]), name="bad")
        with pytest.raises(FamilyError):
            bad.support(1)

    def test_golden_row_digits(self):
        row = maximal_row(FIB_MAX, 2, 6)
        assert [row.get(k, 0) for k in range(1, 7)] == [0, 1, 0, 1, 0, 1]

    def test_support_iter(self):
        it = FIB_MAX.support(3)
        assert [next(it) for _ in range(3)] == [(3, 1), (5, 1), (7, 1)]

    @pytest.mark.parametrize("e", [(1, 1), (2, 3), (1, 0, 1), (11, 3)])
    def test_mirror_of_a_multiplicity_list_is_its_predecessor_family(self, e):
        ml = MultiplicityList(e)
        pred = ml.predecessor_family()
        for horizon in range(1, 9):
            mirror = ml.maximal_family().mirror(horizon)
            for m in range(2, horizon + 2):
                assert mirror.row(m) == pred.row(m), (horizon, m)

    def test_one_mirror_kept(self, monkeypatch):
        """Walks at horizons 1-50 leave at most one mirror alive, and walking a
        horizon again, after the others, yields what the reference does."""
        built = []

        class Counted(PredecessorFamily):
            def __init__(self, *args, **kwargs):
                built.append(weakref.ref(self))
                super().__init__(*args, **kwargs)

        fam = load_fixture("sevenths").family
        monkeypatch.setattr(blocks, "PredecessorFamily", Counted)
        walked = {h: list(islice(enumerate_desc(fam, h), 50)) for h in range(1, 51)}
        gc.collect()
        assert len(built) == 50 and sum(ref() is not None for ref in built) <= 1
        for h in (1, 7, 50, 23):
            assert list(islice(enumerate_desc(fam, h), 50)) == walked[h] == list(islice(enumerate_desc_ref(fam, h), 50))

    @pytest.mark.parametrize("horizon", [0, -2])
    def test_fresh_family_rejects_horizon_below_one(self, horizon):
        """A family that holds no mirror yet still checks the horizon: no
        value of it stands in for 'none built'."""
        fam = MultiplicityList((2, 3)).maximal_family()
        with pytest.raises(ValueError, match=f"horizon must be positive, got {horizon}"):
            enumerate_desc(fam, horizon)
        with pytest.raises(ValueError, match=f"horizon must be positive, got {horizon}"):
            fam.mirror(horizon)


class TestDescendingScan:
    def test_enumeration_frozen(self):
        got = [eps.render() for eps in enumerate_desc(FIB_MAX, 3)]
        assert got == ["0", "3:1", "2:1", "1:1", "1:1,3:1"]

    def test_decomposition_frozen(self):
        dec = decompose_desc(CoeffFn.parse("2:1"), FIB_MAX, 3)
        got = [(b.lo, b.hi, b.truncated) for b in dec.blocks]
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
        top = CoeffFn.parse("1:1,3:1")
        with pytest.raises(AtMaximumError):
            successor_desc_ref(top, FIB_MAX, 3)
        assert list(enumerate_desc(FIB_MAX, 3))[-1] == top

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


# -- the mirrored scan and walk against the hand-written descending ones -----

DESC_FAMILIES = {
    "golden": FIB_MAX,
    "2-3": MultiplicityList((2, 3)).maximal_family(),
    "1-0-1": MultiplicityList((1, 0, 1)).maximal_family(),
    "sevenths": get_system("sevenths").family,
    "harmonic": harmonic_maximal_family(),
    "periodic-3": periodic_maximal_family([[1, 0, 2], [2, 1], [1]]),
}


def spans_of(eps, fam, horizon):
    """(lo, hi, truncated) spans of decompose_desc, or the NotMemberError witness."""
    try:
        dec = decompose_desc(eps, fam, horizon)
    except NotMemberError as exc:
        return exc.witness
    assert all(b.digits == restrict(eps, b.lo, b.hi) for b in dec.blocks)
    return [(b.lo, b.hi, b.truncated) for b in dec.blocks]


def spans_ref(eps, fam, horizon):
    try:
        return scan_desc_ref(eps, fam, horizon)
    except NotMemberError as exc:
        return exc.witness


class TestMirrorAgainstDescendingReference:
    @pytest.mark.parametrize("horizon", range(1, 8))
    @pytest.mark.parametrize("name", DESC_FAMILIES)
    def test_members_and_order(self, name, horizon):
        fam = DESC_FAMILIES[name]
        assert list(enumerate_desc(fam, horizon)) == list(enumerate_desc_ref(fam, horizon))

    # sha256 of the "horizon<TAB>member" lines of horizons 1-17, pinned from
    # the walker that stepped to every member
    DESC_DIGESTS = {
        "sevenths": "f4479521e5054a6584b96339f7a0496f59ffebeef6345ae3bf1a6e6e3f62d277",
        "golden-real": "23ba0185e62cbec2c29fe76ea5b032146eb7ed8a92e521db1fd68dc23907eca1",
        "harmonic": "5dbfb464243a634fdfe6a692943b28b793c8f0e004bcb5329eb4e3fbba4fed70",
    }

    @pytest.mark.parametrize("name", DESC_DIGESTS)
    def test_real_fixtures_to_horizon_17(self, name):
        fam, digest = load_fixture(name).family, hashlib.sha256()
        for horizon in range(1, 18):
            members = list(enumerate_desc(fam, horizon))
            if horizon <= 12:
                assert members == list(enumerate_desc_ref(fam, horizon)), horizon
            digest.update("".join(f"{horizon}\t{mu.render()}\n" for mu in members).encode())
        assert digest.hexdigest() == self.DESC_DIGESTS[name]

    @pytest.mark.parametrize("horizon", range(1, 8))
    @pytest.mark.parametrize("name", DESC_FAMILIES)
    def test_spans_and_witnesses(self, name, horizon):
        fam = DESC_FAMILIES[name]
        for v in product(range(4), repeat=horizon):
            eps = from_dense(v)
            want = spans_ref(eps, fam, horizon)
            assert spans_of(eps, fam, horizon) == want, v
            assert is_member_desc(eps, fam, horizon) == (not isinstance(want, int))

    @pytest.mark.parametrize("name", DESC_FAMILIES)
    def test_horizon_and_support_errors(self, name):
        fam = DESC_FAMILIES[name]
        for horizon in (0, -3):
            message = f"horizon must be positive, got {horizon}"
            for call in (enumerate_desc, enumerate_desc_ref):
                with pytest.raises(ValueError, match=message):
                    call(fam, horizon)
            for call in (decompose_desc, scan_desc_ref):
                with pytest.raises(ValueError, match=message):
                    call(ZERO, fam, horizon)
        for call in (decompose_desc, is_member_desc, scan_desc_ref):
            with pytest.raises(ValueError, match="support reaches 5, beyond horizon 4"):
                call(CoeffFn.parse("1:1,5:1"), fam, 4)


# -- long members: the one-pass cut --------------------------------------------


def long_fib_member():
    fib = get_system("fib")
    return fib.family, encode_int(random.Random("fib").randrange(10**1999, 10**2000), fib.family, fib.sequence)


class TestLongMembers:
    def test_ascending_tiles(self):
        fam, mu = long_fib_member()
        dec = decompose_asc(mu, fam)
        assert len(dec.blocks) > 4000
        assert_tiles(mu, dec)
        assert [(b.lo, b.hi, b.maximal) for b in dec.blocks] == scan_asc_ref(mu, fam)[::-1]

    def test_descending_tiles(self):
        horizon = 3000
        eps = no_adjacent([random.Random("golden").randint(0, 1) for _ in range(horizon)])
        spans = spans_of(eps, FIB_MAX, horizon)
        assert len(spans) > 1000 and spans == spans_ref(eps, FIB_MAX, horizon)
        assert [lo for lo, _, _ in spans] == [1] + [hi + 1 for _, hi, _ in spans[:-1]]
        assert spans[-1][1] == horizon

    def test_ascending_cut_builds_no_digit_function(self, monkeypatch):
        fam, mu = long_fib_member()
        decompose_asc(mu, fam)  # rows built
        built = []
        init = CoeffFn.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CoeffFn, "__init__", counted)
        assert len(decompose_asc(mu, fam).blocks) > 4000
        assert built == []
