from __future__ import annotations

from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import lex_compare_asc, lex_compare_desc
from zecknum.coeff import (
    DIGIT_LIMIT,
    ZERO,
    CoeffFn,
    IndexInterval,
    basis,
    from_dense,
    to_dense,
)

fns = st.builds(
    CoeffFn,
    st.dictionaries(st.integers(1, 25), st.integers(1, 9), max_size=6),
)


class TestConstruction:
    def test_empty_is_zero(self):
        assert CoeffFn() == ZERO
        assert not ZERO
        assert len(ZERO) == 0
        assert ZERO.render() == "0"

    def test_mapping_and_pairs_agree(self):
        assert CoeffFn({3: 2, 1: 1}) == CoeffFn([(1, 1), (3, 2)])

    def test_duplicate_pairs_accumulate(self):
        f = CoeffFn([(2, 1), (2, 3)])
        assert f.digit(2) == 4

    def test_zero_digits_dropped(self):
        f = CoeffFn([(1, 0), (2, 5)])
        assert f.support == (2,)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            CoeffFn([(0, 1)])

    def test_negative_digit(self):
        with pytest.raises(ValueError):
            CoeffFn([(1, -1)])

    def test_digit_limit(self):
        with pytest.raises(ValueError):
            CoeffFn([(1, DIGIT_LIMIT)])
        with pytest.raises(ValueError):
            CoeffFn([(1, DIGIT_LIMIT - 1), (1, 1)])

    def test_immutable(self):
        f = basis(1)
        with pytest.raises(AttributeError):
            f.digit = None  # type: ignore[misc]

    def test_hash_and_eq(self):
        assert hash(basis(3)) == hash(CoeffFn({3: 1}))
        assert basis(3) != CoeffFn({3: 2})
        assert basis(3) != "3:1"


def _built(digits):
    """CoeffFn's pairs, or the exception class and message it raised."""
    try:
        return CoeffFn(digits).items()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCanonicalTuple:
    """A tuple already in support form is kept; every other tuple goes the
    general way, with the same pairs or the same error."""

    @pytest.mark.parametrize("t", [(), ((1, 1),), ((1, 4), (2, 1), (300, DIGIT_LIMIT - 1))])
    def test_kept_as_given(self, t):
        f = CoeffFn(t)
        assert f.items() is t
        assert f == CoeffFn(list(t)) and f.digit(2) == CoeffFn(list(t)).digit(2)

    @pytest.mark.parametrize("t", [
        ((3, 1), (1, 2)),  # unsorted
        ((1, 1), (1, 2)),  # repeated index
        ((2, 1), (2, 1), (1, 1)),
        ((1, 0), (2, 1)),  # zero digit
        ((1, 1), (2, 0)),
        ((True, 1),),  # bool index
        ((1, True), (2, False)),  # bool digits
        ([1, 2], [3, 4]),  # list pairs
        ((1, 2), [3, 4]),
        ((1, 2, 3),),  # 3-tuple
        ((1, 2), (3, 4, 5)),
        ((1,),),
        ((0, 1),),  # index 0
        ((1, 1), (-2, 1)),
        ((1, -1),),  # negative digit
        ((1, DIGIT_LIMIT),),  # digit at the limit
        ((1, DIGIT_LIMIT - 1), (1, 1)),
        ((1.0, 2),),
        (("1", 2),),
        ((1, "2"),),
        (5,),
    ])
    def test_same_as_the_general_path(self, t):
        assert _built(t) == _built(iter(t))
        assert _built(t) == _built(list(t))

    def test_bool_digit_becomes_an_int(self):
        assert CoeffFn(((1, True),)).items() == ((1, 1),)
        assert type(CoeffFn(((1, True),)).items()[0][1]) is int


class TestAccess:
    def test_digit_off_support(self):
        assert basis(4).digit(7) == 0

    def test_items_sorted(self):
        f = CoeffFn({5: 1, 2: 3})
        assert f.items() == ((2, 3), (5, 1))
        assert list(f) == [(2, 3), (5, 1)]

    def test_orders(self):
        f = CoeffFn({2: 1, 9: 4})
        assert f.order_asc == 9
        assert f.order_desc == 2
        assert ZERO.order_asc == 0
        assert ZERO.order_desc is None


def _digits_agree(f):
    top = f.order_asc + 2
    return all(f.digit(i) == dict(f.items()).get(i, 0) for i in range(1, top))


class TestLazyMap:
    """``digit`` builds its index map on first use; ``items`` never needs it."""

    BUILT = {
        "init": lambda: CoeffFn({7: 2, 1: 3, 4: 1}),
        "trusted": lambda: CoeffFn._trusted(((1, 3), (4, 1), (7, 2))),
        "parse": lambda: CoeffFn.parse("1:3,4:1,7:2"),
        "plus_basis": lambda: CoeffFn({1: 3, 7: 2}).plus_basis(4),
    }

    @pytest.mark.parametrize("how", sorted(BUILT))
    def test_digit_agrees_with_items(self, how):
        f = self.BUILT[how]()
        assert f.items() == ((1, 3), (4, 1), (7, 2))
        assert _digits_agree(f)
        assert _digits_agree(f)  # again, with the map built

    @pytest.mark.parametrize("how", sorted(BUILT))
    def test_hash_and_eq_before_and_after_digit(self, how):
        fresh, read = self.BUILT[how](), self.BUILT[how]()
        read.digit(4)
        assert fresh == read and hash(fresh) == hash(read)
        assert len({fresh, read, *(b() for b in self.BUILT.values())}) == 1
        assert _digits_agree(fresh) and _digits_agree(read)

    @given(fns)
    def test_digit_agrees_after_hash(self, f):
        hash(f)
        assert f == CoeffFn._trusted(f.items())
        assert _digits_agree(f)

    def test_map_stays_private_and_immutable(self):
        f = CoeffFn({2: 5})
        assert f.digit(2) == 5
        for name in ("_map", "_pairs", "digits"):
            with pytest.raises(AttributeError):
                setattr(f, name, {})
        assert f.digit(2) == 5 and f.items() == ((2, 5),)
        assert not any(hasattr(f, name) for name in ("map", "digits", "__dict__"))


class TestIndexInterval:
    def test_contains(self):
        iv = IndexInterval(2, 5)
        assert 2 in iv and 5 in iv
        assert 1 not in iv and 6 not in iv

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexInterval(0, 2)
        with pytest.raises(ValueError):
            IndexInterval(4, 3)


class TestSurgery:
    def test_restrict(self):
        f = CoeffFn({1: 1, 3: 2, 7: 1})
        assert f.restrict(2, 6) == CoeffFn({3: 2})
        assert f.restrict(4) == CoeffFn({7: 1})
        assert f.restrict(8) == ZERO

    def test_plus_basis(self):
        assert ZERO.plus_basis(2) == basis(2)
        assert basis(2).plus_basis(2, 3).digit(2) == 4

    def test_minus_basis(self):
        f = CoeffFn({2: 2})
        assert f.minus_basis(2) == basis(2)
        assert basis(2).minus_basis(2) == ZERO
        with pytest.raises(ValueError):
            ZERO.minus_basis(1)

    def test_add_merges(self):
        f = CoeffFn({1: 1, 2: 1}) + CoeffFn({2: 2, 4: 1})
        assert f == CoeffFn({1: 1, 2: 3, 4: 1})


class TestWireFormat:
    def test_render(self):
        assert CoeffFn({3: 1, 5: 1, 10: 1}).render() == "3:1,5:1,10:1"

    def test_parse(self):
        assert CoeffFn.parse("3:1,5:1,10:1") == CoeffFn({3: 1, 5: 1, 10: 1})
        assert CoeffFn.parse("0") == ZERO
        assert CoeffFn.parse("  0  ") == ZERO
        assert CoeffFn.parse("1:0") == ZERO

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            CoeffFn.parse("2:1,1:1")
        with pytest.raises(ValueError):
            CoeffFn.parse("x:1")
        with pytest.raises(ValueError):
            CoeffFn.parse("3")

    @given(fns)
    def test_round_trip(self, f):
        assert CoeffFn.parse(f.render()) == f


class TestDense:
    def test_from_dense(self):
        assert from_dense((1, 0, 3)) == CoeffFn({1: 1, 3: 3})
        assert from_dense(()) == ZERO

    def test_to_dense(self):
        f = CoeffFn({1: 1, 3: 3})
        assert to_dense(f) == (1, 0, 3)
        assert to_dense(f, 5) == (1, 0, 3, 0, 0)
        assert to_dense(f, 2) == (1, 0)

    @given(fns)
    def test_dense_round_trip(self, f):
        assert from_dense(to_dense(f)) == f


# Frozen comparisons: in ascending lex the largest differing index decides,
# in descending lex the smallest one does; larger digit wins at that index.
ASC_TABLE = [
    ("0", "1:1", -1),
    ("1:1", "2:1", -1),
    ("1:2", "2:1", -1),
    ("1:1,2:1", "2:1", 1),
    ("1:1,3:1", "2:2,3:1", -1),
    ("2:1", "2:1", 0),
]

DESC_TABLE = [
    ("0", "3:1", -1),
    ("3:1", "2:1", -1),
    ("2:1", "1:1", -1),
    ("1:1", "1:1,3:1", -1),
    ("1:2", "1:1,3:1", 1),
    ("2:1", "2:1", 0),
]


class TestLexOrders:
    @pytest.mark.parametrize("a,b,sign", ASC_TABLE)
    def test_asc_frozen(self, a, b, sign):
        fa, fb = CoeffFn.parse(a), CoeffFn.parse(b)
        assert lex_compare_asc(fa, fb) == sign
        assert lex_compare_asc(fb, fa) == -sign

    @pytest.mark.parametrize("a,b,sign", DESC_TABLE)
    def test_desc_frozen(self, a, b, sign):
        fa, fb = CoeffFn.parse(a), CoeffFn.parse(b)
        assert lex_compare_desc(fa, fb) == sign
        assert lex_compare_desc(fb, fa) == -sign

    @given(fns, fns)
    def test_asc_antisymmetric(self, a, b):
        assert lex_compare_asc(a, b) == -lex_compare_asc(b, a)
        assert (lex_compare_asc(a, b) == 0) == (a == b)

    @given(fns, fns)
    def test_desc_antisymmetric(self, a, b):
        assert lex_compare_desc(a, b) == -lex_compare_desc(b, a)
        assert (lex_compare_desc(a, b) == 0) == (a == b)

    @given(st.lists(fns, min_size=2, max_size=6))
    def test_asc_sort_is_consistent(self, items):
        ordered = sorted(items, key=cmp_to_key(lex_compare_asc))
        for x, y in zip(ordered, ordered[1:]):
            assert lex_compare_asc(x, y) <= 0

    @given(fns, fns)
    def test_orders_disagree_only_on_digits(self, a, b):
        # both orders must agree with plain equality
        assert (lex_compare_asc(a, b) == 0) == (lex_compare_desc(a, b) == 0)


class TestBasisHelpers:
    @given(fns, st.integers(1, 25))
    def test_plus_then_minus(self, f, i):
        assert f.plus_basis(i).minus_basis(i) == f

    @given(fns, fns)
    def test_add_is_digitwise(self, a, b):
        s = a + b
        for i in set(a.support) | set(b.support):
            assert s.digit(i) == a.digit(i) + b.digit(i)
