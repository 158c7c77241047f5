"""Structural rows against the explicit row closures they replaced.

The reference closures below build every row as a full CoeffFn, the way the
families did before rows were described by their shape.  The shape-backed
families must agree with them on rows, derived sequences and block scans, and
large inputs must stay fast because nothing quadratic is materialized.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import get_system
from zecknum import load_fixture
from zecknum.blocks import (
    FamilyError,
    NotMemberError,
    PredecessorFamily,
    RowShape,
    _scan_asc,
    enumerate_asc,
    is_member_asc,
)
from zecknum.coeff import DIGIT_LIMIT, CoeffFn
from zecknum.integers import FundamentalSeq, decode_int, encode_int
from zecknum.recurrences import family_from_tail_rule, neg_recurrence_params

# -- reference row closures --------------------------------------------------


def _multiplicity_rows(e):
    ehat = e[:-1] + (e[-1] - 1,)
    N = len(e)
    return lambda n: CoeffFn(
        (n - k, ehat[(k - 1) % N]) for k in range(1, n) if ehat[(k - 1) % N]
    )


def _tail_rule_rows(head, tail):
    def row(n):
        pairs = []
        for i, h in enumerate(head):
            idx = n - 1 - i
            if idx < 1:
                break
            d = h(n) if callable(h) else h
            if d:
                pairs.append((idx, d))
        for j in range(1, n - len(head)):
            d = tail(j)
            if d:
                pairs.append((j, d))
        return CoeffFn(pairs)

    return row


def _neg_recurrence_rows(c):
    e, b = neg_recurrence_params(c)
    return _tail_rule_rows(list(e), lambda j: b)


def _index_bounded_rows(n):
    return CoeffFn((j, j) for j in range(n - 1, 0, -2))


def _blocks_rows(blocks):
    width = len(blocks[0])
    tops = []
    for t in range(1, width + 1):
        fits = [b for b in blocks if all(d == 0 for d in b[t:]) and b[t - 1] >= 1]
        tops.append(max(fits, key=lambda b: tuple(reversed(b))))
    q = [1]
    for n in range(2, width + 2):
        q.append(1 + sum(d * q[p] for p, d in enumerate(tops[n - 2]) if d))
    b_max = next(b for b in blocks if sum(d * q[p] for p, d in enumerate(b)) == q[width] - 1)

    def row(n):
        r, t0 = divmod(n - 2, width)
        pairs = [(width * r + p + 1, d) for p, d in enumerate(tops[t0]) if d]
        for i in range(r):
            pairs.extend((width * i + p + 1, d) for p, d in enumerate(b_max) if d)
        return CoeffFn(pairs)

    return row


BLOCKS7 = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]

REFERENCE_ROWS = {
    "fib": _multiplicity_rows((1, 1)),
    "mult-2-3": _multiplicity_rows((2, 3)),
    "mult-11-3": _multiplicity_rows((11, 3)),
    "rec-8-2-3": _neg_recurrence_rows((8, -2, -3)),
    "rec-3-1": _neg_recurrence_rows((3, -1)),
    "factorial": _tail_rule_rows([], lambda j: j),
    "pin-3": _tail_rule_rows([1], lambda i: 1 if i == 3 else 0),
    "index-bounded": _index_bounded_rows,
    "blocks7": _blocks_rows(BLOCKS7),
}
NAMES = tuple(REFERENCE_ROWS)


def _reference_scan(mu, ref_row):
    """The member scan as it read full rows: spans, or the NotMemberError witness."""
    spans = []
    n = mu.order_asc
    while n >= 1:
        row = ref_row(n + 1)
        k = n
        while True:
            mk, dk = mu.digit(k), row.digit(k)
            if mk > dk:
                return ("witness", k)
            if mk < dk:
                spans.append((k, n, False))
                n = k - 1
                break
            if k == 1:
                spans.append((1, n, True))
                n = 0
                break
            k -= 1
    return ("spans", spans)


def _scan_outcome(mu, fam):
    try:
        return ("spans", _scan_asc(mu, fam))
    except NotMemberError as exc:
        return ("witness", exc.witness)


# -- differential checks -----------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_row_view_matches_reference(name):
    fam, ref = get_system(name).family, REFERENCE_ROWS[name]
    for n in range(2, 201):
        assert fam.row(n) == ref(n), n


@pytest.mark.parametrize("name", NAMES)
def test_derived_sequence_matches_generic_sum(name):
    fam = load_fixture(name).family
    seq = FundamentalSeq.from_family(fam)
    q = [1]
    for n in range(2, 301):
        q.append(1 + sum(d * q[k - 1] for k, d in fam.row(n).items()))
    assert seq.upto(300) == q


def _perturb(mu, rng):
    """``mu`` with the digit at one index at or just above its support moved."""
    k = rng.randint(1, mu.order_asc + 2)
    d = max(mu.digit(k) + rng.choice((-1, 1, 2)), 0)
    return CoeffFn([(i, e) for i, e in mu.items() if i != k] + [(k, d)])


@pytest.mark.parametrize("name", NAMES)
def test_scan_matches_reference(name):
    fam, ref = get_system(name).family, REFERENCE_ROWS[name]
    rng = random.Random(name)
    far = encode_int(10**4, fam, FundamentalSeq.from_family(fam))
    for start in (CoeffFn(), far):
        it = enumerate_asc(fam, start)
        for mu in (next(it) for _ in range(300)):
            got = _scan_outcome(mu, fam)
            assert got[0] == "spans" and got == _reference_scan(mu, ref)
            for _ in range(3):
                bent = _perturb(mu, rng)
                assert _scan_outcome(bent, fam) == _reference_scan(bent, ref), bent


@pytest.mark.parametrize(
    "head,tail",
    [
        ([1], lambda j: -1),
        ([lambda n: -1], lambda j: 1),
        ([DIGIT_LIMIT], lambda j: 1),
        ([1], lambda j: DIGIT_LIMIT),
    ],
)
def test_out_of_range_digit_rejected(head, tail):
    fam = family_from_tail_rule(head, tail)
    with pytest.raises(FamilyError, match="out of range"):
        fam.parts(4)
    with pytest.raises(FamilyError, match="out of range"):
        fam.row(4)


def test_shape_row_order_validated():
    fam = PredecessorFamily(shape=RowShape(lambda j, r: 1, top=lambda n: n), name="too-tall")
    with pytest.raises(FamilyError, match="row 3 has order 3"):
        fam.row(3)
    with pytest.raises(FamilyError):
        fam.parts(1)


def test_find_top_materializes_one_term_past_the_answer():
    seq = FundamentalSeq.from_family(load_fixture("fib").family)
    x = 10**1000
    n = seq.find_top(x)
    assert seq.value(n) <= x < seq.value(n + 1)
    assert len(seq) == n + 1


# -- large inputs --------------------------------------------------------------


@pytest.mark.parametrize("name", ["fib", "factorial", "rec-8-2-3", "blocks7"])
def test_round_trip_at_2000_digits(name):
    sys_ = load_fixture(name)  # cold: rows and sequence built inside the budget
    x = random.Random(2000).randrange(10**1999, 10**2000)
    t0 = time.perf_counter()
    mu = encode_int(x, sys_.family, sys_.sequence)
    assert decode_int(mu, sys_.sequence) == x
    assert is_member_asc(mu, sys_.family)
    assert time.perf_counter() - t0 < 10.0
