from __future__ import annotations

from bisect import bisect_right
from decimal import Context, localcontext
from itertools import accumulate, takewhile
from typing import Iterator
from weakref import WeakKeyDictionary

import pytest
from hypothesis import HealthCheck, settings

from zecknum import System, blocks, load_fixture
from zecknum.blocks import NotMemberError, WalkLimitError, check_horizon, first_collision, members_upto_order
from zecknum.coeff import ZERO, CoeffFn
from zecknum.integers import NotRepresentableError, SubsetReport, decode_int
from zecknum.padic import ConverseProbe, eval_padic, weak_converse_digit_bound
from zecknum.uniqueness import UniquenessReport

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def fresh_decimal_context():
    """Each test starts from a fresh ``decimal.Context()`` and cannot leave its
    own behind, so no test leans on a precision another test set."""
    with localcontext(Context()):
        yield


# first 100 decimal digits of pi; enough to make greedy index traces exact
PI_100 = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679"

_CACHE: dict[str, System] = {}

INTEGER_FIXTURES = (
    "fib",
    "index-bounded",
    "rec-3-1",
    "rec-8-2-3",
    "blocks7",
    "factorial",
    "mult-2-3",
    "mult-11-3",
    "pin-3",
    "seven-scaled",
)


def get_system(name: str) -> System:
    if name not in _CACHE:
        _CACHE[name] = load_fixture(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def fib() -> System:
    return get_system("fib")


@pytest.fixture(scope="session")
def index_bounded() -> System:
    return get_system("index-bounded")


@pytest.fixture(scope="session")
def rec_3_1() -> System:
    return get_system("rec-3-1")


@pytest.fixture(scope="session")
def rec_8_2_3() -> System:
    return get_system("rec-8-2-3")


@pytest.fixture(scope="session")
def blocks7() -> System:
    return get_system("blocks7")


@pytest.fixture(scope="session")
def factorial_sys() -> System:
    return get_system("factorial")


@pytest.fixture(scope="session")
def mult_2_3() -> System:
    return get_system("mult-2-3")


@pytest.fixture(scope="session")
def mult_11_3() -> System:
    return get_system("mult-11-3")


@pytest.fixture(scope="session")
def pin_3() -> System:
    return get_system("pin-3")


@pytest.fixture(scope="session")
def seven_scaled() -> System:
    return get_system("seven-scaled")


@pytest.fixture(scope="session")
def harmonic_sys() -> System:
    return get_system("harmonic")


@pytest.fixture(scope="session")
def golden_real() -> System:
    return get_system("golden-real")


@pytest.fixture(scope="session")
def sevenths() -> System:
    return get_system("sevenths")


@pytest.fixture(scope="session")
def golden_41() -> System:
    return get_system("golden-41")


@pytest.fixture(scope="session")
def padic_5_20() -> System:
    return get_system("padic-5-20")


# -- lexicographic orders, the oracles for the walks' member order -----------


def lex_compare_asc(a: CoeffFn, b: CoeffFn) -> int:
    """-1/0/+1 comparing at the largest index where ``a`` and ``b`` differ."""
    if a == b:
        return 0
    for i in sorted(set(a.support) | set(b.support), reverse=True):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return -1 if da < db else 1
    return 0


def lex_compare_desc(a: CoeffFn, b: CoeffFn) -> int:
    """-1/0/+1 comparing at the smallest index where ``a`` and ``b`` differ.

    The function with the larger digit at that index is the larger one (low
    indices carry the large weights in decreasing systems).
    """
    if a == b:
        return 0
    for i in sorted(set(a.support) | set(b.support)):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return -1 if da < db else 1
    return 0


# -- the hand-written descending scan and its rescan walk ---------------------
# The (0,1) side before it became the ascending scan and walker on the
# mirrored family; kept as the oracle of the mirror in test_blocks.py.  A row
# is read through MaximalFamily.support instead of the deleted row objects.


class AtMaximumError(ValueError):
    """The horizon-restricted maximum has no successor."""


def maximal_row(fam, n: int, horizon: int) -> dict[int, int]:
    """Maximal row n's nonzero digits up to the horizon, read through support."""
    return dict(takewhile(lambda p: p[0] <= horizon, fam.support(n)))


def scan_desc_ref(eps: CoeffFn, fam, horizon: int) -> list[tuple[int, int, bool]]:
    """Split ``eps`` into spans (lo, hi, truncated), bottom-up, at the horizon.

    The mirror scan: a block starting at n matches row(n) upwards; the first
    index where eps drops below the row closes the block; exceeding it is a
    failure; running out of horizon leaves the last block truncated.
    """
    check_horizon(horizon)
    if eps.order_asc > horizon:
        raise ValueError(f"support reaches {eps.order_asc}, beyond horizon {horizon}")
    spans: list[tuple[int, int, bool]] = []
    n = 1
    while n <= horizon:
        row = maximal_row(fam, n, horizon)
        i = n
        while i <= horizon:
            ei = eps.digit(i)
            pi = row.get(i, 0)
            if ei > pi:
                raise NotMemberError(i)
            if ei < pi:
                spans.append((n, i, False))
                n = i + 1
                break
            i += 1
        else:
            spans.append((n, horizon, True))
            n = horizon + 1
    return spans


def successor_desc_ref(eps: CoeffFn, fam, horizon: int) -> CoeffFn:
    """Immediate successor in descending lex order at the horizon.

    If the last block is cut by the horizon, drop it and carry one digit into
    the index just below its start; if it closes exactly at the horizon, raise
    the digit there.  The full row(1) restriction is the maximum and has no
    successor.
    """
    spans = scan_desc_ref(eps, fam, horizon)
    lo, _, truncated = spans[-1]
    if truncated:
        if lo == 1:
            raise AtMaximumError(f"maximum of the system restricted to [1, {horizon}]")
        return eps.restrict(1, lo - 1).plus_basis(lo - 1)
    return eps.plus_basis(horizon)


def enumerate_desc_ref(fam, horizon: int) -> Iterator[CoeffFn]:
    """All horizon-restricted members in descending lex order, zero first;
    a horizon below 1 is rejected here, before the first member."""
    check_horizon(horizon)

    def walk() -> Iterator[CoeffFn]:
        cur = ZERO
        while True:
            yield cur
            try:
                cur = successor_desc_ref(cur, fam, horizon)
            except AtMaximumError:
                return

    return walk()


# -- decode-per-member references for the order kernel -------------------------
# Each walks and builds every member and decodes it from scratch, where the
# probes build values one order at a time; the walk itself is checked against
# successor_asc in test_blocks.py.


def check_unique_ref(fam, seq, order_cap, stop_at_collision=True) -> UniquenessReport:
    pairs = ((mu, decode_int(mu, seq)) for mu in members_upto_order(fam, order_cap))
    return UniquenessReport(order_cap, *first_collision(pairs, stop_at_collision))


def check_unique_padic_ref(fam, seq, order_cap, stop_at_collision=True) -> UniquenessReport:
    pairs = ((mu, eval_padic(mu, seq)) for mu in members_upto_order(fam, order_cap))
    return UniquenessReport(order_cap, *first_collision(pairs, stop_at_collision))


# -- the top oracle --------------------------------------------------------------
# Every term up to a long horizon (a whole bounded table) sorted by value, with
# the largest index among the values so far, so that each of the many tops
# encode_int_ref asks for is one bisection; independent of find_top.

TOP_HORIZON = 2000
_TOPS: WeakKeyDictionary = WeakKeyDictionary()


def top_ref(seq, x: int) -> int:
    """Largest n <= TOP_HORIZON with Q_n <= x (0 if none), over every term."""
    if seq not in _TOPS:
        terms = seq.upto(len(seq) if seq.bounded else TOP_HORIZON)
        ranked = sorted((v, n) for n, v in enumerate(terms, 1))
        _TOPS[seq] = [v for v, _ in ranked], list(accumulate((n for _, n in ranked), max)), terms[-1]
    values, best, last = _TOPS[seq]
    assert seq.bounded or x < last, f"{seq.name}: Q_{TOP_HORIZON} = {last} does not exceed {x}"
    i = bisect_right(values, x)
    return best[i - 1] if i else 0


def enumerate_subset_ref(fam, seq, bound) -> SubsetReport:
    walk = members_upto_order(fam, top_ref(seq, bound))
    pairs = [(mu, v) for mu in walk if (v := decode_int(mu, seq)) <= bound]
    _, _, collision, _ = first_collision(pairs)
    return SubsetReport(bound, pairs, collision)


def weak_converse_probe_ref(fam, seq_a, seq_b, order_cap) -> ConverseProbe:
    vals_a: set[int] = set()
    vals_b: set[int] = set()
    max_digit = 0
    for mu in members_upto_order(fam, order_cap):
        if mu:
            max_digit = max(max_digit, max(d for _, d in mu.items()))
        vals_a.add(eval_padic(mu, seq_a))
        vals_b.add(eval_padic(mu, seq_b))
    diff = None
    for k in range(1, max(len(seq_a), len(seq_b)) + 1):
        if seq_a.value(k) != seq_b.value(k):
            diff = k
            break
    return ConverseProbe(vals_a == vals_b, diff, max_digit, weak_converse_digit_bound(seq_a.p))


# -- the codec before its kernels ---------------------------------------------
# encode_int looking up the top for every block and reading each row's digits
# through a row object, or walking the members when the sequence is not
# increasing, and the member scan reading mu.digit index by index; the kernels
# in integers.encode_int and blocks._scan_asc must agree with them.


def encode_by_walk_ref(x: int, fam, seq, top: int) -> CoeffFn:
    """The first member of order <= top, in lex order, that decodes to x."""
    if x and not top:
        raise NotRepresentableError(f"{x} is below every basis value of {seq.name}")
    try:
        for mu in members_upto_order(fam, top):
            if decode_int(mu, seq) == x:
                return mu
    except WalkLimitError:
        limit = f"{blocks.MEMBER_LIMIT:,} members (sequence is not increasing)"
        raise WalkLimitError(f"{fam.name}: encoding {x} walks more than {limit}") from None
    raise NotRepresentableError(f"no admissible function of order <= {top} has value {x}")


def encode_int_ref(x: int, fam, seq) -> CoeffFn:
    if x < 0:
        raise ValueError(f"cannot encode negative value {x}")
    top = top_ref(seq, x)
    if not seq.increasing:
        return encode_by_walk_ref(x, fam, seq, top)
    pairs: list[tuple[int, int]] = []
    rem = x
    while rem > 0:
        n = top_ref(seq, rem)
        if n == 0:
            raise NotRepresentableError(f"{rem} is below every basis value of {seq.name}")
        for k, d in reversed(fam.row(n + 1).items()):
            q = seq.value(k)
            c = min(d, rem // q)
            if c:
                pairs.append((k, c))
                rem -= c * q
            if c < d:
                break
    return CoeffFn(pairs)


def scan_asc_ref(mu: CoeffFn, fam) -> list[tuple[int, int, bool]]:
    """Spans (lo, hi, maximal), top-down, or NotMemberError at the first index
    from the top where mu exceeds the row it is scanned against."""
    spans: list[tuple[int, int, bool]] = []
    digit, parts = mu.digit, fam.parts
    n = mu.order_asc
    while n >= 1:
        head, top, tail, _ = parts(n + 1)
        k = n
        while True:
            mk = digit(k)
            dk = tail[k] if k <= top else head.get(k, 0)
            if mk > dk:
                raise NotMemberError(k)
            if mk < dk:
                spans.append((k, n, False))
                n = k - 1
                break
            if k == 1:
                spans.append((1, n, True))
                n = 0
                break
            k -= 1
    return spans
