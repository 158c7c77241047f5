from __future__ import annotations

from bisect import bisect_right
from decimal import (
    ROUND_05UP, ROUND_DOWN, ROUND_FLOOR, Context, Decimal, Inexact, Rounded, getcontext, localcontext,
)
from fractions import Fraction
from itertools import accumulate, islice, takewhile
from typing import Iterator, NamedTuple
from weakref import WeakKeyDictionary

import pytest
from hypothesis import HealthCheck, settings

from zecknum import System, blocks, load_fixture
from zecknum.blocks import (
    Decomposition,
    NotMemberError,
    WalkLimitError,
    _scan_asc,
    check_horizon,
    order_values,
    walk_asc,
)
from zecknum.coeff import DIGIT_LIMIT, ZERO, CoeffFn
from zecknum.integers import FundamentalSeq, NotRepresentableError, SubsetReport, _shown, decode_int
from zecknum.padic import ConverseProbe, eval_padic, weak_converse_digit_bound
from zecknum.real import Expansion, find_first_below
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


# settings a caller's decimal context may hold, which no result may depend on:
# an int is a precision, a string a rounding, a signal one more trap
AMBIENT = (3, 10, 28, 200, ROUND_DOWN, ROUND_FLOOR, ROUND_05UP, Inexact, Rounded)


def ambient_context(setting):
    """The caller's context with one AMBIENT setting changed, entered with ``with``."""
    ctx = getcontext().copy()
    if isinstance(setting, int):
        ctx.prec = setting
    elif isinstance(setting, str):
        ctx.rounding = setting
    else:
        ctx.traps[setting] = True
    return localcontext(ctx)


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


# -- digit-function surgery over the support pairs ----------------------------


def basis(i: int) -> CoeffFn:
    """The function with a single digit 1 at index ``i``."""
    return CoeffFn(((i, 1),))


def restrict(fn: CoeffFn, lo: int = 1, hi: int | None = None) -> CoeffFn:
    """Digits on [lo, hi] (no upper end when hi is None), everything else dropped."""
    return CoeffFn((i, d) for i, d in fn.items() if lo <= i and (hi is None or i <= hi))


def plus_basis(fn: CoeffFn, i: int, count: int = 1) -> CoeffFn:
    """``fn`` with the digit at ``i`` raised by ``count``."""
    return CoeffFn(fn.items() + ((i, count),))


def minus_basis(fn: CoeffFn, i: int) -> CoeffFn:
    """``fn`` with the digit at ``i`` lowered by one; ValueError where it is 0."""
    d = fn.digit(i)
    if d < 1:
        raise ValueError(f"digit at index {i} is 0, cannot decrement")
    return CoeffFn(tuple((j, e) for j, e in fn.items() if j != i) + ((i, d - 1),))


def count_upto_order(fam, order_cap: int) -> int:
    """Number of members of order <= order_cap, zero function included: the
    derived Q_{order_cap+1}."""
    return FundamentalSeq.from_family(fam).value(blocks._check_cap(order_cap) + 1)


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


# -- the mirror scan read back ---------------------------------------------------
# A horizon-restricted (0,1) member split by the library's ascending scan on
# the mirrored family, checked against the hand-written scan below.


class DescBlock(NamedTuple):
    """One block of a descending decomposition; ``truncated`` marks a last
    block cut by the horizon (the mirror's maximal one)."""

    lo: int
    hi: int
    digits: CoeffFn
    truncated: bool


def spans_desc(eps: CoeffFn, fam, horizon: int) -> list[tuple[int, int, bool]]:
    """Spans (lo, hi, truncated) of ``eps`` at the horizon, bottom-up: the
    _scan_asc spans of its mirror read back, with an all-zero singleton at
    each index they leave out (the blocks _scan_asc leaves implicit: every
    index of the mirror outside its spans).  A witness is read back too."""
    check_horizon(horizon)
    if eps.order_asc > horizon:
        raise ValueError(f"support reaches {eps.order_asc}, beyond horizon {horizon}")
    flip = horizon + 1
    mirrored = tuple.__new__(CoeffFn, [(flip - i, d) for i, d in reversed(eps)])
    try:
        spans = _scan_asc(mirrored, fam.mirror(horizon))
    except NotMemberError as exc:
        raise NotMemberError(flip - exc.witness) from None
    found, below = [], 1
    for lo, hi, truncated in spans:  # top-down in the mirror: bottom-up in eps
        found += [(i, i, False) for i in range(below, flip - hi)]
        found.append((flip - hi, flip - lo, truncated))
        below = flip - lo + 1
    return found + [(i, i, False) for i in range(below, flip)]


def decompose_desc(eps: CoeffFn, fam, horizon: int) -> Decomposition:
    """Block decomposition of a horizon-restricted member (NotMemberError
    otherwise): one pass over its pairs, each block a slice of them."""
    pairs, i, found = eps.items(), 0, []
    for lo, hi, truncated in spans_desc(eps, fam, horizon):
        j = bisect_right(pairs, (hi, DIGIT_LIMIT), i)
        found.append(DescBlock(lo, hi, tuple.__new__(CoeffFn, pairs[i:j]), truncated))
        i = j
    return Decomposition(tuple(found))


def is_member_desc(eps: CoeffFn, fam, horizon: int) -> bool:
    try:
        spans_desc(eps, fam, horizon)
        return True
    except NotMemberError:
        return False


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
        return plus_basis(restrict(eps, 1, lo - 1), lo - 1)
    return plus_basis(eps, horizon)


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


# -- the order-capped walk ----------------------------------------------------
# The library's walker only steps; the references below cap it at an order and
# at MEMBER_LIMIT members (read when the walk runs, so a test can lower it),
# one whole order at a time, as the order kernel builds them.


def members_upto_order(fam, k: int) -> Iterator[CoeffFn]:
    """Members of order <= k in ascending lex order, zero included, lazily,
    one whole order at a time: each order is walked once to count it and
    once to yield it, so an order that would take the members past
    MEMBER_LIMIT raises WalkLimitError before any of its members is yielded,
    and a walk that fails inside an order yields what it walked of it first."""
    return _upto_limit(fam, blocks._check_cap(k))


def _order_walk(fam, n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The walk of the members of order n, from basis(n) (zero for n = 0) up
    to the first member of a higher order."""
    return takewhile(lambda pairs: (pairs[-1][0] if pairs else 0) == n, walk_asc(fam, basis(n) if n else ZERO))


def _upto_limit(fam, cap: int) -> Iterator[CoeffFn]:
    yielded = 0
    for n in range(cap + 1):
        room = blocks.MEMBER_LIMIT - yielded
        try:
            size = sum(1 for _ in islice(_order_walk(fam, n), room + 1))
        except Exception:  # whatever the walk raises inside this order, the second walk yields up to there
            size = 0
        if size > room:
            raise blocks._limit_error(cap)
        for pairs in _order_walk(fam, n):
            yielded += 1
            yield tuple.__new__(CoeffFn, pairs)


# -- the rescanning lex successor ----------------------------------------------
# The library's successor_asc is one step of the walker; this one rescans the
# member and is the walker's independent reference in test_blocks.py.


def successor_ref(mu: CoeffFn, fam) -> CoeffFn:
    """Immediate successor in ascending lex order among members.

    Bottom block maximal (= row(n), support [1, n-1]): clear it and carry one
    digit into index n.  Otherwise just raise the digit at index 1.
    """
    spans = _scan_asc(mu, fam)
    if spans and spans[-1][2]:
        n = spans[-1][1] + 1
        return plus_basis(restrict(mu, n), n)
    return plus_basis(mu, 1)


# -- the derived sequence from its rows ----------------------------------------
# Every term a row sum, whatever recurrence the family states: the reference
# its recurrence is checked against in test_recurrences.py.


def derived_by_row_sums(fam, stop: int) -> list[int]:
    """Q_1, ..., Q_stop with Q_1 = 1 and Q_n = 1 + row n's digits times Q. Row n's
    tail part is read off a prefix sum per residue, tail[1] Q_1 + ... + tail[j] Q_j
    at index j, so a term costs O(head)."""
    q, prefix = [1], {}
    for n in range(2, stop + 1):
        head, top, tail, r = fam.parts(n)
        sums = prefix.setdefault(r, [0])
        for j in range(len(sums), top + 1):
            sums.append(sums[-1] + tail[j] * q[j - 1])
        q.append(1 + sum(d * q[k - 1] for k, d in head.items()) + sums[top])
    return q


# -- the encoder's bound table, one row at a time ---------------------------


def max_below_ref(fam, seq, end: int) -> list[int]:
    """[M_1, ..., M_end], M_k the largest value of a member of order < k, from
    every run of every row: order n's members are row n+1's digits down to
    some k, a smaller digit t at k (t >= 1 at k = n) and any member of order <
    k, or the whole row."""
    best = [None, 0]
    for n in range(1, end):
        prefix, top = 0, best[n]
        for k, c in reversed(fam.row(n + 1).items()):
            q = seq.value(k)
            for t in range(k == n, c):
                top = max(top, prefix + t * q + best[k])
            prefix += c * q
        best.append(max(top, prefix))
    return best[1:]


# -- decode-per-member references for the order kernel -------------------------
# Each walks and builds every member and decodes it from scratch, where the
# probes build values one order at a time; the walk itself is checked against
# successor_ref in test_blocks.py.


def count_collisions_ref(pairs, stop: bool = True) -> tuple[int, int, tuple | None, bool]:
    """(members seen, distinct values, first collision (value, earlier, later)
    or None, whether the pairs ran out) for a stream of (key, value) pairs;
    ``stop`` ends the scan at the collision, counting only that prefix."""
    first_by_value: dict = {}
    collision = None
    seen = 0
    for key, v in pairs:
        seen += 1
        earlier = first_by_value.setdefault(v, key)
        if earlier is not key and collision is None:
            collision = (v, earlier, key)
            if stop:
                return seen, len(first_by_value), collision, False
    return seen, len(first_by_value), collision, True


def _collision_ref(fam, value, order_cap, stop) -> UniquenessReport:
    # a scan that goes on past a collision counts the walk's members before decoding any
    members = members_upto_order(fam, order_cap) if stop else list(members_upto_order(fam, order_cap))
    return UniquenessReport(order_cap, *count_collisions_ref(((mu, value(mu)) for mu in members), stop))


def check_unique_ref(fam, seq, order_cap, stop_at_collision=True) -> UniquenessReport:
    return _collision_ref(fam, lambda mu: decode_int(mu, seq), order_cap, stop_at_collision)


def check_unique_padic_ref(fam, seq, order_cap, stop_at_collision=True) -> UniquenessReport:
    return _collision_ref(fam, lambda mu: eval_padic(mu, seq), order_cap, stop_at_collision)


# -- the top oracle --------------------------------------------------------------
# Every term up to a long horizon (a whole bounded table) sorted by value, with
# the largest index among the values so far, so that each of the many tops
# encode_int_ref asks for is one bisection; independent of find_top.

TOP_HORIZON = 2600  # past pin-3's top for every x < 10^4 (Q_n = 4(n - 3))
_TOPS: WeakKeyDictionary = WeakKeyDictionary()


def top_ref(seq, x: int) -> int:
    """Largest n <= TOP_HORIZON with Q_n <= x (0 if none), over every term."""
    if seq not in _TOPS:
        terms = seq.upto(len(seq) if seq._extend is None else TOP_HORIZON)
        ranked = sorted((v, n) for n, v in enumerate(terms, 1))
        _TOPS[seq] = [v for v, _ in ranked], list(accumulate((n for _, n in ranked), max)), terms[-1]
    values, best, last = _TOPS[seq]
    assert seq._extend is None or x < last, f"{seq.name}: Q_{TOP_HORIZON} = {last} does not exceed {x}"
    i = bisect_right(values, x)
    return best[i - 1] if i else 0


def enumerate_subset_ref(fam, seq, bound) -> SubsetReport:
    walk = members_upto_order(fam, top_ref(seq, bound))
    pairs = [(mu, v) for mu in walk if (v := decode_int(mu, seq)) <= bound]
    _, _, collision, _ = count_collisions_ref(pairs)
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
# increasing or a whole row leaves a remainder that a term fits, and the
# member scan reading mu.digit index by index; the kernels in
# integers.encode_int and blocks._scan_asc must agree with them wherever the
# walk answers within MEMBER_LIMIT members.


def encode_by_walk_ref(x: int, fam, seq, top: int) -> CoeffFn:
    """The first member of order <= top, in lex order, that decodes to x."""
    if x and not top:
        raise NotRepresentableError(f"{_shown(x)} is below every basis value of {seq.name}")
    try:
        for mu in members_upto_order(fam, top):
            if decode_int(mu, seq) == x:
                return mu
    except WalkLimitError:
        limit = f"{blocks.MEMBER_LIMIT:,} members" + ("" if seq.increasing else " (sequence is not increasing)")
        raise WalkLimitError(f"{fam.name}: encoding {x} walks more than {limit}") from None
    raise NotRepresentableError(f"no admissible function of order <= {top} has value {_shown(x)}")


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
            raise NotRepresentableError(f"{_shown(rem)} is below every basis value of {seq.name}")
        for k, d in reversed(fam.row(n + 1).items()):
            q = seq.value(k)
            c = min(d, rem // q)
            if c:
                pairs.append((k, c))
                rem -= c * q
            if c < d:
                break
        else:  # no block fits below a whole row: off the derived sequence, search the members
            if rem and top_ref(seq, rem):
                return encode_by_walk_ref(x, fam, seq, top)
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


def nonzero_topped(mu: CoeffFn, spans: list[tuple[int, int, bool]]) -> list[tuple[int, int, bool]]:
    """The spans of a full scan whose block has a nonzero digit of ``mu`` at its
    top: all but the all-zero singletons, which _scan_asc leaves implicit."""
    return [span for span in spans if mu.digit(span[1])]


def perturb(mu: CoeffFn, rng) -> CoeffFn:
    """``mu`` with the digit at one index at or just above its support moved."""
    k = rng.randint(1, mu.order_asc + 2)
    d = max(mu.digit(k) + rng.choice((-1, 1, 2)), 0)
    return CoeffFn([(i, e) for i, e in mu.items() if i != k] + [(k, d)])


# -- the weak converse's rebuild ---------------------------------------------------
# The slow reference an integer converse probe is to agree with: it rebuilds a
# sequence from the values a family covers, one order at a time.


def reconstruct_sequence(fam, value_set, count: int) -> list[int]:
    """Rebuild a fundamental sequence from the family and the covered set.

    Q'_n is the least element of the value set not reached by any member of
    order below n (using the already-rebuilt prefix).  When the original
    sequence is increasing and the system covers the set uniquely, this
    returns it exactly; it is the converse probe, not a constructor.
    """
    values = sorted(set(value_set))
    rebuilt: list[int] = []
    used: set[int] = set()
    i = start = 0  # values[i] is the least value not reached; it only moves up
    # the values of order < n, one order per step; step n - 1 reads Q'_{n-1}
    orders = order_values(fam, lambda k: rebuilt[k - 1], count - 1)
    for n in range(1, count + 1):
        reached = next(orders)
        used.update(islice(reached, start, None))
        start = len(reached)
        while i < len(values) and values[i] in used:
            i += 1
        if i == len(values):
            raise NotRepresentableError(
                f"value set exhausted after {n - 1} rebuilt terms"
            )
        rebuilt.append(values[i])
    return rebuilt


def expand_real_ref(x, fam, seq, max_blocks: int = 8, residual_tol=Fraction(1, 10**30)) -> Expansion:
    """``expand_real`` as one loop over both term types: the remainder is a
    Fraction on a sequence of fractions, a Decimal on a decimal one."""
    if not 0 <= x < 1:
        raise ValueError(f"need 0 < x < 1, got {x}")
    pairs: list[tuple[int, int]] = []
    blocks = above = 0
    exact = False
    with localcontext(getattr(seq, "context", None)):
        if not isinstance(seq.value(1), Decimal):
            rem = Fraction(x)
        else:
            rem = Decimal(x.numerator) / x.denominator if isinstance(x, Fraction) else x
        while True:
            if rem == 0:
                exact = True
                break
            if residual_tol is not None and rem <= residual_tol:
                break
            if blocks >= max_blocks:
                break
            n = find_first_below(seq, rem, above)
            for k, d in fam.support(n):
                q = seq.value(k)
                c = min(int(rem / q), d)
                # division may land a hair high at fixed precision
                while c > 0 and c * q > rem:
                    c -= 1
                if c:
                    if (left := rem - c * q) == rem:  # the term is under the working precision
                        return Expansion(CoeffFn(tuple(pairs)), rem, False, blocks + 1)
                    pairs.append((k, c))
                    rem = left
                if c < d:
                    break
            blocks += 1
            # rem < Q_k after the short digit at k, unless rounding left it a hair over
            above = k if rem < q else 0
    return Expansion(CoeffFn(tuple(pairs)), rem, exact, blocks)
