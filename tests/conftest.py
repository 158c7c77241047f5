from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from zecknum import System, load_fixture
from zecknum.blocks import first_collision, members_upto_order
from zecknum.coeff import CoeffFn
from zecknum.integers import SubsetReport, decode_int
from zecknum.padic import ConverseProbe, eval_padic, weak_converse_digit_bound
from zecknum.uniqueness import UniquenessReport

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

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


# -- decode-per-member references for the value-carrying walks ----------------
# Each builds every member and decodes it from scratch, as the probes did
# before the walker carried values; the walk itself is checked against
# successor_asc in test_blocks.py.


def check_unique_ref(fam, seq, order_cap, stop_at_collision=True) -> UniquenessReport:
    pairs = ((mu, decode_int(mu, seq)) for mu in members_upto_order(fam, order_cap))
    return UniquenessReport(order_cap, *first_collision(pairs, stop_at_collision))


def check_unique_padic_ref(fam, seq, order_cap, stop_at_collision=True) -> UniquenessReport:
    pairs = ((mu, eval_padic(mu, seq)) for mu in members_upto_order(fam, order_cap))
    return UniquenessReport(order_cap, *first_collision(pairs, stop_at_collision))


def enumerate_subset_ref(fam, seq, bound) -> SubsetReport:
    walk = members_upto_order(fam, seq.top_below(bound))
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
