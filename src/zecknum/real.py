"""Numeration of the unit interval.

Here the basis values Q_1 > Q_2 > ... decrease to zero (Q_0 = 1 by
convention), admissibility is a maximal family read upwards, and the greedy
expansion takes the largest affordable basis value, then follows the maximal
row of that index as far as the remainder affords, block by block.

Three sequence shapes cover the fixtures: geometric Q_n = omega^n with omega
the positive root of the multiplicity polynomial (a Decimal, or an exact
Fraction when the root is rational), the harmonic Q_n = 1/(n+1), and
block-geometric sequences constant-ratio per period.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from functools import lru_cache, partial
from fractions import Fraction
from itertools import count
from math import gcd
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, Union

from .coeff import CoeffFn, FamilyError, check_horizon

if TYPE_CHECKING:
    from .blocks import MaximalFamily

Numeric = Union[Fraction, Decimal]


# terms a sequence keeps: an expansion rereads a few hundred; the bound keeps long horizons flat
TERM_CACHE = 1024


class GeometricSeq:
    """Q_n = omega^n for omega in (0, 1): exact for a Fraction, a Decimal
    rounded in the sequence's own ``context`` whatever the caller's is; the
    functions here that add up terms enter that context too."""

    def __init__(self, omega: Numeric, prec: int = 60):
        if not 0 < omega < 1:
            raise FamilyError(f"geometric ratio must lie in (0,1), got {omega}")
        self.omega = omega
        self.context = Context(prec=prec)
        # a Fraction power is exact; a Decimal one rounds in the sequence's context, not the caller's
        power = omega.__pow__ if isinstance(omega, Fraction) else partial(self.context.power, omega)
        self._term = lru_cache(maxsize=TERM_CACHE)(power)

    def value(self, n: int) -> Numeric:
        return self._term(n)

    def __repr__(self) -> str:
        return f"GeometricSeq({self.omega})"


class HarmonicSeq:
    """Q_n = 1/(n+1), exactly."""

    def __init__(self):
        self._term = lru_cache(maxsize=TERM_CACHE)(lambda n: Fraction(1, n + 1))

    def value(self, n: int) -> Fraction:
        return self._term(n)

    def __repr__(self) -> str:
        return "HarmonicSeq()"


class BlockGeometricSeq:
    """Q_{mN+t} = seed_t * ratio^m for t in 1..N; extends to Q_0 = 1.

    Seeds must decrease strictly and the ratio must drop the next period
    strictly below the current one.
    """

    def __init__(self, seeds: Sequence[Fraction], ratio: Fraction):
        self.seeds = tuple(Fraction(s) for s in seeds)
        self.ratio = Fraction(ratio)
        if not self.seeds or any(b >= a for a, b in zip(self.seeds, self.seeds[1:])):
            raise FamilyError(f"seeds must decrease strictly, got {self.seeds}")
        if not 0 < self.ratio < 1 or self.seeds[0] >= 1:
            raise FamilyError("need 0 < ratio < 1 and seeds below 1")
        if self.seeds[0] * self.ratio >= self.seeds[-1]:
            raise FamilyError("ratio too large: periods would overlap")
        self._term = lru_cache(maxsize=TERM_CACHE)(self._compute)

    def _compute(self, n: int) -> Fraction:
        m, t = divmod(n - 1, len(self.seeds))
        return self.seeds[t] * self.ratio**m

    def value(self, n: int) -> Fraction:
        return self._term(n)

    def __repr__(self) -> str:
        return f"BlockGeometricSeq({self.seeds}, ratio={self.ratio})"


def _first_below(holds, above: int) -> int:
    """Smallest n > ``above`` with ``holds(n)`` false, for a test that holds at
    ``above`` and, once false, stays false: doubling steps past it, then bisection."""
    lo, hi = above, above + 1
    while holds(hi):
        lo, hi = hi, 2 * hi - above
    # holds(lo) and not holds(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return hi


def find_first_below(seq, x: Numeric, above: int = 0) -> int:
    """Smallest n >= 1 with Q_n <= x, for a decreasing sequence and 0 < x < 1;
    given Q_above > x (Q_0 = 1), that n lies above ``above`` and the search starts there."""
    if not 0 < x < 1:
        raise ValueError(f"need 0 < x < 1, got {x}")
    return _first_below(lambda n: seq.value(n) > x, above)


# -- roots of multiplicity polynomials ---------------------------------------


def rational_root(e: Sequence[int]) -> Fraction | None:
    """The root in (0,1) of sum e_k x^k = 1 when it is rational, for a list
    positive_root accepts: only 1/q can be (rational root theorem), q the first
    with e_1 q^(N-1) + ... + e_N <= q^N, and it is the root if the two are equal."""

    def excess(q: int) -> int:
        return sum(ek * q ** (len(e) - k) for k, ek in enumerate(e, start=1)) - q ** len(e)

    q = _first_below(lambda q: excess(q) > 0, 1)
    return None if excess(q) else Fraction(1, q)


def positive_root(e: Sequence[int], digits: int = 60) -> Decimal:
    """The root in (0,1) of sum e_k x^k = 1 to ``digits`` digits: m/p, p =
    10^(digits+10), for the first integer m with sum e_k m^k p^(N-k) >= p^N,
    rounded half-even in a context of its own, so the caller's precision,
    rounding and traps do not apply."""
    es = tuple(e)
    if not es or es[0] < 1 or es[-1] < 1 or any(v < 0 for v in es):
        raise FamilyError(f"multiplicities {es} must be nonnegative with positive ends")
    p, N = 10 ** (digits + 10), len(es)
    cs, one = [ek * p ** (N - k) for k, ek in enumerate(es, start=1)][::-1], p**N

    def below(m: int) -> bool:  # by Horner's rule
        acc = 0
        for c in cs:
            acc = (acc + c) * m
        return acc < one

    return Context(prec=digits).plus(Decimal(f"{_first_below(below, 0)}e-{digits + 10}"))


def geometric_fundamental(e: Sequence[int], digits: int = 60) -> GeometricSeq:
    """Geometric sequence on the positive root, exact when the root is rational."""
    root = positive_root(e, digits)  # checks e
    return GeometricSeq(rational_root(e) or root, digits)


# -- root dominance ----------------------------------------------------------


class DominanceResult(NamedTuple):
    """``dominant`` True with a witness pair, or None when the test is silent."""

    dominant: bool | None
    witness: tuple[int, int] | None


def dominance_criterion(coeffs: Sequence[int]) -> DominanceResult:
    """Interior-coefficient test for a dominant root of
    a_n z^n - a_{n-1} z^{n-1} - ... - a_1 z - a_0.

    ``coeffs`` is (a_0, ..., a_n), entries nonnegative with a_0, a_n >= 1.
    Two interior powers m < l, both with nonzero coefficients and coprime,
    certify a dominant root; without such a pair the test says nothing
    (which happens even for some polynomials whose root is dominant).
    """
    a = tuple(coeffs)
    n = len(a) - 1
    if n < 1 or a[0] < 1 or a[n] < 1 or any(v < 0 for v in a):
        raise ValueError(f"need nonnegative coefficients with positive ends, got {a}")
    pairs = ((m, l) for m in range(1, n) if a[m] for l in range(m + 1, n) if a[l] and gcd(m, l) == 1)
    pair = next(pairs, None)  # the first in lex order, as the witness
    return DominanceResult(True if pair else None, pair)


def multiplicity_list_dominant(e: Sequence[int]) -> DominanceResult:
    """Dominance of z^N - e_1 z^{N-1} - ... - e_N, decided for every valid list.

    The tail positions 1 and N (counted down from the leading term) carry
    positive coefficients and are coprime, which certifies a dominant root
    where the interior-only test can stay silent (N = 2 being the standard
    case).  Witness positions are tail distances, not z-powers.
    """
    es = tuple(e)
    if not es or es[0] < 1 or es[-1] < 1 or any(v < 0 for v in es):
        raise FamilyError(f"multiplicities {es} must be nonnegative with positive ends")
    return DominanceResult(True, (1, len(es)) if len(es) > 1 else None)


# -- identities and expansions -----------------------------------------------


class IdentityReport(NamedTuple):
    lhs: Numeric
    rhs: Numeric
    error: Numeric
    tol: Numeric
    ok: bool


def verify_maximal_identity(fam: MaximalFamily, seq, n: int, horizon: int, tol) -> IdentityReport:
    """Check that the maximal row at n, summed against Q up to the horizon,
    lands within tol of Q_{n-1}."""
    check_horizon(horizon)
    with localcontext(getattr(seq, "context", None)):
        total = seq.value(n) * 0  # zero of the sequence's numeric type
        for k, d in fam.support(n):
            if k > horizon:
                break
            total += d * seq.value(k)
        rhs = seq.value(n - 1)
        err = abs(rhs - total)
    return IdentityReport(total, rhs, err, tol, err <= tol)


class Expansion(NamedTuple):
    """Greedy expansion result: the digit function, what is left, and whether
    the remainder is exactly zero."""

    fn: CoeffFn
    residual: Numeric
    exact: bool
    blocks_used: int


def expand_real(
    x: Numeric,
    fam: MaximalFamily,
    seq,
    max_blocks: int = 8,
    residual_tol: Numeric | None = Fraction(1, 10**30),
) -> Expansion:
    """Greedy block expansion of 0 < x < 1.

    Each block starts at the largest affordable basis value and follows that
    maximal row upward, taking every digit as fully as the remainder affords;
    the first short digit closes the block, and the next block necessarily
    starts strictly above it.  Stops on an exact zero remainder, a remainder
    at or under residual_tol, or after max_blocks blocks; on a decimal
    sequence also at a term too small to move the remainder at the working
    precision.  ``x`` is read exactly on a sequence of fractions, at the
    precision of a decimal one; x = 0 is the empty expansion, and x outside
    [0, 1) a ValueError.
    """
    if not 0 <= x < 1:
        raise ValueError(f"need 0 < x < 1, got {x}")
    if not isinstance(seq.value(1), Decimal):
        return _expand_rational(x, fam, seq, max_blocks, residual_tol)
    pairs: list[tuple[int, int]] = []
    blocks = above = 0
    with localcontext(getattr(seq, "context", None)):
        rem = Decimal(x.numerator) / x.denominator if isinstance(x, Fraction) else x
        while rem and blocks < max_blocks and (residual_tol is None or rem > residual_tol):
            for k, d in fam.support(find_first_below(seq, rem, above)):
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
    return Expansion(CoeffFn(tuple(pairs)), rem, not rem, blocks)


def _expand_rational(x, fam: MaximalFamily, seq, max_blocks: int, residual_tol) -> Expansion:
    """expand_real on a sequence of Fractions, in integers: the remainder is
    the reduced pair rn/rd and each term is read as its own pair qn/qd."""
    rn, rd = x.as_integer_ratio()  # in lowest terms for a Fraction, a Decimal or an int
    if residual_tol is not None:
        tn, td = residual_tol.as_integer_ratio()
    value = seq.value
    pairs: list[tuple[int, int]] = []
    blocks = above = 0

    def above_rem(n: int) -> bool:
        qn, qd = value(n).as_integer_ratio()
        return qn * rd > rn * qd

    while rn and blocks < max_blocks and (residual_tol is None or rn * td > tn * rd):
        for k, d in fam.support(_first_below(above_rem, above)):
            qn, qd = value(k).as_integer_ratio()
            c = min(d, rn * qd // (rd * qn))
            if c:
                pairs.append((k, c))
                rn, rd = rn * qd - c * qn * rd, rd * qd
                g = gcd(rn, rd)
                rn, rd = rn // g, rd // g
            if c < d:
                break
        blocks += 1
        # rem < Q_k after the short digit at k, unless a finite row was taken whole
        above = k if rn * qd < qn * rd else 0
    return Expansion(CoeffFn(tuple(pairs)), Fraction(rn, rd), not rn, blocks)


def eval_expansion(fn, seq) -> Numeric:
    """Value of a digit function against a decreasing sequence."""
    with localcontext(getattr(seq, "context", None)):
        total = seq.value(1) * 0
        for k, d in fn:
            total += d * seq.value(k)
    return total


# -- specific families on (0,1) ----------------------------------------------


def harmonic_maximal_family() -> MaximalFamily:
    """Maximal rows of the 1/(n+1) system: the support chain n, n(n+1), and
    then m -> m(m+1) forever, every digit 1 (a telescoping of 1/n)."""
    from .blocks import MaximalFamily

    def support(n: int) -> Iterator[tuple[int, int]]:
        m = n
        while True:
            yield (m, 1)
            m = m * (m + 1)

    return MaximalFamily(support, name="harmonic")


def periodic_maximal_family(own_rows: Sequence[Sequence[int]], name: str = "periodic") -> MaximalFamily:
    """Maximal rows for a period-N block system on (0,1).

    own_rows[t-1] gives the digits of a row starting at position t of its
    period, through that period's end (so its length is N-t+1); past its own
    period every row continues with own_rows[0] repeated period-aligned.
    Each own row starts with a nonzero digit, the row's digit at its own
    index; own_rows[0] doing so also keeps every row's support infinite.
    """
    from .blocks import MaximalFamily
    rows = [tuple(r) for r in own_rows]
    N = len(rows)
    if not rows or any(len(r) != N - i for i, r in enumerate(rows)):
        raise FamilyError(f"{name}: own-row lengths must be N, N-1, ..., 1")
    if any(d < 0 for r in rows for d in r):
        raise FamilyError(f"{name}: bad own rows {rows}")
    zero = next((t for t, r in enumerate(rows, start=1) if not r[0]), None)
    if zero:
        raise FamilyError(f"{name}: own row {zero} has digit 0 at its own index")

    def support(n: int) -> Iterator[tuple[int, int]]:
        own = rows[(n - 1) % N]
        end = n + len(own) - 1
        for k in count(n):
            d = own[k - n] if k <= end else rows[0][(k - end - 1) % N]
            if d:
                yield k, d

    return MaximalFamily(support, name=name)
