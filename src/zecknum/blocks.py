"""Digit-admissibility via block decompositions.

An *ascending system* (for integer numeration) is determined by a predecessor
family: for every n >= 2 a coefficient function ``row(n)`` of order n-1 that
acts as the immediate predecessor of basis(n).  A function belongs to the
system iff it splits into contiguous blocks, scanned from its top index
downwards against the rows, with only the bottom block allowed to exhaust a
whole row ("maximal").

A *descending system* (for numeration of (0,1)) is determined by a maximal
family: for every n >= 1 a lazily-evaluated row of order n with infinite
support, the largest member starting at index n.  Membership is decided at a
finite horizon M by the mirrored scan, upwards from index 1; the last block
may be cut by the horizon and is flagged as truncated.

Both scans yield the successor/predecessor rules and hence enumeration.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from .coeff import DIGIT_LIMIT, ZERO, CoeffFn, IndexInterval


class FamilyError(ValueError):
    """A family row failed validation (wrong order, bad support, bad digit)."""


class NotMemberError(ValueError):
    """Function not admissible; ``witness`` is the index where the scan failed."""

    def __init__(self, witness: int, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"not a member, witness index {witness}")


class AtMaximumError(ValueError):
    """The horizon-restricted maximum has no successor."""


class WalkLimitError(ValueError):
    """A bounded walk reached more than MEMBER_LIMIT members."""


@dataclass(frozen=True)
class RowShape:
    """Rows of a structural family, described instead of stored.

    Row n carries the pairs ``head(n)`` (zero digits allowed, indices above
    ``top(n)``) and, at every index j <= top(n), the digit ``tail(j, n % period)``.
    """

    tail: Callable[[int, int], int]
    period: int = 1
    head: Callable[[int], Iterable[tuple[int, int]]] = lambda n: ()
    top: Callable[[int], int] = lambda n: n - 1


class PredecessorFamily:
    """Lazily-validated table n -> immediate predecessor of basis(n), n >= 2.

    Rows come from a RowShape, or from ``row_fn(n)`` wrapped as a shape whose
    head is the whole row; each is built once, and row n must have order n-1
    and digits in [0, DIGIT_LIMIT).  Bounded tables raise FamilyError past
    their last row.
    """

    def __init__(
        self,
        row_fn: Callable[[int], CoeffFn] | None = None,
        name: str = "family",
        shape: RowShape | None = None,
    ):
        if row_fn is not None:
            shape = RowShape(lambda j, r: 0, head=lambda n: row_fn(n).items(), top=lambda n: 0)
        self.name = name
        self.shape = shape
        self._parts: dict[int, tuple[dict[int, int], int, list[int], int]] = {}
        self._tails = [[0] for _ in range(shape.period)]
        # beside each tail: _nonzero[r][j] is the largest i <= j with tail[i] != 0, or 0
        self._nonzero = [[0] for _ in range(shape.period)]

    def row(self, n: int) -> CoeffFn:
        """Row n as a CoeffFn, built from parts(n) on each call."""
        return CoeffFn(self.digits_desc(n))

    def digits_desc(self, n: int) -> Iterator[tuple[int, int]]:
        """Row n's nonzero (index, digit) pairs in descending index order."""
        head, top, tail, r = self.parts(n)
        yield from head.items()
        nonzero, j = self._nonzero[r], top
        while j := nonzero[j]:
            yield j, tail[j]
            j -= 1

    def parts(self, n: int) -> tuple[dict[int, int], int, list[int], int]:
        """Row n as (head, top, tail, residue), memoized: digit k is tail[k] for
        k <= top, else head.get(k, 0).  head keeps nonzero digits in descending
        index order; tail is shared by the rows of residue n % period.  Besides
        digits_desc, _scan_asc, walk_values and FundamentalSeq.from_family
        read this inline."""
        p = self._parts.get(n)
        if p is None:
            p = self._parts[n] = self._make_parts(n)
        return p

    def _make_parts(self, n: int) -> tuple[dict[int, int], int, list[int], int]:
        if n < 2:
            raise FamilyError(f"{self.name}: predecessor rows start at n=2, got {n}")
        s = self.shape
        r, top = n % s.period, s.top(n)
        tail, nonzero = self._tails[r], self._nonzero[r]
        for j in range(len(tail), top + 1):
            tail.append(self._checked(j, s.tail(j, r)))
            nonzero.append(j if tail[j] else nonzero[j - 1])
        head = {k: self._checked(k, d) for k, d in sorted(s.head(n), reverse=True) if d}
        order = next(iter(head), 0) or nonzero[top]
        if order != n - 1:
            raise FamilyError(f"{self.name}: row {n} has order {order}, expected {n - 1}")
        return head, top, tail, r

    def _checked(self, k: int, d: int) -> int:
        if not 0 <= d < DIGIT_LIMIT:
            raise FamilyError(f"{self.name}: digit {d} at index {k} is out of range")
        return d

    def __repr__(self) -> str:
        return f"PredecessorFamily({self.name!r})"


class MaximalRow:
    """One lazily-evaluated descending row: the largest member of order n."""

    __slots__ = ("family", "n")

    def __init__(self, family: "MaximalFamily", n: int):
        self.family = family
        self.n = n

    def digit(self, k: int) -> int:
        if k < self.n:
            return 0
        return self.family._digit_fn(self.n, k)

    def support_iter(self, start: int | None = None) -> Iterator[tuple[int, int]]:
        """Nonzero (index, digit) pairs in ascending index order, never ending."""
        return self.family._support_fn(self.n, start if start is not None else self.n)


class MaximalFamily:
    """Descending family n -> maximal row of order n (infinite support).

    ``digit_fn(n, k)`` gives the digit of row n at index k >= n; ``support_fn``
    may be supplied to iterate nonzero digits directly (defaults to scanning
    digit_fn index by index, fine for dense patterns, hopeless for sparse
    ones like the harmonic chain).
    """

    def __init__(
        self,
        digit_fn: Callable[[int, int], int],
        support_fn: Callable[[int, int], Iterator[tuple[int, int]]] | None = None,
        name: str = "maximal-family",
    ):
        self._digit_fn = digit_fn
        self._support_fn = support_fn or self._scan_support
        self.name = name
        self._checked: set[int] = set()

    def _scan_support(self, n: int, start: int) -> Iterator[tuple[int, int]]:
        k = max(start, n)
        while True:
            d = self._digit_fn(n, k)
            if d:
                yield (k, d)
            k += 1

    def row(self, n: int) -> MaximalRow:
        if n < 1:
            raise FamilyError(f"{self.name}: rows start at n=1, got {n}")
        if n not in self._checked:
            if self._digit_fn(n, n) < 1:
                raise FamilyError(f"{self.name}: row {n} has digit 0 at its own index")
            self._checked.add(n)
        return MaximalRow(self, n)

    def __repr__(self) -> str:
        return f"MaximalFamily({self.name!r})"


@dataclass(frozen=True)
class Block:
    """One block of a decomposition: digits restricted to a support interval.

    ``maximal`` marks an ascending bottom block that exhausts a family row;
    ``truncated`` marks a descending last block cut by the horizon.
    """

    support: IndexInterval
    digits: CoeffFn
    maximal: bool = False
    truncated: bool = False


@dataclass(frozen=True)
class Decomposition:
    """Blocks in ascending support order, tiling [1, top] with no gaps."""

    blocks: tuple[Block, ...]

    @property
    def bottom(self) -> Block | None:
        return self.blocks[0] if self.blocks else None

    @property
    def last(self) -> Block | None:
        return self.blocks[-1] if self.blocks else None


# -- ascending world ---------------------------------------------------------


def _scan_asc(mu: CoeffFn, fam: PredecessorFamily) -> list[tuple[int, int, bool]]:
    """Split ``mu`` into spans (lo, hi, maximal), top-down, or raise NotMemberError.

    Scanning from the top index n against row(n+1): the first index where mu
    drops below the row closes a block there; exceeding the row anywhere is a
    failure; matching the row all the way down to 1 is the maximal block,
    necessarily the bottom one.
    """
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


def decompose_asc(mu: CoeffFn, fam: PredecessorFamily) -> Decomposition:
    """Unique block decomposition of an ascending member (NotMemberError otherwise)."""
    spans = _scan_asc(mu, fam)
    blocks = tuple(
        Block(IndexInterval(lo, hi), mu.restrict(lo, hi), maximal=mx)
        for lo, hi, mx in reversed(spans)
    )
    return Decomposition(blocks)


def is_member_asc(mu: CoeffFn, fam: PredecessorFamily) -> bool:
    try:
        _scan_asc(mu, fam)
        return True
    except NotMemberError:
        return False


def successor_asc(mu: CoeffFn, fam: PredecessorFamily) -> CoeffFn:
    """Immediate successor in ascending lex order among members.

    Bottom block maximal (= row(n), support [1, n-1]): clear it and carry one
    digit into index n.  Otherwise just raise the digit at index 1.
    """
    spans = _scan_asc(mu, fam)
    if spans and spans[-1][2]:
        n = spans[-1][1] + 1
        return mu.restrict(n).plus_basis(n)
    return mu.plus_basis(1)


def predecessor_asc(mu: CoeffFn, fam: PredecessorFamily) -> CoeffFn:
    """Inverse of successor_asc; undefined on the zero function."""
    if not mu:
        raise ValueError("the zero function has no predecessor")
    if mu.digit(1) >= 1:
        return mu.minus_basis(1)
    n = mu.order_desc
    assert isinstance(n, int)
    return fam.row(n) + mu.minus_basis(n)


# Most members one bounded walk may yield; a cap past it is refused part way
# instead of running for hours (mult-11-3 has about 14^8 members of order <= 8).
MEMBER_LIMIT = 10**6


def _check_cap(k: int) -> int:
    if k < 0:
        raise ValueError(f"order cap must be nonnegative, got {k}")
    return k


def walk_values(
    fam: PredecessorFamily, q: Callable[[int], int] | None = None, start: CoeffFn = ZERO, cap: int | None = None
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(value, digits) of the members from ``start`` on, in ascending lex order.

    The one member walker, amortized O(1) per member: ``start`` is scanned once
    (a non-member is yielded, then NotMemberError raised); then the walker keeps
    its decomposition's spans [lo, hi, maximal], bar all-zero singletons, and
    ``digits``, the support pairs top first, one list edited in place at its low
    end.  The value sum(d * q(k)) rides along (0 without ``q``): a carry takes
    off the pairs it clears, the raised digit adds q(n).  An order ``cap`` (not
    below the start's order) ends the walk at the first member past it, and
    member MEMBER_LIMIT + 1 raises WalkLimitError, both before its q is read.
    """
    # members left before the limit (never 0 uncapped), and a cap no index passes
    left, cap = (-1, sys.maxsize) if cap is None else (MEMBER_LIMIT, _check_cap(cap))
    digits = list(reversed(start.items()))
    value = sum(d * q(k) for k, d in start.items()) if q else 0
    yield value, digits
    blocks = [[lo, hi, mx] for lo, hi, mx in _scan_asc(start, fam) if mx or lo < hi or start.digit(lo)]
    built, parts, nonzero = fam._parts, fam.parts, fam._nonzero  # parts() memoizes into built
    while True:
        # carry: a maximal bottom block [1, hi] clears into hi + 1, else index 1 goes up
        if blocks and blocks[-1][2]:
            hi = blocks.pop()[1]
            while digits and digits[-1][0] <= hi:
                k, d = digits.pop()
                if q:
                    value -= d * q(k)
            n = hi + 1
        else:
            n = 1
        # the pairs above n are an earlier member's: the order passes the cap iff n does
        if n > cap:
            return
        left -= 1
        if not left:
            raise WalkLimitError(f"order cap {cap} walks more than {MEMBER_LIMIT:,} members; lower the cap")
        # n is the low end of the block above, or an all-zero singleton against row(n+1)
        if blocks and blocks[-1][0] == n:
            block = blocks[-1]
        else:
            block = [n, n, False]
            blocks.append(block)
        if digits and digits[-1][0] == n:
            d = digits[-1][1] + 1
            digits[-1] = (n, d)
        else:
            d = 1
            digits.append((n, 1))
        if q:
            value += q(n)
        yield value, digits
        # a digit that reaches its row digit extends the block down to the row's
        # next nonzero index, or, with none left, to 1 as the maximal block
        head, top, tail, r = built.get(block[1] + 1) or parts(block[1] + 1)
        if d == (tail[n] if n <= top else head.get(n, 0)):
            lo = next((k for k in head if k < n), 0) if n - 1 > top else 0
            lo = lo or nonzero[r][min(n - 1, top)]
            block[0], block[2] = (lo, False) if lo else (1, True)


def member(digits: list[tuple[int, int]]) -> CoeffFn:
    """A walk_values member; its digits stay under validated row digits."""
    return CoeffFn._trusted(tuple(digits[::-1]))


def enumerate_asc(fam: PredecessorFamily, start: CoeffFn = ZERO) -> Iterator[CoeffFn]:
    """Members from ``start`` on, in ascending lex order (never ends)."""
    trusted = CoeffFn._trusted  # member() inlined: one call less per member
    return (trusted(tuple(digits[::-1])) for _, digits in walk_values(fam, start=start))


def members_upto_order(fam: PredecessorFamily, k: int) -> Iterator[CoeffFn]:
    """Members of order <= k in ascending lex order, zero included, lazily."""
    return (member(digits) for _, digits in walk_values(fam, cap=_check_cap(k)))


def first_collision(
    pairs: Iterable[tuple[object, object]], stop: bool = True
) -> tuple[int, int, tuple[object, object, object] | None, bool]:
    """(members seen, distinct values, first collision (value, earlier, later)
    or None, whether the pairs ran out) for a stream of (key, value) pairs;
    ``stop`` ends the scan at the collision, counting only that prefix."""
    first_by_value: dict[object, object] = {}
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


def value_collision(
    fam: PredecessorFamily, q: Callable[[int], int], cap: int, stop: bool = True, modulus: int | None = None
) -> tuple[int, int, tuple[int, CoeffFn, CoeffFn] | None, bool]:
    """first_collision on the members of order <= cap, keyed by rank, by their
    walk_values value (mod ``modulus`` if given).  Only the two colliding
    members are built: the earlier by a re-walk to its rank, the later from
    the stopped walk's own digits (or by a re-walk, if the walk went on)."""
    walk = walk_values(fam, q, cap=cap)
    v0, live = next(walk)
    values = chain((v0,), (v for v, _ in walk))
    if modulus:
        values = (v % modulus for v in values)
    seen, distinct, collision, done = first_collision(enumerate(values), stop)
    if collision:
        v, i, j = collision
        collision = (v, _member_at(fam, i), _member_at(fam, j) if done else member(live))
    return seen, distinct, collision, done


def _member_at(fam: PredecessorFamily, rank: int) -> CoeffFn:
    return member(next(islice(walk_values(fam), rank, None))[1])


# -- descending world --------------------------------------------------------


def check_horizon(horizon: int) -> None:
    """Reject a horizon below 1: no index lies under it, so nothing is decided."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")


def _scan_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> list[tuple[int, int, bool]]:
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
        row = fam.row(n)
        i = n
        while i <= horizon:
            ei = eps.digit(i)
            pi = row.digit(i)
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


def decompose_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> Decomposition:
    """Block decomposition of a horizon-restricted member (NotMemberError otherwise)."""
    spans = _scan_desc(eps, fam, horizon)
    blocks = tuple(
        Block(IndexInterval(lo, hi), eps.restrict(lo, hi), truncated=tr)
        for lo, hi, tr in spans
    )
    return Decomposition(blocks)


def is_member_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> bool:
    try:
        _scan_desc(eps, fam, horizon)
        return True
    except NotMemberError:
        return False


def successor_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> CoeffFn:
    """Immediate successor in descending lex order at the horizon.

    If the last block is cut by the horizon, drop it and carry one digit into
    the index just below its start; if it closes exactly at the horizon, raise
    the digit there.  The full row(1) restriction is the maximum and has no
    successor.
    """
    spans = _scan_desc(eps, fam, horizon)
    lo, _, truncated = spans[-1]
    if truncated:
        if lo == 1:
            raise AtMaximumError(f"maximum of the system restricted to [1, {horizon}]")
        return eps.restrict(1, lo - 1).plus_basis(lo - 1)
    return eps.plus_basis(horizon)


def enumerate_desc(fam: MaximalFamily, horizon: int) -> Iterator[CoeffFn]:
    """All horizon-restricted members in descending lex order, zero first;
    a horizon below 1 is rejected here, before the first member."""
    check_horizon(horizon)

    def walk() -> Iterator[CoeffFn]:
        cur = ZERO
        while True:
            yield cur
            try:
                cur = successor_desc(cur, fam, horizon)
            except AtMaximumError:
                return

    return walk()
