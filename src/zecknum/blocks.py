"""Digit-admissibility via block decompositions.

An *ascending system* (for integer numeration) is determined by a predecessor
family: for every n >= 2 a coefficient function ``row(n)`` of order n-1 that
acts as the immediate predecessor of basis(n).  A function belongs to the
system iff it splits into contiguous blocks, scanned from its top index
downwards against the rows, with only the bottom block allowed to exhaust a
whole row ("maximal").

A *descending system* (for numeration of (0,1)) is determined by a maximal
family: for every n >= 1 a row of order n with infinite support, the largest
member starting at index n, given by its nonzero digits.  At a finite horizon
M it is the ascending system of its mirror, index i read as M+1-i: the same
scan decides membership and blocks (a block cut by the horizon is the
mirror's maximal one, flagged as truncated), and the same walker enumerates.
"""

from __future__ import annotations

import sys
from itertools import takewhile
from typing import Callable, Iterable, Iterator, NamedTuple

from .coeff import DIGIT_LIMIT, ZERO, CoeffFn, FamilyError, IndexInterval, NotMemberError, WalkLimitError, check_horizon


class RowShape(NamedTuple):
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
        """Row n as a CoeffFn, built from digits(n) on each call."""
        return CoeffFn(self.digits(n))

    def digits(self, n: int) -> list[tuple[int, int]]:
        """Row n's nonzero (index, digit) pairs, top first, read from parts(n):
        the head, then the tail's nonzero digits down the _nonzero chain."""
        head, top, tail, r = self.parts(n)
        pairs, nonzero, j = list(head.items()), self._nonzero[r], top
        while j := nonzero[j]:
            pairs.append((j, tail[j]))
            j -= 1
        return pairs

    def parts(self, n: int) -> tuple[dict[int, int], int, list[int], int]:
        """Row n as (head, top, tail, residue), memoized: digit k is tail[k] for
        k <= top, else head.get(k, 0).  head keeps nonzero digits in descending
        index order; tail is shared by the rows of residue n % period.  Besides
        digits (the runs of order_values, which also answer encode_int on a
        sequence that is not increasing, and order_members), the kernels
        _scan_asc, walk_asc, integers.encode_int and FundamentalSeq.from_family
        (the derived sequence, which counts and unranks members) read this
        inline."""
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


class MaximalFamily:
    """Descending family n -> maximal row of order n (infinite support).

    ``support_fn(n, start)`` yields row n's nonzero (index, digit) pairs at
    the indices >= start >= n, in ascending order and without end.
    """

    def __init__(self, support_fn: Callable[[int, int], Iterator[tuple[int, int]]], name: str = "maximal-family"):
        self._support_fn = support_fn
        self.name = name
        self._checked: set[int] = set()
        self._mirrors: dict[int, PredecessorFamily] = {}  # horizon -> mirror(horizon)

    def support(self, n: int, start: int | None = None) -> Iterator[tuple[int, int]]:
        """Row n's nonzero (index, digit) pairs from ``start`` (default n) on,
        ascending, never ending; row n must exist and carry a digit at n."""
        if n not in self._checked:
            if n < 1:
                raise FamilyError(f"{self.name}: rows start at n=1, got {n}")
            if next(self._support_fn(n, n))[0] != n:
                raise FamilyError(f"{self.name}: row {n} has digit 0 at its own index")
            self._checked.add(n)
        return self._support_fn(n, n if start is None else max(start, n))

    def mirror(self, horizon: int) -> PredecessorFamily:
        """The rows cut at ``horizon``, index i read as horizon + 1 - i: row m
        of the result, 2 <= m <= horizon + 1, is row horizon + 2 - m flipped.
        Descending lex order at the horizon is ascending lex order there, a
        truncated block is a maximal one, and the carry into horizon + 1 steps
        past the maximum.  Built once per horizon, its rows with it."""
        if (mirror := self._mirrors.get(horizon)) is None:
            check_horizon(horizon)
            flip = horizon + 1

            def row(m: int) -> CoeffFn:
                return CoeffFn((flip - k, d) for k, d in takewhile(lambda p: p[0] <= horizon, self.support(flip + 1 - m)))

            mirror = self._mirrors[horizon] = PredecessorFamily(row, name=f"{self.name}@{horizon}")
        return mirror

    def __repr__(self) -> str:
        return f"MaximalFamily({self.name!r})"


class Block(NamedTuple):
    """One block of a decomposition: digits restricted to a support interval.

    ``maximal`` marks an ascending bottom block that exhausts a family row;
    ``truncated`` marks a descending last block cut by the horizon.
    """

    support: IndexInterval
    digits: CoeffFn
    maximal: bool = False
    truncated: bool = False


class Decomposition(NamedTuple):
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
    necessarily the bottom one.  mu's digits are read from one dense list.
    """
    spans: list[tuple[int, int, bool]] = []
    n = mu.order_asc
    digits = [0] * (n + 1)
    for k, d in mu.items():
        digits[k] = d
    built, parts = fam._parts, fam.parts  # parts() memoizes into built
    while n >= 1:
        head, top, tail, _ = built.get(n + 1) or parts(n + 1)
        k = n  # down to the highest index where mu leaves the row, or 0
        while k > top and digits[k] == head.get(k, 0):
            k -= 1
        while 0 < k <= top and digits[k] == tail[k]:
            k -= 1
        if not k:
            spans.append((1, n, True))
            break
        if digits[k] > (tail[k] if k <= top else head.get(k, 0)):
            raise NotMemberError(k)
        spans.append((k, n, False))
        n = k - 1
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
    return fam.row(n) + mu.minus_basis(n)


# Most members one bounded walk may yield; a cap past it is refused part way
# instead of running for hours (mult-11-3 has about 14^8 members of order <= 8).
MEMBER_LIMIT = 10**6


def _check_cap(k: int) -> int:
    if k < 0:
        raise ValueError(f"order cap must be nonnegative, got {k}")
    return k


def _limit_error(cap: int) -> WalkLimitError:
    return WalkLimitError(f"order cap {cap} walks more than {MEMBER_LIMIT:,} members; lower the cap")


def walk_asc(fam: PredecessorFamily, start: CoeffFn = ZERO, cap: int | None = None) -> Iterator[list[tuple[int, int]]]:
    """The digits of the members from ``start`` on, in ascending lex order.

    The one member walker, amortized O(1) per member: ``start`` is scanned once
    (a non-member is yielded, then NotMemberError raised); then the walker keeps
    its decomposition's spans [lo, hi, maximal], bar all-zero singletons, and
    yields ``digits``, the support pairs top first, one list edited in place at
    its low end.  An order ``cap`` (not below the start's order) ends the walk
    at the first member past it, and member MEMBER_LIMIT + 1 raises
    WalkLimitError.
    """
    # members left before the limit (never 0 uncapped), and a cap no index passes
    left, cap = (-1, sys.maxsize) if cap is None else (MEMBER_LIMIT, _check_cap(cap))
    digits = list(reversed(start.items()))
    yield digits
    blocks = [[lo, hi, mx] for lo, hi, mx in _scan_asc(start, fam) if mx or lo < hi or start.digit(lo)]
    built, parts, nonzero = fam._parts, fam.parts, fam._nonzero  # parts() memoizes into built
    while True:
        # carry: a maximal bottom block [1, hi] clears into hi + 1, else index 1 goes up
        if blocks and blocks[-1][2]:
            hi = blocks.pop()[1]
            while digits and digits[-1][0] <= hi:
                digits.pop()
            n = hi + 1
        else:
            n = 1
        # the pairs above n are an earlier member's: the order passes the cap iff n does
        if n > cap:
            return
        left -= 1
        if not left:
            raise _limit_error(cap)
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
        yield digits
        # a digit that reaches its row digit extends the block down to the row's
        # next nonzero index, or, with none left, to 1 as the maximal block
        head, top, tail, r = built.get(block[1] + 1) or parts(block[1] + 1)
        if d == (tail[n] if n <= top else head.get(n, 0)):
            lo = next((k for k in head if k < n), 0) if n - 1 > top else 0
            lo = lo or nonzero[r][min(n - 1, top)]
            block[0], block[2] = (lo, False) if lo else (1, True)


def enumerate_asc(fam: PredecessorFamily, start: CoeffFn = ZERO) -> Iterator[CoeffFn]:
    """Members from ``start`` on, in ascending lex order (never ends)."""
    trusted = CoeffFn._trusted  # the walk's digits stay under validated row digits
    return (trusted(tuple(digits[::-1])) for digits in walk_asc(fam, start))


def members_upto_order(fam: PredecessorFamily, k: int) -> Iterator[CoeffFn]:
    """Members of order <= k in ascending lex order, zero included, lazily."""
    trusted = CoeffFn._trusted
    return (trusted(tuple(digits[::-1])) for digits in walk_asc(fam, cap=_check_cap(k)))


def _runs(digits: list[tuple[int, int]], n: int, qs: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """The runs row n+1's members of order n fall into, in lex order: for each
    pair (k, c) = digits[i] and t < c (t >= 1 at k = n), (i, k, t, shift), the
    members of order < k under digits[:i] and t at k, worth ``shift`` (by qs)
    more; last (len(digits), 1, 0, shift), row n+1 over zero."""
    prefix = 0
    for i, (k, c) in enumerate(digits):
        for t in range(k == n, c):
            yield i, k, t, prefix + t * qs[k]
        prefix += c * qs[k]
    yield len(digits), 1, 0, prefix


def order_values(
    fam: PredecessorFamily, q: Callable[[int], int], cap: int, modulus: int | None = None
) -> Iterator[list[int]]:
    """The values of the members of order <= cap, one order at a time.

    Yields one list, grown in place: after step n (n = 0..cap) it holds the
    values of the members of order <= n in lex order, index = rank, so order
    n's values are its tail past the previous step's length.  Step n appends,
    for each of row n+1's runs (_runs), the list's first size[k] values (the
    members of order < k) plus the run's shift.  Values are reduced mod
    ``modulus``.

    Failures come at walk_asc's member: past MEMBER_LIMIT members
    WalkLimitError, after yielding the list cut at the limit; a missing Q_n
    before order n starts; a missing row n+1 after yielding basis(n)'s value.
    """
    values, size, qs = [0], [0, 1], [0]
    _check_cap(cap)
    yield values
    for n in range(1, cap + 1):
        if len(values) >= MEMBER_LIMIT:
            raise _limit_error(cap)
        qn = q(n)
        qs.append(qn % modulus if modulus else qn)
        try:
            digits = fam.digits(n + 1)
        except Exception:  # whatever the row raises, the walk meets basis(n) first
            values.append(qs[n])
            yield values
            raise
        for _, k, _, shift in _runs(digits, n, qs):
            base = values[: size[k]]
            values += [(v + shift) % modulus for v in base] if modulus else [v + shift for v in base]
            if len(values) > MEMBER_LIMIT:
                del values[MEMBER_LIMIT:]
                yield values
                raise _limit_error(cap)
        size.append(len(values))
        yield values


def order_members(fam: PredecessorFamily, q: Callable[[int], int], cap: int, bound: int) -> list[tuple[tuple, int]]:
    """(pairs, value) of the members of order <= cap worth at most ``bound``,
    in lex order, pairs ascending: order_values' runs, each copying only the
    kept members worth at most bound - shift; shifts grow (every Q_k >= 1), so
    the first past the bound ends the row.  Every Q_n and row n+1 is read, to
    fail as the walk does; past MEMBER_LIMIT members kept WalkLimitError."""
    kept, size, qs = [((), 0)], [0, 1], [0]  # size[k]: kept members of order < k
    for n in range(1, _check_cap(cap) + 1):
        qs.append(q(n))
        digits = fam.digits(n + 1)
        for i, k, t, shift in _runs(digits, n, qs):
            if shift > bound:
                break
            room, above = bound - shift, tuple(digits[:i][::-1])
            suffix = ((k, t), *above) if t else above
            kept += [(pairs + suffix, v + shift) for pairs, v in kept[: size[k]] if v <= room]
            if len(kept) > MEMBER_LIMIT:
                raise WalkLimitError(f"more than {MEMBER_LIMIT:,} members have value <= {bound}; lower the bound")
        size.append(len(kept))
    return kept


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


# -- descending world: the ascending one on the mirrored family --------------


def _spans_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> list[tuple[int, int, bool]]:
    """Spans (lo, hi, truncated) of ``eps`` at the horizon, bottom-up: the
    _scan_asc spans of its mirror read back, after an all-zero singleton for
    each index below its lowest (the blocks _scan_asc leaves implicit above
    the order).  A witness is read back too."""
    check_horizon(horizon)
    if eps.order_asc > horizon:
        raise ValueError(f"support reaches {eps.order_asc}, beyond horizon {horizon}")
    flip = horizon + 1
    mirrored = CoeffFn._trusted(tuple((flip - i, d) for i, d in reversed(eps.items())))
    try:
        spans = _scan_asc(mirrored, fam.mirror(horizon))
    except NotMemberError as exc:
        raise NotMemberError(flip - exc.witness) from None
    zeros = [(i, i, False) for i in range(1, eps.order_desc or flip)]
    return zeros + [(flip - hi, flip - lo, truncated) for lo, hi, truncated in spans]


def decompose_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> Decomposition:
    """Block decomposition of a horizon-restricted member (NotMemberError otherwise)."""
    spans = _spans_desc(eps, fam, horizon)
    blocks = tuple(
        Block(IndexInterval(lo, hi), eps.restrict(lo, hi), truncated=tr)
        for lo, hi, tr in spans
    )
    return Decomposition(blocks)


def is_member_desc(eps: CoeffFn, fam: MaximalFamily, horizon: int) -> bool:
    try:
        _spans_desc(eps, fam, horizon)
        return True
    except NotMemberError:
        return False


def enumerate_desc(fam: MaximalFamily, horizon: int) -> Iterator[CoeffFn]:
    """All horizon-restricted members in descending lex order, zero first: the
    walk of the mirrored family read back, up to its carry into horizon + 1.
    A horizon below 1 is rejected here, before the first member."""
    flip = horizon + 1
    below = takewhile(lambda digits: not digits or digits[0][0] < flip, walk_asc(fam.mirror(horizon)))
    return (CoeffFn._trusted(tuple((flip - j, d) for j, d in digits)) for digits in below)
