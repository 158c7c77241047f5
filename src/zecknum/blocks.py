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

from bisect import bisect_right
from itertools import islice, takewhile
from typing import Callable, Iterable, Iterator, NamedTuple

from .coeff import DIGIT_LIMIT, ZERO, CoeffFn, FamilyError, NotMemberError, WalkLimitError, check_horizon


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
        self.derived = None  # its derived sequence, kept by integers.FundamentalSeq.from_family
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
        digits (the runs of order_values and order_members), the kernels
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

    ``support_fn(n)`` yields row n's nonzero (index, digit) pairs in
    ascending order and without end.
    """

    def __init__(self, support_fn: Callable[[int], Iterator[tuple[int, int]]], name: str = "maximal-family"):
        self._support_fn = support_fn
        self.name = name
        self._checked: set[int] = set()
        self._mirrors: dict[int, PredecessorFamily] = {}  # horizon -> mirror(horizon)

    def support(self, n: int) -> Iterator[tuple[int, int]]:
        """Row n's nonzero (index, digit) pairs, ascending, never ending; row n
        must exist and carry a digit at n."""
        if n not in self._checked:
            if n < 1:
                raise FamilyError(f"{self.name}: rows start at n=1, got {n}")
            if next(self._support_fn(n))[0] != n:
                raise FamilyError(f"{self.name}: row {n} has digit 0 at its own index")
            self._checked.add(n)
        return self._support_fn(n)

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
    """One block of a decomposition: the digits on the indices [lo, hi].

    ``maximal`` marks an ascending bottom block that exhausts a family row;
    ``truncated`` marks a descending last block cut by the horizon.
    """

    lo: int
    hi: int
    digits: CoeffFn
    maximal: bool = False
    truncated: bool = False


class Decomposition(NamedTuple):
    """Blocks in ascending index order, tiling [1, top] with no gaps."""

    blocks: tuple[Block, ...]


def _cut(fn: CoeffFn, spans: Iterable[tuple[int, int, bool]], flag: str) -> Decomposition:
    """``fn`` cut into blocks along ascending spans (lo, hi, ``flag``) that tile
    its support: one pass over its pairs, each block a slice of them."""
    pairs, i, blocks = fn.items(), 0, []
    for lo, hi, f in spans:
        j = bisect_right(pairs, (hi, DIGIT_LIMIT), i)  # past the pairs at indices <= hi
        blocks.append(Block(lo, hi, CoeffFn._trusted(pairs[i:j]), **{flag: f}))
        i = j
    return Decomposition(tuple(blocks))


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
    return _cut(mu, reversed(_scan_asc(mu, fam)), "maximal")


def is_member_asc(mu: CoeffFn, fam: PredecessorFamily) -> bool:
    try:
        _scan_asc(mu, fam)
        return True
    except NotMemberError:
        return False


def successor_asc(mu: CoeffFn, fam: PredecessorFamily) -> CoeffFn:
    """Immediate successor in ascending lex order among members: the second
    member the walker from ``mu`` yields (NotMemberError if ``mu`` is none)."""
    return next(islice(enumerate_asc(fam, mu), 1, None))


def predecessor_asc(mu: CoeffFn, fam: PredecessorFamily) -> CoeffFn:
    """Inverse of successor_asc; undefined on the zero function."""
    if not mu:
        raise ValueError("the zero function has no predecessor")
    if mu.digit(1) >= 1:
        return mu.minus_basis(1)
    n = mu.order_desc
    return fam.row(n) + mu.minus_basis(n)


# Most members one order-capped build may hold, and most nodes one encode may
# search; past it the work is refused instead of running for hours (mult-11-3
# has about 14^8 members of order <= 8).
MEMBER_LIMIT = 10**6


def _check_cap(k: int) -> int:
    if k < 0:
        raise ValueError(f"order cap must be nonnegative, got {k}")
    return k


def _limit_error(cap: int) -> WalkLimitError:
    return WalkLimitError(f"order cap {cap} walks more than {MEMBER_LIMIT:,} members; lower the cap")


def walk_asc(fam: PredecessorFamily, start: CoeffFn = ZERO) -> Iterator[list[tuple[int, int]]]:
    """The digits of the members from ``start`` on, in ascending lex order.

    The one member walker, amortized O(1) per member: ``start`` is scanned once
    (a non-member is yielded, then NotMemberError raised); then the walker keeps
    its decomposition's spans [lo, hi, maximal], bar all-zero singletons, and
    yields ``digits``, the support pairs top first, one list edited in place at
    its low end.
    """
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


def order_values(
    fam: PredecessorFamily, q: Callable[[int], int], cap: int, modulus: int | None = None
) -> Iterator[list[int]]:
    """The values of the members of order <= cap, one order at a time.

    Yields one list, grown in place: after step n (n = 0..cap) it holds the
    values of the members of order <= n in lex order, index = rank, so order
    n's values are its tail past the previous step's length.  Step n appends,
    for each pair (k, c) of row n+1, top first, and t < c (t >= 1 at k = n),
    a run: the first size[k] values (order < k) plus the value of the row
    above k and t at k; then the row's own value, all mod ``modulus``.

    Each order is built whole or not at all: its size, the sum of size[k]
    over row n+1's runs, is read off the row's digits before Q_n is read, and
    an order that takes the list past MEMBER_LIMIT raises WalkLimitError.  A
    missing row n+1 is raised after yielding basis(n)'s value, which the
    walk meets first.
    """
    values, size, qs = [0], [0, 1], [0]
    _check_cap(cap)
    yield values
    for n in range(1, cap + 1):
        try:
            digits = fam.digits(n + 1)
        except Exception:  # whatever the row raises, the walk meets basis(n) first
            values.append(q(n) % modulus if modulus else q(n))
            yield values
            raise
        size.append(len(values) + 1 + sum((c - (k == n)) * size[k] for k, c in digits))
        if size[-1] > MEMBER_LIMIT:
            raise _limit_error(cap)
        qs.append(q(n) % modulus if modulus else q(n))
        prefix = 0
        for k, c in digits:
            base, qk = values[: size[k]], qs[k]
            for t in range(k == n, c):
                shift = prefix + t * qk
                values += [(v + shift) % modulus for v in base] if modulus else [v + shift for v in base]
            prefix += c * qk
        values.append(prefix % modulus if modulus else prefix)
        yield values


def order_members(fam: PredecessorFamily, q: Callable[[int], int], cap: int, bound: int) -> list[tuple[CoeffFn, int]]:
    """(member, value) of the members of order <= cap worth at most ``bound``,
    in lex order: order_values' runs, each copying the kept members worth at
    most bound - shift; shifts grow (every Q_k >= 1).  Every Q_n and row n+1
    is read, to fail as the walk does; past MEMBER_LIMIT kept, WalkLimitError."""
    trusted = CoeffFn._trusted  # each member built once, from pairs known valid
    refusal = "more than {:,} members have value <= {}; lower the bound"  # formatted only when raised
    kept, size, qs = [(ZERO, 0)], [0, 1], [0]  # size[k]: kept members of order < k
    for n in range(1, _check_cap(cap) + 1):
        qs.append(q(n))
        prefix, above = 0, ()  # above: the row's pairs over k, ascending
        for k, c in fam.digits(n + 1):
            for t in range(k == n, c):
                shift = prefix + t * qs[k]
                if shift > bound:
                    break
                room, suffix = bound - shift, ((k, t),) + above if t else above
                for mu, v in kept[: size[k]]:  # a loop, not a comprehension: most runs are short
                    if v <= room:
                        kept.append((trusted(mu._pairs + suffix), v + shift))
                if len(kept) > MEMBER_LIMIT:  # checked after every run
                    raise WalkLimitError(refusal.format(MEMBER_LIMIT, bound))
            prefix, above = prefix + c * qs[k], ((k, c),) + above
        if prefix <= bound:  # row n+1 over zero
            kept.append((trusted(above), prefix))
            if len(kept) > MEMBER_LIMIT:
                raise WalkLimitError(refusal.format(MEMBER_LIMIT, bound))
        size.append(len(kept))
    return kept


def first_collision(pairs: Iterable[tuple[object, object]]) -> tuple[object, object, object] | None:
    """The first repeat (value, earlier key, later key) in a stream of (key,
    value) pairs, or None."""
    first_by_value: dict[object, object] = {}
    for key, v in pairs:
        earlier = first_by_value.setdefault(v, key)
        if earlier is not key:
            return v, earlier, key
    return None


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
    return _cut(eps, _spans_desc(eps, fam, horizon), "truncated")


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
