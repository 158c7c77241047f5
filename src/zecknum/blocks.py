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
M it is the ascending system of its mirror, index i read as M+1-i, and the
same walker enumerates its members.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice, repeat, takewhile
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


_NO_HEAD: dict[int, int] = {}  # the head of every row without head digits: no reader mutates a head


class PredecessorFamily:
    """Lazily-validated table n -> immediate predecessor of basis(n), n >= 2.

    Rows come from a RowShape, or from ``row_fn(n)``, row n's (index, digit)
    pairs, wrapped as a shape whose head is the whole row.  Each is built once
    and checked there only: order n-1, indices >= 1, int digits in [0,
    DIGIT_LIMIT).  Bounded tables raise FamilyError past their last row.
    ``recurrence``, when a builder states one, is a tuple c with derived terms
    Q_n = c_1 Q_{n-1} + ... + c_r Q_{n-r} for every n > r; the builder proves it.
    """

    def __init__(
        self,
        row_fn: Callable[[int], Iterable[tuple[int, int]]] | None = None,
        name: str = "family",
        shape: RowShape | None = None,
        recurrence: tuple[int, ...] | None = None,
    ):
        if row_fn is not None:
            shape = RowShape(lambda j, r: 0, head=row_fn, top=lambda n: 0)
        self.name = name
        self.shape = shape
        self.recurrence = recurrence
        self.derived = None  # its derived sequence, kept by integers.FundamentalSeq.from_family
        self._parts: dict[int, tuple[dict[int, int], int, list[int], int]] = {}
        self._rows: dict[int, CoeffFn] = {}
        self._prefix: list[tuple[tuple[int, int], ...]] = [()]  # its first members, for walk_asc's runs
        self._fill: Iterator[tuple[tuple[int, int], ...]] | None = None  # the walk that extends them
        self._tails = [[0] for _ in range(shape.period)]
        # beside each tail: _nonzero[r][j] is the largest i <= j with tail[i] != 0, or 0
        self._nonzero = [[0] for _ in range(shape.period)]

    def row(self, n: int) -> CoeffFn:
        """Row n as a CoeffFn, memoized: built once from its parts, read but not
        kept, as the head and then the tail's nonzero digits down the _nonzero chain."""
        row = self._rows.get(n)
        if row is None:
            head, top, tail, r = self._parts.get(n) or self._make_parts(n)
            pairs, nonzero, j = list(head.items()), self._nonzero[r], top
            while j := nonzero[j]:
                pairs.append((j, tail[j]))
                j -= 1
            row = self._rows[n] = tuple.__new__(CoeffFn, reversed(pairs))
        return row

    def parts(self, n: int) -> tuple[dict[int, int], int, list[int], int]:
        """Row n as (head, top, tail, residue), memoized: digit k is tail[k] for
        k <= top, else head.get(k, 0).  head keeps nonzero digits in descending
        index order; tail is shared by the rows of residue n % period.  The
        kernels _scan_asc, walk_asc and integers.encode_int read this inline,
        and FundamentalSeq.from_family sums it for a derived term the family's
        recurrence does not give; row() reads parts without keeping them."""
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
        head = {k: d for k, d in sorted(s.head(n), reverse=True) if self._checked(k, d)} or _NO_HEAD
        order = next(iter(head), 0) or nonzero[top]
        if order != n - 1:
            raise FamilyError(f"{self.name}: row {n} has order {order}, expected {n - 1}")
        return head, top, tail, r

    def _checked(self, k: int, d: int) -> int:
        if type(d) is not int or not 0 <= d < DIGIT_LIMIT or k < 1:
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
        self._mirror: tuple[int, PredecessorFamily] | None = None  # (horizon, mirror(horizon)), the latest

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
        past the maximum.  Built with its rows once per horizon, and kept only
        for the latest horizon asked for."""
        if self._mirror is None or self._mirror[0] != horizon:
            check_horizon(horizon)
            flip = horizon + 1

            def row(m: int) -> Iterator[tuple[int, int]]:
                return ((flip - k, d) for k, d in takewhile(lambda p: p[0] <= horizon, self.support(flip + 1 - m)))

            self._mirror = (horizon, PredecessorFamily(row, name=f"{self.name}@{horizon}"))
        return self._mirror[1]

    def __repr__(self) -> str:
        return f"MaximalFamily({self.name!r})"


class Block(NamedTuple):
    """One block of a decomposition: the digits on the indices [lo, hi];
    ``maximal`` marks a bottom block that exhausts a family row."""

    lo: int
    hi: int
    digits: CoeffFn
    maximal: bool = False


class Decomposition(NamedTuple):
    """Blocks in ascending index order, tiling [1, top] with no gaps."""

    blocks: tuple[Block, ...]


# -- ascending world ---------------------------------------------------------


def _scan_asc(mu: CoeffFn, fam: PredecessorFamily) -> list[tuple[int, int, bool]]:
    """Split ``mu`` into spans (lo, hi, maximal), top-down, or raise NotMemberError.

    Scanning from a nonzero digit at n against row(n+1): the first index where
    mu drops below the row closes a block there; exceeding the row anywhere is
    a failure; matching the row all the way down to 1 is the maximal block,
    necessarily the bottom one.  Row n+1 has a digit at n, so every index the
    spans leave out is an all-zero singleton.  mu's pairs and the row's nonzero
    digits (head, then tail down the _nonzero chain) are read in lockstep, at
    O(support + blocks) a call."""
    spans: list[tuple[int, int, bool]] = []
    pairs = ((0, -1),) + mu  # (0, -1) below the support: under every digit, tail[0] = 0 included
    i = len(pairs) - 1
    built, parts, chains = fam._parts, fam.parts, fam._nonzero  # parts() memoizes into built
    while i:
        m, d = pairs[i]
        n = k = m  # (k, c): the highest row digit mu does not match
        head, top, tail, r = built.get(n + 1) or parts(n + 1)  # row n+1 opens with head[n] if n > top
        c = head[n] if n > top else tail[n]
        if d == c:  # else the block is (n, n), or n the witness
            if n > top:
                for k, c in head.items():
                    if m != k or d != c:
                        break
                    i -= 1
                    m, d = pairs[i]
                else:
                    k = chains[r][top]
            if k <= top:
                chain = chains[r]
                while m == k and d == tail[k]:
                    i -= 1
                    m, d = pairs[i]
                    k = chain[k - 1]
                c = tail[k]
        if m > k or m == k and d > c:  # mu's digit at m exceeds the row's there
            raise NotMemberError(m)
        if not k:
            spans.append((1, n, True))
            break
        if m == k:
            i -= 1
        spans.append((k, n, False))
    return spans


def decompose_asc(mu: CoeffFn, fam: PredecessorFamily) -> Decomposition:
    """Unique block decomposition of an ascending member (NotMemberError
    otherwise): one pass over its pairs, each block a slice of them."""
    i, below, blocks = 0, 1, []
    for lo, hi, maximal in reversed(_scan_asc(mu, fam)):
        blocks += [Block(k, k, ZERO) for k in range(below, lo)]  # the all-zero singletons the scan leaves out
        j = bisect_right(mu, (hi, DIGIT_LIMIT), i)  # past the pairs at indices <= hi
        blocks.append(Block(lo, hi, tuple.__new__(CoeffFn, mu[i:j]), maximal))
        i, below = j, hi + 1
    return Decomposition(tuple(blocks))


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
    """Inverse of successor_asc, undefined on zero: the lowest digit of ``mu``,
    at n, goes down by one and row n's digits fill the indices below it."""
    if not mu:
        raise ValueError("the zero function has no predecessor")
    (n, d), above = mu[0], mu[1:]
    below = fam.row(n) if n > 1 else ()
    return tuple.__new__(CoeffFn, tuple.__add__(below, ((n, d - 1),) if d > 1 else ()) + above)


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


# Most of a family's first members kept for walk_asc's runs, as pair tuples (at least 2).
PREFIX_CAP = 4096


def walk_asc(fam: PredecessorFamily, start: CoeffFn = ZERO) -> Iterator[tuple[tuple[int, int], ...]]:
    """The support pairs, ascending, of the members from ``start`` on, in
    ascending lex order.

    The one member walker, amortized O(1) per member: ``start`` is scanned once
    (a non-member is yielded, then NotMemberError raised); then the walker keeps
    the spans [lo, hi, maximal] of its blocks topped by a nonzero digit, as
    _scan_asc gives them, and ``digits``, the support pairs top first.  It steps
    at their low end, except in runs: below a bottom block closed at lo > 1 come
    the members of order < lo, the first Q_lo - 1 after zero, copied from the
    family's prefix as they are reached; it keeps at most PREFIX_CAP, and a
    longer run steps on from the last.
    """
    digits = list(reversed(start))
    yield tuple(start)
    blocks = [list(span) for span in _scan_asc(start, fam)]
    built, parts, nonzero, prefix = fam._parts, fam.parts, fam._nonzero, fam._prefix  # parts() memoizes into built
    while True:
        # carry: a maximal bottom block [1, hi] clears into hi + 1, a run ends
        # in one at lo - 1 (and pops nothing), else index 1 goes up
        if blocks and blocks[-1][2]:
            hi = blocks.pop()[1]
            while digits and digits[-1][0] <= hi:
                digits.pop()
            n = hi + 1
        elif blocks and blocks[-1][0] > 1:  # a run: high + each member of order < n
            n, high = blocks[-1][0], tuple(reversed(digits))
            for low in islice(prefix, 1, None):  # the members kept, any appended meanwhile included
                if low[-1][0] >= n:
                    break
                yield low + high
            else:  # then the members past them, each appended as it is reached
                for i in range(len(prefix), PREFIX_CAP):
                    if i == len(prefix):  # else another walk appended it meanwhile
                        try:  # from a walk from zero, started afresh after it raised, to raise again
                            fam._fill = fam._fill or islice(walk_asc(fam), i, None)
                            prefix.append(next(fam._fill))
                        except BaseException:
                            fam._fill = None
                            raise
                    if (low := prefix[i])[-1][0] >= n:
                        break
                    yield low + high
                else:  # past the cap: the last member yielded, scanned, is stepped from
                    blocks += [list(span) for span in _scan_asc(low, fam)]
                    digits += reversed(low)
                    continue
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
        yield tuple(reversed(digits))
        # a digit that reaches its row digit extends the block down to the row's
        # next nonzero index, or, with none left, to 1 as the maximal block
        head, top, tail, r = built.get(block[1] + 1) or parts(block[1] + 1)
        if d == (tail[n] if n <= top else head.get(n, 0)):
            lo = next((k for k in head if k < n), 0) if n - 1 > top else 0
            lo = lo or nonzero[r][min(n - 1, top)]
            block[0], block[2] = (lo, False) if lo else (1, True)


def enumerate_asc(fam: PredecessorFamily, start: CoeffFn = ZERO) -> Iterator[CoeffFn]:
    """Members from ``start`` on, in ascending lex order (never ends): walk_asc's
    pairs wrapped, a run's (the members of order < lo under a block closed at
    lo > 1) copied from the family's first members, PREFIX_CAP at most kept."""
    return map(tuple.__new__, repeat(CoeffFn), walk_asc(fam, start))  # the walk's pairs stay under validated row digits


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
            row = fam.row(n + 1)[::-1]  # top first
        except Exception:  # whatever the row raises, the walk meets basis(n) first
            values.append(q(n) % modulus if modulus else q(n))
            yield values
            raise
        size.append(len(values) + 1 + sum((c - (k == n)) * size[k] for k, c in row))
        if size[-1] > MEMBER_LIMIT:
            raise _limit_error(cap)
        qs.append(q(n) % modulus if modulus else q(n))
        prefix = 0
        for k, c in row:
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
    is read, to fail as the walk does, and row n+1's member is the family's
    memoized row itself; past MEMBER_LIMIT kept, WalkLimitError."""
    new, join = tuple.__new__, tuple.__add__  # each member built once, from pairs known valid
    refusal = "more than {:,} members have value <= {}; lower the bound"  # formatted only when raised
    kept, size, qs = [(ZERO, 0)], [0, 1], [0]  # size[k]: kept members of order < k
    for n in range(1, _check_cap(cap) + 1):
        qs.append(q(n))
        row, prefix, above = fam.row(n + 1), 0, ()  # above: the row's pairs over k, ascending
        for pair in row[::-1]:
            k, c = pair
            for t in range(k == n, c):
                shift = prefix + t * qs[k]
                if shift > bound:
                    break
                room, suffix = bound - shift, ((k, t),) + above if t else above
                for mu, v in kept[: size[k]]:  # a loop, not a comprehension: most runs are short
                    if v <= room:
                        kept.append((new(CoeffFn, join(mu, suffix)), v + shift))
                if len(kept) > MEMBER_LIMIT:  # checked after every run
                    raise WalkLimitError(refusal.format(MEMBER_LIMIT, bound))
            prefix, above = prefix + c * qs[k], (pair,) + above  # the row's own pairs, shared by its runs
        if prefix <= bound:  # row n+1 over zero
            kept.append((row, prefix))
            if len(kept) > MEMBER_LIMIT:
                raise WalkLimitError(refusal.format(MEMBER_LIMIT, bound))
        size.append(len(kept))
    return kept


def first_collision(pairs: Iterable[tuple[object, object]]) -> tuple[object, object, object] | None:
    """The first repeat (value, earlier key, later key) in a stream of (key,
    value) pairs, or None.  A caller holding every value counts them with a
    set first (enumerate_subset, check_unique): distinct values need no scan,
    and this one only places a repeat the set has found."""
    first_by_value: dict[object, object] = {}
    for key, v in pairs:
        earlier = first_by_value.setdefault(v, key)
        if earlier is not key:
            return v, earlier, key
    return None


# -- descending world: the ascending one on the mirrored family --------------


def enumerate_desc(fam: MaximalFamily, horizon: int) -> Iterator[CoeffFn]:
    """All horizon-restricted members in descending lex order, zero first: the
    walk of the mirrored family read back, up to its carry into horizon + 1.
    A horizon below 1 is rejected here, before the first member."""
    flip = horizon + 1
    below = takewhile(lambda pairs: not pairs or pairs[-1][0] < flip, walk_asc(fam.mirror(horizon)))
    return (tuple.__new__(CoeffFn, [(flip - j, d) for j, d in reversed(pairs)]) for pairs in below)
