"""Integer numeration on top of a block system.

A fundamental sequence assigns a positive integer value Q_n to each basis
function.  Derived sequences take Q_1 = 1 and Q_n = 1 + (value of the
immediate predecessor of basis(n)); with those, the greedy block encoder is
exact and every natural number has exactly one admissible representation.

User-supplied sequences may be anything positive (bounded tables, linear
recurrences, non-monotone), which is what the coverage and collision probes
are for; encoding against a non-increasing sequence falls back to walking
the members in lex order.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Callable, Iterable, NamedTuple

from . import blocks
from .blocks import PredecessorFamily, FamilyError, WalkLimitError, first_collision, member, order_values, walk_values
from .coeff import CoeffFn, NotRepresentableError

EXTENSION_LIMIT = 10**6

# misses tolerated past the last hit when searching a possibly non-monotone
# sequence for its largest term under a bound
LOOKAHEAD_WINDOW = 16


class FundamentalSeq:
    """Lazy, memoized sequence of basis values Q_1, Q_2, ...

    ``extend`` is called as extend(n, self) for indices past the seed values;
    passing None makes the sequence a bounded table.
    """

    def __init__(
        self,
        values: Iterable[int],
        extend: Callable[[int, "FundamentalSeq"], int] | None = None,
        name: str = "Q",
    ):
        self._vals: list[int] = []
        self._extend = extend
        self.name = name
        self._increasing = True
        for v in values:
            self._push(v)
        if not self._vals and extend is None:
            raise FamilyError(f"{name}: empty sequence")

    def _push(self, v: int) -> None:
        if not isinstance(v, int) or v < 1:
            raise FamilyError(f"{self.name}: term {len(self._vals) + 1} is {v!r}, need a positive integer")
        if self._vals and v <= self._vals[-1]:
            self._increasing = False
        self._vals.append(v)

    @classmethod
    def from_family(cls, fam: PredecessorFamily, name: str | None = None) -> "FundamentalSeq":
        """Derived sequence: Q_1 = 1, Q_n = 1 + sum of row(n) digits times Q; the tail
        part is a running sum per residue, so a term costs O(head) while tops grow."""
        running: dict[int, tuple[int, int]] = {}  # residue -> (top, tail sum)

        def ext(n: int, seq: "FundamentalSeq") -> int:
            head, top, tail, r = fam.parts(n)
            j, acc = running.get(r, (0, 0))
            if top < j:
                j, acc = 0, 0
            for i in range(j + 1, top + 1):
                acc += tail[i] * seq.value(i)
            running[r] = (top, acc)
            return 1 + sum(d * seq.value(k) for k, d in head.items()) + acc

        return cls([1], ext, name or f"Q[{fam.name}]")

    @classmethod
    def from_linear(
        cls, seeds: Iterable[int], coeffs: Iterable[int], name: str = "Q"
    ) -> "FundamentalSeq":
        """Q_n = c_1 Q_{n-1} + ... + c_m Q_{n-m} past the seeds."""
        cs = tuple(coeffs)

        def ext(n: int, seq: "FundamentalSeq") -> int:
            return sum(c * seq.value(n - 1 - j) for j, c in enumerate(cs))

        return cls(seeds, ext, name)

    @property
    def increasing(self) -> bool:
        """Whether every materialized term so far exceeds the one before it."""
        return self._increasing

    @property
    def bounded(self) -> bool:
        return self._extend is None

    def __len__(self) -> int:
        return len(self._vals)

    def value(self, n: int) -> int:
        if n < 1:
            raise IndexError(f"{self.name}: index {n} out of range")
        if n > EXTENSION_LIMIT:
            raise FamilyError(f"{self.name}: refusing to extend past {EXTENSION_LIMIT} terms")
        while len(self._vals) < n:
            if self._extend is None:
                raise IndexError(f"{self.name}: bounded table of {len(self._vals)} terms, index {n}")
            self._push(self._extend(len(self._vals) + 1, self))
        return self._vals[n - 1]

    def upto(self, n: int) -> list[int]:
        self.value(n)
        return self._vals[:n]

    def find_top(self, x: int) -> int:
        """Largest n with Q_n <= x for an increasing sequence (0 if none).

        Extends one term at a time until a term exceeds x (or a bounded table
        ends), then bisects.  A lazy term that breaks monotonicity raises like
        a non-increasing sequence would at entry."""
        vals = self._vals
        while self._increasing and self._extend is not None and (not vals or vals[-1] <= x):
            self.value(len(vals) + 1)
        if not self._increasing:
            raise FamilyError(f"{self.name}: find_top needs an increasing sequence")
        return bisect_right(vals, x)

    def top_below(self, x: int) -> int:
        """Largest n with Q_n <= x, by forward scan with a miss window.

        Sound for sequences that eventually stay above x (every fixture here
        grows at least geometrically along residue classes); LOOKAHEAD_WINDOW
        consecutive terms above x end the search.  On an increasing sequence
        this is ``find_top(x)``.
        """
        best = 0
        misses = 0
        n = 0
        while misses < LOOKAHEAD_WINDOW:
            n += 1
            try:
                v = self.value(n)
            except IndexError:
                break
            if v <= x:
                best = n
                misses = 0
            else:
                misses += 1
        return best

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self._vals[:6])
        more = ", ..." if self._extend is not None or len(self._vals) > 6 else ""
        return f"FundamentalSeq({self.name}: {head}{more})"


def decode_int(mu: CoeffFn, seq: FundamentalSeq) -> int:
    """Value of a coefficient function: sum of digit times Q over the support."""
    try:
        seq.value(mu.order_asc)  # materializes every term the sum reads
    except IndexError:  # zero, or past a bounded table: the lowest index past it is named
        return sum(d * seq.value(k) for k, d in mu.items())
    vals = seq._vals
    return sum(d * vals[k - 1] for k, d in mu.items())


def shift_value(eps: CoeffFn, seq: FundamentalSeq) -> int:
    """Value with every index shifted up one slot: sum of digit times Q_{k+1}."""
    return sum(d * seq.value(k + 1) for k, d in eps.items())


def encode_int(x: int, fam: PredecessorFamily, seq: FundamentalSeq) -> CoeffFn:
    """The admissible function with value ``x``.

    Greedy for increasing sequences: take the top, then follow the row of the
    next basis index downwards, taking each digit as far as the remainder
    affords; the first short digit closes the block and the recursion floor
    drops strictly below it.  For non-increasing sequences this walks the
    members in lex order instead (and can honestly fail).
    """
    if x < 0:
        raise ValueError(f"cannot encode negative value {x}")
    if not seq.increasing:
        return _encode_by_walk(x, fam, seq)
    try:
        n = seq.find_top(x)  # extends the table past x once; the tops below only bisect it
    except FamilyError:  # the lazy table revealed a decreasing term
        return _encode_by_walk(x, fam, seq)
    vals, built, parts, nonzero = seq._vals, fam._parts, fam.parts, fam._nonzero
    pairs, rem, ordered = [], x, True  # pairs in the order taken; sorted while ordered
    while rem:
        if not n:
            raise NotRepresentableError(f"{rem} is below every basis value of {seq.name}")
        head, top, tail, r = built.get(n + 1) or parts(n + 1)
        for k, d in head.items():  # row(n + 1)'s digits, head then tail, while rem affords them
            q = vals[k - 1]
            if rem < (t := d * q):
                break
            pairs.append((k, d))
            rem -= t
        else:
            k, chain = top, nonzero[r]
            while k := chain[k]:
                d, q = tail[k], vals[k - 1]
                if rem < (t := d * q):
                    break
                pairs.append((k, d))
                rem -= t
                k -= 1
        if k:  # a short digit at k leaves rem < Q_k: the next top lies below k
            if c := rem // q:
                pairs.append((k, c))
                rem -= c * q
            n = bisect_right(vals, rem, 0, k - 1)
        else:  # a whole row taken leaves rem > 0 only if the sequence is not derived
            n = bisect_right(vals, rem)
            ordered = ordered and n < pairs[-1][0]  # then the next block may not lie below
    return CoeffFn._trusted(tuple(reversed(pairs))) if ordered else CoeffFn(pairs)


def _encode_by_walk(x: int, fam: PredecessorFamily, seq: FundamentalSeq) -> CoeffFn:
    if x == 0:
        return CoeffFn()
    m_max = seq.top_below(x)
    if m_max == 0:
        raise NotRepresentableError(f"{x} is below every basis value of {seq.name}")
    try:
        for v, digits in walk_values(fam, seq.value, cap=m_max):
            if v == x:
                return member(digits)
    except WalkLimitError:  # name the value, not the order cap derived from it
        limit = f"{blocks.MEMBER_LIMIT:,} members (sequence is not increasing)"
        raise WalkLimitError(f"{fam.name}: encoding {x} walks more than {limit}") from None
    raise NotRepresentableError(f"no admissible function of order <= {m_max} has value {x}")


class SubsetReport(NamedTuple):
    """Members with value under a bound, in lex order, plus the first collision.

    ``collision`` is (value, earlier function, later function) or None; values
    at or under the bound are checked for repeats, so a clean uniqueness-and-
    coverage claim is ``collision is None`` plus a check of ``values()``.
    """

    bound: int
    pairs: list[tuple[CoeffFn, int]]
    collision: tuple[int, CoeffFn, CoeffFn] | None

    def values(self) -> list[int]:
        return sorted(v for _, v in self.pairs)

    def covers_all_below_bound(self, start: int = 0) -> bool:
        return self.values() == list(range(start, self.bound + 1))


def enumerate_subset(fam: PredecessorFamily, seq: FundamentalSeq, bound: int) -> SubsetReport:
    """All members with value <= bound, walking lex order up to the last
    basis index whose value fits under the bound."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    m_max = seq.top_below(bound)
    pairs = [(member(digits), v) for v, digits in walk_values(fam, seq.value, cap=m_max) if v <= bound]
    _, _, collision, _ = first_collision(pairs)
    return SubsetReport(bound, pairs, collision)


def reconstruct_sequence(
    fam: PredecessorFamily, value_set: Iterable[int], count: int
) -> list[int]:
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
