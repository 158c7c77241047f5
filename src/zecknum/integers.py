"""Integer numeration on top of a block system.

A fundamental sequence assigns a positive integer value Q_n to each basis
function.  Derived sequences take Q_1 = 1 and Q_n = 1 + (value of the
immediate predecessor of basis(n)); with those, the greedy block encoder is
exact and every natural number has exactly one admissible representation.

User-supplied sequences may be anything positive (bounded tables, linear
recurrences, non-monotone), which is what the coverage and collision probes
are for.  Against one that is not increasing, encoding finds the value's
first lex rank in blocks.order_values and unranks it on the derived sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, islice
from typing import Callable, Iterable, NamedTuple

from . import blocks
from .blocks import PredecessorFamily, FamilyError, WalkLimitError, first_collision, order_values
from .coeff import CoeffFn, NotRepresentableError, basis

EXTENSION_LIMIT = 10**6


class FundamentalSeq:
    """Lazy, memoized sequence of basis values Q_1, Q_2, ...

    ``extend`` is called as extend(n, self) for indices past the seed values;
    passing None makes the sequence a bounded table.  Growth fact: past the
    seeds no term falls below the least of the ``_window`` terms before it (0:
    none).  Constructors derive it; a caller's ``extend`` promises window 1.
    """

    def __init__(
        self,
        values: Iterable[int],
        extend: Callable[[int, "FundamentalSeq"], int] | None = None,
        name: str = "Q",
    ):
        values = list(values)
        self._vals: list[int] = []
        self._extend = extend
        self.name = name
        self._increasing, self._seeds, self._window, self._drop = True, len(values), 1, 0  # see _push
        for v in values:
            self._push(v)
        if not self._vals and extend is None:
            raise FamilyError(f"{name}: empty sequence")

    def _push(self, v: int) -> None:
        vals, n = self._vals, len(self._vals)
        if not isinstance(v, int) or v < 1:
            raise FamilyError(f"{self.name}: term {n + 1} is {v!r}, need a positive integer")
        if vals and v <= vals[-1]:
            self._increasing = False
            if v < vals[-1] and n >= self._seeds and not self._drop:  # the first drop past the seeds
                self._drop = n + 1
        vals.append(v)

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
        """Q_n = c_1 Q_{n-1} + ... + c_m Q_{n-m} past the seeds.  Every c_j >= 0 gives
        Q_n >= (sum c) min(Q_{n-m}..Q_{n-1}), window m.  As Q_n - Q_{n-1} = (sum c - 1) Q_{n-1}
        - sum_{i<m} T_i (Q_{n-i} - Q_{n-i-1}) with T_i = c_{i+1} + ... + c_m, sum c >= 1,
        T_i <= 0 and nondecreasing last m seeds give window 1; else there is none."""
        cs = tuple(coeffs)

        def ext(n: int, seq: "FundamentalSeq") -> int:
            return sum(c * seq.value(n - 1 - j) for j, c in enumerate(cs))

        seq = cls(seeds, ext, name)
        if len(seq) < len(cs):  # Q_{m+1} would read Q_0
            raise FamilyError(f"{name}: {len(seq)} seeds for {len(cs)} coefficients; "
                              "a linear sequence needs a seed per coefficient")
        *tails, total = accumulate(reversed(cs), initial=0)  # 0, T_{m-1}, ..., T_1, then sum c
        rising = seq._vals[-len(cs):] == sorted(seq._vals[-len(cs):])  # the last m seeds
        seq._window = len(cs) if min(cs, default=-1) >= 0 else int(rising and total >= 1 and max(tails) <= 0)
        return seq

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
                end = IndexError(f"{self.name}: bounded table of {len(self._vals)} terms, index {n}")
                end.table_end = True  # the command line reports this one as a config error
                raise end
            self._push(self._extend(len(self._vals) + 1, self))
        return self._vals[n - 1]

    def upto(self, n: int) -> list[int]:
        self.value(n)
        return self._vals[:n]

    def find_top(self, x: int) -> int:
        """Largest n with Q_n <= x (0 if none), exactly: extends the table until it ends or its
        last ``window`` terms past the seeds exceed x (then, by the growth fact, so does every later
        one), bisects the terms past the seeds if none drops, else scans forward to ``window`` such
        misses in a row.  Refuses (``FamilyError``) a sequence with no fact or a term breaking window 1."""
        vals, s, w = self._vals, self._seeds, self._window
        if self._extend is not None:
            if not w:
                raise FamilyError(f"{self.name}: no growth rule: a negative-coefficient recurrence needs "
                                  "coefficient sum >= 1, tail sums <= 0 and nondecreasing last seeds")
            while (len(vals) - s < w or min(vals[-w:]) <= x) and not (w == 1 and self._drop):
                self.value(len(vals) + 1)
            if w == 1 and (d := self._drop):
                raise FamilyError(f"{self.name}: past the seeds, term {d} is {vals[d - 1]}, "
                                  f"below term {d - 1} ({vals[d - 2]})")
        if self._increasing:
            return bisect_right(vals, x)
        if not self._drop and (n := bisect_right(vals, x, s)) > s:
            return n
        top = run = 0  # a top among the seeds, or past them once a term drops
        for n, v in enumerate(vals, 1):
            if v <= x:
                top, run = n, 0
            elif n > s and (run := run + 1) == w:
                break
        return top

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
    drops strictly below it.  For a sequence that is not increasing, the
    first member in lex order worth ``x`` (which can honestly fail).
    """
    if x < 0:
        raise ValueError(f"cannot encode negative value {x}")
    n = seq.find_top(x)  # extends the table past x once; the tops below only bisect it
    if not seq.increasing:
        return _encode_by_rank(x, fam, seq, n)
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


def _encode_by_rank(x: int, fam: PredecessorFamily, seq: FundamentalSeq, m_max: int) -> CoeffFn:
    """x's first lex rank in order_values, unranked on the derived sequence,
    or basis(n) for the first of order n (row n+1 may be missing)."""
    if x == 0:
        return CoeffFn()
    if m_max == 0:
        raise NotRepresentableError(f"{x} is below every basis value of {seq.name}")
    start = 0  # members of the orders before this step
    try:
        for n, values in enumerate(order_values(fam, seq.value, m_max)):
            if x in (tail := values[start:]):
                rank = start + tail.index(x)
                return basis(n) if rank == start else encode_int(rank, fam, FundamentalSeq.from_family(fam))
            start = len(values)
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
    """All members with value <= bound, in lex order, built (order_members) up
    to the last basis index whose value fits under the bound."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    trusted = CoeffFn._trusted
    pairs = [(trusted(p), v) for p, v in blocks.order_members(fam, seq.value, seq.find_top(bound), bound)]
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
