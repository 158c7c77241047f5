"""Integer numeration on top of a block system.

A fundamental sequence assigns a positive integer value Q_n to each basis
function.  Derived sequences take Q_1 = 1 and Q_n = 1 + (value of the
immediate predecessor of basis(n)); with those, the greedy block encoder is
exact and every natural number has exactly one admissible representation.

User-supplied sequences may be anything positive (bounded tables, linear
recurrences, non-monotone), which is what the coverage and collision probes
are for.  Against any of them the encoder's one loop searches for the first
member in lex order worth the value, bounded by each order's largest value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

from . import blocks
from .blocks import PredecessorFamily, FamilyError, WalkLimitError, first_collision
from .coeff import CoeffFn, NotRepresentableError, TableEndError, basis

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
        self._bounds: dict[PredecessorFamily, _Bounds] = {}  # encode_int's, per family
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
    def from_family(cls, fam: PredecessorFamily) -> "FundamentalSeq":
        """Derived sequence: Q_1 = 1, Q_n = 1 + sum of row(n) digits times Q; the tail
        part is a running sum per residue, so a term costs O(head) while tops grow.
        Built on the first call and kept on the family: every later call returns it."""
        if fam.derived is None:
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

            fam.derived = cls([1], ext, f"Q[{fam.name}]")
        return fam.derived

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
        if not cs:  # a table gives fixed terms
            raise FamilyError(f"{name}: a linear sequence needs at least one coefficient")
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
                raise TableEndError(f"{self.name}: bounded table of {len(self._vals)} terms, index {n}")
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
    """The first admissible function, in lex order, with value ``x``: _search.

    On the family's derived sequence that is the greedy: take the top, then
    follow the row of the next basis index downwards, taking each digit as
    far as the remainder affords; the first short digit closes the block and
    the next top lies strictly below it.  Off it, the search is bounded by
    _Bounds; a refusal on an increasing sequence is named by the greedy's
    remainder.
    """
    if x < 0:
        raise ValueError(f"cannot encode negative value {x}")
    top = seq.find_top(x)  # extends the table past x once; the tops below only bisect it
    if x and not top:
        raise NotRepresentableError(f"{_shown(x)} is below every basis value of {seq.name}")
    if seq is not fam.derived:
        bounds = seq._bounds.get(fam) or seq._bounds.setdefault(fam, _Bounds(fam, seq))
        try:
            return _search(x, fam, seq, top, bounds.reach(top + 1))
        except NotRepresentableError:
            if not seq.increasing:
                raise
    return _search(x, fam, seq, top, None)


def _shown(v: int) -> str:
    """``v`` in decimal, or past 40 digits its first 20 and its length, without str(v): past Python's limit it fails."""
    if v < 10**40:
        return str(v)
    n = (v.bit_length() - 1) * 30102 // 100000  # digits - 1, or less: log10(2) > 0.30102
    while 10 ** (n + 1) <= v:
        n += 1
    return f"{v // 10 ** (n - 19)}... ({n + 1:,} digits)"


class _Bounds:
    """M[k], the largest value of a member of order < k (M[0] = -1 keeps it
    sorted), and per tail residue r, tails[r][j]: the most a row's tail digits
    at indices <= j add, each kept or one less over any member of lower order.
    Grown a row at a time and kept on the sequence, per family; never built
    for the derived sequence, where M[k] = Q_k - 1."""

    def __init__(self, fam: PredecessorFamily, seq: FundamentalSeq):
        self.fam, self.vals, self.M, self.tails = fam, seq._vals, [-1, 0], {}

    def below(self, head: dict[int, int], top: int, r: int, k: int) -> int:
        """The most the indices below k add to a member that follows the row
        (head, top, residue r) down to k."""
        vals, M, b = self.vals, self.M, self.tails[r][min(k - 1, top)]
        for j, c in reversed(head.items()):
            if j >= k:
                break
            b = max(c * vals[j - 1] + b, (c - 1) * vals[j - 1] + M[j])
        return b

    def reach(self, end: int) -> "_Bounds":
        """M through M[end], M[n + 1] from row n + 1, or up to a row that
        fails: the search raises its error if it reads it, as the walk does."""
        fam, vals, M = self.fam, self.vals, self.M
        try:
            for n in range(len(M) - 1, end):
                head, top, tail, r = fam._parts.get(n + 1) or fam._make_parts(n + 1)  # not kept: read once
                bt = self.tails.setdefault(r, [0])
                for j in range(len(bt), top + 1):
                    c, q = tail[j], vals[j - 1]
                    bt.append(max(c * q + bt[-1], (c - 1) * q + M[j]) if c else bt[-1])
                M.append(max(M[-1], self.below(head, top, r, n + 1)))
        except FamilyError:
            pass
        return self


def _search(x: int, fam: PredecessorFamily, seq: FundamentalSeq, top: int, bounds: _Bounds | None) -> CoeffFn:
    """Depth-first, top-down, choices in lex order: a block's order, least
    first, then at each nonzero digit c at k of its row each t < c that
    closes the block with room left for a member of order < k (M[k]), then c,
    with room left for the rest of the row (below).  A choice point is
    pushed only where two choices survive: without bounds (the greedy),
    never; past MEMBER_LIMIT nodes (blocks and choices resumed) it refuses."""
    vals, built, parts, nonzero = seq._vals, fam._parts, fam.parts, fam._nonzero
    M = bounds.M if bounds else None
    pairs, stack, rem, lim, n, k, nodes, dead, floor = [], [], x, top + 1, 0, 0, 0, False, 0
    failed = set()  # (rem, lim): no member of order < lim is worth rem
    while True:
        if M is not None and (dead or not n) and (nodes := nodes + 1) > blocks.MEMBER_LIMIT:
            raise WalkLimitError(f"{fam.name}: encoding {_shown(x)} visits more than {blocks.MEMBER_LIMIT:,} nodes")
        if dead:  # back to the last choice point
            if not stack:
                if M is None and not bisect_right(vals, rem):
                    raise NotRepresentableError(f"{_shown(rem)} is below every basis value of {seq.name}")
                raise NotRepresentableError(f"no admissible function of order <= {top} has value {_shown(x)}")
            npairs, rem, lim, n, k, floor = stack.pop()  # floor: the least digit left to try at k
            if n < 0:
                failed.add((rem, lim))
                continue
            del pairs[npairs:]
            dead = False
        if not n:  # the next block's order, below lim
            if not rem:
                return CoeffFn._trusted(tuple(reversed(pairs)))
            if M is None:
                n = bisect_right(vals, rem, 0, lim - 1)
            else:  # the least that reaches rem and whose Q_m fits; basis(m) before its row is read
                m = max(k, bisect_left(M, rem) - 1)
                stop = bisect_right(vals, rem, 0, lim - 1) if seq.increasing else lim - 1
                while m <= stop and vals[m - 1] > rem and m < len(M) - 1:  # no order past a row that fails
                    m += 1
                if m < stop:
                    stack.append((len(pairs), rem, lim, 0, m + 1, 0))
                if m <= stop and vals[m - 1] == rem:
                    pairs.append((m, 1))
                    rem = 0
                    continue
                n = m if m <= stop else 0
            if not n:
                dead = True
                continue
            k = n
        head, htop, tail, r = built.get(n + 1) or parts(n + 1)
        chain = nonzero[r]
        while k:  # row(n + 1)'s digits from index k down
            if k <= htop:
                if not (k := chain[k]):
                    continue
                c = tail[k]
            elif not (c := head.get(k, 0)):
                k -= 1
                continue
            q = vals[k - 1]
            if M is None:  # the greedy: c if rem affords it, else close with what it does
                if rem >= (t := c * q):
                    pairs.append((k, c))
                    rem -= t
                    k -= 1
                    continue
                lo = hi = rem // q
                cont = False
            else:
                lo, hi, floor = max(floor, int(k == n), (rem - M[k] + q - 1) // q), min(c - 1, rem // q), 0
                cont = c * q <= rem and rem - c * q <= bounds.below(head, htop, r, k)
            if lo > hi and not cont:
                dead = True
                break
            d = lo if lo <= hi else c
            if lo < hi or lo == hi and cont:
                stack.append((len(pairs), rem, lim, n, k, d + 1))
            if d:
                pairs.append((k, d))
                rem -= d * q
            if d < c:  # a short digit closes the block
                lim, n, k = k, 0, 0
                if M is not None and rem and not (dead := (rem, lim) in failed):
                    stack.append((0, rem, lim, -1, 0, 0))  # popped: no member below it is worth rem
                break
            k -= 1
        else:  # the whole row
            dead, n = bool(rem), 0


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
    pairs = blocks.order_members(fam, seq.value, seq.find_top(bound), bound)
    return SubsetReport(bound, pairs, first_collision(pairs))
