"""Constructors for the standard admissibility families.

Everything here produces a PredecessorFamily (and sometimes the matching
MaximalFamily) from compact data: a multiplicity list, a recurrence with
negative tail coefficients, a head-plus-tail digit rule, a finite set of
fixed blocks, or an arbitrary strictly increasing sequence via the greedy
digits of Q_n - 1.
"""

from __future__ import annotations

from itertools import accumulate, count
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .blocks import FamilyError, MaximalFamily, PredecessorFamily, RowShape
from .coeff import DIGIT_LIMIT

if TYPE_CHECKING:  # imported where used: the p-adic and (0,1) systems never load integers
    from .integers import FundamentalSeq


class MultiplicityList(NamedTuple("MultiplicityList", [("e", tuple)])):
    """Digit multiplicities (e_1, ..., e_N) of a linear system.

    The reduced list drops one from the last entry; predecessor rows repeat
    it periodically from the top index downwards, maximal rows repeat it
    periodically upwards forever.
    """

    __slots__ = ()

    def __new__(cls, e: Iterable[int]):
        e = tuple(e)
        if not e:
            raise FamilyError("multiplicity list is empty")
        if any(type(v) is not int or v < 0 for v in e):
            raise FamilyError(f"multiplicity list {e} has a negative or non-integer entry")
        if e[0] < 1 or e[-1] < 1:
            raise FamilyError(f"multiplicity list {e} must start and end positive")
        if len(e) == 1 and e[0] < 2:
            raise FamilyError("a single-entry multiplicity list needs e_1 >= 2")
        if (d := max(e[:-1] + (e[-1] - 1,))) >= DIGIT_LIMIT:  # the largest digit of the reduced list
            raise FamilyError(f"multiplicity list {e}: digit {d} is not below the digit bound {DIGIT_LIMIT}")
        return super().__new__(cls, e)

    @property
    def period(self) -> int:
        return len(self.e)

    @property
    def reduced(self) -> tuple[int, ...]:
        return self.e[:-1] + (self.e[-1] - 1,)

    def predecessor_family(self, name: str | None = None) -> PredecessorFamily:
        """Rows delta^n: reduced digits repeating downward from index n-1.

        States the recurrence e: Q_n = e_1 Q_{n-1} + ... + e_N Q_{n-N} for n > N.
        Row n has digit ehat_i at n-i for i <= N and repeats row n-N below, so
        Q_n - Q_{n-N} = ehat_1 Q_{n-1} + ... + ehat_N Q_{n-N}, with ehat_N = e_N - 1;
        at n = N+1 the row below is that of Q_1 = 1, empty.
        """
        ehat, N = self.reduced, self.period
        shape = RowShape(lambda j, r: ehat[(r - 1 - j) % N], period=N)
        return PredecessorFamily(name=name or f"L{self.e}", shape=shape, recurrence=self.e)

    def maximal_family(self, name: str | None = None) -> MaximalFamily:
        """Rows: reduced digits repeating upward from index n, forever."""
        ehat, N = self.reduced, self.period

        def support(n: int) -> Iterator[tuple[int, int]]:
            return ((k, ehat[(k - n) % N]) for k in count(n) if ehat[(k - n) % N])

        return MaximalFamily(support, name=name or f"max-L{self.e}")


def family_from_tail_rule(
    head: Sequence[int | Callable[[int], int]],
    tail: Callable[[int], int],
    name: str = "tail-rule",
) -> PredecessorFamily:
    """Rows given by fixed digits below the top plus a stationary tail.

    head[i] is the digit of row n at index n-1-i (constant, or a function of
    n); indices that fall below 1 are dropped.  The tail gives the digit at
    every remaining absolute index j in [1, n-1-len(head)], independent of n.
    """

    def head_pairs(n: int) -> list[tuple[int, int]]:
        return [(n - 1 - i, h(n) if callable(h) else h) for i, h in enumerate(head[: n - 1])]

    shape = RowShape(lambda j, _: tail(j), head=head_pairs, top=lambda n: max(n - 1 - len(head), 0))
    return PredecessorFamily(name=name, shape=shape)


def neg_recurrence_params(coeffs: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Head digits e and tail digit b of a recurrence with negative tail.

    e_k is the k-th partial sum of the coefficients minus one, and b is the
    full sum minus one; valid when c_1 >= 2 and every partial sum stays
    positive.
    """
    c = tuple(coeffs)
    if len(c) < 2:
        raise FamilyError("need at least two recurrence coefficients")
    if c[0] < 2:
        raise FamilyError(f"leading coefficient must be at least 2, got {c[0]}")
    partial = list(accumulate(c))
    if any(p < 1 for p in partial):
        raise FamilyError(f"partial sums of {c} must stay positive, got {partial}")
    if (d := max(partial) - 1) >= DIGIT_LIMIT:  # the largest head or tail digit
        raise FamilyError(f"recurrence {c}: digit {d} is not below the digit bound {DIGIT_LIMIT}")
    return tuple(p - 1 for p in partial[:-1]), partial[-1] - 1


def family_from_neg_recurrence(coeffs: Iterable[int]) -> PredecessorFamily:
    """Family of the recurrence Q_n = c_1 Q_{n-1} + ... + c_{N+1} Q_{n-N-1}
    whose coefficients past the first may be negative.

    Rows carry the head digits from the top down, then the tail digit at
    every remaining index; see neg_recurrence_params for the digit values.

    States the recurrence c for n > N+1.  With p_k = c_1 + ... + c_k, row n
    carries e_k = p_k - 1 at n-k for k <= N and b = p_{N+1} - 1 at every index
    below.  Once row n-1's head is whole too (n-1 > N), it is row n one index
    down, so Q_n - Q_{n-1} = e_1 Q_{n-1} + (e_2 - e_1) Q_{n-2} + ... + (e_N -
    e_{N-1}) Q_{n-N} + (b - e_N) Q_{n-N-1}, where e_1 = c_1 - 1, e_k - e_{k-1}
    = c_k and b - e_N = c_{N+1}.
    """
    c = tuple(coeffs)
    e, b = neg_recurrence_params(c)
    fam = family_from_tail_rule(list(e), lambda j: b, name=f"rec{c}")
    fam.recurrence = c
    return fam


def index_bounded_family() -> PredecessorFamily:
    """Digit at index k at most k, a full digit forcing a zero one slot down.

    Rows place the digit j at index j for every second index from the top:
    j = n-1, n-3, ...
    """

    shape = RowShape(lambda j, r: j if (r - 1 - j) % 2 == 0 else 0, period=2)
    return PredecessorFamily(name="index-bounded", shape=shape)


def factorial_family() -> PredecessorFamily:
    """Rows (1, 2, ..., n-1): the mixed-radix system with Q_n = n!."""
    return family_from_tail_rule([], lambda j: j, name="factorial")


def j_plus_family(j: int) -> PredecessorFamily:
    """0/1 digits, top row digit at n-1 plus a pinned digit at index j."""
    if j < 1:
        raise FamilyError(f"pinned index must be positive, got {j}")
    return family_from_tail_rule([1], lambda i: 1 if i == j else 0, name=f"pin-{j}")


def pinned_radix_seq(j: int) -> FundamentalSeq:
    """Values pairing with the pinned family to cover {j+1, j+2, ...}.

    Q_k = j+1+k up to k = j, then Q_n = (j+1)(n-j) from the last seed Q_{j+1} on:
    non-monotone on purpose, the low indices carry the residues the radix part skips.
    """
    from .integers import FundamentalSeq
    if j < 1:
        raise FamilyError(f"pinned index must be positive, got {j}")
    low = [j + 1 + k for k in range(1, j + 1)] + [j + 1]
    return FundamentalSeq(low, lambda n, _: (j + 1) * (n - j), name=f"pin-{j}-values")


def family_from_table(rows: Sequence[Sequence[int]], name: str = "table") -> PredecessorFamily:
    """Explicit bounded family: rows[i] is row i+2, dense digits low-to-high."""
    dense = [tuple(r) for r in rows]

    def row(n: int) -> Iterator[tuple[int, int]]:
        if n - 2 >= len(dense):
            raise FamilyError(f"{name}: table ends at row {len(dense) + 1}, asked for {n}")
        return enumerate(dense[n - 2], 1)

    return PredecessorFamily(row, name)


def family_from_sequence(values: Sequence[int], name: str = "greedy") -> PredecessorFamily:
    """Family whose row n carries the greedy digits of Q_n - 1.

    Takes any strictly increasing sequence starting at 1; the resulting
    system represents every natural number below the last value uniquely,
    whatever the sequence.  Bounded: rows exist up to n = len(values).
    """
    vals = list(values)
    if bad := [v for v in vals if type(v) is not int]:
        raise FamilyError(f"{name}: sequence term {bad[0]!r} is not an integer")
    if not vals or vals[0] != 1:
        raise FamilyError(f"{name}: sequence must start at 1")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise FamilyError(f"{name}: sequence must be strictly increasing")

    def row(n: int) -> list[tuple[int, int]]:
        if not 2 <= n <= len(vals):
            raise FamilyError(f"{name}: no row {n} for a table of {len(vals)} values")
        rem = vals[n - 1] - 1
        pairs = []
        for k in range(n - 1, 0, -1):
            d, rem = divmod(rem, vals[k - 1])
            if d:
                pairs.append((k, d))
        return pairs

    return PredecessorFamily(row, name)


# -- fixed block systems -----------------------------------------------------


def family_from_blocks(
    blocks: Iterable[Sequence[int]], name: str = "blocks"
) -> PredecessorFamily:
    """Build the admissibility family whose members are tilings by ``blocks``.

    Each block is a digit tuple (low index first) of a common width N.  The
    seed rows pick, for each height t <= N, the lex-largest block supported
    on [1, t]; the first N+1 basis values then fix the base, the block
    values must cover 0..base-1 exactly, and taller rows stack the maximal
    block under a shifted seed row.

    States the recurrence (0, ..., 0, base) of length N: Q_n = base Q_{n-N}
    for n > N.  At n = N+1 it is the definition of base, as Q_1 = 1.  Past it,
    row n is row n-N shifted up N indices over the maximal block on [1, N],
    worth base - 1; so if Q_m = base Q_{m-N} for N < m < n, row n's digits
    above N are worth base (Q_{n-N} - 1) and Q_n = 1 + base - 1 + base (Q_{n-N} - 1).
    """
    from .integers import FundamentalSeq
    blk = [tuple(b) for b in blocks]
    if bad := [d for b in blk for d in b if type(d) is not int]:
        raise FamilyError(f"{name}: block digit {bad[0]!r} is not an integer")
    if not blk:
        raise FamilyError(f"{name}: no blocks given")
    width = len(blk[0])
    if any(len(b) != width for b in blk):
        raise FamilyError(f"{name}: blocks have mixed widths")
    if any(d < 0 for b in blk for d in b):
        raise FamilyError(f"{name}: negative digit in a block")
    if len(set(blk)) != len(blk):
        raise FamilyError(f"{name}: duplicate blocks")
    if (0,) * width not in blk:
        raise FamilyError(f"{name}: the zero block is required")

    # lex order compares the top (largest-index) digit first
    def lex_key(b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(reversed(b))

    tops: list[tuple[int, ...]] = []
    for t in range(1, width + 1):
        fits = [b for b in blk if all(d == 0 for d in b[t:]) and b[t - 1] >= 1]
        if not fits:
            raise FamilyError(f"{name}: no block has top digit exactly at position {t}")
        tops.append(max(fits, key=lex_key))

    def head(n: int) -> list[tuple[int, int]]:
        r, t0 = divmod(n - 2, width)
        return [(width * r + p + 1, d) for p, d in enumerate(tops[t0])]

    shape = RowShape(
        lambda j, _: b_max[(j - 1) % width], head=head, top=lambda n: width * ((n - 2) // width)
    )
    fam = PredecessorFamily(name=name, shape=shape)
    # rows 2..N+1 are the seed rows, all head: their derived values read no b_max
    *q, base = FundamentalSeq.from_family(fam).upto(width + 1)

    vals = {b: sum(d * q[p] for p, d in enumerate(b)) for b in blk}
    got = sorted(vals.values())
    if got != list(range(base)):
        raise FamilyError(
            f"{name}: block values {got} do not cover 0..{base - 1} exactly"
        )
    b_max = next(b for b, v in vals.items() if v == base - 1)
    fam.recurrence = (0,) * (width - 1) + (base,)
    return fam


def verify_recurrence(
    seq,
    coeffs: Sequence[int | Callable[[int], int]],
    start: int,
    stop: int,
) -> list[tuple[int, int, int]]:
    """Check Q_n against sum of coeffs[j-1] * Q_{n-j} for n in [start, stop].

    Coefficients may depend on n.  Returns the mismatches as (n, lhs, rhs);
    empty means the recurrence holds on the whole range.
    """
    if not coeffs or start > stop:
        raise ValueError(f"nothing to check: {len(coeffs)} coefficients on [{start}, {stop}]")
    if start <= len(coeffs):
        raise ValueError(f"start must exceed the recurrence depth {len(coeffs)}")
    bad = []
    for n in range(start, stop + 1):
        lhs = seq.value(n)
        rhs = sum((c(n) if callable(c) else c) * seq.value(n - j) for j, c in enumerate(coeffs, start=1))
        if lhs != rhs:
            bad.append((n, lhs, rhs))
    return bad
