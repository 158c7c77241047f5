"""Uniqueness and counting probes.

A family paired with an arbitrary positive sequence need not represent
values uniquely.  The one check, check_unique, builds the members' values
up to an order cap, one order at a time in lex order, and reports the first
value hit twice: an integer, or a residue mod p**prec on a p-adic sequence.
Under the family's derived sequence lex order is value order (the
generalized Zeckendorf theorem): Q_n members have order < n, and a member's
lex rank is its derived value, so counting and unranking read that sequence.
With a multiplicity list's own recurrence, a cap of a few periods is the
interesting regime (four by default, two with the shortcut flag).

A digit box (row n+1 is row n with (n, c_n) on top, row 2 is (1, c_1)) has
as members every vector with 0 <= a_k <= c_k, and two collide iff some
nonzero D with |D_k| <= c_k has sum D_k Q_k = 0.  _box_members searches D
top-down over partial sums s, dropping |s| > sum_{j<k} c_j Q_j (every Q_k is
positive); when no nonzero D reaches 0, the clean report needs no value.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import blocks
from .blocks import FamilyError, PredecessorFamily, first_collision, order_values
from .coeff import CoeffFn
from .integers import FundamentalSeq, encode_int
from .recurrences import MultiplicityList

if TYPE_CHECKING:
    from .padic import PadicSeq


class UniquenessReport(NamedTuple):
    """Outcome of check_unique's lex-order collision walk, on either carrier.

    ``members_seen`` counts the zero function; when a collision stops the
    walk early, ``complete`` is False and the counts cover only the prefix
    up to and including the colliding member.  A walk that goes on past a
    collision counts every member and every distinct value up to the cap.
    """

    order_cap: int
    members_seen: int
    distinct_values: int
    collision: tuple[int, CoeffFn, CoeffFn] | None
    complete: bool

    @property
    def nonzero_members(self) -> int:
        return self.members_seen - 1

    @property
    def ok(self) -> bool:
        return self.collision is None and self.complete


def check_unique(
    fam: PredecessorFamily, seq: FundamentalSeq | PadicSeq, order_cap: int, stop_at_collision: bool = True
) -> UniquenessReport:
    """The collision report on the members of order <= order_cap, by their
    order_values value, mod the sequence's ``modulus`` when it has one (a
    p-adic sequence): a set finds the order holding the first repeat, and
    first_collision its two ranks.  Without ``stop_at_collision``, a cap past
    MEMBER_LIMIT is refused before any value is summed, from the derived
    Q_{cap+1}, the count of the members; its terms increase, so they are read
    only up to the first past the limit.  The two witnesses are encode_int of
    their ranks on the derived sequence.  A digit box with no collision is
    answered by _box_members, without building a value."""
    derived, stop, modulus = FundamentalSeq.from_family(fam), stop_at_collision, getattr(seq, "modulus", None)
    if not stop and any(derived.value(n) > blocks.MEMBER_LIMIT for n in range(1, blocks._check_cap(order_cap) + 2)):
        raise blocks._limit_error(order_cap)
    if not modulus and (total := _box_members(fam, seq.value, order_cap)):
        return UniquenessReport(order_cap, total, total, None, True)
    seen: set[int] = set()
    repeat, start = None, 0  # start: members of the orders before this step
    for values in order_values(fam, seq.value, order_cap, modulus):
        seen.update(islice(values, start, None))
        if repeat is None and len(seen) < len(values):  # the first repeat lies past start
            repeat = first_collision(enumerate(values))
            if stop:
                break
        start = len(values)
    if repeat is None:
        return UniquenessReport(order_cap, len(values), len(seen), None, True)
    v, i, j = repeat
    collision = (v, encode_int(i, fam, derived), encode_int(j, fam, derived))
    return UniquenessReport(order_cap, *((j + 1, j) if stop else (len(values), len(seen))), collision, not stop)


def _box_members(fam: PredecessorFamily, q: Callable[[int], int], cap: int) -> int:
    """prod (c_k + 1), the members of order <= cap, when rows 2..cap+1 form a
    digit box within MEMBER_LIMIT and the difference search rules out a
    collision in that many steps; else 0, and the scan answers.  A table's
    end gives 0 too: the scan meets it there, or an earlier collision."""
    row, qs, total = [], [], 1
    try:
        for n in range(1, blocks._check_cap(cap) + 1):
            below, row = row, fam.digits(n + 1)  # top first: (n, c_n), then row n's pairs
            total *= row[0][1] + 1
            if row[1:] != below or total > blocks.MEMBER_LIMIT:
                return 0
            qs.append(q(n))
    except (FamilyError, IndexError):
        return 0
    states, budget, reach = {0: False}, total, sum(c * qk for (_, c), qk in zip(row, reversed(qs)))
    for (_, c), qk in zip(row, reversed(qs)):  # index cap down to 1
        reach -= c * qk  # the most the digits below k can add or take away
        budget -= len(states) * (2 * c + 1)
        if budget < 0:
            return 0
        nxt: dict[int, bool] = {}
        for s, nonzero in states.items():
            for d in range(max(-c, -((reach + s) // qk)), min(c, (reach - s) // qk) + 1):  # |s + d Q_k| <= reach
                t = s + d * qk
                nxt[t] = nxt.get(t, False) or nonzero or d != 0
        states = nxt
    return 0 if states.get(0) else total


def default_order_cap(multiplicities: Sequence[int] | None, shortcut: bool = False) -> int:
    """Four periods of the multiplicity list, two with ``shortcut``; 8 without one."""
    n = len(multiplicities or ())
    return (2 if shortcut else 4) * n if n else 8


def check_unique_multiplicity(
    e: Iterable[int],
    seeds: Iterable[int],
    shortcut: bool = False,
    stop_at_collision: bool = True,
) -> UniquenessReport:
    """Collision walk for a multiplicity-list family against the sequence
    grown from ``seeds`` by the list's own linear recurrence."""
    ml = MultiplicityList(tuple(e))
    fam = ml.predecessor_family()
    seq = FundamentalSeq.from_linear(tuple(seeds), fam.recurrence, name=f"Q{tuple(seeds)}")
    return check_unique(fam, seq, default_order_cap(ml.e, shortcut), stop_at_collision)

