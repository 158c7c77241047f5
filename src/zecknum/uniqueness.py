"""Uniqueness and counting probes.

A family paired with an arbitrary positive sequence need not represent
values uniquely.  The probe builds the members' values up to an order cap,
one order at a time in lex order, and reports the first value hit twice;
the p-adic probe shares it.  Under the family's derived sequence lex order
is value order (the generalized Zeckendorf theorem): Q_n members have order
< n, and a member's lex rank is its derived value, so counting and
unranking read that sequence.  For a multiplicity-list system with the
matching linear recurrence, a cap of a few periods is the interesting
regime (four by default, two with the shortcut flag).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence

from . import blocks
from .blocks import PredecessorFamily, first_collision, order_values
from .coeff import CoeffFn
from .integers import FundamentalSeq, encode_int
from .recurrences import MultiplicityList


class UniquenessReport(NamedTuple):
    """Outcome of a lex-order collision walk.

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
    fam: PredecessorFamily,
    seq: FundamentalSeq,
    order_cap: int,
    stop_at_collision: bool = True,
) -> UniquenessReport:
    """Look for a repeated value among the members of order <= order_cap."""
    return value_collision(fam, seq.value, order_cap, stop_at_collision)


def value_collision(
    fam: PredecessorFamily, q: Callable[[int], int], cap: int, stop: bool = True, modulus: int | None = None
) -> UniquenessReport:
    """The collision report on the members of order <= cap, by their
    order_values value (mod ``modulus``): a set finds the order holding the
    first repeat, and first_collision its two ranks.  Without ``stop``, a cap
    past MEMBER_LIMIT is refused before any value is summed, from the derived
    Q_{cap+1}, the count of the members; its terms increase, so they are read
    only up to the first past the limit.  The two witnesses are encode_int of
    their ranks on the derived sequence."""
    derived = FundamentalSeq.from_family(fam)
    if not stop and any(derived.value(n) > blocks.MEMBER_LIMIT for n in range(1, blocks._check_cap(cap) + 2)):
        raise blocks._limit_error(cap)
    seen: set[int] = set()
    repeat, start = None, 0  # start: members of the orders before this step
    for values in order_values(fam, q, cap, modulus):
        seen.update(islice(values, start, None))
        if repeat is None and len(seen) < len(values):  # the first repeat lies past start
            repeat = first_collision(enumerate(values))
            if stop:
                break
        start = len(values)
    if repeat is None:
        return UniquenessReport(cap, len(values), len(seen), None, True)
    v, i, j = repeat
    collision = (v, encode_int(i, fam, derived), encode_int(j, fam, derived))
    return UniquenessReport(cap, *((j + 1, j) if stop else (len(values), len(seen))), collision, not stop)


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

