"""Uniqueness and counting probes.

A family paired with an arbitrary positive sequence need not represent
values uniquely.  The probe walks the members in ascending lex order up to
an order cap, carrying each one's value, and reports the first value hit
twice (the walk and the check live in ``blocks``, shared with the p-adic
probe); for a multiplicity-list system with the matching linear recurrence,
a cap of a few periods is the interesting regime (four by default, two with
the shortcut flag).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .blocks import PredecessorFamily, member, value_collision, walk_values
from .coeff import CoeffFn
from .integers import FundamentalSeq
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
    """Walk members of order <= order_cap and look for a repeated value."""
    return UniquenessReport(order_cap, *value_collision(fam, seq.value, order_cap, stop_at_collision))


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
    seq = FundamentalSeq.from_linear(tuple(seeds), ml.recurrence_coeffs(), name=f"Q{tuple(seeds)}")
    return check_unique(fam, seq, default_order_cap(ml.e, shortcut), stop_at_collision)


def count_upto_order(
    fam: PredecessorFamily,
    order_cap: int,
    pred: Callable[[CoeffFn], bool] | None = None,
) -> int:
    """Number of members of order <= order_cap, zero function included,
    optionally filtered; only a filter makes the walk build members."""
    return sum(1 for _, digits in walk_values(fam, cap=order_cap) if pred is None or pred(member(digits)))
