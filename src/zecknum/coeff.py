"""Sparse coefficient functions.

A coefficient function is a finitely-supported map from indices (1, 2, 3, ...)
to non-negative integer digits.  Everything else in this package -- digit
systems over the integers, over (0,1), over the p-adics -- is phrased in terms
of these maps and two lexicographic orders on them:

* ascending lex: compare digits at the *largest* index where they differ
  (used for integer systems, where high indices carry large weights);
* descending lex: compare digits at the *smallest* index where they differ
  (used for real systems, where low indices carry large weights).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

# Digits must fit a signed 64-bit word so the textual wire format stays
# portable; anything at or above this bound is rejected at construction.
DIGIT_LIMIT = 1 << 63


# The errors every layer raises live here, at the bottom of the import graph,
# so the command line can catch them without loading the layers themselves.
class FamilyError(ValueError):
    """A family row failed validation (wrong order, bad support, bad digit)."""


class TableEndError(FamilyError, IndexError):
    """A bounded table of sequence terms was read past its end."""


class NotMemberError(ValueError):
    """Function not admissible; ``witness`` is the index where the scan failed."""

    def __init__(self, witness: int, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"not a member, witness index {witness}")


class WalkLimitError(ValueError):
    """A bounded walk reached more than MEMBER_LIMIT members."""


class NotRepresentableError(ValueError):
    """No admissible function evaluates to the requested value."""


def _canonical(pairs: tuple) -> bool:
    """Are these (int, int) pairs, indices ascending from 1, digits in [1, DIGIT_LIMIT)?"""
    last = 0
    for p in pairs:
        if type(p) is not tuple:
            return False
        i, d = p  # another length raises here as the general path would
        if type(i) is not int or type(d) is not int or i <= last or not 0 < d < DIGIT_LIMIT:
            return False
        last = i
    return True


class CoeffFn(tuple):
    """Immutable finitely-supported index -> digit map: the tuple of its
    support pairs (index, digit), indices ascending, every digit >= 1.

    ``digit(i)`` returns 0 off the support.  Instances hash as their pairs and
    equal only other CoeffFns with the same pairs.  The constructor checks its
    input; ``tuple.__new__(CoeffFn, pairs)`` wraps pairs already known valid
    (ascending indices >= 1, digits in [1, DIGIT_LIMIT)) without a check, in C.
    """

    __slots__ = ()

    def __new__(cls, digits: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if type(digits) is tuple and _canonical(digits):
            return tuple.__new__(cls, digits)
        items = digits.items() if isinstance(digits, Mapping) else digits
        acc: dict[int, int] = {}
        for i, d in items:
            if i < 1:
                raise ValueError(f"index {i} < 1")
            if d < 0:
                raise ValueError(f"negative digit {d} at index {i}")
            if d >= DIGIT_LIMIT:
                raise ValueError(f"digit {d} at index {i} exceeds the wire-format bound")
            if d:
                acc[i] = acc.get(i, 0) + d
                if acc[i] >= DIGIT_LIMIT:
                    raise ValueError(f"digit overflow at index {i}")
        return tuple.__new__(cls, sorted(acc.items()))

    def __init__(self, digits=()):
        """Nothing: __new__ builds the instance.  Defined so that a wrapper
        around __init__ (a call counter) has one to call."""

    # -- basic access ------------------------------------------------------

    def digit(self, i: int) -> int:
        j = bisect_left(self, (i,))  # (i,) sorts just below (i, d)
        return self[j][1] if j < len(self) and self[j][0] == i else 0

    def items(self) -> tuple[tuple[int, int], ...]:
        """Support pairs (index, digit) in ascending index order, as a plain tuple."""
        return tuple(self)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self)

    def __eq__(self, other):
        return isinstance(other, CoeffFn) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError("CoeffFns are not ordered: tuple order is neither lex order")

    __le__ = __gt__ = __ge__ = __lt__

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        """Digit-wise sum."""
        if not isinstance(other, CoeffFn):  # raised, not NotImplemented: tuple's + would join the pairs
            raise TypeError(f"a CoeffFn adds only to a CoeffFn, not {type(other).__name__}")
        return CoeffFn(tuple.__add__(self, other))

    def __repr__(self) -> str:
        return f"CoeffFn({self.render()!r})"

    # -- order -------------------------------------------------------------

    @property
    def order_asc(self) -> int:
        """Largest support index; 0 for the zero function."""
        return self[-1][0] if self else 0

    # -- wire format -------------------------------------------------------

    def render(self) -> str:
        """Sparse text form ``i1:d1,i2:d2,...`` with ascending indices; zero is ``0``."""
        if not self:
            return "0"
        return ",".join(f"{i}:{d}" for i, d in self)

    @classmethod
    def parse(cls, text: str) -> "CoeffFn":
        text = text.strip()
        if text in ("", "0"):
            return cls()
        pairs = []
        last = 0
        for chunk in text.split(","):
            i_str, _, d_str = chunk.partition(":")
            try:
                i, d = int(i_str), int(d_str)
            except ValueError:
                raise ValueError(f"bad sparse pair {chunk!r}") from None
            if i < 1:
                raise ValueError(f"index {i} < 1 at {chunk!r}")
            if i <= last:
                raise ValueError(f"indices not strictly increasing at {chunk!r}")
            last = i
            pairs.append((i, d))
        return cls(pairs)


ZERO = CoeffFn()


def from_dense(digits: Iterable[int]) -> CoeffFn:
    """Build from a dense low-to-high digit list: (1, 0, 3) -> {1:1, 3:3}."""
    return CoeffFn((i, d) for i, d in enumerate(digits, start=1))


def to_dense(f: CoeffFn, length: int | None = None) -> tuple[int, ...]:
    """Dense low-to-high digit tuple, padded/truncated to ``length`` if given."""
    n, digits = f.order_asc if length is None else length, dict(f)
    return tuple(digits.get(i, 0) for i in range(1, n + 1))


def check_horizon(horizon: int) -> None:
    """Reject a horizon below 1: no index lies under it, so nothing is decided."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
