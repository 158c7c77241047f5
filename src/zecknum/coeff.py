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

from typing import Iterable, Iterator, Mapping

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


class CoeffFn:
    """Immutable finitely-supported index -> digit map.

    Only indices with digit >= 1 are stored; ``digit(i)`` returns 0 off the
    support.  Instances hash and compare by their support pairs.
    """

    __slots__ = ("_pairs", "_map")

    def __init__(self, digits: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if type(digits) is tuple and _canonical(digits):
            _set_pairs(self, digits)  # kept as given, not copied
            return
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
        _set_pairs(self, tuple(sorted(acc.items())))

    @classmethod
    def _trusted(cls, pairs: tuple[tuple[int, int], ...]) -> "CoeffFn":
        """Wrap support pairs already known to be valid (ascending indices >= 1,
        digits in [1, DIGIT_LIMIT)) without checking them again."""
        self = object.__new__(cls)
        _set_pairs(self, pairs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CoeffFn is immutable")

    # -- basic access ------------------------------------------------------

    def digit(self, i: int) -> int:
        try:
            return self._map.get(i, 0)
        except AttributeError:  # built on first use: most are only read through items()
            object.__setattr__(self, "_map", dict(self._pairs))
            return self._map.get(i, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        """Support pairs (index, digit) in ascending index order."""
        return self._pairs

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __eq__(self, other):
        return isinstance(other, CoeffFn) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"CoeffFn({self.render()!r})"

    # -- orders ------------------------------------------------------------

    @property
    def order_asc(self) -> int:
        """Largest support index; 0 for the zero function."""
        return self._pairs[-1][0] if self._pairs else 0

    @property
    def order_desc(self) -> int | None:
        """Smallest support index; None for the zero function."""
        return self._pairs[0][0] if self._pairs else None

    # -- surgery -----------------------------------------------------------

    def restrict(self, lo: int = 1, hi: int | None = None) -> "CoeffFn":
        """Digits on [lo, hi] (no upper end when hi is None), everything else dropped."""
        return CoeffFn(
            (i, d) for i, d in self._pairs if lo <= i and (hi is None or i <= hi)
        )

    def plus_basis(self, i: int, count: int = 1) -> "CoeffFn":
        """This function with the digit at ``i`` raised by ``count``."""
        return CoeffFn(self._pairs + ((i, count),))

    def minus_basis(self, i: int) -> "CoeffFn":
        d = self.digit(i)
        if d < 1:
            raise ValueError(f"digit at index {i} is 0, cannot decrement")
        return CoeffFn(
            tuple((j, e) for j, e in self._pairs if j != i) + ((i, d - 1),)
        )

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        if not isinstance(other, CoeffFn):
            return NotImplemented
        return CoeffFn(self._pairs + other._pairs)

    # -- wire format -------------------------------------------------------

    def render(self) -> str:
        """Sparse text form ``i1:d1,i2:d2,...`` with ascending indices; zero is ``0``."""
        if not self._pairs:
            return "0"
        return ",".join(f"{i}:{d}" for i, d in self._pairs)

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
            if i <= last:
                raise ValueError(f"indices not strictly increasing at {chunk!r}")
            last = i
            pairs.append((i, d))
        return cls(pairs)


_set_pairs = CoeffFn._pairs.__set__  # the slot's own setter, past the immutability guard
ZERO = CoeffFn()


def basis(i: int) -> CoeffFn:
    """The function with a single digit 1 at index ``i``."""
    return CoeffFn(((i, 1),))


def from_dense(digits: Iterable[int]) -> CoeffFn:
    """Build from a dense low-to-high digit list: (1, 0, 3) -> {1:1, 3:3}."""
    return CoeffFn((i, d) for i, d in enumerate(digits, start=1))


def to_dense(f: CoeffFn, length: int | None = None) -> tuple[int, ...]:
    """Dense low-to-high digit tuple, padded/truncated to ``length`` if given."""
    n = f.order_asc if length is None else length
    return tuple(f.digit(i) for i in range(1, n + 1))


def check_horizon(horizon: int) -> None:
    """Reject a horizon below 1: no index lies under it, so nothing is decided."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
