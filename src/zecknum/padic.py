"""Numeration of p-adic integers at finite precision.

Everything is an integer residue mod p**prec.  A p-adic fundamental sequence
carries strictly increasing valuations, so a value splits into digits one
valuation layer at a time: compare the remainder's valuation with the next
term's, emit a digit in 0..p-1 when they meet, and fail honestly when the
remainder's valuation falls below every remaining term.  Terms whose
valuation reaches the precision are invisible and are not materialized.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterable, NamedTuple

from .blocks import FamilyError, PredecessorFamily, _scan_asc, order_values
from .coeff import CoeffFn, NotRepresentableError
from .uniqueness import UniquenessReport, value_collision


def padic_valuation(x: int, p: int, cap: int) -> int:
    """Largest v <= cap with p**v dividing x, with the zero residue capped.

    Divides by p, p**2, p**4, ... while they divide, then by the same powers
    downwards: O(log v) big divisions."""
    if x == 0:
        return cap
    v, powers = 0, [(p, 1)]
    while v + powers[-1][1] <= cap and x % powers[-1][0] == 0:
        q, n = powers[-1]
        x, v = x // q, v + n
        powers.append((q * q, 2 * n))
    for q, n in reversed(powers[:-1]):
        if v + n <= cap and x % q == 0:
            x, v = x // q, v + n
    return v


class PadicSeq:
    """Fundamental sequence of p-adic values, materialized while visible.

    ``term_fn(k)`` gives the residue of Q_k mod p**prec; terms are collected
    from k = 1 until the first one with valuation at or past the precision,
    and the collected valuations must increase strictly.
    """

    def __init__(self, p: int, prec: int, term_fn: Callable[[int], int], name: str = "Q"):
        if p < 2 or prec < 1:
            raise FamilyError(f"need p >= 2 and prec >= 1, got p={p}, prec={prec}")
        self.p = p
        self.prec = prec
        self.name = name
        self.modulus = p**prec
        terms: list[int] = []
        vals: list[int] = []
        k = 1
        while True:
            t = term_fn(k) % self.modulus
            v = padic_valuation(t, p, prec)
            if v >= prec:
                break
            if vals and v <= vals[-1]:
                raise FamilyError(
                    f"{name}: valuation {v} of term {k} does not exceed the previous {vals[-1]}"
                )
            terms.append(t)
            vals.append(v)
            k += 1
        if not terms:
            raise FamilyError(f"{name}: no visible terms at precision {prec}")
        self.terms = tuple(terms)
        self.valuations = tuple(vals)
        # decode's per-term step p**(v_k - v_k-1), unit Q_k / p**v_k, its inverse mod p
        # and the remainder's modulus p**(prec - v_k)
        units = [t // p**v for t, v in zip(terms, vals)]
        self._layers = tuple((p ** (v - below), u, pow(u, -1, p), p ** (prec - v))
                             for u, v, below in zip(units, vals, (0, *vals)))

    def __len__(self) -> int:
        return len(self.terms)

    def value(self, k: int) -> int:
        """Residue of Q_k; zero beyond the visible terms."""
        if k < 1:
            raise IndexError(f"{self.name}: index {k}")
        return self.terms[k - 1] if k <= len(self.terms) else 0

    def __repr__(self) -> str:
        return f"PadicSeq({self.name}, p={self.p}, prec={self.prec}, len={len(self.terms)})"


def eval_padic(fn: CoeffFn, seq: PadicSeq) -> int:
    """Residue of the digit function's value; indices past the visible terms
    contribute nothing."""
    terms, n = seq.terms, len(seq.terms)
    return sum(d * terms[k - 1] for k, d in fn.items() if k <= n) % seq.modulus


def decode_padic(x: int, seq: PadicSeq, fam: PredecessorFamily | None = None) -> CoeffFn:
    """Digits of the residue ``x``, one valuation layer at a time: the remainder
    is kept divided by p**v of the last layer, so a term costs one small division.

    Raises NotRepresentableError when the remainder's valuation drops below
    every remaining term or survives past the last one; with a family given,
    also rejects digit functions outside it (NotMemberError, with witness).
    """
    p = seq.p
    r, s = x % seq.modulus, 0
    pairs: list[tuple[int, int]] = []
    for k, ((step, unit, inv, mod), vk) in enumerate(zip(seq._layers, seq.valuations), start=1):
        if r == 0:
            break
        r, low = divmod(r, step)
        if low:
            rv = s + padic_valuation(low, p, seq.prec)
            raise NotRepresentableError(
                f"remainder valuation {rv} below term {k} valuation {vk}"
            )
        s = vk
        d = r % p * inv % p
        if d:
            pairs.append((k, d))
            r = (r - d * unit) % mod
    if r:
        raise NotRepresentableError(
            f"residue {r * p**s} left after the last visible term of {seq.name}"
        )
    fn = CoeffFn(tuple(pairs))
    if fam is not None:
        _scan_asc(fn, fam)  # raises NotMemberError with the witness index
    return fn


def check_unique_padic(
    fam: PredecessorFamily,
    seq: PadicSeq,
    order_cap: int,
    stop_at_collision: bool = True,
) -> UniquenessReport:
    """Collision walk over members of order <= order_cap, by residue."""
    return value_collision(fam, seq.value, order_cap, stop_at_collision, seq.modulus)


# -- roots and specific sequences --------------------------------------------


def _eval_poly(coeffs: Iterable[int], x: int, m: int) -> int:
    total = 0
    for c in reversed(tuple(coeffs)):
        total = (total * x + c) % m
    return total


def _eval_dpoly(coeffs: Iterable[int], x: int, m: int) -> int:
    cs = tuple(coeffs)
    total = 0
    for i in range(len(cs) - 1, 0, -1):
        total = (total * x + i * cs[i]) % m
    return total


def hensel_root(coeffs: Iterable[int], p: int, seed: int, prec: int) -> int:
    """Lift a simple root of f mod p to a root mod p**prec by Newton steps.

    ``coeffs`` are (c_0, c_1, ..., c_n) of f = sum c_i x^i.  The seed must
    satisfy f(seed) = 0 and f'(seed) != 0 mod p.
    """
    cs = tuple(coeffs)
    m = p**prec
    x = seed % p
    if _eval_poly(cs, x, p) != 0:
        raise ValueError(f"{seed} is not a root mod {p}")
    if _eval_dpoly(cs, x, p) == 0:
        raise ValueError(f"derivative vanishes at {seed} mod {p}, root is not simple")
    for _ in range(prec.bit_length() + 2):
        fx = _eval_poly(cs, x, m)
        if fx == 0:
            break
        x = (x - fx * pow(_eval_dpoly(cs, x, m), -1, m)) % m
    if _eval_poly(cs, x, m):
        raise ArithmeticError("Newton iteration failed to converge")
    return x


def power_padic_seq(p: int, prec: int, unit: int = 1, name: str | None = None) -> PadicSeq:
    """Q_k = (unit * p)**(k-1): valuation k-1 with a geometric unit part."""
    if unit % p == 0:
        raise FamilyError(f"unit {unit} must be coprime to {p}")
    return PadicSeq(
        p, prec, lambda k: pow(unit * p, k - 1, p**prec), name or f"({unit}*{p})^k"
    )


def golden_padic_seq(
    p: int = 41, prec: int = 8, mix: int = 3, seed: int = 7
) -> PadicSeq:
    """Q_k = (phi^k + mix*(1-phi)^k) * p^(k-1) with phi a root of x^2 = x + 1.

    Needs p to split the golden polynomial; the seed picks which root.  The
    unit parts satisfy the Fibonacci recurrence, so Q_{n+2} = p Q_{n+1} +
    p^2 Q_n holds mod p**prec.
    """
    m = p**prec
    phi = hensel_root((-1, -1, 1), p, seed, prec)
    psi = (1 - phi) % m

    def term(k: int) -> int:
        return (pow(phi, k, m) + mix * pow(psi, k, m)) * pow(p, k - 1, m) % m

    return PadicSeq(p, prec, term, name=f"golden-{p}")


# -- weak converse probing ----------------------------------------------------


def weak_converse_digit_bound(p: int) -> int:
    """Digit ceiling under which matching value sets force matching sequences."""
    return min(isqrt(p), (p - 1) // 2)


class ConverseProbe(NamedTuple):
    """Comparison of two sequences through one family's members."""

    values_match: bool
    first_difference: int | None
    max_digit_seen: int
    digit_bound: int


def _value_set(fam: PredecessorFamily, seq: PadicSeq, order_cap: int) -> set[int]:
    *_, values = order_values(fam, seq.value, order_cap, seq.modulus)
    return set(values)


def weak_converse_probe(
    fam: PredecessorFamily, seq_a: PadicSeq, seq_b: PadicSeq, order_cap: int
) -> ConverseProbe:
    """Do the two sequences reach the same residues through this family, and
    where do the sequences themselves first differ?

    A match with an early difference exhibits the converse failing; the
    reported digit bound is the hypothesis that would have forbidden it.
    """
    if (seq_a.p, seq_a.prec) != (seq_b.p, seq_b.prec):
        raise FamilyError("sequences live at different p or precision")
    vals_a, vals_b = (_value_set(fam, seq, order_cap) for seq in (seq_a, seq_b))
    # rows 2..cap+1 are members of order <= cap, and every member's digits lie under its rows'
    max_digit = max((d for n in range(2, order_cap + 2) for _, d in fam.digits(n)), default=0)
    terms = range(1, max(len(seq_a), len(seq_b)) + 1)
    diff = next((k for k in terms if seq_a.value(k) != seq_b.value(k)), None)
    return ConverseProbe(vals_a == vals_b, diff, max_digit, weak_converse_digit_bound(seq_a.p))
