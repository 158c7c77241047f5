"""Independent references for every answer the benchmark checks.

Nothing here imports zecknum.  Each expected answer comes from the fixtures'
documented definitions (their notes, the README transcripts and tables) and is
computed by code written for the benchmark, so the code under test is never
its own reference.  Checkers take plain Python data (digit pairs as
``((index, digit), ...)`` tuples, ints, Fractions, Decimals, strings) and raise
``CheckFailed`` on a wrong answer.

``self_check()`` feeds every checker a correct answer and then perturbed ones
(a digit flipped, a value off by one, one stdout byte changed, ...) and
requires each perturbation to be rejected.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction

Pairs = tuple  # ((index, digit), ...) with ascending indices


class CheckFailed(AssertionError):
    """An operation returned a wrong answer."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def render(pairs: Pairs) -> str:
    """The README's sparse wire format: ``i:d,...`` ascending, ``0`` for zero."""
    return ",".join(f"{i}:{d}" for i, d in pairs) if pairs else "0"


# -- integer fundamental sequences, from the fixture notes -------------------

BLOCKS7 = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1))
BLOCKS7_WEIGHTS = (1, 2, 3)  # Q_1..Q_3; each further group of three is worth 7x
BLOCK_OF_VALUE = {sum(d * w for d, w in zip(b, BLOCKS7_WEIGHTS)): b for b in BLOCKS7}


def q_table(name: str, above: int) -> list[int]:
    """Q_1, Q_2, ... of an integer fixture, extended until a term exceeds ``above``.

    fib: 1, 2, Q_n = Q_{n-1} + Q_{n-2}.  factorial: Q_k = k!.  rec-8-2-3: 1, 8,
    62, Q_n = 8 Q_{n-1} - 2 Q_{n-2} - 3 Q_{n-3}.  index-bounded: Q_0 = Q_1 = 1,
    Q_n = (n-1) Q_{n-1} + Q_{n-2} (1, 2, 5, 17, 73, ...).  blocks7: 1, 2, 3,
    then 7 times the term three places down.  pin-3: 5, 6, 7, then 4 (n-3).
    mult-2-3 and mult-11-3: seeds grown by their multiplicity recurrence.
    """
    if name == "fib":
        q = [1, 2]
        step = lambda q: q[-1] + q[-2]
    elif name == "factorial":
        q = [1]
        step = lambda q: q[-1] * (len(q) + 1)
    elif name == "rec-8-2-3":
        q = [1, 8, 62]
        step = lambda q: 8 * q[-1] - 2 * q[-2] - 3 * q[-3]
    elif name == "index-bounded":
        q = [1, 2]
        step = lambda q: len(q) * q[-1] + q[-2]
    elif name == "blocks7":
        q = list(BLOCKS7_WEIGHTS)
        step = lambda q: 7 * q[-3]
    elif name == "pin-3":
        q = [5, 6, 7]
        step = lambda q: 4 * (len(q) + 1 - 3)
    elif name == "mult-2-3":
        q = [5, 3]
        step = lambda q: 2 * q[-1] + 3 * q[-2]
    elif name == "mult-11-3":
        q = [19, 3]
        step = lambda q: 11 * q[-1] + 3 * q[-2]
    else:
        raise KeyError(name)
    while q[-1] <= above:
        q.append(step(q))
    return q


def value(pairs: Pairs, q: list[int]) -> int:
    return sum(d * q[k - 1] for k, d in pairs)


def greedy_digits(x: int, q: list[int]) -> Pairs:
    """Digit-greedy representation over an increasing table: at each index
    from the top down take as many Q_k as fit (Zeckendorf for fib, factoradic
    for factorial)."""
    pairs = []
    for k in range(bisect_right(q, x), 0, -1):
        d, x = divmod(x, q[k - 1])
        if d:
            pairs.append((k, d))
    _expect(x == 0, "greedy table too short")
    return tuple(reversed(pairs))


def blocks7_digits(x: int) -> Pairs:
    """Base-7 digits of x, each replaced by the block of that value."""
    pairs = []
    r = 0
    while x:
        x, v = divmod(x, 7)
        pairs.extend((3 * r + p + 1, d) for p, d in enumerate(BLOCK_OF_VALUE[v]) if d)
        r += 1
    return tuple(pairs)


def expected_encoding(name: str, x: int, q: list[int]) -> Pairs:
    return blocks7_digits(x) if name == "blocks7" else greedy_digits(x, q)


def check_codec(name: str, x: int, q: list[int], pairs: Pairs, decoded: int, member: bool) -> None:
    """encode_int, decode_int and is_member_asc on one value."""
    _expect(pairs == expected_encoding(name, x, q), f"{name}: encode({x}) digits differ")
    _expect(decoded == x, f"{name}: decode(encode({x})) = {decoded}")
    _expect(member is True, f"{name}: encode({x}) reported as not a member")


def check_cli_encode(x: int, q: list[int], stdout: str, code: int) -> None:
    want = f"# fib: value\tdigits\n{x}\t{render(greedy_digits(x, q))}\n"
    _expect(code == 0, f"cli encode {x}: exit {code}")
    _expect(stdout == want, f"cli encode {x}: stdout differs")


# -- walks -------------------------------------------------------------------


def check_rank_law(start: int, q: list[int], members: list[Pairs], k: int) -> None:
    """Member i of a lex-order walk from the member of value ``start`` has
    value start + i."""
    _expect(len(members) == k, f"walk from {start}: {len(members)} members, wanted {k}")
    for i, mu in enumerate(members):
        _expect(value(mu, q) == start + i, f"walk from {start}: member {i} has the wrong value")


def check_pin_subset(bound: int, q: list[int], pairs: list[tuple[Pairs, int]], collision) -> None:
    """pin-3 members with value <= bound cover 0 and 4..bound exactly once."""
    for mu, v in pairs:
        _expect(value(mu, q) == v, f"pin-3: reported value {v} is wrong")
    _expect(sorted(v for _, v in pairs) == [0, *range(4, bound + 1)], f"pin-3 to {bound}: coverage")
    _expect(collision is None, f"pin-3 to {bound}: unexpected collision")


# Known answers: README transcripts and acceptance criterion 9.
MULT_2_3_UNIQUE = {"members_seen": 3**8, "distinct_values": 3**8, "collision": None, "complete": True}
MULT_11_3_SUBSET = {"members": 188, "distinct": 162, "collision": (114, "1:6", "2:8,3:1")}
GOLDEN_41_UNIQUE = {"members_seen": 55, "distinct_values": 55, "collision": None, "complete": True}
PADIC_5_20_PROBE = {"values_match": True, "first_difference": 2, "max_digit_seen": 4, "digit_bound": 2}


def check_report(label: str, got: dict, want: dict) -> None:
    for key, v in want.items():
        _expect(got.get(key) == v, f"{label}: {key} = {got.get(key)!r}, wanted {v!r}")


def check_mult_11_3(q: list[int], pairs: list[tuple[Pairs, int]], collision) -> None:
    for mu, v in pairs:
        _expect(value(mu, q) == v, f"mult-11-3: reported value {v} is wrong")
    got = {"members": len(pairs), "distinct": len({v for _, v in pairs}), "collision": collision}
    check_report("mult-11-3 subset", got, MULT_11_3_SUBSET)


# -- carriers ------------------------------------------------------------------

REAL_PREC = 60  # decimal digits the benchmark sets around every real operation
GOLDEN_TOL = Fraction(1, 10**30)
_IDENTITY_SLACK = Decimal("1e-50")


def golden_omega() -> Decimal:
    """The positive root of x + x^2 = 1, (sqrt 5 - 1) / 2, at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return (Decimal(5).sqrt() - 1) / 2


def _golden_sum(pairs: Pairs, omega: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 80
        return sum((d * omega**k for k, d in pairs), Decimal(0))


def _golden_admissible(pairs: Pairs) -> bool:
    """0/1 digits with no two adjacent ones."""
    return all(d == 1 for _, d in pairs) and all(b - a >= 2 for (a, _), (b, _) in zip(pairs, pairs[1:]))


def check_golden_expand(x: Decimal, omega: Decimal, pairs: Pairs, residual: Decimal) -> None:
    _expect(_golden_admissible(pairs), f"golden-real: {render(pairs)} not admissible")
    _expect(0 <= residual <= GOLDEN_TOL, f"golden-real: residual {residual} outside [0, 1e-30]")
    with localcontext() as ctx:
        ctx.prec = 80
        _expect(abs(x - _golden_sum(pairs, omega) - residual) <= _IDENTITY_SLACK,
                f"golden-real: digits + residual != {x}")


def check_harmonic_expand(x: Fraction, pairs: Pairs, residual: Fraction) -> None:
    """Exact: sum of 1/(k+1) over the digits plus the residual is x."""
    _expect(all(d == 1 for _, d in pairs), "harmonic: digit other than 1")
    _expect(residual >= 0, "harmonic: negative residual")
    _expect(sum((Fraction(d, k + 1) for k, d in pairs), Fraction(0)) + residual == x,
            f"harmonic: digits + residual != {x}")


def sevenths_q(k: int) -> Fraction:
    """Q_{3m+t} = (3/7, 2/7, 1/7)[t-1] / 7^m."""
    m, t = divmod(k - 1, 3)
    return Fraction(3 - t, 7 ** (m + 1))


def check_sevenths_expand(x: Fraction, pairs: Pairs, residual, exact: bool) -> None:
    _expect(exact is True and residual == 0, f"sevenths: {x} did not expand exactly")
    _expect(sum((d * sevenths_q(k) for k, d in pairs), Fraction(0)) == x, f"sevenths: digits != {x}")


def check_maximal(n: int, horizon: int, omega: Decimal, lhs: Decimal, rhs: Decimal, ok: bool) -> None:
    """The golden maximal row at n (ones at n, n+2, ...) sums to omega^(n-1)."""
    with localcontext() as ctx:
        ctx.prec = 80
        want_lhs = sum((omega**k for k in range(n, horizon + 1, 2)), Decimal(0))
        _expect(abs(lhs - want_lhs) <= _IDENTITY_SLACK, f"maximal row {n}: lhs differs")
        _expect(abs(rhs - omega ** (n - 1)) <= _IDENTITY_SLACK, f"maximal row {n}: rhs differs")
    _expect(ok is True, f"maximal row {n}: identity reported as failing")


def hensel_golden(p: int, prec: int, seed: int) -> int:
    """Root of x^2 - x - 1 mod p**prec lifted from ``seed`` by Newton steps."""
    m = p**prec
    x = seed
    for _ in range(prec.bit_length() + 2):
        x = (x - (x * x - x - 1) * pow(2 * x - 1, -1, m)) % m
    _expect((x * x - x - 1) % m == 0, "golden root did not lift")
    return x


def padic_q(name: str) -> tuple[int, list[int]]:
    """(modulus, [Q_1, Q_2, ...]) of the visible terms of a p-adic system.

    golden-41: (phi^k + 3 (1-phi)^k) 41^(k-1) mod 41^8, phi lifted from 7.
    padic-5-20: 5^(k-1) mod 5^4.  p5-300: 5^(k-1) mod 5^300.
    """
    if name == "golden-41":
        m = 41**8
        phi = hensel_golden(41, 8, 7)
        psi = (1 - phi) % m
        return m, [(pow(phi, k, m) + 3 * pow(psi, k, m)) * 41 ** (k - 1) % m for k in range(1, 9)]
    if name == "padic-5-20":
        return 5**4, [5 ** (k - 1) for k in range(1, 5)]
    if name == "p5-300":
        return 5**300, [5 ** (k - 1) for k in range(1, 301)]
    raise KeyError(name)


def check_padic_roundtrip(label: str, modulus: int, q: list[int], mu: Pairs, residue: int, decoded: Pairs) -> None:
    _expect(residue == value(mu, q) % modulus, f"{label}: eval of {render(mu)} is wrong")
    _expect(decoded == mu, f"{label}: decode(eval({render(mu)})) = {render(decoded)}")


# -- command line ----------------------------------------------------------------


def _line_pattern(line: str) -> re.Pattern:
    """A README line; '...' elides a run of non-space characters."""
    return re.compile(r"\S+".join(re.escape(part) for part in line.split("...")) + r"\Z")


def check_transcript(expected: str, expected_code: int, stdout: str, code: int) -> None:
    """stdout against a README transcript, line by line, exit code included."""
    _expect(code == expected_code, f"exit {code}, wanted {expected_code}")
    want, got = expected.split("\n"), stdout.split("\n")
    _expect(len(want) == len(got), "stdout line count differs")
    for w, g in zip(want, got):
        _expect(g == w if "..." not in w else bool(_line_pattern(w).match(g)), f"stdout line {g!r}")


# -- self-check --------------------------------------------------------------------


def _pin_member(v: int) -> Pairs:
    """A 0/1 digit string of value v >= 4 under pin-3's table: Q_1..Q_3 are
    5, 6, 7 and Q_n = 4 (n-3) past them."""
    a, s = divmod(v, 4)
    if s == 0:
        return ((a + 3, 1),)
    if a == 1:
        return ((s, 1),)
    return ((s, 1), (a + 2, 1))


def _mult_11_3_members(q: list[int], bound: int) -> tuple[list[tuple[Pairs, int]], tuple]:
    """Members of mult-11-3 with value <= bound, in lex order, and the first
    collision.  A member is a digit string d_3 d_2 d_1 (Q_4 > bound) every
    suffix of which is lex <= the reduced multiplicities (11, 2) repeated."""
    def admissible(ds):
        return all(ds[j:] <= tuple((11, 2)[i % 2] for i in range(len(ds) - j)) for j in range(len(ds)))

    members, first, collision = [], {}, None
    for d3 in range(12):
        for d2 in range(12):
            for d1 in range(12):
                if not admissible((d3, d2, d1)):
                    continue
                mu = tuple((k, d) for k, d in ((1, d1), (2, d2), (3, d3)) if d)
                v = value(mu, q)
                if v > bound:
                    continue
                members.append((mu, v))
                if collision is None and v in first:
                    collision = (v, render(first[v]), render(mu))
                first.setdefault(v, mu)
    return members, collision


def _flip(pairs: Pairs) -> Pairs:
    """The same pairs with the lowest digit raised by one."""
    (k, d), *rest = pairs
    return ((k, d + 1), *rest)


def self_check() -> int:
    """Require every checker to accept a correct answer and reject perturbed ones.

    Returns the number of perturbations rejected; raises CheckFailed if a
    correct answer is refused or a perturbed one accepted.
    """
    cases = []  # (label, good thunk, [bad thunks])

    def case(label, good, *bad):
        cases.append((label, good, bad))

    for name in ("fib", "factorial", "rec-8-2-3", "index-bounded", "blocks7"):
        q = q_table(name, 10**40)
        x = 10**39 + 12345
        p = expected_encoding(name, x, q)
        case(f"codec {name}", lambda n=name, q=q, x=x, p=p: check_codec(n, x, q, p, x, True),
             lambda n=name, q=q, x=x, p=p: check_codec(n, x, q, _flip(p), x, True),
             lambda n=name, q=q, x=x, p=p: check_codec(n, x, q, p, x + 1, True),
             lambda n=name, q=q, x=x, p=p: check_codec(n, x, q, p, x, False))
    fq = q_table("fib", 10**40)
    x = 10**30 + 7
    out = f"# fib: value\tdigits\n{x}\t{render(greedy_digits(x, fq))}\n"
    case("cli encode", lambda: check_cli_encode(x, fq, out, 0),
         lambda: check_cli_encode(x, fq, out.replace("\t", " ", 1), 0),
         lambda: check_cli_encode(x, fq, out, 1))

    start = 10**6
    walk = [greedy_digits(start + i, fq) for i in range(20)]
    case("walk rank law", lambda: check_rank_law(start, fq, walk, 20),
         lambda: check_rank_law(start, fq, [*walk[:5], _flip(walk[5]), *walk[6:]], 20),
         lambda: check_rank_law(start + 1, fq, walk, 20),
         lambda: check_rank_law(start, fq, walk[:-1], 20))
    pq = q_table("pin-3", 100)
    bound = 40
    pin = [((), 0)] + [(_pin_member(v), v) for v in range(4, bound + 1)]
    case("pin-3 subset", lambda: check_pin_subset(bound, pq, pin, None),
         lambda: check_pin_subset(bound, pq, pin[:-1], None),
         lambda: check_pin_subset(bound, pq, [*pin[:-1], (pin[-2][0], bound)], None),
         lambda: check_pin_subset(bound, pq, [(mu, v + 1) for mu, v in pin], None),
         lambda: check_pin_subset(bound, pq, pin, (4, "5:1", "1:1")))
    mq = q_table("mult-11-3", 200)
    mult, mc = _mult_11_3_members(mq, 200)
    case("mult-11-3 subset", lambda: check_mult_11_3(mq, mult, mc),
         lambda: check_mult_11_3(mq, mult[:-1], mc),
         lambda: check_mult_11_3(mq, [*mult[:-1], (mult[-1][0], mult[-1][1] + 1)], mc),
         lambda: check_mult_11_3(mq, mult, (114, "1:6", "2:7,3:1")))
    case("mult-2-3 unique", lambda: check_report("u", dict(MULT_2_3_UNIQUE), MULT_2_3_UNIQUE),
         lambda: check_report("u", {**MULT_2_3_UNIQUE, "members_seen": 6560}, MULT_2_3_UNIQUE),
         lambda: check_report("u", {**MULT_2_3_UNIQUE, "collision": (1, "a", "b")}, MULT_2_3_UNIQUE))
    case("padic probe", lambda: check_report("p", dict(PADIC_5_20_PROBE), PADIC_5_20_PROBE),
         lambda: check_report("p", {**PADIC_5_20_PROBE, "first_difference": 3}, PADIC_5_20_PROBE))

    omega = golden_omega()
    with localcontext() as ctx:
        ctx.prec = REAL_PREC
        gp = ((2, 1), (5, 1), (9, 1))
        gx = +(_golden_sum(gp, omega) + Decimal("1e-35"))
        gr = gx - _golden_sum(gp, omega)
    case("golden expand", lambda: check_golden_expand(gx, omega, gp, gr),
         lambda: check_golden_expand(gx, omega, ((2, 1), (5, 1), (10, 1)), gr),
         lambda: check_golden_expand(gx, omega, ((2, 1), (3, 1), (9, 1)), gr),
         lambda: check_golden_expand(gx, omega, gp, gr + Decimal("1e-40")))
    hp = ((1, 1), (2, 1), (6, 1))
    hx = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 7) + Fraction(1, 1000)
    case("harmonic expand", lambda: check_harmonic_expand(hx, hp, Fraction(1, 1000)),
         lambda: check_harmonic_expand(hx, ((1, 1), (2, 1), (7, 1)), Fraction(1, 1000)),
         lambda: check_harmonic_expand(hx, hp, Fraction(1, 1001)))
    sp = ((2, 1), (8, 1))
    case("sevenths expand", lambda: check_sevenths_expand(Fraction(100, 343), sp, 0, True),
         lambda: check_sevenths_expand(Fraction(100, 343), ((2, 1), (9, 1)), 0, True),
         lambda: check_sevenths_expand(Fraction(100, 343), sp, 0, False))
    with localcontext() as ctx:
        ctx.prec = REAL_PREC
        lhs = +sum((omega**k for k in range(3, 201, 2)), Decimal(0))
        rhs = +omega**2
    case("maximal identity", lambda: check_maximal(3, 200, omega, lhs, rhs, True),
         lambda: check_maximal(3, 200, omega, lhs + Decimal("1e-45"), rhs, True),
         lambda: check_maximal(4, 200, omega, lhs, rhs, True),
         lambda: check_maximal(3, 200, omega, lhs, rhs, False))
    for label in ("golden-41", "padic-5-20"):
        m, q = padic_q(label)
        mu = ((1, 1), (4, 1)) if label == "golden-41" else ((1, 3), (4, 2))
        r = value(mu, q) % m
        case(f"padic {label}", lambda m=m, q=q, mu=mu, r=r: check_padic_roundtrip(label, m, q, mu, r, mu),
             lambda m=m, q=q, mu=mu, r=r: check_padic_roundtrip(label, m, q, mu, r, _flip(mu)),
             lambda m=m, q=q, mu=mu, r=r: check_padic_roundtrip(label, m, q, mu, r + 1, mu))
    text = "# a: x\n1\t2:1\n# lhs=0.61803398  error=1E-43\n"
    pattern = "# a: x\n1\t2:1\n# lhs=0.618...  error=1E-43\n"
    case("transcript", lambda: check_transcript(pattern, 0, text, 0),
         lambda: check_transcript(pattern, 0, text.replace("2:1", "2:2"), 0),
         lambda: check_transcript(pattern, 0, text.replace("E-43", "E-44"), 0),
         lambda: check_transcript(pattern, 0, text, 1),
         lambda: check_transcript(pattern, 0, text + "\n", 0))

    rejected = 0
    for label, good, bad in cases:
        good()
        for i, thunk in enumerate(bad):
            try:
                thunk()
            except CheckFailed:
                rejected += 1
            else:
                raise CheckFailed(f"self-check: perturbation {i} of {label} was accepted")
    return rejected
