"""The four workloads: inputs made from the seed, set-up, and operations.

Each workload builds its inputs from ``random.Random(seed)`` before anything
from zecknum is imported.  ``setup`` loads and warms the systems; it is what
``setup_s`` times, together with the imports.  ``ops`` is the cycle of
operations for the timed closed loop and ``trace_ops`` the fixed list the
traced run executes.  Both are whole rounds of ``round_len`` operations: a
round holds every kind of operation in fixed proportions, and the timed loop
only stops at the end of a round, so every run measures the same mix.  An
operation is a pair ``(run, check)``: ``run()`` calls
the library (and only it is timed); ``check(result)`` compares the result with
the independent oracles, raises ``CheckFailed`` on a wrong answer and returns
the number of members the result holds.

Library functions are always looked up on their module at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import oracles
from transcripts import TRANSCRIPTS


def import_zecknum(with_cli: bool = False) -> SimpleNamespace:
    import zecknum  # noqa: F401  (the package imports every layer but cli)
    from zecknum import blocks, coeff, config, integers, padic, real, uniqueness

    mods = dict(blocks=blocks, coeff=coeff, config=config, integers=integers,
                padic=padic, real=real, uniqueness=uniqueness)
    if with_cli:
        from zecknum import cli

        mods["cli"] = cli
    return SimpleNamespace(**mods)


def _pairs(mu) -> tuple:
    return tuple(mu.items())


def _collision(rep):
    """A report's collision as (value, rendered member, rendered member), or None."""
    c = rep.collision
    return c and (c[0], oracles.render(_pairs(c[1])), oracles.render(_pairs(c[2])))


class Codec:
    """Warm round trips of integers up to 300 digits on the derived fixtures."""

    FIXTURES = ("fib", "blocks7", "rec-8-2-3", "factorial", "index-bounded")
    DIGITS = tuple(range(10, 301, 10))
    ROUNDS = 40

    round_len = len(DIGITS) * len(FIXTURES)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.values = [
            (name, rng.randrange(10 ** (d - 1), 10**d))
            for _ in range(self.ROUNDS) for d in self.DIGITS for name in self.FIXTURES
        ]
        self.q = {name: oracles.q_table(name, 10**300) for name in self.FIXTURES}

    def setup(self, zk) -> None:
        self.zk = zk
        self.systems = {name: zk.config.load_fixture(name) for name in self.FIXTURES}
        self.warm = []
        for name, s in self.systems.items():
            top = max(x for n, x in self.values if n == name)
            self.warm.append((name, top, zk.integers.encode_int(top, s.family, s.sequence)))

    def check_setup(self) -> None:
        for name, x, mu in self.warm:
            s = self.systems[name]
            oracles.check_codec(name, x, self.q[name], _pairs(mu),
                                self.zk.integers.decode_int(mu, s.sequence),
                                self.zk.blocks.is_member_asc(mu, s.family))

    def _op(self, name: str, x: int):
        zk, s = self.zk, self.systems[name]

        def run():
            mu = zk.integers.encode_int(x, s.family, s.sequence)
            return mu, zk.integers.decode_int(mu, s.sequence), zk.blocks.is_member_asc(mu, s.family)

        def check(res):
            mu, v, member = res
            oracles.check_codec(name, x, self.q[name], _pairs(mu), v, member)
            return 1

        return run, check

    def ops(self):
        return [self._op(name, x) for name, x in self.values]

    def trace_ops(self):
        return self.ops()[: self.round_len]


class Walk:
    """Lex-order walks, subset enumeration and collision checks."""

    # Members per walk, chosen so that each walk costs about what the
    # mult-11-3 subset does at the baseline: those five operations then hold
    # the middle of the latency distribution, and the two mult-2-3 checks its
    # top fifth, so neither p50 nor p90 falls in a gap between kinds.
    WALK_LENGTHS = {"fib": 320, "factorial": 550, "blocks7": 280, "rec-8-2-3": 600}
    WALK_FIXTURES = tuple(WALK_LENGTHS)
    ROUNDS = 100
    TRACE_ROUNDS = 2
    round_len = 10

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rounds = [
            {"starts": {name: rng.randrange(10**6, 10**12) for name in self.WALK_FIXTURES},
             "pin_bound": rng.randrange(800, 1200)}
            for _ in range(self.ROUNDS)
        ]
        self.q = {name: oracles.q_table(name, 10**13) for name in self.WALK_FIXTURES}
        self.q["pin-3"] = oracles.q_table("pin-3", 1500)
        self.q["mult-11-3"] = oracles.q_table("mult-11-3", 200)

    def setup(self, zk) -> None:
        self.zk = zk
        names = (*self.WALK_FIXTURES, "pin-3", "mult-2-3", "mult-11-3", "golden-41", "padic-5-20")
        self.systems = {name: zk.config.load_fixture(name) for name in names}
        self.start_members = {}
        for r in self.rounds:
            for name, x in r["starts"].items():
                s = self.systems[name]
                self.start_members[name, x] = zk.integers.encode_int(x, s.family, s.sequence)

    def check_setup(self) -> None:
        for (name, x), mu in self.start_members.items():
            if _pairs(mu) != oracles.expected_encoding(name, x, self.q[name]):
                raise oracles.CheckFailed(f"{name}: start member of {x} is wrong")

    def _walk(self, name, start):
        zk, fam, k = self.zk, self.systems[name].family, self.WALK_LENGTHS[name]
        mu0 = self.start_members[name, start]

        def run():
            return list(islice(zk.blocks.enumerate_asc(fam, mu0), k))

        def check(members):
            oracles.check_rank_law(start, self.q[name], [_pairs(m) for m in members], k)
            return len(members)

        return run, check

    def _pin(self, bound):
        zk, s = self.zk, self.systems["pin-3"]

        def run():
            return zk.integers.enumerate_subset(s.family, s.sequence, bound)

        def check(rep):
            oracles.check_pin_subset(bound, self.q["pin-3"], [(_pairs(m), v) for m, v in rep.pairs], _collision(rep))
            return len(rep.pairs)

        return run, check

    @staticmethod
    def _report(rep) -> dict:
        return {"members_seen": rep.members_seen, "distinct_values": rep.distinct_values,
                "collision": _collision(rep), "complete": rep.complete}

    def _mult_2_3(self):
        zk, s = self.zk, self.systems["mult-2-3"]

        def run():
            return zk.uniqueness.check_unique(s.family, s.sequence, 8)

        def check(rep):
            oracles.check_report("mult-2-3 unique", self._report(rep), oracles.MULT_2_3_UNIQUE)
            return rep.members_seen

        return run, check

    def _mult_11_3(self):
        zk, s = self.zk, self.systems["mult-11-3"]

        def run():
            return zk.integers.enumerate_subset(s.family, s.sequence, 200)

        def check(rep):
            oracles.check_mult_11_3(self.q["mult-11-3"], [(_pairs(m), v) for m, v in rep.pairs], _collision(rep))
            return len(rep.pairs)

        return run, check

    def _golden_41(self):
        zk, s = self.zk, self.systems["golden-41"]

        def run():
            return zk.padic.check_unique_padic(s.family, s.sequence, 8)

        def check(rep):
            oracles.check_report("golden-41 unique", self._report(rep), oracles.GOLDEN_41_UNIQUE)
            return rep.members_seen

        return run, check

    def _probe(self):
        zk, s = self.zk, self.systems["padic-5-20"]

        def run():
            return zk.padic.weak_converse_probe(s.family, s.sequences["main"], s.sequences["alt"], 4)

        def check(p):
            got = {"values_match": p.values_match, "first_difference": p.first_difference,
                   "max_digit_seen": p.max_digit_seen, "digit_bound": p.digit_bound}
            oracles.check_report("padic-5-20 probe", got, oracles.PADIC_5_20_PROBE)
            return 0

        return run, check

    def _round(self, r):
        return [*(self._walk(name, x) for name, x in r["starts"].items()), self._pin(r["pin_bound"]),
                self._mult_2_3(), self._mult_11_3(), self._golden_41(), self._probe(), self._mult_2_3()]

    def ops(self):
        return [op for r in self.rounds for op in self._round(r)]

    def trace_ops(self):
        return [op for r in self.rounds[: self.TRACE_ROUNDS] for op in self._round(r)]


P5_300 = {
    "name": "p5-300", "kind": "padic", "p": 5, "prec": 300,
    "family": {"type": "multiplicity", "e": [4, 5]},
    "sequence": {"type": "power", "unit": 1},
}


class Carriers:
    """Expansions on (0,1) and p-adic round trips."""

    ROUNDS = 150
    TRACE_ROUNDS = 10
    GOLDEN_MAX_BLOCKS = 64  # enough to reach the 1e-30 residual from 60 digits
    # A round runs sevenths, the maximal identity and p5-300 twice each: the
    # first two then hold the middle of the latency distribution and p5-300
    # its top fifth, so neither p50 nor p90 falls in a gap between kinds.
    round_len = 10

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rounds = []
        for _ in range(self.ROUNDS):
            b = rng.randrange(2, 200)
            self.rounds.append({
                "golden": Decimal(f"0.{rng.randrange(1, 10**60):060d}"),
                "harmonic": (Fraction(rng.randrange(1, b), b), rng.choice((3, 4))),
                "sevenths": [Fraction(rng.randrange(1, 343**2), 343**2) for _ in range(2)],
                "maximal_n": [rng.randrange(2, 60) for _ in range(2)],
                "golden-41": self._zeckendorf(rng, 8),
                "padic-5-20": self._digits(rng, 4),
                "p5-300": [self._digits(rng, 300) for _ in range(2)],
            })
        self.omega = oracles.golden_omega()
        self.padic_q = {name: oracles.padic_q(name) for name in ("golden-41", "padic-5-20", "p5-300")}

    @staticmethod
    def _zeckendorf(rng, n):
        while True:
            pairs, prev = [], 0
            for k in range(1, n + 1):
                if k - prev > 1 and rng.random() < 0.5:
                    pairs.append((k, 1))
                    prev = k
            if pairs:
                return tuple(pairs)

    @staticmethod
    def _digits(rng, n):
        while True:
            pairs = tuple((k, d) for k in range(1, n + 1) if (d := rng.randrange(5)))
            if pairs:
                return pairs

    def setup(self, zk) -> None:
        self.zk = zk
        with localcontext() as ctx:
            ctx.prec = oracles.REAL_PREC
            self.systems = {name: zk.config.load_fixture(name)
                            for name in ("golden-real", "harmonic", "sevenths", "golden-41", "padic-5-20")}
            self.systems["p5-300"] = zk.config.build_system(P5_300)
        s = self.systems["p5-300"]
        warm = zk.coeff.CoeffFn([(k, 4) for k in range(1, 301)])
        self.warm = (warm, zk.padic.decode_padic(zk.padic.eval_padic(warm, s.sequence), s.sequence, s.family))

    def check_setup(self) -> None:
        if self.warm[0] != self.warm[1]:
            raise oracles.CheckFailed("p5-300 warm-up round trip failed")

    def _golden(self, x):
        zk, s = self.zk, self.systems["golden-real"]

        def run():
            with localcontext() as ctx:
                ctx.prec = oracles.REAL_PREC
                return zk.real.expand_real(x, s.family, s.sequence, max_blocks=self.GOLDEN_MAX_BLOCKS,
                                           residual_tol=oracles.GOLDEN_TOL)

        def check(e):
            oracles.check_golden_expand(x, self.omega, _pairs(e.fn), e.residual)
            return 1

        return run, check

    def _harmonic(self, x, blocks):
        zk, s = self.zk, self.systems["harmonic"]

        def run():
            with localcontext() as ctx:
                ctx.prec = oracles.REAL_PREC
                return zk.real.expand_real(x, s.family, s.sequence, max_blocks=blocks)

        def check(e):
            oracles.check_harmonic_expand(x, _pairs(e.fn), e.residual)
            return 1

        return run, check

    def _sevenths(self, x):
        zk, s = self.zk, self.systems["sevenths"]

        def run():
            with localcontext() as ctx:
                ctx.prec = oracles.REAL_PREC
                return zk.real.expand_real(x, s.family, s.sequence)

        def check(e):
            oracles.check_sevenths_expand(x, _pairs(e.fn), e.residual, e.exact)
            return 1

        return run, check

    def _maximal(self, n):
        zk, s = self.zk, self.systems["golden-real"]
        tol = Decimal("1e-25")

        def run():
            with localcontext() as ctx:
                ctx.prec = oracles.REAL_PREC
                return zk.real.verify_maximal_identity(s.family, s.sequence, n, 200, tol)

        def check(r):
            oracles.check_maximal(n, 200, self.omega, r.lhs, r.rhs, r.ok)
            return 0

        return run, check

    def _padic(self, name, mu_pairs):
        zk, s = self.zk, self.systems[name]
        mu = zk.coeff.CoeffFn(mu_pairs)

        def run():
            r = zk.padic.eval_padic(mu, s.sequence)
            return r, zk.padic.decode_padic(r, s.sequence, s.family)

        def check(res):
            m, q = self.padic_q[name]
            oracles.check_padic_roundtrip(name, m, q, mu_pairs, res[0], _pairs(res[1]))
            return 1

        return run, check

    def _round(self, r):
        return [self._golden(r["golden"]), self._harmonic(*r["harmonic"]),
                *(self._sevenths(x) for x in r["sevenths"]), *(self._maximal(n) for n in r["maximal_n"]),
                self._padic("golden-41", r["golden-41"]), self._padic("padic-5-20", r["padic-5-20"]),
                *(self._padic("p5-300", mu) for mu in r["p5-300"])]

    def ops(self):
        return [op for r in self.rounds for op in self._round(r)]

    def trace_ops(self):
        return [op for r in self.rounds[: self.TRACE_ROUNDS] for op in self._round(r)]


class Cli:
    """Cold ``python -m zecknum.cli`` invocations: the README transcripts plus
    seeded 200-digit fib encodes."""

    ENCODE_DIGITS = 200
    ENCODES_PER_ROUND = 5
    ROUNDS = 8
    round_len = len(TRANSCRIPTS) + ENCODES_PER_ROUND
    IMPORT_SAMPLES = 5

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.encodes = [[rng.randrange(10 ** (self.ENCODE_DIGITS - 1), 10**self.ENCODE_DIGITS)
                         for _ in range(self.ENCODES_PER_ROUND)] for _ in range(self.ROUNDS)]
        self.q = oracles.q_table("fib", 10**self.ENCODE_DIGITS)
        self.src = os.path.join(os.getcwd(), "src")
        self.env = {**os.environ, "PYTHONPATH": self.src}

    def _spawn(self, argv):
        p = subprocess.run([sys.executable, "-m", "zecknum.cli", *argv], env=self.env,
                           capture_output=True, text=True, timeout=120)
        return p.stdout, p.returncode

    def setup(self, zk) -> None:
        self.warm = self._spawn(TRANSCRIPTS[0][0])

    def check_setup(self) -> None:
        oracles.check_transcript(TRANSCRIPTS[0][1], 0, *self.warm)

    @staticmethod
    def _members(argv, stdout) -> int:
        if argv[0] in ("fixtures", "dominant-check"):
            return 0
        return sum(1 for line in stdout.splitlines() if not line.startswith("#"))

    def _transcript(self, runner, argv, want, code):
        def check(res):
            oracles.check_transcript(want, code, *res)
            return self._members(argv, res[0])

        return (lambda: runner(argv)), check

    def _encode(self, runner, x):
        def check(res):
            oracles.check_cli_encode(x, self.q, *res)
            return 1

        return (lambda: runner(["encode", "-f", "fib", str(x)])), check

    def _round(self, runner, xs):
        ops = [self._transcript(runner, *t) for t in TRANSCRIPTS]
        step = len(ops) // len(xs) + 1
        for i, x in enumerate(xs):
            ops.insert((i + 1) * step - 1, self._encode(runner, x))
        return ops

    def ops(self):
        return [op for xs in self.encodes for op in self._round(self._spawn, xs)]

    # -- traced run: the same verbs through main(argv) in this process --------

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with localcontext(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.zk.cli.main(argv)
        return out.getvalue(), code

    def trace_setup(self, zk) -> None:
        self.zk = zk
        self.warm = self._in_process(TRANSCRIPTS[0][0])

    def trace_ops(self):
        return self._round(self._in_process, self.encodes[0])

    def import_ms(self) -> list[float]:
        code = ("import time; t = time.perf_counter(); import zecknum.cli; "
                "print((time.perf_counter() - t) * 1e3)")
        return [float(subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True,
                                     text=True, timeout=120, check=True).stdout)
                for _ in range(self.IMPORT_SAMPLES)]


WORKLOADS = {"codec": Codec, "walk": Walk, "carriers": Carriers, "cli": Cli}
