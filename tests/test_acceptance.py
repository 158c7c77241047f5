"""End-to-end acceptance checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Checks 10a-10c share one 30 second budget; every other check
carries its own.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice, product
from random import Random

import numpy as np

from conftest import INTEGER_FIXTURES, PI_100, get_system
from zecknum.blocks import (
    decompose_asc,
    enumerate_asc,
    is_member_asc,
    predecessor_asc,
)
from zecknum.coeff import CoeffFn, from_dense, to_dense
from zecknum.integers import FundamentalSeq, decode_int, encode_int, enumerate_subset
from zecknum.padic import check_unique_padic, eval_padic, weak_converse_probe
from zecknum.real import (
    HarmonicSeq,
    eval_expansion,
    expand_real,
    harmonic_maximal_family,
    positive_root,
    verify_maximal_identity,
)
from zecknum.recurrences import (
    MultiplicityList,
    index_bounded_family,
    neg_recurrence_params,
    verify_recurrence,
)
from zecknum.uniqueness import check_unique_multiplicity

_POOL: dict[str, float] = {}


@contextmanager
def criterion(label: str, budget: float, pool: str | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label} ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    if pool is None:
        ok = dt < budget
        print(f"[{'PASS' if ok else 'FAIL'}] {label} ({dt:.2f}s, budget {budget:g}s)")
        assert ok, f"{label}: took {dt:.2f}s, budget {budget:g}s"
    else:
        total = _POOL[pool] = _POOL.get(pool, 0.0) + dt
        ok = total < budget
        print(f"[{'PASS' if ok else 'FAIL'}] {label} ({dt:.2f}s, {pool} total {total:.2f}s, budget {budget:g}s)")
        assert ok, f"{label}: {pool} total {total:.2f}s, budget {budget:g}s"


def test_criterion_01_fibonacci_classic():
    with criterion("criterion 1: Fibonacci encode/decode and rank law", 1.0):
        sys_ = get_system("fib")
        mu = encode_int(100, sys_.family, sys_.sequence)
        assert set(mu.support) == {3, 5, 10}
        assert decode_int(mu, sys_.sequence) == 100
        for n, member in enumerate(islice(enumerate_asc(sys_.family), 10**4 + 1)):
            assert decode_int(member, sys_.sequence) == n


def test_criterion_02_index_bounded_family():
    with criterion("criterion 2: index-bounded digits", 1.0):
        sys_ = get_system("index-bounded")
        assert sys_.sequence.upto(4) == [1, 2, 5, 17]
        assert to_dense(sys_.family.row(7), 6) == (0, 2, 0, 4, 0, 6)
        chain = ["0", "1:1", "2:1", "1:1,2:1", "2:2", "3:1", "1:1,3:1", "2:1,3:1"]
        assert [mu.render() for mu in islice(enumerate_asc(sys_.family), 8)] == chain
        # Q_{n+2} = (n+1) Q_{n+1} + Q_n for n = 1..50
        assert verify_recurrence(sys_.sequence, [lambda m: m - 1, 1], 3, 52) == []


def test_criterion_03_negative_coefficient_recurrences():
    with criterion("criterion 3: negative-coefficient recurrences", 1.0):
        sys31 = get_system("rec-3-1")
        assert sys31.sequence.upto(5) == [1, 3, 8, 21, 55]
        assert verify_recurrence(sys31.sequence, [3, -1], 3, 62) == []
        assert neg_recurrence_params((8, -2, -3)) == ((7, 5), 2)
        sys823 = get_system("rec-8-2-3")
        assert sys823.sequence.upto(3) == [1, 8, 62]
        assert verify_recurrence(sys823.sequence, [8, -2, -3], 4, 63) == []


def test_criterion_04_uniqueness_tester():
    with criterion("criterion 4: uniqueness walker", 5.0):
        clean = check_unique_multiplicity((2, 3), (5, 3))
        assert clean.ok and clean.complete
        assert clean.order_cap == 8
        assert clean.nonzero_members == 6560
        assert clean.distinct_values == clean.members_seen == 6561

        bad = check_unique_multiplicity((11, 3), (19, 3))
        assert not bad.ok
        value, first, second = bad.collision
        assert value == 114
        assert {first.render(), second.render()} == {"1:6", "2:8,3:1"}
        # the witness rearranges to 2 Q_3 = 3 Q_2 + 9 Q_1, both sides 180
        q1, q2, q3 = 19, 3, 11 * 3 + 3 * 19
        assert 6 * q1 == 8 * q2 + q3 == 114
        assert 2 * q3 == 3 * q2 + 9 * q1 == 180


def test_criterion_05_fixed_blocks():
    with criterion("criterion 5: fixed-block system", 5.0):
        sys_ = get_system("blocks7")
        q, z = sys_.sequence, sys_.sequences["alt"]
        assert q.upto(3) == [1, 2, 3]
        assert verify_recurrence(q, [0, 0, 7], 4, 40) == []  # Q_n = 7 Q_{n-3}
        assert z.upto(6) == [2, 1, 3, 14, 7, 21]
        for seq in (q, z):
            report = enumerate_subset(sys_.family, seq, 10**4)
            assert report.collision is None
            assert report.covers_all_below_bound()


def test_criterion_06_real_geometric():
    with criterion("criterion 6: golden system on (0,1)", 1.0):
        omega = positive_root((1, 1), digits=45)
        with localcontext() as ctx:
            ctx.prec = 50
            oracle = (Decimal(5).sqrt() - 1) / 2
        assert abs(omega - oracle) < Decimal("1e-40")
        sys_ = get_system("golden-real")
        with localcontext() as ctx:
            ctx.prec = 60
            for n in range(1, 21):
                report = verify_maximal_identity(
                    sys_.family, sys_.sequence, n, 400, Decimal("1e-30")
                )
                assert report.ok, (n, report.error)


def test_criterion_07_harmonic_expansion():
    with criterion("criterion 7: harmonic expansion of pi/8", 5.0):
        fam = harmonic_maximal_family()
        seq = HarmonicSeq()
        x = Fraction(Decimal(PI_100)) / 8  # exact rational from 100 digits
        res = expand_real(x, fam, seq, max_blocks=3, residual_tol=None)
        assert res.fn.support == (2, 16, 1844)
        for blocks in (1, 2, 3):
            step = expand_real(x, fam, seq, max_blocks=blocks, residual_tol=None)
            assert eval_expansion(step.fn, seq) + step.residual == x
        two = expand_real(x, fam, seq, max_blocks=2, residual_tol=None)
        assert abs(1 / two.residual - Fraction("1844.27")) <= Fraction(1, 100)


def test_criterion_08_sevenths():
    with criterion("criterion 8: block system of sevenths", 1.0):
        sys_ = get_system("sevenths")
        seq = sys_.sequence
        v = seq.value
        assert (v(1), v(2), v(3)) == (Fraction(3, 7), Fraction(2, 7), Fraction(1, 7))
        assert v(0) == v(1) + v(2) + 2 * v(3) == 1
        assert v(1) == v(2) + v(3)
        for n in range(1, 40):
            assert v(n + 3) == v(n) / 7
        for k in range(1, 343):
            res = expand_real(Fraction(k, 343), sys_.family, seq,
                              max_blocks=12, residual_tol=None)
            assert res.exact, k
            assert eval_expansion(res.fn, seq) == Fraction(k, 343)


def test_criterion_09_padic():
    with criterion("criterion 9: p-adic systems", 10.0):
        golden = get_system("golden-41")
        report = check_unique_padic(golden.family, golden.sequence, 8)
        assert report.ok and report.complete
        m = 41**8
        for n in range(1, 7):
            lhs = golden.sequence.value(n + 2)
            assert lhs == (41 * golden.sequence.value(n + 1)
                           + 41**2 * golden.sequence.value(n)) % m

        pair = get_system("padic-5-20")
        for name in ("main", "alt"):
            seq = pair.sequences[name]
            values = []
            for mu in enumerate_asc(pair.family):
                if mu.order_asc > 4:
                    break
                values.append(eval_padic(mu, seq))
            assert len(values) == 5**4
            assert set(values) == set(range(5**4))
        probe = weak_converse_probe(
            pair.family, pair.sequences["main"], pair.sequences["alt"], 4
        )
        assert probe.values_match
        assert probe.first_difference == 2


def test_criterion_10a_successor_predecessor_inverse():
    with criterion("criterion 10a: successor/predecessor inverse", 30.0, pool="suite 10"):
        for name in (*INTEGER_FIXTURES, "golden-41", "padic-5-20"):
            fam = get_system(name).family
            prev = None
            for mu in islice(enumerate_asc(fam), 10**4):
                if prev is not None:
                    assert predecessor_asc(mu, fam) == prev, (name, mu.render())
                prev = mu


def _index_bounded_values(length: int) -> np.ndarray:
    """Values of every admissible digit vector on indices 1..length, by a
    layered dynamic program over the direct digit rule: digit(k) <= k, and a
    full digit k at index k forces digit zero at index k-1."""
    seq = get_system("index-bounded").sequence
    values = np.zeros(1, dtype=np.int64)
    top_is_zero = np.ones(1, dtype=bool)
    for k in range(1, length + 1):
        qk = seq.value(k)
        parts = [values]
        flags = [np.ones(len(values), dtype=bool)]
        for d in range(1, k):
            parts.append(values + d * qk)
            flags.append(np.zeros(len(values), dtype=bool))
        full = values[top_is_zero] + k * qk
        parts.append(full)
        flags.append(np.zeros(len(full), dtype=bool))
        values = np.concatenate(parts)
        top_is_zero = np.concatenate(flags)
    return values


def _index_bounded_vectors(length: int):
    """Brute-force admissible digit vectors by the same direct rule."""
    for digits in product(*(range(k + 1) for k in range(1, length + 1))):
        if any(digits[k] == k + 1 and k >= 1 and digits[k - 1] for k in range(length)):
            continue
        yield digits


def test_criterion_10b_block_decomposition_uniqueness():
    with criterion("criterion 10b: decomposition vs brute force", 30.0, pool="suite 10"):
        # no-adjacent-ones digits: all 1024 vectors at length 10
        fib = get_system("fib")
        admissible = []
        for bits in range(1 << 10):
            vec = tuple((bits >> i) & 1 for i in range(10))
            mu = from_dense(vec)
            ok = bits & (bits >> 1) == 0
            assert is_member_asc(mu, fib.family) == ok, vec
            if ok:
                admissible.append(decode_int(mu, fib.sequence))
                dec = decompose_asc(mu, fib.family)
                rebuilt = CoeffFn()
                for block in dec.blocks:
                    rebuilt += block.digits
                assert rebuilt == mu
        assert sorted(admissible) == list(range(144))  # one vector per value

        # digits free at 0/1: every vector is a member, value is binary
        two = MultiplicityList((1, 2))
        fam2 = two.predecessor_family()
        seq2 = FundamentalSeq.from_family(fam2)
        assert seq2.upto(10) == [2**i for i in range(10)]
        for bits in range(1 << 10):
            vec = tuple((bits >> i) & 1 for i in range(10))
            mu = from_dense(vec)
            assert is_member_asc(mu, fam2)
            assert decode_int(mu, seq2) == bits

        # index-bounded digits, every admissible vector of length <= 10
        ib = get_system("index-bounded")
        values = _index_bounded_values(10)
        assert len(values) == 12714721 == ib.sequence.value(11)
        values.sort()
        assert np.array_equal(values, np.arange(12714721))

        # cross-check the layered count against plain brute force at 7
        brute7 = list(_index_bounded_vectors(7))
        assert len(brute7) == len(_index_bounded_values(7)) == ib.sequence.value(8)
        walk7 = {mu for mu in islice(enumerate_asc(ib.family), len(brute7))}
        assert walk7 == {from_dense(vec) for vec in brute7}

        # sampled decompositions at length 10 tile and round-trip; the tails
        # stay admissible by the same direct rule, half with full digits
        rng = Random(9)
        vectors = list(_index_bounded_vectors(5))
        zero_topped = [v for v in vectors if v[4] == 0]
        for i in range(300):
            if i % 2:
                tail = (rng.randint(0, 5), 0, rng.randint(0, 7), 0, rng.randint(0, 9))
                vec = rng.choice(vectors) + tail
            else:
                tail = (6, 0, rng.randint(0, 8), 0, 10)
                vec = rng.choice(zero_topped) + tail
            mu = from_dense(vec)
            assert is_member_asc(mu, ib.family), vec
            dec = decompose_asc(mu, ib.family)
            rebuilt = CoeffFn()
            for block in dec.blocks:
                rebuilt += block.digits
            assert rebuilt == mu
            value = decode_int(mu, ib.sequence)
            assert encode_int(value, ib.family, ib.sequence) == mu


def test_criterion_10c_filtered_counts():
    with criterion("criterion 10c: counts by top index vs bitstrings", 30.0, pool="suite 10"):
        fib = get_system("fib")
        by_order = Counter()
        for mu in enumerate_asc(fib.family):
            if mu.order_asc > 20:
                break
            by_order[mu.order_asc] += 1
        assert sum(by_order.values()) == 17711
        fibs = [1, 1]
        while len(fibs) < 21:
            fibs.append(fibs[-1] + fibs[-2])
        for b in range(1, 21):
            oracle = sum(
                1 for m in range(1 << (b - 1), 1 << b) if m & (m >> 1) == 0
            )
            assert by_order[b] == oracle == fibs[b - 1], b
