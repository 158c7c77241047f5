from __future__ import annotations

from random import Random

import pytest
from conftest import members_upto_order

from zecknum.blocks import FamilyError, NotMemberError, _scan_asc, enumerate_asc
from zecknum.coeff import DIGIT_LIMIT, CoeffFn
from zecknum.config import build_system
from zecknum.integers import NotRepresentableError
from zecknum.padic import (
    ConverseProbe,
    PadicSeq,
    check_unique_padic,
    decode_padic,
    eval_padic,
    golden_padic_seq,
    hensel_root,
    padic_valuation,
    power_padic_seq,
    weak_converse_digit_bound,
    weak_converse_probe,
)


def seq_from_terms(p, prec, terms):
    table = tuple(terms)
    return PadicSeq(p, prec, lambda k: table[k - 1] if k <= len(table) else 0)


def _valuation_ref(x, p, cap):
    """One division by p per unit of valuation."""
    if x == 0:
        return cap
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def _decode_padic_ref(x, seq, fam=None):
    """Recount the remainder's valuation for every term."""
    p, prec, m = seq.p, seq.prec, seq.modulus
    rem = x % m
    pairs = []
    for k, (q, vk) in enumerate(zip(seq.terms, seq.valuations), start=1):
        if rem == 0:
            break
        rv = _valuation_ref(rem, p, prec)
        if rv < vk:
            raise NotRepresentableError(
                f"remainder valuation {rv} below term {k} valuation {vk}"
            )
        if rv > vk:
            continue
        unit_r = rem // p**rv
        unit_q = q // p**vk
        d = unit_r * pow(unit_q, -1, p) % p
        if d:
            pairs.append((k, d))
            rem = (rem - d * q) % m
    if rem:
        raise NotRepresentableError(
            f"residue {rem} left after the last visible term of {seq.name}"
        )
    fn = CoeffFn(pairs)
    if fam is not None:
        _scan_asc(fn, fam)
    return fn


def _outcome(decode, x, seq, fam=None):
    """The decoded function, or the exception's type, message and witness."""
    try:
        return decode(x, seq, fam)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def assert_decodes_like_ref(residues, seq, fam=None):
    for x in residues:
        assert _outcome(decode_padic, x, seq, fam) == _outcome(_decode_padic_ref, x, seq, fam), x


class TestValuation:
    def test_frozen(self):
        assert padic_valuation(7, 5, 10) == 0
        assert padic_valuation(25, 5, 10) == 2
        assert padic_valuation(250, 5, 10) == 3
        assert padic_valuation(1024, 2, 20) == 10

    def test_zero_caps(self):
        assert padic_valuation(0, 5, 4) == 4

    def test_cap_limits(self):
        assert padic_valuation(625, 5, 2) == 2

    def test_large_valuations_match_repeated_division(self):
        rng = Random(5)
        for p in (2, 3, 5, 41):
            for v in (0, 1, 2, 3, 7, 8, 63, 64, 65, 299, 300, 511, 512, 1000):
                x = rng.choice((1, -1)) * rng.randrange(1, 10**6) * p**v
                for cap in (-1, 0, 1, v - 1, v, v + 1, 2 * v + 3, 1100):
                    assert padic_valuation(x, p, cap) == _valuation_ref(x, p, cap), (x, p, cap)


class TestPadicSeq:
    def test_power_unit_one(self):
        seq = power_padic_seq(5, 4)
        assert seq.terms == (1, 5, 25, 125)
        assert seq.valuations == (0, 1, 2, 3)
        assert len(seq) == 4
        assert seq.value(6) == 0

    def test_power_unit_four(self):
        seq = power_padic_seq(5, 4, unit=4)
        assert seq.terms == (1, 20, 400, 500)
        assert seq.valuations == (0, 1, 2, 3)

    def test_unit_must_be_coprime(self):
        with pytest.raises(FamilyError):
            power_padic_seq(5, 4, unit=10)

    def test_validation(self):
        with pytest.raises(FamilyError):
            PadicSeq(1, 4, lambda k: k)
        with pytest.raises(FamilyError):
            PadicSeq(5, 0, lambda k: k)
        with pytest.raises(FamilyError):
            seq_from_terms(5, 3, [1, 2])  # valuation does not increase
        with pytest.raises(FamilyError):
            PadicSeq(5, 3, lambda k: 0)  # nothing visible

    def test_p_past_the_digit_bound(self):
        with pytest.raises(FamilyError, match=f"p={DIGIT_LIMIT + 1} exceeds the digit bound {DIGIT_LIMIT}"):
            power_padic_seq(DIGIT_LIMIT + 1, 2)
        seq = power_padic_seq(DIGIT_LIMIT, 2)  # its largest digit, p - 1, still fits
        top = CoeffFn([(1, DIGIT_LIMIT - 1), (2, DIGIT_LIMIT - 1)])
        assert decode_padic(eval_padic(top, seq), seq) == top

    def test_index_check(self):
        seq = power_padic_seq(5, 4)
        with pytest.raises(IndexError):
            seq.value(0)


class TestDecode:
    def test_frozen_base5(self):
        seq = power_padic_seq(5, 4)
        fn = decode_padic(123, seq)
        assert fn == CoeffFn.parse("1:3,2:4,3:4")
        assert eval_padic(fn, seq) == 123

    def test_terms_past_the_visible_ones_add_nothing(self):
        seq = power_padic_seq(5, 4)  # 1, 5, 25, 125 are visible
        assert eval_padic(CoeffFn.parse("1:3,2:4,3:4,5:2,9:1"), seq) == 123
        assert eval_padic(CoeffFn.parse("5:2"), seq) == 0

    def test_round_trip_all_residues(self, padic_5_20):
        fam = padic_5_20.family
        for name in ("main", "alt"):
            seq = padic_5_20.sequences[name]
            for x in range(625):
                fn = decode_padic(x, seq, fam)
                assert eval_padic(fn, seq) == x

    def test_valuation_gap(self):
        seq = seq_from_terms(5, 3, [1, 25])
        assert decode_padic(3, seq) == CoeffFn.parse("1:3")
        with pytest.raises(NotRepresentableError):
            decode_padic(5, seq)

    def test_leftover_residue(self):
        seq = seq_from_terms(5, 4, [1, 5])
        with pytest.raises(NotRepresentableError):
            decode_padic(50, seq)

    def test_family_rejection(self, golden_41):
        seq = golden_41.sequence
        x = eval_padic(CoeffFn.parse("1:2"), seq)
        with pytest.raises(NotMemberError) as exc:
            decode_padic(x, seq, golden_41.family)
        assert exc.value.witness == 1

    def test_zero(self):
        seq = power_padic_seq(5, 4)
        assert decode_padic(0, seq) == CoeffFn()


P5_300 = {
    "name": "p5-300", "kind": "padic", "p": 5, "prec": 300,
    "family": {"type": "multiplicity", "e": [4, 5]},
    "sequence": {"type": "power", "unit": 1},
}


class TestDecodeAgainstReference:
    """The one-division-per-layer decode against the valuation recount."""

    def test_padic_5_20_all_residues(self, padic_5_20):
        for seq in padic_5_20.sequences.values():
            assert_decodes_like_ref(range(625), seq)
            assert_decodes_like_ref(range(625), seq, padic_5_20.family)

    def test_golden_41_random_residues(self, golden_41):
        rng = Random(41)
        seq = golden_41.sequence
        residues = [rng.randrange(seq.modulus) for _ in range(3000)]
        residues += [eval_padic(mu, seq) for mu in members_upto_order(golden_41.family, 8)]
        assert_decodes_like_ref(residues, seq)
        assert_decodes_like_ref(residues, seq, golden_41.family)

    @pytest.mark.parametrize("terms", [(2, 9 * 5, 3**5 * 4), (3 * 2, 3**4)])
    def test_gapped_valuations(self, terms):
        # steps p**2 and p**3 between layers, and a first layer above valuation 0
        seq = seq_from_terms(3, 7, terms)
        assert seq.valuations == tuple(_valuation_ref(t, 3, 7) for t in terms)
        assert_decodes_like_ref(range(3**7), seq)

    def test_p5_300_dense_round_trips(self):
        sys_ = build_system(P5_300)
        seq, fam = sys_.sequence, sys_.family
        rng = Random(300)
        for _ in range(50):
            mu = CoeffFn((k, rng.randrange(5)) for k in range(1, 301))
            x = eval_padic(mu, seq)
            assert decode_padic(x, seq, fam) == mu
            assert _outcome(decode_padic, x, seq, fam) == _outcome(_decode_padic_ref, x, seq, fam)


class TestHensel:
    def test_sqrt_two_mod_seven(self):
        r = hensel_root((-2, 0, 1), 7, 3, 4)
        assert r * r % 7**4 == 2

    def test_golden_root(self):
        phi = hensel_root((-1, -1, 1), 41, 7, 8)
        assert (phi * phi - phi - 1) % 41**8 == 0

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            hensel_root((-2, 0, 1), 7, 2, 4)

    def test_non_simple_root(self):
        with pytest.raises(ValueError):
            hensel_root((0, 0, 1), 5, 0, 4)


class TestGoldenSequence:
    def test_valuations(self, golden_41):
        seq = golden_41.sequence
        assert seq.p == 41
        assert seq.valuations == tuple(range(8))

    def test_recurrence(self, golden_41):
        seq = golden_41.sequence
        m = 41**8
        for n in range(1, 7):
            lhs = seq.value(n + 2)
            rhs = (41 * seq.value(n + 1) + 41**2 * seq.value(n)) % m
            assert lhs == rhs

    def test_unique_through_golden_family(self, golden_41):
        report = check_unique_padic(golden_41.family, golden_41.sequence, 8)
        assert report.ok
        assert report.members_seen == 55
        assert report.distinct_values == 55

    def test_collision_detected_for_fat_digits(self, padic_5_20):
        # base-5 values through the [4,5] family collide once the order cap
        # exceeds the visible terms: Q_5 contributes nothing.
        report = check_unique_padic(padic_5_20.family, padic_5_20.sequence, 5)
        assert not report.ok
        assert report.collision is not None


class TestWeakConverse:
    def test_digit_bound_frozen(self):
        assert weak_converse_digit_bound(2) == 0
        assert weak_converse_digit_bound(3) == 1
        assert weak_converse_digit_bound(5) == 2
        assert weak_converse_digit_bound(11) == 3
        assert weak_converse_digit_bound(41) == 6

    def test_probe_frozen(self, padic_5_20):
        probe = weak_converse_probe(
            padic_5_20.family,
            padic_5_20.sequences["main"],
            padic_5_20.sequences["alt"],
            4,
        )
        assert probe == ConverseProbe(True, 2, 4, 2)

    def test_probe_identical(self, padic_5_20):
        probe = weak_converse_probe(
            padic_5_20.family,
            padic_5_20.sequences["main"],
            padic_5_20.sequences["main"],
            3,
        )
        assert probe.values_match
        assert probe.first_difference is None

    def test_probe_rejects_mismatched_precision(self, padic_5_20):
        other = power_padic_seq(5, 3)
        with pytest.raises(FamilyError):
            weak_converse_probe(
                padic_5_20.family, padic_5_20.sequences["main"], other, 3
            )

    def test_bijection_both_units(self, padic_5_20):
        # each unit's value set covers Z/625 exactly once at order cap 4
        for name in ("main", "alt"):
            seq = padic_5_20.sequences[name]
            values = []
            for mu in enumerate_asc(padic_5_20.family):
                if mu.order_asc > 4:
                    break
                values.append(eval_padic(mu, seq))
            assert len(values) == 625
            assert set(values) == set(range(625))
