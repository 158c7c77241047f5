"""The greedy codec kernels against the code they replaced.

integers.encode_int, integers.decode_int and blocks._scan_asc read the Q list
and the row parts directly; the references in conftest.py look the top up for
every block, read rows through row objects and digits through mu.digit.  Both
must give the same encodings, spans, witnesses and exceptions, bar the
values the reference's walk gives up on.  Off the derived sequence the
encoder searches under a bound table, checked here against a naive one.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from conftest import (
    basis,
    encode_int_ref,
    get_system,
    is_member_desc,
    max_below_ref,
    members_upto_order,
    nonzero_topped,
    perturb,
    scan_asc_ref,
)
from zecknum import blocks
from zecknum.blocks import PredecessorFamily, _scan_asc, decompose_asc, enumerate_asc, is_member_asc
from zecknum.config import load_fixture
from zecknum.coeff import ZERO, CoeffFn, NotRepresentableError, WalkLimitError, from_dense
from zecknum.integers import EXTENSION_LIMIT, FamilyError, FundamentalSeq, decode_int, encode_int
from zecknum.real import periodic_maximal_family
from zecknum.recurrences import family_from_sequence, family_from_table

# every integer fixture whose sequence is increasing (mult-2-3's, mult-11-3's
# and pin-3's are not: test_value_walk.py checks encode_int there against
# conftest's walk)
INCREASING = ("fib", "index-bounded", "rec-3-1", "rec-8-2-3", "blocks7", "factorial", "seven-scaled")

# a greedy family over a bounded table: row n's head is the whole row, and
# values past the table run out of rows
GREEDY_Q = [1, 3, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609, 986, 1596, 2583]


def greedy_system():
    return family_from_sequence(GREEDY_Q), FundamentalSeq(GREEDY_Q)


def system(name):
    """(family, sequence) of an increasing system: a fixture, the greedy table,
    or a family paired with an increasing sequence that is not its derived
    one (there a whole row can leave a remainder): a bounded table read past
    its reach is one."""
    if name in INCREASING:
        sys_ = get_system(name)
        return sys_.family, sys_.sequence
    return {
        "greedy": greedy_system,
        "fib-pow2": lambda: (get_system("fib").family, FundamentalSeq.from_linear([1, 2], [2])),
        "mult-2-3-pow3": lambda: (get_system("mult-2-3").family, FundamentalSeq.from_linear([1, 3], [3])),
        "fib-table": lambda: (get_system("fib").family, FundamentalSeq([1, 2, 3, 5])),
    }[name]()


def outcome(call, *args):
    """A call's result, or its exception's class and message (a scan's
    NotMemberError names its witness there)."""
    try:
        return call(*args)
    except Exception as exc:  # the kernels must fail exactly as the references do
        return type(exc), str(exc)


def encode_values(seed):
    rng = random.Random(seed)
    big = [rng.randrange(10 ** (d - 1), 10**d) for d in range(10, 301, 10) for _ in range(2)]
    return [*range(2000), *big]


@pytest.mark.parametrize("name", [*INCREASING, "greedy", "fib-pow2", "mult-2-3-pow3", "fib-table"])
def test_encode_and_decode_match_references(name, monkeypatch):
    # off the derived sequence the reference walks the members of a large
    # value and runs into the member limit; it decodes every member it walks,
    # so a lower limit, above the members every x < 2000 needs, keeps it
    # affordable.  Where the walk gives up, the search still answers.
    monkeypatch.setattr(blocks, "MEMBER_LIMIT", 4000)
    fam, seq = system(name)
    for x in encode_values(name):
        got, want = outcome(encode_int, x, fam, seq), outcome(encode_int_ref, x, fam, seq)
        if type(want) is tuple and want[0] is WalkLimitError:
            assert got[0] is NotRepresentableError if type(got) is tuple else decode_int(got, seq) == x, x
        else:
            assert got == want, x
        if isinstance(got, CoeffFn):
            assert is_member_asc(got, fam)
            assert decode_int(got, seq) == sum(d * seq.value(k) for k, d in got.items())
    assert seq.increasing


@pytest.mark.parametrize("name", ["fib", "blocks7", "rec-8-2-3", "factorial", "index-bounded"])
def test_greedy_digit_boundaries_match_the_reference(name):
    """Every digit t <= c_k of row k+1 at its top index k, k <= 120: t Q_k - 1,
    t Q_k and t Q_k + 1 sit where the greedy's digit at k turns whole, short or
    0, and Q_{k+1} - 1 is row k+1 itself; each encodes as the reference does."""
    s = get_system(name)
    fam, seq = s.family, s.sequence
    values = set()
    for k in range(1, 121):
        (top, c), q = fam.row(k + 1)[-1], seq.value(k)
        assert top == k
        values.update(v for t in range(1, c + 1) for v in (t * q - 1, t * q, t * q + 1))
        values.add(seq.value(k + 1) - 1)
    for x in sorted(values):
        mu = encode_int(x, fam, seq)
        assert mu == encode_int_ref(x, fam, seq), x
        assert decode_int(mu, seq) == x and is_member_asc(mu, fam), x


def random_vectors(rng, count, length, digits):
    return [from_dense(rng.choice(digits) for _ in range(rng.randint(1, length))) for _ in range(count)]


def table_family():
    rows = [[2], [1, 1], [0, 2, 1], [2, 0, 0, 1], [1, 1, 1, 1, 1], [0, 0, 2, 0, 0, 1], [3, 0, 0, 0, 0, 0, 1]]
    return family_from_table(rows)


def walked_members(fam, start=ZERO, count=1500):
    """Up to ``count`` members from ``start`` on, fewer if the rows run out."""
    walked: list[CoeffFn] = []
    try:
        walked.extend(islice(enumerate_asc(fam, start), count))
    except FamilyError:  # the last member's carry needs a row past the table
        walked.pop()
    return walked


def check_scan(mu, fam):
    """_scan_asc against scan_asc_ref: the same exception, or the reference's
    spans bar its all-zero singletons; decompose_asc then gives every reference
    span, the all-zero singletons too.  Returns _scan_asc's outcome."""
    want, got = outcome(scan_asc_ref, mu, fam), outcome(_scan_asc, mu, fam)
    if isinstance(want, list):
        assert got == nonzero_topped(mu, want), mu
        assert [(b.lo, b.hi, b.maximal) for b in decompose_asc(mu, fam).blocks] == want[::-1], mu
    else:
        assert got == want == outcome(decompose_asc, mu, fam), mu
    return got


@pytest.mark.parametrize("name", [*INCREASING, "greedy", "table"])
def test_scan_matches_reference(name):
    if name == "greedy":
        fam, length = greedy_system()[0], len(GREEDY_Q)
        walked = walked_members(fam)
    elif name == "table":
        fam, length = table_family(), 8
        walked = walked_members(fam)
    else:
        sys_ = get_system(name)
        fam, length = sys_.family, 40
        walked = walked_members(fam) + walked_members(fam, encode_int(7 * 10**40, fam, sys_.sequence))
    assert len(walked) >= 50
    for mu in walked:
        assert isinstance(check_scan(mu, fam), list), mu
    for mu in random_vectors(random.Random(name), 3000, length, (0, 0, 0, 1, 1, 2, 3)):
        check_scan(mu, fam)


def test_scan_reads_a_row_only_for_a_block_topped_by_a_nonzero_digit():
    """basis(500) is the block [498, 500] (fib's row 501 is 1 at 500, 498, ...)
    over 497 zeros: a fresh family builds row 501 alone, and the zeros stay
    all-zero singletons in the decomposition."""
    fam, mu = load_fixture("fib").family, basis(500)
    assert is_member_asc(mu, fam)
    assert list(fam._parts) == [501]
    blocks_ = decompose_asc(mu, fam).blocks
    assert len(blocks_) == 498 and blocks_[-1].digits == mu
    assert [(b.lo, b.hi, b.maximal) for b in blocks_] == scan_asc_ref(mu, fam)[::-1]


def test_sevenths_mirror_scan_matches_reference():
    fam, horizon = get_system("sevenths").family, 7
    mirror, flip = fam.mirror(horizon), horizon + 1
    rng = random.Random("sevenths")
    for eps in random_vectors(rng, 3000, horizon, (0, 0, 1, 1, 2)):
        mirrored = CoeffFn((flip - i, d) for i, d in eps.items())
        assert is_member_desc(eps, fam, horizon) == isinstance(check_scan(mirrored, mirror), list)


@pytest.mark.parametrize("head_only", [False, True], ids=["pin-3", "pin-3-as-head"])
def test_scan_across_long_zero_runs_matches_reference(head_only):
    """pin-3's row n+1 is 1 at n and at 3 (n > 3), so a member's block from n
    reads the zeros down to 3 inside it; 10^4 members reach order 2,502.  Each
    is checked with three perturbations in the tail-rule family, and every
    fifth in one whose rows are the same pairs held as a head alone."""
    fam = get_system("pin-3").family
    if head_only:
        fam = PredecessorFamily(fam.row, name="pin-3 as a head")
    rng = random.Random("pin-3")
    walked = list(islice(enumerate_asc(fam), 10**4))
    assert walked[-1].order_asc > 2500
    for mu in walked[:: 5 if head_only else 1]:
        assert isinstance(check_scan(mu, fam), list), mu
        for _ in range(3):
            check_scan(perturb(mu, rng), fam)


def test_scan_of_long_fib_members_matches_reference():
    fib = get_system("fib")
    fam, q, rng = fib.family, fib.sequence.value, random.Random("fib")
    for _ in range(5):
        mu = encode_int(rng.randrange(q(10**4), q(10**4 + 1)), fam, fib.sequence)
        assert mu.order_asc == 10**4 and isinstance(check_scan(mu, fam), list)
        for _ in range(20):
            check_scan(perturb(mu, rng), fam)


def test_whole_row_with_a_remainder_has_no_member():
    """Q_n = 2^(n-1) is increasing but not fib's derived sequence: the greedy
    takes all of row 4 (3:1, 1:1) and has 2 left, which no block below a
    maximal one may take.  The fib members of order <= 3 are worth 0, 1, 2,
    4 and 5, so 7 has none."""
    fib = get_system("fib")
    seq = FundamentalSeq.from_linear([1, 2], [2])
    for encode in (encode_int, encode_int_ref):
        with pytest.raises(NotRepresentableError, match="^no admissible function of order <= 3 has value 7$"):
            encode(7, fib.family, seq)


def test_a_hand_off_past_the_member_limit_names_the_value_and_the_limit(monkeypatch):
    """Off the derived sequence the search counts its nodes (blocks opened
    and choices resumed) against MEMBER_LIMIT: 10^4 on fib's family with
    Q_n = 2^(n-1) takes two, so a limit of one refuses it, naming the value
    and the limit, and a limit of two gives its answer: it has no member."""
    fib = get_system("fib")
    seq = FundamentalSeq.from_linear([1, 2], [2])
    monkeypatch.setattr(blocks, "MEMBER_LIMIT", 1)
    with pytest.raises(WalkLimitError, match=r"^L\(1, 1\): encoding 10000 visits more than 1 nodes$"):
        encode_int(10**4, fib.family, seq)
    monkeypatch.setattr(blocks, "MEMBER_LIMIT", 2)
    with pytest.raises(NotRepresentableError, match="^no admissible function of order <= 14 has value 10000$"):
        encode_int(10**4, fib.family, seq)


@pytest.mark.parametrize("name", ["fib-pow2", "mult-2-3-pow3", "greedy", "fib-table", "seven-scaled"])
def test_encode_gives_a_member_or_none_exists(name):
    """Every x < 10^4 encodes to the first member in lex order worth x, or no
    member is worth x (one walk up to find_top(10^4 - 1) sees every member
    worth less: the sequences increase); the greedy table's rows run out at
    order 15, and so may the encode past the walk's values."""
    fam, seq = system(name)
    first: dict[int, CoeffFn] = {}
    try:
        for mu in members_upto_order(fam, seq.find_top(10**4 - 1)):
            first.setdefault(decode_int(mu, seq), mu)
    except FamilyError:
        assert name == "greedy"
    for x in range(10**4):
        try:
            mu = encode_int(x, fam, seq)
        except NotRepresentableError:
            assert x not in first, x
        except FamilyError:
            assert name == "greedy" and x not in first, x
        else:
            assert mu == first[x] and mu.render() == first[x].render(), x


@pytest.mark.parametrize("name", ["mult-2-3", "mult-11-3"])
def test_long_values_give_a_member_or_none(name):
    """1,000-digit values: a member worth x, or NotRepresentableError; the
    refusal names the value by its length."""
    s = get_system(name)
    rng = random.Random(name)
    for x in (rng.randrange(10**999, 10**1000) for _ in range(20)):
        try:
            mu = encode_int(x, s.family, s.sequence)
        except NotRepresentableError as exc:
            assert len(str(exc)) < 200 and "(1,000 digits)" in str(exc)
        else:
            assert decode_int(mu, s.sequence) == x and is_member_asc(mu, s.family)


# the increasing systems above that are not derived, and the fixtures whose
# sequences are not increasing: encode_int keeps a bound table for each
BOUNDED = ("greedy", "fib-pow2", "mult-2-3-pow3", "fib-table", "seven-scaled", "pin-3", "mult-2-3", "mult-11-3")


@pytest.mark.parametrize("name", BOUNDED)
def test_bound_table_matches_a_naive_one(name):
    """The table an encode keeps, M_k the largest value of a member of order <
    k, against every run of every row, through 300 terms or to the table's end."""
    if name in ("pin-3", "mult-2-3", "mult-11-3"):
        fam, seq = get_system(name).family, get_system(name).sequence
    else:
        fam, seq = system(name)
    end = len(seq) if seq._extend is None else 300
    outcome(encode_int, seq.value(end), fam, seq)
    table = seq._bounds[fam].M[1 : end + 1]
    assert len(table) == end
    assert table == max_below_ref(fam, seq, len(table))


@pytest.mark.parametrize("name", ["fib", "index-bounded", "rec-3-1", "rec-8-2-3", "blocks7", "factorial"])
def test_no_bound_table_on_the_derived_sequence(name, monkeypatch):
    """On the derived sequence the members of order < k are worth 0..Q_k - 1,
    so M_k = Q_k - 1 and the encoder is the greedy: no table, and no node
    counted against MEMBER_LIMIT, so no choice point."""
    s = get_system(name)
    fam, seq = s.family, s.sequence
    assert max_below_ref(fam, seq, 40) == [q - 1 for q in seq.upto(40)]
    monkeypatch.setattr(blocks, "MEMBER_LIMIT", 0)
    for x in encode_values(name)[::50]:
        assert decode_int(encode_int(x, fam, seq), seq) == x
    assert seq._bounds == {}


def test_the_rest_of_a_row_can_pass_every_lower_member():
    """Row 3 is (2:1, 1:9) and row 2 (1:1): the members of order < 2 are worth
    0 and Q_1, yet row 3 below index 2 adds up to 9 Q_1.  Continuing a block is
    bounded by what the rest of its row can add, not by M_k."""
    fam = family_from_table([[1], [9, 1]])
    derived, copy = FundamentalSeq.from_family(fam), FundamentalSeq([1, 2, 12])
    want = [CoeffFn.parse(t) for t in ("0", "1:1", "2:1", *(f"1:{i},2:1" for i in range(1, 10)))]
    assert [encode_int(x, fam, derived) for x in range(12)] == want
    assert [encode_int(x, fam, copy) for x in range(12)] == want


def test_decode_names_the_lowest_index_past_a_bounded_table():
    seq = FundamentalSeq([1, 2, 3])
    with pytest.raises(IndexError, match="bounded table of 3 terms, index 5$"):
        decode_int(CoeffFn.parse("1:1,5:1,9:2"), seq)
    assert decode_int(CoeffFn.parse("1:1,3:2"), seq) == 7
    assert decode_int(ZERO, seq) == 0


def test_decode_refuses_past_the_extension_limit_without_extending():
    seq = FundamentalSeq.from_linear([1, 2], [1, 1])
    with pytest.raises(FamilyError, match="refusing to extend"):
        decode_int(basis(1) + basis(EXTENSION_LIMIT + 1), seq)
    assert len(seq) == 2


def test_find_top_refuses_past_the_extension_limit(monkeypatch):
    # find_top's own extension loop stops at the limit, as value() does
    monkeypatch.setattr("zecknum.integers.EXTENSION_LIMIT", 40)
    seq = FundamentalSeq.from_linear([1, 2, 3], [1, 0, 1])  # Q_n = Q_{n-1} + Q_{n-3}, ratio about 1.47
    assert seq.find_top(seq.value(30)) == 30
    with pytest.raises(FamilyError, match="refusing to extend past 40 terms$"):
        seq.find_top(seq.value(40))
    assert len(seq) == 40


def test_repeated_desc_membership_builds_one_mirror(monkeypatch):
    built = []

    class Counted(blocks.PredecessorFamily):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(blocks, "PredecessorFamily", Counted)
    fam = periodic_maximal_family([[1, 1, 1], [1, 0], [1]])
    for v in ((1, 1, 1), (1, 2), (0, 1, 0, 1), (2,)):
        is_member_desc(from_dense(v), fam, 7)
    assert len(built) == 1
    assert next(blocks.enumerate_desc(fam, 7)) == ZERO
    assert fam.mirror(7) is built[0]
    is_member_desc(ZERO, fam, 6)
    assert len(built) == 2
