"""The greedy codec kernels against the code they replaced.

integers.encode_int, integers.decode_int and blocks._scan_asc read the Q list
and the row parts directly; the references in conftest.py look the top up for
every block, read rows through row objects and digits through mu.digit.  Both
must give the same encodings, spans, witnesses and exceptions.
"""

from __future__ import annotations

import math
import random
from itertools import islice

import pytest

from conftest import encode_int_ref, get_system, scan_asc_ref
from zecknum import blocks
from zecknum.blocks import _scan_asc, enumerate_asc, is_member_asc, is_member_desc, members_upto_order
from zecknum.coeff import ZERO, CoeffFn, NotRepresentableError, WalkLimitError, basis, from_dense
from zecknum.integers import EXTENSION_LIMIT, FamilyError, FundamentalSeq, decode_int, encode_int
from zecknum.real import periodic_maximal_family
from zecknum.recurrences import family_from_sequence, family_from_table

# every integer fixture whose sequence is increasing (mult-2-3's, mult-11-3's
# and pin-3's are not: encode_int searches the order kernel by rank there, and
# test_value_walk.py checks it against conftest's walk)
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
    # off the derived sequence a large value goes to the rank search and runs
    # into the member limit; the reference decodes every member it walks, so a
    # lower limit, above the members every x < 2000 needs, keeps it affordable
    monkeypatch.setattr(blocks, "MEMBER_LIMIT", 4000)
    fam, seq = system(name)
    for x in encode_values(name):
        got, want = outcome(encode_int, x, fam, seq), outcome(encode_int_ref, x, fam, seq)
        assert got == want, x
        if isinstance(got, CoeffFn):
            assert decode_int(got, seq) == sum(d * seq.value(k) for k, d in got.items())
    assert seq.increasing


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
        got = outcome(_scan_asc, mu, fam)
        assert isinstance(got, list) and got == outcome(scan_asc_ref, mu, fam), mu
    for mu in random_vectors(random.Random(name), 3000, length, (0, 0, 0, 1, 1, 2, 3)):
        assert outcome(_scan_asc, mu, fam) == outcome(scan_asc_ref, mu, fam), mu


def test_sevenths_mirror_scan_matches_reference():
    fam, horizon = get_system("sevenths").family, 7
    mirror, flip = fam.mirror(horizon), horizon + 1
    rng = random.Random("sevenths")
    for eps in random_vectors(rng, 3000, horizon, (0, 0, 1, 1, 2)):
        mirrored = CoeffFn((flip - i, d) for i, d in eps.items())
        want = outcome(scan_asc_ref, mirrored, mirror)
        assert outcome(_scan_asc, mirrored, mirror) == want, eps
        assert is_member_desc(eps, fam, horizon) == isinstance(want, list)


def test_whole_row_with_a_remainder_hands_off_to_the_rank_search():
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
    """The rank search names the value and the limit; the sequence increases,
    so the message says nothing of a sequence that is not increasing."""
    monkeypatch.setattr(blocks, "MEMBER_LIMIT", 100)
    fib = get_system("fib")
    seq = FundamentalSeq.from_linear([1, 2], [2])
    with pytest.raises(WalkLimitError, match=r"^L\(1, 1\): encoding 10000 walks more than 100 members$"):
        encode_int(10**4, fib.family, seq)


@pytest.mark.parametrize("name", ["fib-pow2", "mult-2-3-pow3", "greedy", "fib-table", "seven-scaled"])
def test_encode_gives_a_member_or_none_exists(name):
    """Every x < 2000 encodes to a member worth x, or no member of order <=
    find_top(x) is worth x (the least order of each value, from a walk)."""
    fam, seq = system(name)
    least: dict[int, int] = {}
    for mu in members_upto_order(fam, seq.find_top(1999)):
        least.setdefault(decode_int(mu, seq), mu.order_asc)  # orders never fall in lex order
    for x in range(2000):
        try:
            mu = encode_int(x, fam, seq)
        except NotRepresentableError:
            assert least.get(x, math.inf) > seq.find_top(x), x
        else:
            assert is_member_asc(mu, fam) and decode_int(mu, seq) == x, x


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
