"""Block numeration systems with user-defined digit admissibility.

A system pairs a family of rows (the immediate predecessors of the basis
functions, or the maximal tails on the real side) with a fundamental
sequence of basis values.  The package builds the standard families,
encodes and decodes integers, reals in (0,1), and p-adic integers, walks
members in lexicographic order, and probes uniqueness and coverage claims.
"""

from .blocks import (
    AtMaximumError,
    Block,
    Decomposition,
    FamilyError,
    MaximalFamily,
    NotMemberError,
    PredecessorFamily,
    decompose_asc,
    decompose_desc,
    enumerate_asc,
    enumerate_desc,
    is_member_asc,
    is_member_desc,
    members_upto_order,
    predecessor_asc,
    successor_asc,
    successor_desc,
)
from .coeff import (
    INFINITE,
    ZERO,
    CoeffFn,
    IndexInterval,
    basis,
    from_dense,
    to_dense,
)
from .config import System, build_system, fixture_names, load_config, load_fixture
from .integers import (
    FundamentalSeq,
    NotRepresentableError,
    SubsetReport,
    decode_int,
    encode_int,
    enumerate_subset,
    reconstruct_sequence,
    shift_value,
)
from .padic import (
    ConverseProbe,
    PadicApprox,
    PadicSeq,
    check_unique_padic,
    decode_padic,
    eval_padic,
    golden_padic_seq,
    hensel_root,
    power_padic_seq,
    weak_converse_digit_bound,
    weak_converse_probe,
)
from .real import (
    BlockGeometricSeq,
    DominanceResult,
    Expansion,
    GeometricSeq,
    HarmonicSeq,
    IdentityReport,
    dominance_criterion,
    eval_expansion,
    expand_real,
    find_first_below,
    geometric_fundamental,
    harmonic_maximal_family,
    multiplicity_list_dominant,
    periodic_maximal_family,
    positive_root,
    rational_root,
    verify_maximal_identity,
)
from .recurrences import (
    FixedBlockSystem,
    MultiplicityList,
    factorial_family,
    family_from_blocks,
    family_from_neg_recurrence,
    family_from_sequence,
    family_from_table,
    family_from_tail_rule,
    index_bounded_family,
    j_plus_family,
    neg_recurrence_params,
    pinned_radix_seq,
    verify_recurrence,
)
from .uniqueness import (
    UniquenessReport,
    check_unique,
    check_unique_multiplicity,
    count_upto_order,
)

__version__ = "0.1.0"
