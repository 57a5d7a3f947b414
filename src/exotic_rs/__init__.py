"""Exotic Robinson-Schensted correspondence between signed permutations and
pairs of same-shape standard bitableaux.

Public API re-exports; see the individual modules for details:

* :mod:`exotic_rs.partitions` -- partitions, bipartitions, counting
* :mod:`exotic_rs.bitableaux` -- bitableaux, positions, serialization, enumeration
* :mod:`exotic_rs.signed_perm` -- signed permutations and the S_2n embedding
* :mod:`exotic_rs.correspondence` -- insertion, reverse bumping, transitions
* :mod:`exotic_rs.verify` -- exhaustive verifiers and the golden n=3 table
* :mod:`exotic_rs.cli` -- the ``exotic-rs`` command
"""

from .partitions import (
    Bipartition,
    Partition,
    Side,
    count_bitableaux,
    dimension_b,
    enumerate_bipartitions,
    partitions_of,
)
from .bitableaux import (
    Bitableau,
    Position,
    enumerate_standard_bitableaux,
)
from .signed_perm import (
    SignedPermutation,
    derive_w_tilde,
    enumerate_signed_permutations,
    iota_embed,
    is_mirror_symmetric,
    permutation_inverse,
    sort_key,
)
from .correspondence import (
    ClassificationError,
    Continue,
    CorrespondencePair,
    FirstRemoval,
    TerminateBarred,
    TerminateUnbarred,
    bump_once,
    insertion,
    insertion_with_trace,
    InsertionRecord,
    InsertionStep,
    RemovalRecord,
    RemovalStep,
    reverse_bumping,
    reverse_bumping_with_trace,
    second_decrement,
)
from .verify import (
    COUNT_BUDGET,
    PAIR_BUDGET,
    WORD_BUDGET,
    BudgetExceededError,
    Report,
    VERIFIERS,
    cells,
    iter_pairs,
    load_golden_table,
    run_verifier,
    verify_counting,
    verify_embedding,
    verify_golden_n3,
    verify_inverse,
    verify_roundtrip,
    verify_transition,
    verify_wtilde,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
