"""Decoding of high-order interleaved sum-rank-metric codes.

Pure linear-algebra decoding that works for any linear constituent code
given by a parity-check matrix: recover the error support from the syndrome
matrix, then solve for the error values.  Includes exact GF(q^m) arithmetic,
sum-rank weights and supports, a brute-force minimum-distance oracle, a
skew-metric front end, and a CLI harness.
"""

from .gf import ExtField, FieldTower, PrimeField, default_modulus
from .linalg import (
    Inconsistent,
    Matrix,
    NonUniqueSolution,
    block_diag,
    rank,
    right_kernel,
    row_space_basis,
    row_space_intersection,
    row_spaces_equal,
    solve_unique,
)
from .sumrank import (
    ErrorModel,
    Infeasible,
    LengthPartition,
    SamplingFailure,
    decompose_error,
    hamming_support,
    random_profile,
    rank_support,
    sample_error,
    sum_rank_weight,
)
from .code import (
    BudgetExceeded,
    InterleavedCode,
    LinearCode,
    encode,
    generator_from_parity,
    min_sum_rank_distance,
    random_code,
    random_instance,
    syndrome,
)
from .decoder import (
    DecodingFailure,
    DecodingReport,
    ResidualCheckFailed,
    SupportMismatch,
    SupportRecovery,
    SupportSpaceEmpty,
    compute_hsub,
    decode,
    erasure_decode,
    recover_block_supports,
)
from .skew import SkewIsometry, skew_decode, skew_weight

__version__ = "0.1.0"
