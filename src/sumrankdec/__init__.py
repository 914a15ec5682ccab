"""Decoding of high-order interleaved sum-rank-metric codes.

Pure linear-algebra decoding that works for any linear constituent code
given by a parity-check matrix: recover the error support from the syndrome
matrix, then solve for the error values.  Includes exact GF(q^m) arithmetic,
sum-rank weights and supports, a brute-force minimum-distance oracle, a
skew-metric front end, and a CLI harness.
"""

import ctypes
import os

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_heap_thresholds() -> bool:
    """Keep the arrays each elimination step frees in the heap for the next.

    glibc derives its mmap and trim thresholds from the largest block freed
    so far, so whether the few-hundred-KB temporaries of an elimination
    step are trimmed off the heap top and faulted back in by the next step
    depends on the allocation history and on where the heap top lies, which
    moves with the size of the environment and of the checkout path.  A
    decode of the benchmark's sumrank-large instance took 0 to about 1 500
    page faults from one process to the next, and 20-25 % more time at 600.
    Pinning both thresholds at the ceiling glibc's own rule reaches (mmap
    above 32 MiB, trim at twice that) makes every process reuse the freed
    memory.  Other C libraries are left as they are.
    Returns whether the thresholds were pinned.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return False
    if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # setting either threshold stops glibc's adjustment of both
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


_HEAP_PINNED = _pin_heap_thresholds()

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
    min_sum_rank_distance,
    random_code,
    random_instance,
    syndrome,
)
from .decoder import (
    Annihilator,
    DecodingFailure,
    DecodingReport,
    ResidualCheckFailed,
    SupportMismatch,
    SupportSpaceEmpty,
    compute_hsub,
    decode,
    erasure_decode,
    recover_block_supports,
)
from .skew import SkewIsometry, skew_decode, skew_weight

__version__ = "0.1.0"
