"""Support-recovery decoding of high-order interleaved sum-rank-metric codes.

The decoder needs no structural knowledge of the constituent code.  It
recovers the error support from the syndrome matrix alone and then solves a
linear system for the error values (column-erasure decoding):

1. S = H @ Y^T collapses the received matrix to syndromes.
2. Row-reduce [S | H] pivoting only in the columns of S; the H part of the
   rows below rank(S) annihilates the error.  Only the narrow S is
   eliminated: only pivot rows are ever subtracted, so the transform P
   that reduces S is zero outside the columns I of the original pivot rows,
   except for one 1 per non-pivot row.  Carrying the block P[:, I] through
   the elimination gives P @ H as one product P[:, I] @ H[I] plus the
   permuted non-pivot rows of H, instead of rank(S) full-width row updates.
3. Per block, the right kernel of the expanded annihilator equals the GF(q)
   row space of the error block, yielding a block-diagonal support basis B.
   All blocks are reduced at once over GF(q^m), in one stacked elimination,
   to at most n_i basis rows; the GF(q)-kernel is GF(q)^{n_i} meet the
   GF(q^m)-kernel, so a block of full GF(q^m)-rank (typically every
   error-free one) has kernel {0}, and only the other blocks' basis rows
   are expanded over GF(q) and reduced in a second stacked elimination.
   When the annihilator is tall (n - k - t > 4w with w = max n_i, for a
   large enough stack; see linalg.rref_stack), the first elimination
   reduces only the leading 2w rows of every block.  An error-free block
   typically shows full rank there, and only the others, the at most t
   error blocks, check their rows below against that slice.  The stage
   then costs O(l w^3 + t (n - k) w^2) operations in GF(q^m) instead of
   O(l (n - k) w^2).
4. Solve (H @ B^T) A^T = S, giving E = A @ B and C = Y - E.  Step 2's
   transform P is invertible, so the system P @ [H @ B^T | S] is equivalent;
   its rows below rank(S) are [h_sub @ B^T | 0], which is zero because B
   spans the kernels of h_sub's expanded blocks.  The decoder therefore
   solves only the t = rank(S) pivot rows, a (t x n)(n x t) product and a
   t x (t + s) elimination instead of (n-k) rows; row-equivalent systems
   share one reduced echelon form, so the solution and every failure are
   the same.  Verification still recomputes H @ C^T in full.

Recovery is guaranteed when the error weight t is at most d - 2, the
interleaving order satisfies s >= t, and the error matrix has full
GF(q^m)-rank t.  Outside those hypotheses the decoder raises a typed failure
or returns verified codewords; it never silently returns a non-codeword.

The total weight t is inferred as the rank of S (exact under the full-rank
condition), so callers never supply it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .code import InterleavedCode, syndrome
from .gf import FieldTower
from .linalg import Inconsistent, LinearSystemError, Matrix, matrix_to_dict, solve_unique
from .sumrank import LengthPartition, block_kernels, sum_rank_weight

__all__ = [
    "SupportRecovery",
    "DecodingReport",
    "compute_hsub",
    "recover_block_supports",
    "erasure_decode",
    "decode",
    "DecodingFailure",
    "SupportSpaceEmpty",
    "SupportMismatch",
    "ResidualCheckFailed",
]


class DecodingFailure(Exception):
    """Base class for typed decoding failures.

    Keyword fields become attributes, and so does stage, the decoder stage
    that raised the failure, so vars() of a failure holds all of them.
    """

    stage: str

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.__dict__.update(stage=self.stage, **fields)


class SupportSpaceEmpty(DecodingFailure):
    """rank(S) = n - k: the syndrome leaves no annihilator rows to work with.

    Fields: stage ("annihilator"), t_hat, redundancy.
    """

    stage = "annihilator"


class SupportMismatch(DecodingFailure):
    """Per-block kernel dimensions do not add up to rank(S).

    Fields: stage ("supports"), t_hat, per_block_t.
    """

    stage = "supports"


class ResidualCheckFailed(DecodingFailure):
    """The decoded candidate failed post-decoding verification.

    Fields: stage ("verify"), t_hat, check ("residual": the candidate has a
    nonzero syndrome; "weight": the recovered error weight differs from t_hat).
    """

    stage = "verify"


@dataclass(frozen=True)
class SupportRecovery:
    """Result of the support-recovery stage.

    h_sub rows annihilate the error; B is the block-diagonal GF(q) support
    basis whose i-th diagonal block, per_block_kernels[i], is the canonical
    kernel basis of the i-th expanded block of h_sub (the recovered support
    of error block i), with per_block_t[i] rows.
    """

    h_sub: Matrix
    t_hat: int
    partition: LengthPartition
    B: Matrix
    per_block_t: tuple[int, ...]

    @property
    def per_block_kernels(self) -> tuple[Matrix, ...]:
        ends = np.cumsum(self.per_block_t)
        return tuple(
            self.B[end - ti : end, sl]
            for ti, end, sl in zip(self.per_block_t, ends, self.partition.slices)
        )


@dataclass(frozen=True)
class DecodingReport:
    """Successful decoding outcome with diagnostics.

    Besides the outcome (C_hat, E_hat = A_hat @ B_hat) it keeps the two
    intermediates of support recovery: S, the (n-k) x s syndrome matrix
    H @ Y^T, and h_sub, the annihilator rows, which number
    S.rows - t_hat.  to_dict leaves both out.
    """

    C_hat: Matrix
    E_hat: Matrix
    A_hat: Matrix
    B_hat: Matrix
    t_hat: int
    per_block_t: tuple[int, ...]
    S: Matrix
    h_sub: Matrix

    def to_dict(self, tower: FieldTower) -> dict:
        return {
            "status": "success",
            "t_hat": self.t_hat,
            "per_block_t": list(self.per_block_t),
            "C_hat": matrix_to_dict(self.C_hat, tower),
            "E_hat": matrix_to_dict(self.E_hat, tower),
            "A_hat": matrix_to_dict(self.A_hat, tower),
            "B_hat": matrix_to_dict(self.B_hat, tower),
        }


def compute_hsub(H: Matrix, S: Matrix) -> tuple[Matrix, int, Matrix]:
    """Annihilator rows: [S | H] row-reduced with pivots only in S's columns.

    For the transform P that reduces S, the reduced matrix is P @ [S | H].
    Its rows below rank(S) have a zero S part, and their H part P[t_hat:] @ H
    annihilates the error.  Returns (h_sub, t_hat, top) with t_hat = rank(S)
    and top = P[:t_hat] @ [S | H], the pivot rows, from which decode builds
    the erasure system.  Raises SupportSpaceEmpty when rank(S) = n - k (no
    zero syndrome rows remain).

    Only S is eliminated, carrying the block T = P[:, I] of the transform on
    the original indices I = perm[:t_hat] of the pivot rows; then
    P @ H = T @ H[I] + [0; H[perm[t_hat:]]], one product and one addition.
    """
    field = S.field
    # looked up on the module, where a tracer can wrap the elimination engine
    R, (T, perm), pivots = linalg._rref_arrays(field, S.array, transform=True)
    t_hat = len(pivots)
    if t_hat >= H.rows:
        raise SupportSpaceEmpty(
            f"syndrome rank {t_hat} equals the redundancy {H.rows}; "
            "error too heavy for support recovery",
            t_hat=t_hat,
            redundancy=H.rows,
        )
    PH = field.matmul(T, H.array[perm[:t_hat]])
    h_sub = field.add(H.array[perm[t_hat:]], PH[t_hat:])
    top = np.hstack([R[:t_hat], PH[:t_hat]])
    return Matrix(field, h_sub, _checked=True), t_hat, Matrix(field, top, _checked=True)


def recover_block_supports(
    tower: FieldTower, h_sub: Matrix, partition: LengthPartition, t_hat: int
) -> SupportRecovery:
    """Per-block kernels of the expanded annihilator matrix.

    Under the decoding hypotheses the i-th kernel spans the GF(q) row space
    of error block i.  Raises SupportMismatch when the recovered per-block
    weights do not sum to t_hat.
    """
    K, lead = block_kernels(tower, h_sub.array[None], partition)
    per_block_t = tuple(lead[0].sum(axis=1).tolist())
    if sum(per_block_t) != t_hat:
        raise SupportMismatch(
            f"recovered block weights {per_block_t} sum to {sum(per_block_t)}, "
            f"expected {t_hat}; full-rank condition likely violated",
            t_hat=t_hat,
            per_block_t=per_block_t,
        )
    # the kernel rows in block order are the rows of B; each is written at
    # its block's first column, into zero padding past the last block
    blk, o = np.nonzero(lead[0])
    w = K.shape[-1]
    starts = np.cumsum(partition.parts) - partition.parts
    B = np.zeros((t_hat, partition.n + w), dtype=np.int64)
    B[np.arange(t_hat)[:, None], starts[blk][:, None] + np.arange(w)] = K[0, blk, o]
    B = Matrix(tower.base_field, B[:, : partition.n], _checked=True)
    return SupportRecovery(h_sub, t_hat, partition, B, per_block_t)


def erasure_decode(H: Matrix, B: Matrix, S: Matrix) -> Matrix:
    """Solve (H @ B^T) A^T = S for A, given the support basis B over GF(q).

    Unique when the true weight is below the minimum distance; raises
    NonUniqueSolution or Inconsistent (from the solver) otherwise.  An empty
    basis solves only S = 0 and raises Inconsistent for any other S.  Any
    system with the same row space as [H @ B^T | S] has the same reduced
    echelon form, so the same solution or failure; decode passes the t_hat
    pivot rows of compute_hsub, P[:t_hat] @ H and P[:t_hat] @ S, because
    the other rows of P @ [H @ B^T | S] are [h_sub @ B^T | 0] = 0.
    """
    if B.rows == 0:
        if not S.is_zero:
            raise Inconsistent("nonzero syndrome with an empty support basis")
        return Matrix.zeros(H.field, S.cols, 0)
    bt = Matrix(H.field, B.array.T, _checked=True)
    At = solve_unique(H @ bt, S)
    return At.T


def decode(icode: InterleavedCode, Y: Matrix) -> DecodingReport:
    """Recover the transmitted codeword matrix from Y = C + E.

    Succeeds whenever wt(E) = t <= d - 2, s >= t and E has GF(q^m)-rank t.
    Every returned report has verified residual and weight; all failure
    modes raise a DecodingFailure subclass or a solver error, whose stage
    attribute names the stage that failed ("erasure" for a solver error).
    """
    code = icode.constituent
    tower, partition = code.tower, code.partition
    if Y.field != tower.ext_field:
        raise ValueError("received matrix is not over the code's field")
    if Y.shape != (icode.s, code.n):
        raise ValueError(f"received matrix has shape {Y.shape}, expected {(icode.s, code.n)}")

    S = syndrome(code.H, Y)
    h_sub, t_hat, top = compute_hsub(code.H, S)
    support = recover_block_supports(tower, h_sub, partition, t_hat)
    B = support.B
    try:
        A = erasure_decode(top[:, S.cols :], B, top[:, : S.cols])
    except LinearSystemError as ex:
        ex.stage = "erasure"
        raise
    E_hat = A @ tower.lift(B)
    C_hat = Y - E_hat

    if not syndrome(code.H, C_hat).is_zero:
        raise ResidualCheckFailed(
            "decoded candidate is not a codeword stack", t_hat=t_hat, check="residual"
        )
    if sum_rank_weight(tower, E_hat, partition) != t_hat:
        raise ResidualCheckFailed(
            "recovered error weight differs from the syndrome rank", t_hat=t_hat, check="weight"
        )
    return DecodingReport(
        C_hat=C_hat,
        E_hat=E_hat,
        A_hat=A,
        B_hat=B,
        t_hat=t_hat,
        per_block_t=support.per_block_t,
        S=S,
        h_sub=h_sub,
    )
