"""Support-recovery decoding of high-order interleaved sum-rank-metric codes.

The decoder needs no structural knowledge of the constituent code.  It
recovers the error support from the syndrome matrix alone and then solves a
linear system for the error values (column-erasure decoding):

1. S = H @ Y^T collapses the received matrix to syndromes.  The code keeps
   H's GF(p) digits (LinearCode.H_digits, odd characteristic), so the
   product expands only Y^T: it is the stage's n^2 s term, and every decode
   runs it against the same H.
2. The annihilator h_sub, a basis of {v @ H : v @ S = 0}, vanishes on the
   error (the paper's rows of P @ H beside the zero rows of P @ S span it).
   Only the narrow S^T is eliminated: its pivot columns I are the first
   rank(S) independent rows of S, and each other row f of S, written in
   terms of them, gives one left-kernel vector and one row of h_sub,
   H[f] - X[f] @ H[I].  The stage keeps h_sub in this factored form
   (Annihilator) and forms none of its entries; step 3 forms the ones it
   reads.
3. Per block, the right kernel of the expanded annihilator equals the GF(q)
   row space of the error block, yielding a block-diagonal support basis B.
   All blocks are reduced at once over GF(q^m), in one stacked elimination,
   to at most n_i basis rows; the GF(q)-kernel is GF(q)^{n_i} meet the
   GF(q^m)-kernel, so a block of full GF(q^m)-rank (typically every
   error-free one) has kernel {0}.  The GF(q^m)-kernel of an error block is
   the GF(q^m)-span of its GF(q) row space B_i whenever d > t + n_i (a
   vector of that kernel outside the span would give a nonzero codeword of
   weight at most t + n_i), so its reduced rows lie in GF(q) and its
   GF(q)-kernel basis is read off them.  Only blocks whose reduced rows
   leave GF(q) are expanded over GF(q) and reduced in a second stacked
   elimination.  Zero blocks and nonzero blocks of length 1 (every block in
   the Hamming metric) need no elimination at all.
   When the annihilator is tall (n - k - t > 4w with w = max n_i), only
   its leading 2w rows are formed, on all columns, one (2w x t)(t x n)
   product, and the first elimination reduces them.  An error-free block
   typically shows full rank there.
   Slice first: the slice's rows are some of each block's rows, so its
   kernels contain the exact ones, over GF(q) and over GF(q^m).  When the
   slice's GF(q^m)-kernel dimensions (n_i for a block zero there) add up
   to t_hat and its reduced rows lie in GF(q), its kernels are kept and no
   row below is formed.  Inside the guarantee the exact dimensions add up
   to t_hat too, so the kept kernels are the exact ones.  Otherwise the
   check below the slice forms the rows below in one read, only on the
   columns of the other blocks: the at most t error blocks, which check
   those rows against the slice and are reduced again in full only if
   their rank grows there, and blocks zero on the slice, blocks of length
   1 among them (one nonzero test per column).  The whole slice path is
   one function, sumrank._reduce_blocks, over a plain stacked elimination.
   The stage then costs O(l w^3 + t (n - k) w^2) operations in GF(q^m)
   instead of O(l (n - k) w^2), and forming h_sub O(t w n + t^2 w (n - k))
   instead of O(t n (n - k)).  A shorter annihilator is formed whole, and
   its blocks are reduced in full.
   Outside the guarantee the kept kernels can be larger than the exact
   ones and still add up to t_hat.  No new success can follow: once
   verify passes, H @ E^T = S, so h_sub @ B^T @ A^T = h_sub @ E^T = 0, and
   A, of t_hat columns, has rank(A) >= rank(E) >= rank(S) = t_hat; so
   h_sub @ B^T = 0, B's rows lie in the exact kernels, and with the same
   dimensions the kernels are equal.  Only the failure could change, so
   kept kernels come with their completion, the check below the slice
   deferred, which decode calls when erasure or verify fails after them:
   where the exact kernels differ, their dimensions add up to less than
   t_hat and their SupportMismatch is raised instead; otherwise the
   failure stands.
4. Solve (H @ B^T) A^T = S, giving E = A @ B and C = Y - E.  A left-kernel
   vector v of S maps [H @ B^T | S] to [(v @ H) @ B^T | 0], which is zero
   because B spans the kernels of h_sub's expanded blocks.  So every
   non-pivot row of the system is a combination of the rows I, and the
   decoder solves only those t = rank(S) rows, a t x (t + s) elimination
   instead of (n-k) rows; row-equivalent systems share one reduced echelon
   form, so the solution and every failure are the same.  B is zero
   outside its support columns J, |J| <= t w, so the product runs over J
   only: H[I] @ B^T is a (t x |J|)(|J| x t) product instead of
   (t x n)(n x t).
5. Form E = A @ B on J (zero elsewhere) and verify C = Y - E without
   recomputing H @ C^T: H @ C^T = S - H[:, J] @ E[:, J]^T vanishes exactly
   when H[:, J] @ E[:, J]^T = S, a product over |J| <= t w columns instead
   of n, which takes the J columns of H's kept digits.  The weight of E is
   not recomputed: the factorisation certifies it.  If B has t rows, all
   in GF(q), and each row of B is nonzero in at most one block, then block
   i of E is A[:, R_i] @ B[R_i, block i], R_i the rows of B in block i,
   whose expansion over GF(q) has rank at most |R_i|; so wt(E) <= t.  And
   once the residual holds, wt(E) >= rank(E) >= rank(H @ E^T) = rank(S)
   = t.  So wt(E) = t, checked in O(t n) instead of an elimination of E's
   blocks.

Recovery is guaranteed when the error weight t is at most d - 2, the
interleaving order satisfies s >= t, and the error matrix has full
GF(q^m)-rank t.  Outside those hypotheses the decoder raises a typed failure
or returns verified codewords; it never silently returns a non-codeword.

The total weight t is inferred as the rank of S (exact under the full-rank
condition), so callers never supply it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .code import InterleavedCode, LinearCode, syndrome
from .gf import FieldTower
from .linalg import LinearSystemError, Matrix, matrix_to_dict, solve_unique
from .sumrank import LengthPartition, block_supports
# unused here; decodebench/spans.py patches decoder.sum_rank_weight by name
from .sumrank import sum_rank_weight  # noqa: F401

__all__ = [
    "Annihilator",
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
    nonzero syndrome; "weight": the support basis B does not certify that
    the recovered error has weight t_hat, see _verify).
    """

    stage = "verify"


@dataclass(frozen=True, eq=False)
class Annihilator:
    """The annihilator h_sub = H[F] - X @ H[I] in factored form.

    compute_hsub gives the parity-check array H, the non-pivot rows F of S,
    X = R[:t_hat, F]^T and HI = H[I].  Entries are formed only when read:
    block_supports reads slices by take (see sumrank._reduce_blocks), and
    DecodingReport.h_sub the whole (len(F) x n) matrix by matrix().
    """

    field: object
    H: np.ndarray
    F: np.ndarray
    X: np.ndarray
    HI: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.F)

    def take(self, rows: slice, cols: np.ndarray) -> np.ndarray:
        """h_sub[rows][:, cols] as an int64 array, for a slice of rows and
        an index array of columns."""
        f = self.field
        return f.sub(self.H[self.F[rows, None], cols], f.matmul(self.X[rows], self.HI[:, cols]))

    def matrix(self) -> Matrix:
        """The whole annihilator as a Matrix."""
        f = self.field
        return Matrix(f, f.sub(self.H[self.F], f.matmul(self.X, self.HI)), _checked=True)


@dataclass(frozen=True)
class DecodingReport:
    """Successful decoding outcome with diagnostics.

    The outcome is C_hat and E_hat = A_hat @ B_hat, with H @ C_hat^T = 0.
    B_hat, t_hat rows over GF(q) each nonzero in one block, certifies that
    E_hat has sum-rank weight t_hat = rank(S) (see _verify); per_block_t[i],
    the number of rows of B_hat in block i, is then the weight of block i
    of E_hat, as each block's weight is at most its count of rows.  Besides
    the outcome it keeps the two intermediates of support recovery: S, the
    (n-k) x s syndrome matrix H @ Y^T, and the annihilator in factored form.
    h_sub, the S.rows - t_hat annihilator rows, a basis of
    {v @ H : v @ S = 0}, is formed from it only when read; decode itself
    never forms it.  to_dict leaves S and h_sub out, and reports compare by
    their other fields.
    """

    C_hat: Matrix
    E_hat: Matrix
    A_hat: Matrix
    B_hat: Matrix
    t_hat: int
    per_block_t: tuple[int, ...]
    S: Matrix
    annihilator: Annihilator = dataclasses.field(compare=False)

    @property
    def h_sub(self) -> Matrix:
        return self.annihilator.matrix()

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


def compute_hsub(H: Matrix, S: Matrix) -> tuple[Annihilator, int, list[int]]:
    """Annihilator rows: a basis of {v @ H : v @ S = 0}.

    S^T is reduced to R.  Its pivot columns I are the first t_hat = rank(S)
    linearly independent rows of S, and every other row f of S equals
    sum_k R[k, f] S[I[k]].  So the vectors e_f - sum_k R[k, f] e_I[k], one
    per non-pivot row f in F, are a basis of the left kernel of S, and
    h_sub = H[F] - R[:t_hat, F]^T @ H[I] annihilates the error.  Returns
    (h_sub, t_hat, I), with h_sub in factored form: an Annihilator of
    H.rows - t_hat rows that forms its entries only when read.  decode
    builds the erasure system from the rows I of S and H.  Raises
    SupportSpaceEmpty when rank(S) = n - k (the left kernel of S is zero).
    """
    field = S.field
    # looked up on the module, where a tracer can wrap the elimination engine
    R, _, pivots = linalg._rref_arrays(field, S.array.T)
    t_hat = len(pivots)
    if t_hat >= H.rows:
        raise SupportSpaceEmpty(
            f"syndrome rank {t_hat} equals the redundancy {H.rows}; "
            "error too heavy for support recovery",
            t_hat=t_hat,
            redundancy=H.rows,
        )
    free = np.delete(np.arange(H.rows), pivots)
    h_sub = Annihilator(field, H.array, free, R[:t_hat, free].T, H.array[pivots])
    return h_sub, t_hat, pivots


def recover_block_supports(
    tower: FieldTower, h_sub: Annihilator | np.ndarray, partition: LengthPartition, t_hat: int
) -> tuple[Matrix, tuple[int, ...], Callable[[], tuple[np.ndarray, tuple[int, ...]]] | None]:
    """Per-block kernels of the expanded annihilator matrix.

    h_sub is an Annihilator, read as a row source, or the formed annihilator
    as a (1, r, n) array, which is always reduced in full.  Returns
    sumrank.block_supports' (B, per_block_t, complete), B as a Matrix: the
    block-diagonal GF(q) support basis whose i-th diagonal block is the
    canonical kernel basis of the i-th expanded block of h_sub, with
    per_block_t[i] rows.  Under the decoding hypotheses it spans the GF(q)
    row space of error block i.  Where the slice-first rule kept the
    kernels of a tall annihilator's leading slice, complete returns the
    exact (B, per_block_t), B as an array, for decode to check; otherwise
    it is None (see the module docstring, step 3).  Raises SupportMismatch
    when the recovered per-block weights do not sum to t_hat.
    """
    B, per_block_t, complete = block_supports(tower, h_sub, partition, t_hat)
    _check_weights(per_block_t, t_hat)
    return Matrix(tower.base_field, B, _checked=True), per_block_t, complete


def _check_weights(per_block_t: tuple[int, ...], t_hat: int) -> None:
    """Raises SupportMismatch unless the per-block weights sum to t_hat."""
    if sum(per_block_t) != t_hat:
        raise SupportMismatch(
            f"recovered block weights {per_block_t} sum to {sum(per_block_t)}, "
            f"expected {t_hat}; full-rank condition likely violated",
            t_hat=t_hat,
            per_block_t=per_block_t,
        )


def erasure_decode(H: Matrix, B: Matrix, S: Matrix) -> Matrix:
    """Solve (H @ B^T) A^T = S for A, given the support basis B over GF(q).

    Unique when the true weight is below the minimum distance; raises
    NonUniqueSolution or Inconsistent (from the solver) otherwise.  An empty
    basis solves only S = 0 and raises Inconsistent for any other S.  Any
    system with the same row space as [H @ B^T | S] has the same reduced
    echelon form, so the same solution or failure; decode passes the rows
    I of compute_hsub, as every other row of [H @ B^T | S] is a combination
    of them plus a row of [h_sub @ B^T | 0] = 0.  decode also passes H and B
    on the columns J where B is nonzero only, which gives the same product:
    B's other columns add zero terms.
    """
    if H.cols != B.cols:
        raise ValueError(f"inner dimensions differ: {H.shape} @ {(B.cols, B.rows)}")
    HBt = H.field.matmul(H.array, B.array.T)
    At = solve_unique(Matrix(H.field, HBt, _checked=True), S)
    return At.T


def _verify(code: LinearCode, S: Matrix, A: Matrix, B: Matrix, t_hat: int) -> Matrix:
    """E_hat = A @ B, once it is certified that Y - E_hat is a codeword stack
    of weight t_hat, given S = H @ Y^T and t_hat = rank(S) (step 5 above).

    E_hat is formed on B's nonzero columns J and is zero elsewhere.  Its
    weight is certified by B, the witness, instead of being recomputed:
    B has t_hat rows, its entries are codes below q, and every row of B is
    nonzero in at most one block.  Then the two bounds meet:

    - Upper: block i of E_hat is A[:, R_i] @ B[R_i, block i], R_i the rows
      of B nonzero in block i.  That block of B lies in GF(q), so each row
      of the block's GF(q) expansion is a GF(q)-combination of the rows
      B[R_i, block i], and wt(E_hat) <= sum |R_i| <= t_hat.
    - Lower: once the residual H[:, J] @ E_hat[:, J]^T = S holds,
      wt(E_hat) >= sum_i rank_{q^m}(E_i) >= rank(E_hat)
      >= rank(H @ E_hat^T) = rank(S) = t_hat.

    So the residual and the witness give wt(E_hat) = t_hat: given the
    residual, a candidate whose weight differs from t_hat has a malformed
    witness.  Nothing is assumed of the stages that built A and B; any pair
    that passes both checks gives a codeword stack Y - E_hat of weight
    t_hat.  The witness is checked first, in O(t n), and raises
    ResidualCheckFailed with check "weight"; the residual, one product over
    |J| <= t w columns, raises it with check "residual".
    """
    b = B.array
    J = np.flatnonzero(b.any(axis=0))
    BJ = b[:, J]
    nz = BJ != 0
    blk = code.partition._column_blocks[J]
    # a row of B nonzero in two blocks is nonzero outside the last of them
    last = np.where(nz, blk, -1).max(axis=1, initial=-1)
    if B.rows != t_hat or BJ.max(initial=0) >= code.tower.q or (nz & (blk != last[:, None])).any():
        raise ResidualCheckFailed(
            "support basis does not certify the syndrome rank as the error weight",
            t_hat=t_hat,
            check="weight",
        )
    field = S.field
    E = np.zeros((S.cols, code.n), dtype=np.int64)
    E[:, J] = field.matmul(A.array, BJ)
    # raw arrays: on small codes the Matrix wrappers cost more than the product
    digits = code.H_digits
    if digits is not None:
        digits = digits.reshape(code.H.rows, code.n, -1)[:, J].reshape(code.H.rows, -1)
    if not np.array_equal(field.matmul(code.H.array[:, J], E[:, J].T, digits=digits), S.array):
        raise ResidualCheckFailed(
            "decoded candidate is not a codeword stack", t_hat=t_hat, check="residual"
        )
    return Matrix(field, E, _checked=True)


def decode(icode: InterleavedCode, Y: Matrix) -> DecodingReport:
    """Recover the transmitted codeword matrix from Y = C + E.

    Succeeds whenever wt(E) = t <= d - 2, s >= t and E has GF(q^m)-rank t.
    Every returned report has a verified residual and a certified weight;
    all failure modes raise a DecodingFailure subclass or a solver error,
    whose stage attribute names the stage that failed ("erasure" for a
    solver error).  When erasure or verify fails after support recovery
    kept the annihilator slice's kernels, their completion runs first, and
    the exact supports' SupportMismatch is raised where they differ (module
    docstring, step 3), so every outcome is that of exact supports.
    """
    code = icode.constituent
    tower, partition = code.tower, code.partition
    if Y.field != tower.ext_field:
        raise ValueError("received matrix is not over the code's field")
    if Y.shape != (icode.s, code.n):
        raise ValueError(f"received matrix has shape {Y.shape}, expected {(icode.s, code.n)}")

    S = syndrome(code.H, Y, code.H_digits)
    h_sub, t_hat, I = compute_hsub(code.H, S)
    B, per_block_t, complete = recover_block_supports(tower, h_sub, partition, t_hat)
    # step 4 solves over B's support columns J only
    J = np.flatnonzero(B.array.any(axis=0))
    BJ = B.array[:, J]
    HIJ = Matrix(S.field, code.H.array[np.ix_(I, J)], _checked=True)
    SI = Matrix(S.field, S.array[I], _checked=True)
    try:
        A = erasure_decode(HIJ, Matrix(B.field, BJ, _checked=True), SI)
        E_hat = _verify(code, S, A, B, t_hat)
    except (DecodingFailure, LinearSystemError) as ex:
        if isinstance(ex, LinearSystemError):
            ex.stage = "erasure"
        failure = ex
    else:
        return DecodingReport(
            C_hat=Y - E_hat,
            E_hat=E_hat,
            A_hat=A,
            B_hat=B,
            t_hat=t_hat,
            per_block_t=per_block_t,
            S=S,
            annihilator=h_sub,
        )
    if complete is not None:
        # the slice's kernels contain the exact ones; where they differ, the
        # exact ones add up to less than t_hat and raise SupportMismatch here
        _check_weights(complete()[1], t_hat)
    raise failure
