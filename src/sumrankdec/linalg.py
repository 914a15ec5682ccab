"""Exact dense linear algebra over finite fields.

Matrices wrap read-only numpy int64 arrays of field codes together with the
field object that interprets them.  All elimination routines are
deterministic: the pivot for the leftmost unprocessed column is always the
topmost row with a nonzero entry, and echelon forms are fully reduced, so
kernels and row-space bases are canonical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Matrix",
    "rref",
    "rref_stack",
    "rank",
    "right_kernel",
    "solve_unique",
    "row_space_basis",
    "row_spaces_equal",
    "row_space_intersection",
    "block_diag",
    "hstack",
    "vstack",
    "NonUniqueSolution",
    "Inconsistent",
]


class LinearSystemError(Exception):
    """Base class for failures of exact linear solving."""


class NonUniqueSolution(LinearSystemError):
    """The coefficient matrix does not have full column rank."""


class Inconsistent(LinearSystemError):
    """The right-hand side is not in the column space of the matrix."""


class Matrix:
    """Immutable dense matrix of field codes."""

    __slots__ = ("field", "_a")

    def __init__(self, field, data, _checked: bool = False):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if not _checked and arr.size:
            if arr.min() < 0 or arr.max() >= field.order:
                raise ValueError(f"entries out of range for field of order {field.order}")
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        self.field = field
        self._a = arr

    # ---- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64), _checked=True)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64), _checked=True)

    @classmethod
    def random(cls, field, rows: int, cols: int, rng: np.random.Generator) -> "Matrix":
        return cls(field, field.random(rng, (rows, cols)), _checked=True)

    # ---- shape and access ---------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def T(self) -> "Matrix":
        return Matrix(self.field, self._a.T, _checked=True)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self._a == 0))

    def __getitem__(self, key):
        out = self._a[key]
        if np.isscalar(out) or out.ndim == 0:
            return int(out)
        if out.ndim != 2:
            raise TypeError("1-d slices are ambiguous; use row()/col() or 2-d slices")
        return Matrix(self.field, out, _checked=True)

    def row(self, i: int) -> "Matrix":
        return Matrix(self.field, self._a[i : i + 1, :], _checked=True)

    def col(self, j: int) -> "Matrix":
        return Matrix(self.field, self._a[:, j : j + 1], _checked=True)

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    # ---- arithmetic ----------------------------------------------------------
    def _compat(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("matrices belong to different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(self.field, self.field.add(self._a, other._a), _checked=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(self.field, self.field.sub(self._a, other._a), _checked=True)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.field.neg(self._a), _checked=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        return Matrix(self.field, self.field.matmul(self._a, other._a), _checked=True)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.field, self.field.mul(int(c), self._a), _checked=True)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.field, self._a.shape, self._a.tobytes()))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def hstack(mats: Sequence[Matrix]) -> Matrix:
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("matrices belong to different fields")
    return Matrix(field, np.hstack([m.array for m in mats]), _checked=True)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("matrices belong to different fields")
    return Matrix(field, np.vstack([m.array for m in mats]), _checked=True)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """Block-diagonal assembly; empty blocks contribute rows/cols of zeros."""
    if not blocks:
        raise ValueError("need at least one block")
    field = blocks[0].field
    for b in blocks[1:]:
        if b.field != field:
            raise ValueError("matrices belong to different fields")
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r : r + b.rows, c : c + b.cols] = b.array
        r += b.rows
        c += b.cols
    return Matrix(field, out, _checked=True)


# ---------------------------------------------------------------------------
# Elimination engine
# ---------------------------------------------------------------------------


def _rref_arrays(field, arr: np.ndarray, pivot_cols: int | None = None, transform: bool = False):
    """Reduced row-echelon form, pivoting only in the first pivot_cols columns.

    Returns (R, T, pivots); pivots stay at index 2, where
    decodebench/spans.py reads them.  Pivot choice: leftmost unprocessed
    column, topmost nonzero row.  Later columns get the same row operations,
    so [S | X] with pivot_cols = S.cols reduces to [R | P @ X].

    T is None unless transform is set; then it is (block, perm), the part
    of the transform P (P @ arr = R) that gives P @ X for any X without
    carrying X through the elimination.  perm[i] is the original index of
    the row that ends at row i, so the t = len(pivots) pivot rows came from
    I = perm[:t].  Only pivot rows are ever subtracted, so row i of P is
    zero outside I, except for a single 1 at perm[i] in the rows below t.
    block = P[:, I] (r x t): its column k is written as the unit vector of
    the k-th pivot row when that row is chosen, since no earlier row
    operation has touched it.  Hence P @ X = block @ X[I] + [0; X[perm[t:]]].
    """
    a = np.array(arr, dtype=np.int64)
    r, c = a.shape
    npiv = c if pivot_cols is None else pivot_cols
    if transform:
        a = np.hstack([a, np.zeros((r, min(r, npiv)), dtype=np.int64)])
        perm = np.arange(r)
    pivots: list[int] = []
    row = 0
    for col in range(npiv):
        if row == r:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            a[[row, pr]] = a[[pr, row]]
            if transform:
                perm[[row, pr]] = perm[[pr, row]]
        if transform:
            a[row, c + row] = 1
        # the pivot row is zero left of col, so only columns col: change
        prow = a[row, col:]
        pv = int(prow[0])
        if pv != 1:
            prow = field.mul(field.inv(pv), prow)
            a[row, col:] = prow
        fac = a[:, col].copy()
        fac[row] = 0
        a[:, col:] = field.sub(a[:, col:], field.mul(fac[:, None], prow[None, :]))
        pivots.append(col)
        row += 1
    if transform:
        return a[:, :c], (a[:, c : c + row], perm), pivots
    return a, None, pivots


# Smallest batch (r - 2c) c^2 for which rref_stack takes the slice path.
# Timed (2-core x86-64 VM) against the full elimination on GF(5), GF(5^2)
# and GF(2^12) stacks with c = 2..6, r = 4.5c..30c and batch 4..2048, a
# tenth or a third of the members rank-deficient: below 2^15 the path lost
# up to about 50 % on some shapes
# (e.g. (1024, 9, 2) +10 %, (32, 30, 6) +24 %, (256, 10, 2) over GF(5)
# +51 %); from 2^15 on it won, by up to 80 %, or tied within 4 %.  A stack
# whose members are all deficient gains nothing from the slice and lost
# 10-60 % to it at any size; in decoding those are the error blocks, at
# most t of the l blocks.
_SLICE_MIN_WORK = 2**15


def _reduce_stack(field, a: np.ndarray) -> np.ndarray:
    """Reduce the (batch, r, c) stack a in place; return its pivot mask.

    Every step updates the whole stack: a member without a pivot in the
    column swaps a row with itself and gets zero elimination factors.
    """
    batch, r, c = a.shape
    pivots = np.zeros((batch, c), dtype=bool)
    if batch == 0 or r == 0:
        return pivots
    members = np.arange(batch)
    below = np.arange(r)
    row = np.zeros(batch, dtype=np.int64)  # next pivot row of each member
    for col in range(c):
        x = a[:, :, col]  # a view: it follows the row operations below
        cand = (x != 0) & (below >= row[:, None])
        pr = cand.argmax(axis=1)  # 0 where there is no candidate
        has = cand[members, pr]
        if not has.any():
            continue
        # rows at or below a member's next pivot row are zero left of col,
        # so only columns col: change; members without a pivot swap row 0
        # with itself
        top = row * has
        prow = a[members, pr, col:]
        a[members, pr, col:] = a[members, top, col:]
        pv = np.where(has, prow[:, 0], 1)
        if (pv != 1).any():
            prow = field.mul(field.inv(pv)[:, None], prow)
        a[members, top, col:] = prow
        fac = x * has[:, None]
        fac[members, top] = 0
        a[:, :, col:] = field.sub(a[:, :, col:], field.mul(fac[:, :, None], prow[:, None, :]))
        pivots[:, col] = has
        row += has
    return pivots


def rref_stack(field, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms of a (batch, r, c) stack, all members at once.

    Returns (R, pivots) with pivots a (batch, c) boolean mask of pivot
    columns; R[b] equals _rref_arrays(field, arr[b])[0] (same pivot choice).
    Single matrices stay on _rref_arrays, which is faster at batch 1.

    A tall stack is reduced on its leading slice of 2c rows first.  A
    member with c pivots there is done: its RREF is the reduced slice
    followed by zero rows.  For each other member, every row below the slice
    minus its entries in the pivot columns times the slice's pivot rows
    (one mul/sub pass per pivot column, exact because the slice is in RREF)
    vanishes exactly when the row lies in the slice's row space.  When all
    of them vanish, the member's row space is the slice's, and so is its
    RREF, which is canonical for the row space.  Only members whose rank
    grows below the slice are reduced again in full.  For d members short
    of full column rank this costs O(batch c^3 + d r c^2) instead of
    O(batch r c^2).

    The path applies when c >= 2, r > 4c and batch (r - 2c) c^2, the row
    updates it spares, is at least _SLICE_MIN_WORK.  A one-column stack is
    reduced in one step at any height.  Below the bound the residual pass
    and its bookkeeping cost more than they spare on some shapes (see
    _SLICE_MIN_WORK).
    """
    a = np.array(arr, dtype=np.int64)
    batch, r, c = a.shape
    h = 2 * c
    if c < 2 or r <= 2 * h or batch * (r - h) * c * c < _SLICE_MIN_WORK:
        return a, _reduce_stack(field, a)
    top = a[:, :h].copy()
    pivots = _reduce_stack(field, top)
    short = np.flatnonzero(pivots.sum(axis=1) < c)
    p = pivots[short]
    # prows[:, j] is the slice row with its pivot in column j, zero if j is
    # free; pivot rows are zero in every other pivot column
    prows = top[short[:, None], np.cumsum(p, axis=1) - 1] * p[:, :, None]
    rest = a[short, h:]
    res = rest
    for col in np.flatnonzero(p.any(axis=0)):
        res = field.sub(res, field.mul(rest[:, :, col, None], prows[:, None, col, :]))
    grew = short[res.any(axis=(1, 2))]
    a[:, :h] = top
    a[:, h:] = 0
    if grew.size:
        full = np.asarray(arr, dtype=np.int64)[grew]
        pivots[grew] = _reduce_stack(field, full)
        a[grew] = full
    return a, pivots


def rref(M: Matrix, pivot_cols: int | None = None) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns of M.

    With pivot_cols set, pivots come only from the first pivot_cols columns.
    """
    a, _, pivots = _rref_arrays(M.field, M.array, pivot_cols)
    return Matrix(M.field, a, _checked=True), tuple(pivots)


def rank(M: Matrix) -> int:
    _, _, pivots = _rref_arrays(M.field, M.array)
    return len(pivots)


def row_space_basis(M: Matrix) -> Matrix:
    """Canonical (reduced-echelon) basis of the row space, zero rows dropped."""
    R, pivots = rref(M)
    return R[: len(pivots), :]


def row_spaces_equal(M1: Matrix, M2: Matrix) -> bool:
    return row_space_basis(M1) == row_space_basis(M2)


def right_kernel(M: Matrix) -> Matrix:
    """Canonical basis of {v : M @ v^T = 0}, one vector per matrix row.

    The basis is returned in reduced echelon form, so equal kernels compare
    equal as matrices.  An empty result has shape (0, cols).
    """
    field = M.field
    R, pivots = rref(M)
    c = M.cols
    free = np.delete(np.arange(c), pivots)
    if not free.size:
        return Matrix.zeros(field, 0, c)
    # the kernel vector of free column f is e_f minus column f of R's pivot
    # rows, placed at the pivot columns
    basis = np.zeros((free.size, c), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if pivots:
        basis[:, list(pivots)] = field.neg(R.array[: len(pivots), free].T)
    out, _, piv = _rref_arrays(field, basis)
    return Matrix(field, out[: len(piv), :], _checked=True)


def solve_unique(M: Matrix, rhs: Matrix) -> Matrix:
    """Unique X with M @ X = rhs; M must have full column rank.

    Raises NonUniqueSolution when rank(M) < M.cols and Inconsistent when the
    system has no solution.
    """
    M._compat(rhs)
    if rhs.rows != M.rows:
        raise ValueError(f"rhs has {rhs.rows} rows, expected {M.rows}")
    b = M.cols
    aug = hstack([M, rhs])
    R, pivots = rref(aug)
    if any(p >= b for p in pivots):
        raise Inconsistent("system has no solution")
    if len(pivots) < b:
        raise NonUniqueSolution(f"matrix has rank {len(pivots)} < {b} columns")
    return R[:b, b:]


def row_space_intersection(M1: Matrix, M2: Matrix) -> Matrix:
    """Canonical basis of the intersection of two row spaces (Zassenhaus)."""
    M1._compat(M2)
    if M1.cols != M2.cols:
        raise ValueError("matrices must have equal column counts")
    field = M1.field
    n = M1.cols
    top = np.hstack([M1.array, M1.array])
    bot = np.hstack([M2.array, np.zeros_like(M2.array)])
    stacked = np.vstack([top, bot])
    R, pivots = rref(Matrix(field, stacked, _checked=True))
    rarr = R.array
    inter_rows = []
    for i in range(len(pivots)):
        if not np.any(rarr[i, :n]):
            inter_rows.append(rarr[i, n:])
    if not inter_rows:
        return Matrix.zeros(field, 0, n)
    return row_space_basis(Matrix(field, np.array(inter_rows), _checked=True))


def matrix_to_dict(M: Matrix, tower) -> dict:
    if M.field == tower.ext_field:
        label = "ext"
    elif M.field == tower.base_field:
        label = "base"
    else:
        raise ValueError("matrix field does not belong to the tower")
    return {"rows": M.rows, "cols": M.cols, "field": label, "data": M.tolist()}


def matrix_from_dict(d: dict, tower) -> Matrix:
    label = d["field"]
    if label == "ext":
        field = tower.ext_field
    elif label == "base":
        field = tower.base_field
    else:
        raise ValueError(f"unknown field label {label!r}")
    rows, cols = int(d["rows"]), int(d["cols"])
    data = np.asarray(d["data"], dtype=np.int64).reshape(rows, cols)
    return Matrix(field, data)
