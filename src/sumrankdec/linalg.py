"""Exact dense linear algebra over finite fields.

Matrices wrap read-only numpy int64 arrays of field codes together with the
field object that interprets them.  All elimination routines are
deterministic: the pivot for the leftmost unprocessed column is always the
topmost row with a nonzero entry, and echelon forms are fully reduced, so
kernels and row-space bases are canonical.

A single matrix is reduced by one of two routes with the same result (the
reduced echelon form of a matrix is unique).  The stepping loop does one
table pass over the rows per pivot.  Large odd-characteristic matrices, at
least 16 x 160 (_PANEL_MIN_ROWS, _PANEL_MIN_COLS, timed on five fields),
are reduced in panels of 32 columns instead: the stepping loop reduces each
panel, and the rest of the matrix is updated by two field.matmul products
per panel, which run on float BLAS (see gf).  Over GF(5^2) a 128 x 256 matrix
takes a third to a half of the stepping time, and a 512 x 1024 one a
seventh (0.15 s instead of 1.08 s).  Characteristic 2 stays on the stepping
loop: its products gather an (inner, rows, cols) table tensor, and panels
gained at most a quarter there (GF(2^12), 256 x 512) and tied at 64 x 128.

A stack of small matrices is reduced by rref_stack, all members at once,
one pivot column a step across the whole stack.  Reducing a leading slice
of a tall stack first, and the rows below only where needed, is the
support stage's business (sumrank._reduce_blocks).
"""

from __future__ import annotations

import numbers
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
        if _checked:
            arr = np.asarray(data, dtype=np.int64)
        else:
            arr = np.asarray(data)
            # a float or bool would otherwise be truncated to a code silently
            if arr.size and arr.dtype.kind not in "iu":
                raise ValueError(f"matrix entries must be integers, got dtype {arr.dtype}")
            arr = arr.astype(np.int64, copy=False)
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
            raise TypeError("1-d slices are ambiguous; use 2-d slices")
        return Matrix(self.field, out, _checked=True)

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


def _rref_arrays(field, arr: np.ndarray):
    """Reduced row-echelon form: returns (R, None, pivots).

    The middle slot is always None; pivots stay at index 2, where
    decodebench/spans.py reads them.  A matrix's RREF is unique, so the two
    routes give the same R and pivots: odd-characteristic matrices of at
    least _PANEL_MIN_ROWS rows and _PANEL_MIN_COLS columns are reduced in
    column panels (_reduce_panels), all others by the stepping loop
    (_reduce_steps).
    """
    a = np.array(arr, dtype=np.int64)
    r, c = a.shape
    if field.char != 2 and r >= _PANEL_MIN_ROWS and c >= _PANEL_MIN_COLS:
        pivots = _reduce_panels(field, a)
    else:
        pivots = _reduce_steps(field, a)[0]
    return a, None, pivots


def _reduce_steps(field, a: np.ndarray, width: int | None = None) -> tuple[list[int], list[int]]:
    """Reduce the int64 array a in place, one pivot column a step.

    Returns (pivots, order): the pivot columns, and the input row that each
    row of a started as (the steps swap rows).  Pivot choice: leftmost
    unprocessed column, topmost nonzero row; the column is scanned only when
    a[row, col] is zero.  A pivot step is one field.eliminate over the
    columns from the pivot on, one table pass on logarithms that normalises
    the pivot row and updates every row, and the only field arithmetic in
    the loop.

    With width set, only the first width columns take pivots, and the k-th
    pivot row gets a 1 in column width + k as it is chosen.  If those
    columns start zero, they end holding, in the first k rows, the inverse
    of the k x k block of input rows order[:k] in the pivot columns: each
    pivot row's entries there are its coefficients over those input rows.
    """
    r, c = a.shape
    pivots: list[int] = []
    order = list(range(r))
    row = 0
    for col in range(c if width is None else width):
        if row == r:
            break
        pv = int(a[row, col])
        if pv == 0:
            nz = a[row + 1 :, col].nonzero()[0]
            if nz.size == 0:
                continue
            pr = row + 1 + int(nz[0])
            a[[row, pr]] = a[[pr, row]]
            order[row], order[pr] = order[pr], order[row]
            pv = int(a[row, col])
        if width is not None:
            a[row, width + row] = 1
        # the pivot row is zero left of col, so only columns col: change;
        # the step clears the pivot row too, and the normalised row is
        # written back
        a[row, col:] = field.eliminate(a[:, col:], a[:, col, None], a[row, col:], pv)
        pivots.append(col)
        row += 1
    return pivots, order


def _reduce_panels(field, a: np.ndarray) -> list[int]:
    """Reduce the int64 array a to RREF in place by blocked Gauss-Jordan
    elimination over column panels of _PANEL columns; return the pivots.

    Rows above the next pivot row are reduced pivot rows, and every row
    below it is zero left of the panel.  The stepping loop reduces the
    panel's rows below the pivot rows, which gives the panel's k pivot
    columns, k input rows that span the panel, and the inverse of their
    k x k block X in the pivot columns (see _reduce_steps' width).  X^-1
    times those rows is the next k rows of R, one field.matmul.  Every other
    row, above and below, then loses its pivot-column entries times these
    rows, one more field.matmul: the rows below become zero across the
    panel, as each is a combination of the k rows there.
    """
    r, c = a.shape
    pivots: list[int] = []
    row = 0
    for j0 in range(0, c, _PANEL):
        if row == r:
            break
        w = min(_PANEL, c - j0)
        panel = np.zeros((r - row, w + min(w, r - row)), dtype=np.int64)
        panel[:, :w] = a[row:, j0 : j0 + w]
        piv, order = _reduce_steps(field, panel, w)
        k = len(piv)
        if k == 0:
            continue
        pc = [j0 + j for j in piv]
        idx = row + np.array(order[:k])
        prows = field.matmul(panel[:k, w : w + k], a[idx, j0:])
        rest = np.delete(np.arange(r), idx)
        a[rest, j0:] = field.sub(a[rest, j0:], field.matmul(a[rest[:, None], pc], prows))
        below = a[rest[row:], j0:]
        a[row : row + k, j0:] = prows
        a[row + k :, j0:] = below
        pivots += pc
        row += k
    return pivots


# Panel width of _reduce_panels, and the smallest shape _rref_arrays sends
# there.  Timed (2-core x86-64 VM, best of 3-20 calls, interleaved) against
# the stepping loop on random matrices over GF(5), GF(3^2), GF(5^2),
# GF(3^4) and GF(31^2) with 8-128 rows and 64-256 columns: panels lost on
# every field at 8 rows (up to 1.5x slower at 8 x 128, where the decode
# reduces S^T) and at 64 columns (1.0-1.5x), and won on every field from
# 16 rows and 160 columns on (0.35-1.0x of the stepping time, 0.43-0.57x at
# 128 x 256, the set-up of a code of length 256 and rate 1/2).  At 96 and
# 128 columns the result depended on the field: 0.56-1.05x over GF(5),
# 0.90-1.18x over GF(3^4).  Panels of 16 columns timed within 10 % of 32,
# panels of 64 up to 40 % slower.
_PANEL = 32
_PANEL_MIN_ROWS = 16
_PANEL_MIN_COLS = 160


def rref_stack(field, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms of a (batch, r, c) stack, all members at once.

    Returns (R, pivots) with pivots a (batch, c) boolean mask of pivot
    columns; R[b] equals _rref_arrays(field, arr[b])[0] (same pivot choice).
    Single matrices stay on _rref_arrays, which is faster at batch 1.

    Every step updates the whole stack: a member without a pivot in the
    column swaps a row with itself, with pivot 1 and zero elimination
    factors.  As in _reduce_steps, a step is one field.eliminate over the
    stack, and the normalised pivot rows are written back after it.
    """
    a = np.array(arr, dtype=np.int64)
    batch, r, c = a.shape
    pivots = np.zeros((batch, c), dtype=bool)
    if batch == 0 or r == 0:
        return a, pivots
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
        fac = x * has[:, None]
        a[members, top, col:] = field.eliminate(
            a[:, :, col:], fac[:, :, None], prow[:, None, :], pv[:, None, None])[:, 0]
        pivots[:, col] = has
        row += has
    return a, pivots


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns of M."""
    a, _, pivots = _rref_arrays(M.field, M.array)
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
    return _right_kernel(M)[0]


def _right_kernel(M: Matrix) -> tuple[Matrix, int]:
    """(right_kernel(M), rank(M)) from one elimination.

    M is reduced with its columns reversed.  The kernel vector of free
    column f there is e_f minus column f of the pivot rows, placed at the
    pivot columns; a pivot row has nonzeros only right of its pivot, so the
    vector is zero right of f.  Reversed back, its leading entry is a 1 in
    column c - 1 - f, and it is zero in every other free column: taken in
    decreasing f, these vectors are already the reduced echelon basis.
    """
    field = M.field
    c = M.cols
    R, _, pivots = _rref_arrays(field, M.array[:, ::-1])
    free = np.delete(np.arange(c), pivots)[::-1]
    basis = np.zeros((free.size, c), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if pivots:
        basis[:, pivots] = field.neg(R[: len(pivots), free].T)
    return Matrix(field, basis[:, ::-1], _checked=True), len(pivots)


def solve_unique(M: Matrix, rhs: Matrix) -> Matrix:
    """Unique X with M @ X = rhs; M must have full column rank.

    Raises NonUniqueSolution when rank(M) < M.cols and Inconsistent when the
    system has no solution.
    """
    M._compat(rhs)
    if rhs.rows != M.rows:
        raise ValueError(f"rhs has {rhs.rows} rows, expected {M.rows}")
    b = M.cols
    R, _, pivots = _rref_arrays(M.field, np.hstack([M.array, rhs.array]))
    if pivots and pivots[-1] >= b:
        raise Inconsistent("system has no solution")
    if len(pivots) < b:
        raise NonUniqueSolution(f"matrix has rank {len(pivots)} < {b} columns")
    return Matrix(M.field, R[:b, b:], _checked=True)


def row_space_intersection(M1: Matrix, M2: Matrix) -> Matrix:
    """Canonical basis of the intersection of two row spaces (Zassenhaus).

    The nonzero rows of the reduced echelon form of [M1 M1; M2 0] whose
    left half is zero span the intersection in their right half.  They are
    the last pivot rows, and the full reduction leaves them reduced against
    each other, so their right halves are the canonical basis as they stand.
    """
    M1._compat(M2)
    if M1.cols != M2.cols:
        raise ValueError("matrices must have equal column counts")
    n = M1.cols
    top = np.hstack([M1.array, M1.array])
    bot = np.hstack([M2.array, np.zeros_like(M2.array)])
    R, pivots = rref(Matrix(M1.field, np.vstack([top, bot]), _checked=True))
    left = sum(p < n for p in pivots)
    return R[left : len(pivots), n:]


def int_from_dict(x, what: str) -> int:
    """x, a number read from a file or given to a constructor, as an int.
    A bool or any other non-integer (2.5, and 2.0 too) raises ValueError
    instead of being truncated or coerced."""
    if type(x) is int:  # the common case, without the slower ABC check
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


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
    rows, cols = int_from_dict(d["rows"], "rows"), int_from_dict(d["cols"], "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape {rows} x {cols} is negative")
    data = d["data"]
    # [] is the 0 x cols matrix (the B of a weight-0 error); any other data
    # must be rows lists of cols entries, not data that merely reshapes so
    empty = isinstance(data, list) and not data
    cells = np.empty((0, cols), dtype=object) if empty else np.asarray(data, dtype=object)
    if cells.shape != (rows, cols):
        raise ValueError(f"matrix data has shape {cells.shape}, declared {rows} x {cols}")
    # numpy reads a bool among integers as 0 or 1, so bools are sought entry
    # by entry; Matrix rejects any other non-integer
    if any(isinstance(x, bool) for x in cells.flat):
        raise ValueError("matrix entries must be integers")
    return Matrix(field, np.asarray(data).reshape(rows, cols))
