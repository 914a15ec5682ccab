"""Elimination, kernels, solving, row-space operations."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import STACK_FIELDS, eliminations, panel_reductions, reduced_stacks, stacked_eliminations
from sumrankdec import linalg
from sumrankdec.gf import ExtField, FieldTower, PrimeField, default_modulus
from sumrankdec.sumrank import LengthPartition, block_supports
from sumrankdec.linalg import (
    _rref_arrays,
    Inconsistent,
    Matrix,
    NonUniqueSolution,
    block_diag,
    hstack,
    matrix_from_dict,
    matrix_to_dict,
    rank,
    right_kernel,
    row_space_basis,
    row_space_intersection,
    row_spaces_equal,
    rref,
    rref_stack,
    solve_unique,
    vstack,
)


# GF(2) as a degree-1 extension, characteristic 2, odd p and the two-level
# GF(4) <= GF(16)
RIGHT_KERNEL_FIELDS = [
    FieldTower.standard(2, 1).ext_field,
    FieldTower.standard(2, 3).ext_field,
    FieldTower.standard(5, 2).ext_field,
    FieldTower.standard(2, 2, e=2).ext_field,
]
RIGHT_KERNEL_SHAPES = ["zero", "empty", "full", "dependent"]

# how the leading slice of a tall block relates to the rows below
TALL_KINDS = ["zero", "full", "in_span", "grows_below", "zero_on_slice"]

# the degree-1 tower GF(2), characteristic 2 and odd p, and the two-level
# GF(4) <= GF(16)
SLICE_TOWERS = [
    FieldTower.standard(2, 1),
    FieldTower.standard(2, 3),
    FieldTower.standard(5, 2),
    FieldTower.standard(2, 2, e=2),
]


def _tall_member(field, kind, r, ni, h, rng):
    """An r x ni block for sumrank._reduce_blocks's slice path, whose slice
    is its leading h >= ni rows.

    The slice is zero ("zero", and "zero_on_slice", whose rows below are
    not), of full rank ("full"), or spans a proper subspace that the rows
    below stay in ("in_span") or leave ("grows_below").
    """
    out = np.zeros((r, ni), dtype=np.int64)
    if kind == "zero":
        return out
    # unit upper triangular: every leading set of rows is independent
    B = np.triu(field.random(rng, (ni, ni)), 1) + np.eye(ni, dtype=np.int64)
    j = {"full": ni, "zero_on_slice": 0}.get(kind, ni - 1)

    def combos(n, rows):
        if not rows.shape[0]:
            return np.zeros((n, ni), dtype=np.int64)
        return field.matmul(field.random(rng, (n, rows.shape[0])), rows)

    top = np.vstack([B[:j], combos(h - j, B[:j])])
    if kind in ("grows_below", "zero_on_slice"):
        below = np.vstack([B[j:], combos(r - h - ni + j, B)])
    else:
        below = combos(r - h, B[:j])
    return np.vstack([rng.permutation(top), rng.permutation(below)])


class TestMatrixBasics:
    def test_out_of_range_entries(self, ref_tower):
        with pytest.raises(ValueError, match="out of range"):
            Matrix(ref_tower.ext_field, [[25]])

    @pytest.mark.parametrize("data", [[[1.7, 2.2]], [[True, False]], np.array([[3.9]]),
                                      [[2.0, 1.0]], np.array([[1]], dtype=bool)], ids=repr)
    def test_non_integer_entries(self, ref_tower, data):
        # none is truncated or coerced to a code
        with pytest.raises(ValueError, match="must be integers"):
            Matrix(ref_tower.ext_field, data)

    def test_field_mismatch(self, ref_tower):
        a = Matrix.zeros(ref_tower.ext_field, 2, 2)
        b = Matrix.zeros(ref_tower.base_field, 2, 2)
        with pytest.raises(ValueError, match="different fields"):
            a + b

    def test_shape_mismatch(self, ref_tower):
        a = Matrix.zeros(ref_tower.ext_field, 2, 2)
        b = Matrix.zeros(ref_tower.ext_field, 2, 3)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            b @ b

    def test_immutable(self, ref_tower):
        a = Matrix.zeros(ref_tower.ext_field, 2, 2)
        with pytest.raises(ValueError):
            a.array[0, 0] = 1

    def test_add_sub_neg(self, ref_tower):
        rng = np.random.default_rng(0)
        a = Matrix.random(ref_tower.ext_field, 3, 4, rng)
        b = Matrix.random(ref_tower.ext_field, 3, 4, rng)
        assert a + b - b == a
        assert a + (-a) == Matrix.zeros(ref_tower.ext_field, 3, 4)

    def test_indexing(self, ref_tower):
        rng = np.random.default_rng(1)
        a = Matrix.random(ref_tower.ext_field, 3, 4, rng)
        assert isinstance(a[1, 2], int)
        assert a[0:2, 1:3].shape == (2, 2)
        assert a[1:2, :].shape == (1, 4)
        assert a[:, 2:3].shape == (3, 1)
        assert a.T.shape == (4, 3)
        with pytest.raises(TypeError):
            a[1]

    def test_stacks(self, ref_tower):
        f = ref_tower.ext_field
        a = Matrix.zeros(f, 2, 3)
        b = Matrix.zeros(f, 2, 2)
        assert hstack([a, b]).shape == (2, 5)
        c = Matrix.zeros(f, 1, 3)
        assert vstack([a, c]).shape == (3, 3)


class TestRref:
    """Reduced row-echelon form: unit pivot columns, zero rows below the rank."""

    def test_reference_syndrome(self, ref):
        R, pivots = rref(ref.S)
        assert pivots == (0, 1, 2)
        expect = np.zeros((4, 3), dtype=np.int64)
        expect[:3, :3] = np.eye(3)
        assert R.array.tolist() == expect.tolist()

    def test_zero_matrix(self, ref_tower):
        S = Matrix.zeros(ref_tower.ext_field, 3, 4)
        assert rref(S) == (S, ())

    def test_invertible_matrix(self, ref_tower):
        rng = np.random.default_rng(2)
        f = ref_tower.ext_field
        S = Matrix.random(f, 4, 4, rng)
        while rank(S) < 4:
            S = Matrix.random(f, 4, 4, rng)
        assert rref(S) == (Matrix.identity(f, 4), (0, 1, 2, 3))

    def test_idempotent(self, ref_tower):
        rng = np.random.default_rng(3)
        f = ref_tower.ext_field
        for _ in range(20):
            S = Matrix.random(f, 4, 3, rng)
            R, pivots = rref(S)
            assert rref(R) == (R, pivots)
            assert rank(vstack([S, R])) == rank(S) == len(pivots)

    def test_pivot_structure(self, ref_tower):
        # full-rank and rank-deficient 5 x 4 matrices
        rng = np.random.default_rng(4)
        f = ref_tower.ext_field
        for r in range(5):
            S = Matrix.random(f, 5, r, rng) @ Matrix.random(f, r, 4, rng)
            R, pivots = rref(S)
            assert len(pivots) == rank(S)
            for i, col in enumerate(pivots):
                assert R[i, col] == 1
                assert np.count_nonzero(R.array[:, col]) == 1
                assert not np.any(R.array[i, :col])
            assert not np.any(R.array[len(pivots) :, :])


class TestRank:
    def test_reference_error_rank(self, ref):
        assert rank(ref.E) == 3

    def test_zero(self, ref_tower):
        assert rank(Matrix.zeros(ref_tower.ext_field, 3, 5)) == 0

    def test_product_rank(self, ref_tower):
        rng = np.random.default_rng(5)
        f = ref_tower.ext_field
        for r in range(4):
            A = Matrix.random(f, 4, r, rng)
            B = Matrix.random(f, r, 5, rng)
            while rank(A) < r:
                A = Matrix.random(f, 4, r, rng)
            while rank(B) < r:
                B = Matrix.random(f, r, 5, rng)
            assert rank(A @ B) == r

    def test_rank_bounds_under_expansion(self, ref_tower):
        # rk over GF(q^m) <= rk of the expansion over GF(q) <= m * rk
        rng = np.random.default_rng(6)
        t = ref_tower
        for _ in range(20):
            M = Matrix.random(t.ext_field, 3, 4, rng)
            re = rank(M)
            rb = rank(t.ext_matrix(M))
            assert re <= rb <= t.m * re


class TestRightKernel:
    def test_reference_blocks(self, ref):
        base = ref.tower.base_field
        k1 = right_kernel(Matrix(base, [[1, 2], [0, 0]]))
        assert k1.tolist() == [[1, 2]]
        k2 = right_kernel(Matrix.zeros(base, 2, 2))
        assert k2 == Matrix.identity(base, 2)
        k3 = right_kernel(Matrix(base, [[3, 3], [0, 3]]))
        assert k3.shape == (0, 2)

    def test_rank_nullity_and_membership(self, ref_tower):
        rng = np.random.default_rng(7)
        for field in (ref_tower.base_field, ref_tower.ext_field):
            for _ in range(20):
                M = Matrix.random(field, 3, 5, rng)
                K = right_kernel(M)
                assert K.rows == M.cols - rank(M)
                assert (M @ K.T).is_zero
                assert rank(K) == K.rows

    def test_canonical_form(self, ref_tower):
        rng = np.random.default_rng(8)
        f = ref_tower.ext_field
        M = Matrix.random(f, 2, 5, rng)
        K = right_kernel(M)
        R, piv = rref(K)
        assert R == K and len(piv) == K.rows

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(RIGHT_KERNEL_FIELDS),
        kind=st.sampled_from(RIGHT_KERNEL_SHAPES),
        rows=st.integers(1, 5),
        cols=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_properties(self, field, kind, rows, cols, seed):
        # the three together pin the canonical basis: the right space, and
        # the one reduced echelon basis of it
        rng = np.random.default_rng(seed)
        if kind == "zero":
            a = np.zeros((rows, cols), dtype=np.int64)
        elif kind == "empty":
            a = np.zeros((0, cols), dtype=np.int64)
        else:
            a = field.random(rng, (rows, cols))
            if kind == "full":
                a[:, : min(rows, cols)] = 0
                a[np.arange(min(rows, cols)), np.arange(min(rows, cols))] = 1
            elif rows > 1:  # the last row a combination of the others
                a[-1] = field.matmul(field.random(rng, (1, rows - 1)), a[:-1])[0]
        M = Matrix(field, a)
        K = right_kernel(M)
        assert K.cols == cols and (M @ K.T).is_zero
        assert K.rows == cols - rank(M)
        assert row_space_basis(K) == K


class TestSolveUnique:
    def test_identity(self, ref_tower):
        f = ref_tower.ext_field
        rng = np.random.default_rng(9)
        rhs = Matrix.random(f, 4, 2, rng)
        assert solve_unique(Matrix.identity(f, 4), rhs) == rhs

    def test_forward_construction(self, ref_tower):
        rng = np.random.default_rng(10)
        f = ref_tower.ext_field
        for _ in range(20):
            M = Matrix.random(f, 5, 3, rng)
            while rank(M) < 3:
                M = Matrix.random(f, 5, 3, rng)
            X0 = Matrix.random(f, 3, 2, rng)
            assert solve_unique(M, M @ X0) == X0

    def test_rank_deficient(self, ref_tower):
        f = ref_tower.ext_field
        M = Matrix.zeros(f, 3, 2)
        with pytest.raises(NonUniqueSolution):
            solve_unique(M, Matrix.zeros(f, 3, 1))

    def test_inconsistent(self, ref_tower):
        f = ref_tower.ext_field
        M = Matrix(f, [[1], [1]])
        rhs = Matrix(f, [[1], [2]])
        with pytest.raises(Inconsistent):
            solve_unique(M, rhs)

    def test_zero_columns(self, ref_tower):
        f = ref_tower.ext_field
        M = Matrix.zeros(f, 3, 0)
        X = solve_unique(M, Matrix.zeros(f, 3, 2))
        assert X.shape == (0, 2)


class TestRowSpaces:
    def test_self_intersection(self, ref_tower):
        rng = np.random.default_rng(11)
        f = ref_tower.ext_field
        U = Matrix.random(f, 2, 4, rng)
        assert row_space_intersection(U, U) == row_space_basis(U)

    def test_complementary_axes(self, ref_tower):
        f = ref_tower.ext_field
        U = Matrix(f, [[1, 0, 0]])
        W = Matrix(f, [[0, 1, 0]])
        assert row_space_intersection(U, W).shape == (0, 3)

    def test_membership(self, ref_tower):
        rng = np.random.default_rng(12)
        f = ref_tower.ext_field
        for _ in range(20):
            U = Matrix.random(f, 2, 5, rng)
            W = Matrix.random(f, 3, 5, rng)
            X = row_space_intersection(U, W)
            assert row_space_basis(X) == X
            for i in range(X.rows):
                r = X[i : i + 1, :]
                assert rank(vstack([U, r])) == rank(U)
                assert rank(vstack([W, r])) == rank(W)

    def test_one_elimination(self, ref_tower):
        rng = np.random.default_rng(14)
        f = ref_tower.ext_field
        U, W = Matrix.random(f, 2, 4, rng), Matrix.random(f, 3, 4, rng)
        with eliminations() as shapes:
            row_space_intersection(U, W)
        assert shapes == [(5, 8)]

    def test_row_space_equality_invariant_to_row_ops(self, ref_tower):
        rng = np.random.default_rng(13)
        f = ref_tower.ext_field
        M = Matrix.random(f, 3, 5, rng)
        P = Matrix.random(f, 3, 3, rng)
        while rank(P) < 3:
            P = Matrix.random(f, 3, 3, rng)
        assert row_spaces_equal(M, P @ M)


class TestBlockDiag:
    def test_reference_b(self, ref):
        B = block_diag(list(ref.B_blocks))
        assert B.tolist() == [
            [1, 2, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ]

    def test_single_block(self, ref_tower):
        rng = np.random.default_rng(14)
        M = Matrix.random(ref_tower.base_field, 2, 3, rng)
        assert block_diag([M]) == M

    def test_all_empty_blocks(self, ref_tower):
        base = ref_tower.base_field
        B = block_diag([Matrix.zeros(base, 0, 2), Matrix.zeros(base, 0, 3)])
        assert B.shape == (0, 5)


class TestSerialization:
    def test_roundtrip_both_domains(self, ref_tower):
        rng = np.random.default_rng(15)
        for field, label in [(ref_tower.ext_field, "ext"), (ref_tower.base_field, "base")]:
            M = Matrix.random(field, 2, 3, rng)
            d = matrix_to_dict(M, ref_tower)
            assert d["field"] == label
            assert matrix_from_dict(d, ref_tower) == M

    def test_bad_label(self, ref_tower):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 1, "cols": 1, "field": "huh", "data": [[0]]}, ref_tower)

    @pytest.mark.parametrize("rows,cols,data", [
        (3, 6, list(range(18))),
        (-1, 6, [[0] * 6] * 3),
        (3, 6, [[0] * 9] * 2),
        (3, -6, []),
        (0, 6, [[]]),
        (2, 2, [[1, 2], [3]]),
        (1, 2, [[[1], [2]]]),
    ], ids=["flat", "negative-rows", "reshaped", "negative-cols", "one-empty-row", "ragged",
            "nested-entries"])
    def test_data_must_match_declared_shape(self, ref_tower, rows, cols, data):
        # data that only reshapes to the declared shape is not that matrix
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": rows, "cols": cols, "field": "ext", "data": data}, ref_tower)

    @pytest.mark.parametrize("rows,cols,data", [(0, 6, []), (2, 0, [[], []])])
    def test_empty_matrices(self, ref_tower, rows, cols, data):
        # [] is the 0 x n B of a weight-0 error
        M = matrix_from_dict({"rows": rows, "cols": cols, "field": "base", "data": data}, ref_tower)
        assert M.shape == (rows, cols)


class TestRrefStack:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(STACK_FIELDS),
        shape=st.tuples(st.integers(1, 4), st.integers(0, 5), st.integers(0, 5)),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_single_matrix_engine(self, field, shape, density, seed):
        # sparse members exercise zero columns, missing pivots and row swaps
        rng = np.random.default_rng(seed)
        arr = field.random(rng, shape) * (rng.random(shape) < density)
        R, pivots = rref_stack(field, arr)
        assert R.shape == arr.shape and pivots.shape == (shape[0], shape[2])
        for b in range(shape[0]):
            want, _, piv = _rref_arrays(field, arr[b])
            assert R[b].tolist() == want.tolist()
            assert np.flatnonzero(pivots[b]).tolist() == piv

    def test_mixed_members(self, ref_tower):
        # one stack holding a zero, a full-rank and a rank-1 member
        f = ref_tower.ext_field
        arr = np.array([[[0, 0], [0, 0]], [[3, 1], [7, 2]], [[0, 4], [0, 8]]])
        R, pivots = rref_stack(f, arr)
        assert R[0].tolist() == [[0, 0], [0, 0]] and not pivots[0].any()
        assert R[1].tolist() == [[1, 0], [0, 1]] and pivots[1].tolist() == [True, True]
        assert R[2].tolist() == rref(Matrix(f, arr[2]))[0].tolist()
        assert pivots[2].tolist() == [False, True]

    @staticmethod
    def _check_kernels(tower, blocks, B, dims):
        # every block's kernel against the single-matrix engine's
        want = [right_kernel(tower.ext_matrix(Matrix(tower.ext_field, blk))) for blk in blocks]
        assert B.tolist() == block_diag(want).tolist() and dims == tuple(k.rows for k in want)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        tower=st.sampled_from(SLICE_TOWERS),
        c=st.integers(2, 4),
        extra=st.integers(1, 5),
        members=st.lists(st.tuples(st.sampled_from(TALL_KINDS), st.integers(0, 1)),
                         min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tall_stacks_match_single_matrix_engine(self, tower, c, extra, members, seed):
        # block_supports on a row source on the slice path: the leading 2w
        # rows of the blocks of length >= 2 nonzero there are reduced first,
        # once, and only the blocks whose rank grows below the slice again
        # in full; a block zero on the slice that is nonzero below joins them
        f = tower.ext_field
        rng = np.random.default_rng(seed)
        kinds = [kind for kind, _ in members]
        parts = [c - pad for _, pad in members]
        w = max(parts)
        r = 4 * w + extra
        blocks = [_tall_member(f, kind, r, ni, 2 * w, rng) for kind, ni in zip(kinds, parts)]
        source = _RowSource(np.hstack(blocks))
        with reduced_stacks() as shapes, stacked_eliminations() as calls:
            B, dims, complete = block_supports(tower, source, LengthPartition(parts))
        assert source.reads[0] == (0, 2 * w) and complete is None
        live = sum(ni > 1 and kind not in ("zero", "zero_on_slice")
                   for kind, ni in zip(kinds, parts))
        grew = sum(ni > 1 and kind in ("grows_below", "zero_on_slice")
                   for kind, ni in zip(kinds, parts))
        ext = [shape for shape, (field, _) in zip(shapes, calls) if field == f]
        assert ext == ([(live, 2 * w, w)] if live else []) + ([(grew, r, w)] if grew else [])
        # the rows below are read once for each block zero or short of full
        # rank on the slice, and for no other block
        slices = [Matrix(f, blk[: 2 * w]) for blk in blocks]
        want = {i for i, (ni, sl) in enumerate(zip(parts, slices)) if sl.is_zero or rank(sl) < ni}
        below = source.blocks_read(parts, 2 * w)
        assert set(below) == want and set(below.values()) <= {1}
        self._check_kernels(tower, blocks, B, dims)

    def test_fallback_at_annihilator_size(self):
        # GF(5^2), 64 blocks of 4 with 120 annihilator rows, as in a decode
        # at n = 256: the blocks zero on the slice reach no elimination of
        # it, and only the two blocks whose rank grows below the slice, one
        # of them zero there, are reduced in full; the rows below are read
        # in one take, once for each of the five blocks zero or short on the
        # slice
        tower = FieldTower.standard(5, 2)
        f = tower.ext_field
        rng = np.random.default_rng(16)
        kinds = ["full"] * 59 + ["in_span", "zero", "grows_below", "zero_on_slice", "in_span"]
        blocks = [_tall_member(f, kind, 120, 4, 8, rng) for kind in kinds]
        source = _RowSource(np.hstack(blocks))
        with reduced_stacks() as shapes, stacked_eliminations() as calls:
            B, dims, complete = block_supports(tower, source, LengthPartition([4] * 64))
        assert [shape for shape, (field, _) in zip(shapes, calls) if field == f] == [
            (62, 8, 4), (2, 120, 4)]
        assert source.reads == [(0, 8), (8, 120)]
        assert source.blocks_read([4] * 64, 8) == {59: 1, 60: 1, 61: 1, 62: 1, 63: 1}
        assert complete is None
        self._check_kernels(tower, blocks, B, dims)

    @pytest.mark.parametrize(
        "shape,sliced",
        [
            ((128, 56, 1), True),  # hamming-wide
            ((6, 5, 2), False),  # mc-small: r <= 4w
            ((8, 16, 4), False),  # r = 4w
            ((64, 120, 4), True),  # sumrank-large
            ((8, 17, 4), True),  # r = 4w + 1
        ],
    )
    def test_slice_path_rule(self, shape, sliced):
        # sumrank._reduce_blocks's rule for a row source of r rows and l
        # blocks of w, on the annihilator shapes (l, r, w) of the workloads
        # and on each side of r > 4w: a sliced source is read on its leading
        # 2w rows first, any other whole, in one read
        ell, r, w = shape
        tower = FieldTower.standard(5, 2)
        part = LengthPartition([w] * ell)
        source = _RowSource(tower.ext_field.random(np.random.default_rng(17), (r, ell * w)))
        B, dims, _ = block_supports(tower, source, part)
        if sliced:
            assert source.reads[0] == (0, 2 * w)
        else:
            assert source.reads == [(0, r)]
        blocks = np.split(source.a, np.cumsum(part.parts)[:-1], axis=1)
        self._check_kernels(tower, blocks, B, dims)


def _scalar_rref(field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination on lists of codes with the scalar _mul_i,
    _add_i, _neg_i and _inv_i only: (R, pivots), the same pivot choice as the
    engines (leftmost column, topmost nonzero row)."""
    R = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(R[0]) if R else 0):
        row = len(pivots)
        pr = next((i for i in range(row, len(R)) if R[i][col]), None)
        if pr is None:
            continue
        R[row], R[pr] = R[pr], R[row]
        inv = field._inv_i(R[row][col])
        R[row] = [field._mul_i(x, inv) for x in R[row]]
        for i, r in enumerate(R):
            if i != row and r[col]:
                f = r[col]
                R[i] = [field._add_i(x, field._neg_i(field._mul_i(f, y))) for x, y in zip(r, R[row])]
        pivots.append(col)
    return R, pivots


# the stacked fields and one above TABLE_LIMIT, whose steps take the element
# path
ORACLE_FIELDS = STACK_FIELDS + [ExtField(PrimeField(2), default_modulus(PrimeField(2), 21))]


class TestScalarOracle:
    """Both engines, which share one pivot step, against scalar Gauss-Jordan."""

    @staticmethod
    def _check(field, arr):
        R, pivots = rref_stack(field, arr)
        assert R.shape == arr.shape and pivots.shape == (arr.shape[0], arr.shape[2])
        for b, member in enumerate(arr):
            want, want_piv = _scalar_rref(field, member.tolist())
            got, _, piv = _rref_arrays(field, member)
            assert got.tolist() == want and piv == want_piv
            assert R[b].tolist() == want and np.flatnonzero(pivots[b]).tolist() == want_piv

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        field=st.sampled_from(ORACLE_FIELDS),
        shape=st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(0, 5)),
        density=st.sampled_from([0.0, 0.4, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(field=ORACLE_FIELDS[-1], shape=(2, 4, 5), density=0.4, seed=0)
    @example(field=ORACLE_FIELDS[3], shape=(3, 0, 4), density=1.0, seed=0)  # r = 0
    def test_random_stacks(self, field, shape, density, seed):
        rng = np.random.default_rng(seed)
        arr = field.random(rng, shape) * (rng.random(shape) < density)
        if arr.size:
            arr[0, -1, -1] = field.order - 1  # the largest code
        self._check(field, arr)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
    def test_constructed_stack(self, field):
        # member 0: a zero first column and a zero last row, a pivot v != 1
        # (where the field has one) found below a zero row, so rows swap,
        # then a pivot of 1 in place and a column without a pivot; member 1
        # is zero, a member without a pivot in every column; member 2 holds
        # the largest code L
        L, v = field.order - 1, max(2, field.order - 2) % field.order or 1
        arr = np.array([
            [[0, 0, 0, 0, 0], [0, 0, 1, L, 0], [0, v, L, 1, 1], [0, 0, 0, 0, 0]],
            [[0] * 5] * 4,
            [[L, 1, 0, 0, L], [L, L, 1, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, v, 0]],
        ], dtype=np.int64)
        assert _scalar_rref(field, arr[0].tolist())[1] == [1, 2]
        self._check(field, arr)
        self._check(field, np.zeros((2, 0, 5), dtype=np.int64))


class _RowSource:
    """A row source (see sumrank._reduce_blocks) over a formed array that
    records the rows and columns it is asked for."""

    def __init__(self, a):
        self.a, self.rows, self.reads, self.cols = a, a.shape[0], [], []

    def take(self, rows, cols):
        self.reads.append((rows.start, rows.stop))
        self.cols.append(np.array(cols))
        return self.a[rows][:, cols]

    def blocks_read(self, parts, lo):
        """How often the rows from lo on were read, per block index:
        _reduce_blocks reads w columns per block, the first of them the
        block's last column."""
        ends, w = np.cumsum(parts), max(parts)
        return Counter(i for read, c in zip(self.reads, self.cols) if read[0] == lo
                       for i in np.searchsorted(ends, c[::w], side="right").tolist())


# odd p, prime and extension fields, a prime whose products take the int64
# chunk path, and characteristic 2, where _rref_arrays keeps the stepping
# loop but the panel route is still exact
PANEL_FIELDS = [
    FieldTower.standard(5, 2).ext_field,
    FieldTower.standard(3, 4).ext_field,
    FieldTower.standard(2, 12).ext_field,
    FieldTower.standard(2, 1).ext_field,
    PrimeField(5),
    PrimeField(2**31 - 1),
]
PANEL_KINDS = ["random", "deficient", "zero_columns", "sparse"]


def _panel_matrix(field, kind, r, c, rng):
    """An r x c test matrix: random, of rank below min(r, c) (a product
    through a narrower inner dimension), with zero columns, or sparse."""
    if kind == "deficient":
        inner = int(rng.integers(0, min(r, c)))
        return field.matmul(field.random(rng, (r, inner)), field.random(rng, (inner, c)))
    a = field.random(rng, (r, c))
    if kind == "zero_columns":
        a[:, rng.random(c) < 0.4] = 0
    elif kind == "sparse":
        a *= rng.random((r, c)) < 0.2
    return a


def _stepping(field, a):
    """R and pivots of a by the stepping loop alone."""
    R = np.array(a, dtype=np.int64)
    pivots, _ = linalg._reduce_steps(field, R)
    return R.tolist(), pivots


class TestPanelRoute:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(PANEL_FIELDS),
        kind=st.sampled_from(PANEL_KINDS),
        c=st.integers(1, 13),
        shape=st.sampled_from(["r < c", "r = c", "r > c"]),
        width=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stepping_leaf(self, field, kind, c, shape, width, seed):
        rng = np.random.default_rng(seed)
        r = {"r < c": max(1, c - 1 - int(rng.integers(0, c))), "r = c": c,
             "r > c": c + 1 + int(rng.integers(0, 6))}[shape]
        a = _panel_matrix(field, kind, r, c, rng)
        with panel_reductions(min_rows=1, min_cols=1, width=width) as shapes:
            R, _, pivots = _rref_arrays(field, a)
        assert shapes == ([] if field.char == 2 else [(r, c)])
        got = R.tolist(), pivots
        assert got == _stepping(field, a)
        # the route itself, in characteristic 2 too
        R = a.copy()
        with panel_reductions(width=width):
            pivots = linalg._reduce_panels(field, R)
        assert (R.tolist(), pivots) == got

    @pytest.mark.parametrize(
        "field,shape,kind,panels",
        [
            (FieldTower.standard(5, 2).ext_field, (15, 160), "random", False),
            (FieldTower.standard(5, 2).ext_field, (16, 159), "random", False),
            (FieldTower.standard(5, 2).ext_field, (16, 160), "random", True),
            (FieldTower.standard(5, 2).ext_field, (8, 128), "random", False),
            (FieldTower.standard(5, 2).ext_field, (40, 200), "deficient", True),
            (FieldTower.standard(5, 2).ext_field, (200, 170), "zero_columns", True),
            (PrimeField(5), (16, 160), "random", True),
            (FieldTower.standard(2, 12).ext_field, (16, 160), "random", False),
        ],
        ids=["rows-below", "cols-below", "at-bound", "decode-S^T", "deficient", "tall",
             "prime-field", "char-2"],
    )
    def test_route_bound(self, field, shape, kind, panels):
        # both sides of the bound give the stepping loop's R and pivots
        a = _panel_matrix(field, kind, *shape, np.random.default_rng(22))
        with panel_reductions() as shapes:
            R, _, pivots = _rref_arrays(field, a)
        assert shapes == ([shape] if panels else [])
        assert (R.tolist(), pivots) == _stepping(field, a)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        field=st.sampled_from([f for f in PANEL_FIELDS if f.char != 2]),
        kind=st.sampled_from(PANEL_KINDS),
        r=st.integers(1, 9),
        c=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_callers_match_stepping_loop(self, field, kind, r, c, seed):
        # rank, right_kernel and solve_unique (its solution, or the type of
        # its failure) with every elimination on the panel route and with
        # none of them there
        rng = np.random.default_rng(seed)
        M = Matrix(field, _panel_matrix(field, kind, r, c, rng))
        rhs = Matrix(field, field.random(rng, (r, 2)))
        if rng.random() < 0.5:
            rhs = M @ Matrix(field, field.random(rng, (c, 2)))

        def outcomes():
            try:
                solved = solve_unique(M, rhs)
            except (NonUniqueSolution, Inconsistent) as ex:
                solved = type(ex)
            return rank(M), right_kernel(M), solved

        with panel_reductions(min_rows=1, min_cols=1, width=2) as shapes:
            panels = outcomes()
        with panel_reductions(min_rows=r + 1) as none:
            stepped = outcomes()
        assert len(shapes) == 3 and none == []
        assert panels == stepped
