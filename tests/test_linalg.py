"""Elimination, kernels, solving, row-space operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduced_stacks
from sumrankdec.gf import FieldTower, PrimeField
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

# characteristic 2 and odd p, prime and extension fields, the two-level
# GF(4) <= GF(16) and a prime above TABLE_LIMIT (inverses without a table)
STACK_FIELDS = [
    PrimeField(2),
    PrimeField(5),
    FieldTower.standard(2, 3).ext_field,
    FieldTower.standard(5, 2).ext_field,
    FieldTower.standard(2, 2, e=2).base_field,
    FieldTower.standard(2, 2, e=2).ext_field,
    FieldTower.standard(2, 12).ext_field,
    PrimeField(2**31 - 1),
]

# how the leading 2c rows of a tall member relate to the rows below
TALL_KINDS = ["zero", "full", "in_span", "grows_below"]


def _tall_member(field, kind, r, c, pad, rng):
    """An r x c member for rref_stack's slice path, its last pad columns zero.

    Its leading 2c rows (the slice) are zero ("zero"), of full rank in the
    real columns ("full"), or span a proper subspace that the rows below
    stay in ("in_span") or leave ("grows_below").
    """
    real = c - pad
    out = np.zeros((r, c), dtype=np.int64)
    if kind == "zero":
        return out
    # unit upper triangular: every leading set of rows is independent
    B = np.triu(field.random(rng, (real, real)), 1) + np.eye(real, dtype=np.int64)
    j = real if kind == "full" else real - 1

    def combos(n, rows):
        if not rows.shape[0]:
            return np.zeros((n, real), dtype=np.int64)
        return field.matmul(field.random(rng, (n, rows.shape[0])), rows)

    top = np.vstack([B[:j], combos(2 * c - j, B[:j])])
    if kind == "grows_below":
        below = np.vstack([B[j:], combos(r - 2 * c - 1, B)])
    else:
        below = combos(r - 2 * c, B[:j])
    out[:, :real] = np.vstack([rng.permutation(top), rng.permutation(below)])
    return out


class TestMatrixBasics:
    def test_out_of_range_entries(self, ref_tower):
        with pytest.raises(ValueError, match="out of range"):
            Matrix(ref_tower.ext_field, [[25]])

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
        assert a.row(1).shape == (1, 4)
        assert a.col(2).shape == (3, 1)
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


def _ref_with_transform(S):
    """[R | P] from the rref of [S | I] pivoting only in S's columns."""
    f = S.field
    RP, pivots = rref(hstack([S, Matrix.identity(f, S.rows)]), pivot_cols=S.cols)
    return RP[:, : S.cols], RP[:, S.cols :], pivots


class TestRefWithTransform:
    """Row reduction with its transform, via the pivot-limited rref of [S | I]."""

    def test_reference_syndrome(self, ref):
        R, P, pivots = _ref_with_transform(ref.S)
        assert len(pivots) == 3
        expect = np.zeros((4, 3), dtype=np.int64)
        expect[:3, :3] = np.eye(3)
        assert R.array.tolist() == expect.tolist()
        assert P @ ref.S == R

    def test_zero_matrix(self, ref_tower):
        f = ref_tower.ext_field
        S = Matrix.zeros(f, 3, 4)
        R, P, pivots = _ref_with_transform(S)
        assert pivots == ()
        assert R == S
        assert P == Matrix.identity(f, 3)

    def test_invertible_matrix(self, ref_tower):
        rng = np.random.default_rng(2)
        f = ref_tower.ext_field
        S = Matrix.random(f, 4, 4, rng)
        while rank(S) < 4:
            S = Matrix.random(f, 4, 4, rng)
        R, P, _ = _ref_with_transform(S)
        assert R == Matrix.identity(f, 4)
        assert P @ S == Matrix.identity(f, 4)

    def test_transform_invertible_and_idempotent(self, ref_tower):
        rng = np.random.default_rng(3)
        f = ref_tower.ext_field
        for _ in range(20):
            S = Matrix.random(f, 4, 3, rng)
            R, P, pivots = _ref_with_transform(S)
            assert P @ S == R
            assert rank(P) == 4
            again, _ = rref(R)
            assert again == R
            assert rref(S) == (R, pivots)

    def test_pivot_structure(self, ref_tower):
        rng = np.random.default_rng(4)
        f = ref_tower.ext_field
        for _ in range(10):
            S = Matrix.random(f, 5, 4, rng)
            R, _, pivots = _ref_with_transform(S)
            assert all(p < S.cols for p in pivots)
            for i, col in enumerate(pivots):
                assert R[i, col] == 1
                column = R.array[:, col]
                assert np.count_nonzero(column) == 1
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
            for i in range(X.rows):
                r = X.row(i)
                assert rank(vstack([U, r])) == rank(U)
                assert rank(vstack([W, r])) == rank(W)

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

    def _check_members(self, field, arr, R, pivots):
        for b in range(arr.shape[0]):
            want, _, piv = _rref_arrays(field, arr[b])
            assert R[b].tolist() == want.tolist()
            assert np.flatnonzero(pivots[b]).tolist() == piv

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(STACK_FIELDS),
        c=st.integers(2, 4),
        extra=st.integers(1, 5),
        kinds=st.lists(st.sampled_from(TALL_KINDS), min_size=1, max_size=5),
        pad=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tall_stacks_match_single_matrix_engine(self, field, c, extra, kinds, pad, seed):
        # the slice path, lowered to test sizes: only members whose rank
        # grows below the slice are reduced again in full
        rng = np.random.default_rng(seed)
        r = 4 * c + extra
        arr = np.stack([_tall_member(field, kind, r, c, pad, rng) for kind in kinds])
        with reduced_stacks(min_work=0) as shapes:
            R, pivots = rref_stack(field, arr)
        grew = kinds.count("grows_below")
        assert shapes == [(len(kinds), 2 * c, c)] + ([(grew, r, c)] if grew else [])
        self._check_members(field, arr, R, pivots)

    def test_fallback_at_annihilator_size(self):
        # GF(5^2) blocks of 4 with 120 annihilator rows, as in a decode at
        # n = 256, take the slice path under the default work bound
        f = FieldTower.standard(5, 2).ext_field
        rng = np.random.default_rng(16)
        kinds = ["full"] * 60 + ["in_span", "zero", "grows_below", "in_span"]
        arr = np.stack([_tall_member(f, kind, 120, 4, 0, rng) for kind in kinds])
        with reduced_stacks() as shapes:
            R, pivots = rref_stack(f, arr)
        assert shapes == [(64, 8, 4), (1, 120, 4)]
        self._check_members(f, arr, R, pivots)

    @pytest.mark.parametrize(
        "shape,sliced",
        [
            ((128, 56, 1), False),  # one column: one step at any height
            ((6, 5, 2), False),  # r <= 4c
            ((8, 32, 4), False),  # batch (r - 2c) c^2 below 2^15
            ((64, 120, 4), True),
        ],
    )
    def test_slice_path_rule(self, shape, sliced):
        f = FieldTower.standard(5, 2).ext_field
        arr = f.random(np.random.default_rng(17), shape)
        with reduced_stacks() as shapes:
            R, pivots = rref_stack(f, arr)
        batch, r, c = shape
        assert shapes[0] == ((batch, 2 * c, c) if sliced else shape)
        self._check_members(f, arr, R, pivots)
