"""Weights, supports, error sampling and decomposition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrankdec import sumrank
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import Matrix, rank, right_kernel, row_space_basis
from sumrankdec.sumrank import (
    Infeasible,
    LengthPartition,
    block_kernels,
    block_ranks,
    decompose_error,
    hamming_support,
    random_profile,
    rank_support,
    sample_error,
    sum_rank_weight,
)


def check_error_model(em):
    """E = A @ B, per-block weights equal to the profile, and the full_rank flag."""
    tower = em.tower
    assert em.E == em.A @ tower.lift(em.B)
    for ti, blk in zip(em.profile, em.partition.blocks(em.E)):
        assert rank(tower.ext_matrix(blk)) == ti
    assert em.full_rank == (rank(em.E) == em.t)


class TestLengthPartition:
    def test_basic(self):
        p = LengthPartition([2, 2, 2])
        assert p.n == 6 and p.ell == 3
        assert p.slices == [slice(0, 2), slice(2, 4), slice(4, 6)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            LengthPartition([2, 0, 1])
        with pytest.raises(ValueError):
            LengthPartition([])

    def test_json_roundtrip(self):
        p = LengthPartition([3, 1, 2])
        assert LengthPartition.from_dict(p.to_dict()) == p

    def test_block_split(self, ref):
        blocks = ref.partition.blocks(ref.E)
        assert [b.shape for b in blocks] == [(3, 2)] * 3
        with pytest.raises(ValueError):
            LengthPartition([2, 2]).blocks(ref.E)


class TestWeights:
    def test_reference_weight(self, ref):
        assert sum_rank_weight(ref.tower, ref.E, ref.partition) == 3

    def test_zero(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        Z = Matrix.zeros(ref_tower.ext_field, 2, 6)
        assert sum_rank_weight(ref_tower, Z, part) == 0

    def test_hamming_reduction(self, ref_tower):
        rng = np.random.default_rng(0)
        part = LengthPartition.hamming(6)
        for _ in range(30):
            M = Matrix.random(ref_tower.ext_field, 2, 6, rng)
            nonzero_cols = int(np.count_nonzero(np.any(M.array != 0, axis=0)))
            assert sum_rank_weight(ref_tower, M, part) == nonzero_cols
            assert len(hamming_support(M)) == nonzero_cols

    def test_rank_reduction(self, ref_tower):
        rng = np.random.default_rng(1)
        part = LengthPartition.full(5)
        for _ in range(30):
            M = Matrix.random(ref_tower.ext_field, 2, 5, rng)
            assert sum_rank_weight(ref_tower, M, part) == rank(ref_tower.ext_matrix(M))

    def test_weight_zero_iff_zero(self, ref_tower):
        rng = np.random.default_rng(2)
        part = LengthPartition([2, 3])
        for _ in range(30):
            M = Matrix.random(ref_tower.ext_field, 2, 5, rng)
            assert (sum_rank_weight(ref_tower, M, part) == 0) == M.is_zero

    def test_triangle_inequality(self, ref_tower):
        rng = np.random.default_rng(3)
        part = LengthPartition([2, 3, 1])
        for _ in range(50):
            X = Matrix.random(ref_tower.ext_field, 2, 6, rng)
            Y = Matrix.random(ref_tower.ext_field, 2, 6, rng)
            wx = sum_rank_weight(ref_tower, X, part)
            wy = sum_rank_weight(ref_tower, Y, part)
            assert sum_rank_weight(ref_tower, X + Y, part) <= wx + wy

    def test_base_scalar_invariance(self, ref_tower):
        rng = np.random.default_rng(4)
        part = LengthPartition([2, 2, 2])
        for _ in range(30):
            M = Matrix.random(ref_tower.ext_field, 2, 6, rng)
            c = int(rng.integers(1, ref_tower.q))
            assert sum_rank_weight(ref_tower, M.scale(c), part) == sum_rank_weight(
                ref_tower, M, part
            )

    def test_upper_bound(self, ref_tower):
        rng = np.random.default_rng(5)
        part = LengthPartition([2, 3, 1])
        s = 2
        cap = sum(min(ni, ref_tower.m * s) for ni in part.parts)
        for _ in range(20):
            M = Matrix.random(ref_tower.ext_field, s, 6, rng)
            assert 0 <= sum_rank_weight(ref_tower, M, part) <= cap


class TestSupports:
    def test_reference_supports(self, ref):
        sup = [rank_support(ref.tower, blk) for blk in ref.partition.blocks(ref.E)]
        assert sup[0].tolist() == [[1, 2]]
        assert sup[1] == Matrix.identity(ref.tower.base_field, 2)
        assert sup[2].shape == (0, 2)

    def test_zero_block(self, ref_tower):
        blk = Matrix.zeros(ref_tower.ext_field, 3, 2)
        assert rank_support(ref_tower, blk).shape == (0, 2)

    def test_single_row_embedded(self, ref_tower):
        blk = Matrix(ref_tower.ext_field, [[1, 2]])
        assert rank_support(ref_tower, blk).tolist() == [[1, 2]]

    def test_product_support_equals_b(self, ref_tower):
        rng = np.random.default_rng(6)
        t = ref_tower
        for _ in range(20):
            B = Matrix.random(t.base_field, 2, 4, rng)
            while rank(B) < 2:
                B = Matrix.random(t.base_field, 2, 4, rng)
            A = Matrix.random(t.ext_field, 3, 2, rng)
            while rank(t.ext_matrix(A)) < 2:
                A = Matrix.random(t.ext_field, 3, 2, rng)
            E = A @ t.lift(B)
            assert rank_support(t, E) == row_space_basis(B)

    def test_hamming_support(self, ref_tower):
        f = ref_tower.ext_field
        assert hamming_support(Matrix.zeros(f, 2, 5)) == set()
        arr = np.zeros((2, 5), dtype=np.int64)
        arr[1, 4] = 3
        assert hamming_support(Matrix(f, arr)) == {4}


class TestSampleError:
    def test_zero_profile(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (0, 0, 0), s=3, seed=0)
        assert em.E.is_zero and em.A.shape == (3, 0) and em.B.shape == (0, 6)
        assert em.t == 0 and em.full_rank

    def test_reference_regime(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (1, 2, 0), s=3, seed=42)
        check_error_model(em)
        assert rank(em.E) == 3
        profile = [rank(ref_tower.ext_matrix(b)) for b in part.blocks(em.E)]
        assert profile == [1, 2, 0]

    def test_weight_matches_profile(self, ref_tower):
        part = LengthPartition([2, 3, 1])
        rng = np.random.default_rng(7)
        for _ in range(20):
            prof = random_profile(rng, ref_tower, part, 3, 3)
            em = sample_error(ref_tower, part, prof, s=3, rng=rng)
            assert sum_rank_weight(ref_tower, em.E, part) == sum(prof)

    def test_deterministic(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        a = sample_error(ref_tower, part, (1, 1, 1), s=3, seed=5)
        b = sample_error(ref_tower, part, (1, 1, 1), s=3, seed=5)
        assert a.E == b.E and a.A == b.A and a.B == b.B

    def test_full_rank_infeasible(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        with pytest.raises(Infeasible):
            sample_error(ref_tower, part, (2, 2, 0), s=3, seed=0)

    def test_block_weight_infeasible(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        with pytest.raises(Infeasible):
            sample_error(ref_tower, part, (3, 0, 0), s=3, seed=0)

    def test_profile_length_mismatch(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        with pytest.raises(Infeasible):
            sample_error(ref_tower, part, (1, 1), s=3, seed=0)

    def test_rank_deficient_when_s_below_t(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (1, 2, 1), s=3, require_full_rank=False, seed=9)
        check_error_model(em)
        assert em.t == 4 and rank(em.E) <= 3 and not em.full_rank

    def test_check_rejects_wrong_fields(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (1, 2, 0), s=3, seed=42)
        for bad in (replace(em, profile=(2, 1, 0)), replace(em, full_rank=False)):
            with pytest.raises(AssertionError):
                check_error_model(bad)

    def test_json_roundtrip(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (1, 2, 0), s=3, seed=11)
        from sumrankdec.sumrank import ErrorModel

        em2 = ErrorModel.from_dict(em.to_dict(), ref_tower, part)
        assert em2.E == em.E and em2.profile == em.profile


class TestDecompose:
    def test_reference_error(self, ref):
        A, B = decompose_error(ref.tower, ref.E, ref.partition)
        assert B.tolist() == [
            [1, 2, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ]
        assert A @ ref.tower.lift(B) == ref.E

    def test_zero(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        A, B = decompose_error(ref_tower, Matrix.zeros(ref_tower.ext_field, 3, 6), part)
        assert A.shape == (3, 0) and B.shape == (0, 6)

    def test_random_reconstruction(self, ref_tower):
        rng = np.random.default_rng(8)
        part = LengthPartition([2, 3, 1])
        for _ in range(20):
            E = Matrix.random(ref_tower.ext_field, 3, 6, rng)
            A, B = decompose_error(ref_tower, E, part)
            assert A @ ref_tower.lift(B) == E
            assert B.rows == sum_rank_weight(ref_tower, E, part)
            assert rank(B) == B.rows


class TestRandomProfile:
    def test_sums_and_caps(self, ref_tower):
        rng = np.random.default_rng(9)
        part = LengthPartition([2, 3, 1])
        for t in range(0, 6):
            prof = random_profile(rng, ref_tower, part, t, s=3)
            assert sum(prof) == t
            assert all(ti <= min(ni, ref_tower.m * 3) for ti, ni in zip(prof, part.parts))

    def test_infeasible_total(self, ref_tower):
        rng = np.random.default_rng(10)
        with pytest.raises(Infeasible):
            random_profile(rng, ref_tower, LengthPartition([1, 1]), 3, s=1)


def _with_basis(tower, basis):
    return FieldTower(tower.p, tower.e, tower.m, tower.ext_modulus,
                      base_modulus=tower.base_modulus, basis=basis)


# characteristic 2 and odd p, the two-level GF(4) <= GF(16), custom bases
BLOCK_TOWERS = [
    FieldTower.standard(2, 3),
    FieldTower.standard(5, 2),
    FieldTower.standard(3, 2),
    FieldTower.standard(2, 2, e=2),
    _with_basis(FieldTower(5, 1, 2, [2, 4, 1]), [15, 7]),
    _with_basis(FieldTower.standard(2, 2, e=2), [6, 9]),
]
# GF(p^2) for p = 2^31 - 1: no tables at either level, so tiny shapes only
LARGE_TOWER = FieldTower.standard(2**31 - 1, 2)
BLOCK_KINDS = ["zero", "random", "q-deficient", "qm-deficient"]


@st.composite
def block_stacks(draw):
    """(tower, partition, stack) with every block drawn as one of BLOCK_KINDS.

    A q-deficient block is A @ B with B over GF(q) of fewer rows than
    columns (a nonzero GF(q)-kernel); a qm-deficient one is A @ C over
    GF(q^m) of GF(q^m)-rank below n_i, whose GF(q)-kernel may still be {0}.
    """
    large = draw(st.booleans()) and draw(st.booleans())
    tower = LARGE_TOWER if large else draw(st.sampled_from(BLOCK_TOWERS))
    small = 2 if large else 4
    parts = draw(st.lists(st.integers(1, 3 if not large else 2), min_size=1, max_size=small))
    batch = draw(st.integers(1, 1 if large else 3))
    rows = draw(st.integers(1, small))  # rho = 1 included
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=batch * len(parts),
                          max_size=batch * len(parts)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F, Fq = tower.ext_field, tower.base_field
    members = []
    for b in range(batch):
        blocks = []
        for ni, kind in zip(parts, kinds[b * len(parts):]):
            t = int(rng.integers(0, ni))
            if kind == "zero":
                blocks.append(np.zeros((rows, ni), dtype=np.int64))
            elif kind == "random":
                blocks.append(F.random(rng, (rows, ni)))
            else:
                right = Fq.random(rng, (t, ni)) if kind == "q-deficient" else F.random(rng, (t, ni))
                blocks.append(F.matmul(F.random(rng, (rows, t)), right))
        members.append(np.hstack(blocks))
    return tower, LengthPartition(parts), np.stack(members)


def check_against_per_block_loop(tower, part, arr):
    """block_kernels and block_ranks of arr equal the per-block loop they replace."""
    K, lead = block_kernels(tower, arr, part)
    ranks = block_ranks(tower, arr, part)
    for b in range(arr.shape[0]):
        M = Matrix(tower.ext_field, arr[b])
        expanded = [tower.ext_matrix(blk) for blk in part.blocks(M)]
        for i, (ni, ext) in enumerate(zip(part.parts, expanded)):
            want = right_kernel(ext)
            assert K[b, i][lead[b, i], :ni].tolist() == want.tolist()
            assert not K[b, i][~lead[b, i]].any() and not K[b, i][:, ni:].any()
            # row o holds the basis vector whose leading entry is in column o
            assert np.flatnonzero(lead[b, i]).tolist() == [
                int(np.flatnonzero(v)[0]) for v in want.array
            ]
            assert ranks[b, i] == rank(ext) == ni - want.rows
        assert sum_rank_weight(tower, M, part) == sum(rank(ext) for ext in expanded)


class TestBlockKernels:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(block_stacks())
    def test_matches_per_block_kernels(self, case):
        check_against_per_block_loop(*case)

    def test_short_stack_skips_the_extension_stage(self, ref_tower, monkeypatch):
        # one row cannot give a block of 2 or 3 full GF(q^m)-rank, so only the
        # GF(q) elimination runs (the distance oracle's case)
        fields = []
        stack = sumrank.rref_stack
        monkeypatch.setattr(sumrank, "rref_stack", lambda F, a: fields.append(F) or stack(F, a))
        rng = np.random.default_rng(5)
        part = LengthPartition([2, 3, 2])
        arr = ref_tower.ext_field.random(rng, (4, 1, 7))
        arr[1] = 0
        arr[2] = ref_tower.base_field.random(rng, (1, 7))  # GF(q)-rank 1 per block
        arr[3, 0, :2] = [1, 3]  # a block whose GF(q)-rank 2 needs the expansion
        arr[3, 0, 5:] = [ref_tower.alpha, ref_tower.mul(ref_tower.alpha, 2)]
        check_against_per_block_loop(ref_tower, part, arr)
        assert fields and set(fields) == {ref_tower.base_field}

    def test_zero_row_matrix(self, ref_tower):
        part = LengthPartition([2, 1])
        K, lead = block_kernels(ref_tower, np.zeros((1, 0, 3), dtype=np.int64), part)
        assert lead.tolist() == [[[True, True], [True, False]]]
        assert K[0, 0].tolist() == [[1, 0], [0, 1]] and K[0, 1].tolist() == [[1, 0], [0, 0]]
        assert block_ranks(ref_tower, np.zeros((1, 0, 3), dtype=np.int64), part).tolist() == [[0, 0]]
