"""Weights, supports, error sampling and decomposition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reduced_stacks, stacked_eliminations
from sumrankdec import sumrank
from sumrankdec.code import random_code
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import (Matrix, block_diag, hstack, matrix_to_dict, rank, right_kernel,
                               row_space_basis, rref, vstack)
from sumrankdec.sumrank import (
    Infeasible,
    LengthPartition,
    block_ranks,
    block_supports,
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

    @pytest.mark.parametrize("parts", [[2.7, True], [2.0, 2], [True], [2, np.float64(3)]], ids=repr)
    def test_non_integer_lengths(self, parts):
        with pytest.raises(ValueError, match="must be an integer"):
            LengthPartition(parts)

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
            cM = Matrix(M.field, M.field.mul(c, M.array))
            assert sum_rank_weight(ref_tower, cM, part) == sum_rank_weight(ref_tower, M, part)

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

    @pytest.mark.parametrize("profile", [(1, 1, 1), (0, 0, 0)])
    def test_numpy_integer_seed_is_recorded(self, ref_tower, profile):
        part = LengthPartition([2, 2, 2])
        a = sample_error(ref_tower, part, profile, s=3, seed=np.int64(3))
        b = sample_error(ref_tower, part, profile, s=3, seed=3)
        assert a.E == b.E and type(a.seed) is int and a.seed == 3
        assert a.to_dict()["seed"] == 3
        # a seed sequence or a bool records no seed
        assert sample_error(ref_tower, part, profile, s=3, seed=np.random.SeedSequence(3)).seed is None
        assert sample_error(ref_tower, part, profile, s=3, seed=True).seed is None

    @pytest.mark.parametrize("tower, parts, profile, s, full", [
        (FieldTower.standard(5, 2), (2, 2, 2, 2), (1, 0, 2, 1), 4, True),
        (FieldTower.standard(2, 3), (3, 1, 2), (2, 1, 0), 2, False),
        (FieldTower.standard(2, 12), (1,) * 8, (0, 1, 0, 0, 1, 1, 0, 0), 3, True),
        (FieldTower.standard(2, 2, e=2), (2, 3), (2, 1), 3, True),
        (FieldTower.standard(2, 1), (3, 2), (1, 1), 2, True),
    ], ids=["gf25", "gf8-deficient", "hamming", "two-level", "m1"])
    def test_same_draws_as_block_diag(self, tower, parts, profile, s, full):
        # the construction B = block_diag(per-block matrices) and a per-block
        # rank loop on A: writing B in place must draw the same instances
        part, a_parts = LengthPartition(parts), LengthPartition([ti for ti in profile if ti])
        Fq = tower.base_field
        for seed in range(4):
            rng = np.random.default_rng(seed)
            while True:
                B = block_diag([
                    sumrank._random_full_rank(Fq, ti, ni, rng) if ti else Matrix.zeros(Fq, 0, ni)
                    for ti, ni in zip(profile, parts)
                ])
                A = Matrix.random(tower.ext_field, s, sum(profile), rng)
                ranks = [rank(tower.ext_matrix(blk)) for blk in a_parts.blocks(A)]
                if ranks == list(a_parts.parts) and (rank(A) == sum(profile) or not full):
                    break
            em = sample_error(tower, part, profile, s, require_full_rank=full, seed=seed)
            assert em.B == B and em.A == A and em.E == A @ tower.lift(B)

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

    @pytest.mark.parametrize("profile", [(1.9, 0, 0), (1.7, True, 0), (1, True, 0), (1.0, 0, 0)],
                             ids=["fraction", "fraction-and-bool", "bool", "float"])
    def test_non_integer_weights_rejected(self, ref_tower, profile):
        # int() drew a weight-1 error for 1.9 and read True as 1
        part = LengthPartition([2, 2, 2])
        with pytest.raises(ValueError, match="integer"):
            sumrank.check_profile(ref_tower, part, profile, 3, True)
        with pytest.raises(ValueError, match="integer"):
            sample_error(ref_tower, part, profile, 3, seed=0)

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

    @pytest.mark.parametrize(
        "key,value",
        [
            ("profile", [1.0, True, 0]),
            ("profile", [1, 1.5, 0]),
            ("full_rank", "no"),
            ("full_rank", 1),
            ("seed", 2.5),
            ("seed", True),
            ("profile", [2, 0, 0]),  # B has one row in each of the first two blocks
            ("profile", [1, 1, 0, 0]),
        ],
    )
    def test_from_dict_rejects_malformed_fields(self, ref_tower, key, value):
        from sumrankdec.sumrank import ErrorModel

        part = LengthPartition([2, 2, 2])
        d = sample_error(ref_tower, part, (1, 1, 0), s=3, seed=11).to_dict()
        assert ErrorModel.from_dict(d, ref_tower, part).profile == (1, 1, 0)
        with pytest.raises(ValueError):
            ErrorModel.from_dict({**d, key: value}, ref_tower, part)


    @pytest.mark.parametrize("edit", ["E_doubled", "A_extra_column", "E_extra_row"])
    def test_from_dict_rejects_inconsistent_factors(self, ref_tower, edit):
        # E must be A @ lift(B), with A of shape s x t and E of shape s x n
        from sumrankdec.sumrank import ErrorModel

        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (1, 1, 0), s=3, seed=11)
        f = ref_tower.ext_field
        E, A = em.E, em.A
        if edit == "E_doubled":
            E = E + E
        elif edit == "A_extra_column":
            A = hstack([A, Matrix.zeros(f, A.rows, 1)])
        else:
            E = vstack([E, Matrix.zeros(f, 1, E.cols)])
        d = {**em.to_dict(), "E": matrix_to_dict(E, ref_tower), "A": matrix_to_dict(A, ref_tower)}
        with pytest.raises(ValueError):
            ErrorModel.from_dict(d, ref_tower, part)

    @pytest.mark.parametrize("case", ["full_rank_false", "full_rank_true", "repeated_row",
                                      "row_in_two_blocks"])
    def test_from_dict_rejects_contradicting_weights(self, ref_tower, case):
        # the flag must be rank(A) == t, and B's rows in a block must be
        # independent and nonzero in that block only, so that E has the
        # profile's block weights
        from sumrankdec.sumrank import ErrorModel

        f, part = ref_tower.ext_field, LengthPartition([2, 2, 2])
        a = Matrix(f, [[1, 7], [3, 1], [0, 24]])  # rank 2
        if case == "full_rank_false":
            em = sample_error(ref_tower, part, (1, 1, 0), s=3, seed=11)
            assert em.full_rank
            A, B, profile, flag = em.A, em.B.tolist(), (1, 1, 0), False
        elif case == "full_rank_true":
            # two equal columns: rank(A) = 1 < t = 2, each block of weight 1
            A = Matrix(f, [[1, 1], [3, 3], [24, 24]])
            B, profile, flag = [[1, 2, 0, 0, 0, 0], [0, 0, 1, 3, 0, 0]], (1, 1, 0), True
            d = self._error_dict(ref_tower, A, B, profile, False)
            assert ErrorModel.from_dict(d, ref_tower, part).profile == profile
        elif case == "repeated_row":
            # one row twice in block 0: t = 2 but E has weight 1
            A, B, profile, flag = a, [[1, 2, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0]], (2, 0, 0), True
        else:
            # the first row is nonzero in blocks 0 and 1, yet E has weights (1, 1, 0)
            A, B, profile, flag = a, [[1, 2, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0]], (1, 1, 0), True
        with pytest.raises(ValueError):
            ErrorModel.from_dict(self._error_dict(ref_tower, A, B, profile, flag), ref_tower, part)

    @staticmethod
    def _error_dict(tower, A, B, profile, full_rank):
        B = Matrix(tower.base_field, B)
        return {"profile": list(profile), "full_rank": full_rank, "seed": None,
                "E": matrix_to_dict(A @ tower.lift(B), tower), "A": matrix_to_dict(A, tower),
                "B": matrix_to_dict(B, tower)}

    def test_json_roundtrip_weight_zero(self, ref_tower):
        # t = 0: A is s x 0 and B the 0 x n matrix, stored as []
        from sumrankdec.sumrank import ErrorModel

        part = LengthPartition([2, 2, 2])
        em = sample_error(ref_tower, part, (0, 0, 0), s=3, seed=11)
        assert em.to_dict()["B"]["data"] == []
        em2 = ErrorModel.from_dict(em.to_dict(), ref_tower, part)
        assert (em2.E, em2.A, em2.B) == (em.E, em.A, em.B)


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


# characteristic 2 and odd p, the two-level GF(4) <= GF(16), and GF(5^2)
# and GF(16) over GF(4) each with a second modulus (x^2 + x + (a + 1) over
# GF(4) = GF(2)[a], beside the default x^2 + x + a)
BLOCK_TOWERS = [
    FieldTower.standard(2, 3),
    FieldTower.standard(5, 2),
    FieldTower.standard(3, 2),
    FieldTower.standard(2, 2, e=2),
    FieldTower(5, 1, 2, [2, 4, 1]),
    FieldTower(2, 2, 2, [3, 1, 1], base_modulus=[1, 1, 1]),
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


class TestSamplerInvariants:
    """sample_error checks A only; E = A @ lift(B) must still meet the model."""

    @pytest.mark.parametrize("tower", [FieldTower.standard(2, 1)] + BLOCK_TOWERS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(
        parts=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        s=st.integers(1, 4),
        full=st.booleans(),
        data=st.data(),
    )
    def test_error_model(self, tower, parts, s, full, data):
        part = LengthPartition(parts)
        cap = sum(min(ni, tower.m * s) for ni in parts)
        t = data.draw(st.integers(0, min(cap, s) if full else cap))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        profile = random_profile(rng, tower, part, t, s)
        em = sample_error(tower, part, profile, s, require_full_rank=full, rng=rng)
        check_error_model(em)
        assert em.profile == profile and (em.full_rank or not full)


def check_against_per_block_loop(tower, part, arr):
    """block_supports of each matrix of arr, and block_ranks of the stack,
    equal the per-block loop they replace."""
    ranks = block_ranks(tower, arr, part)
    for b in range(arr.shape[0]):
        M = Matrix(tower.ext_field, arr[b])
        expanded = [tower.ext_matrix(blk) for blk in part.blocks(M)]
        want = [right_kernel(ext) for ext in expanded]
        B, dims, complete = block_supports(tower, arr[b : b + 1], part)
        assert B.tolist() == block_diag(want).tolist() and complete is None
        assert dims == tuple(k.rows for k in want)
        for i, (ni, ext) in enumerate(zip(part.parts, expanded)):
            assert ranks[b, i] == rank(ext) == ni - want[i].rows
        assert sum_rank_weight(tower, M, part) == sum(rank(ext) for ext in expanded)


def _distance_oracle_stack():
    """256 codewords of a GF(2^9) code with 8 blocks of 2 and k = 2, one row
    per member as min_sum_rank_distance stacks them: every member expands
    to 9 x 2 over GF(2), taller than 4w."""
    tower, part = FieldTower.standard(2, 9), LengthPartition([2] * 8)
    rng = np.random.default_rng(31)
    G = random_code(tower, part, 2, rng=rng).generator
    return tower, part, tower.ext_field.matmul(tower.ext_field.random(rng, (256, 2)), G.array)[:, None]


def _tall_error_stack():
    """A 512 x 256 error of weight 8 over GF(5^2) with blocks of 4, rank 1 in
    every eighth block: 8 tall members, all rank-deficient."""
    tower, part = FieldTower.standard(5, 2), LengthPartition([4] * 64)
    profile = [1 if i % 8 == 0 else 0 for i in range(64)]
    em = sample_error(tower, part, profile, 512, rng=np.random.default_rng(32))
    return tower, part, em.E.array[None]


class TestBlockKernels:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(block_stacks())
    @example(_distance_oracle_stack())
    @example(_tall_error_stack())
    def test_matches_per_block_kernels(self, case):
        check_against_per_block_loop(*case)

    def test_short_stack_skips_the_extension_stage(self, ref_tower):
        # one row cannot give a block of 2 or 3 full GF(q^m)-rank, so only the
        # GF(q) elimination runs (the distance oracle's case)
        rng = np.random.default_rng(5)
        part = LengthPartition([2, 3, 2])
        arr = ref_tower.ext_field.random(rng, (4, 1, 7))
        arr[1] = 0
        arr[2] = ref_tower.base_field.random(rng, (1, 7))  # GF(q)-rank 1 per block
        arr[3, 0, :2] = [1, 3]  # a block whose GF(q)-rank 2 needs the expansion
        arr[3, 0, 5:] = [ref_tower.alpha, ref_tower.ext_field.mul(ref_tower.alpha, 2)]
        with stacked_eliminations() as calls:
            block_ranks(ref_tower, arr, part)
        assert calls == [(ref_tower.base_field, arr.shape[0] * part.ell)]
        check_against_per_block_loop(ref_tower, part, arr)

    @pytest.mark.parametrize("kinds", [
        ("q", "random", "q", "q", "random", "q", "zero", "q"),
        ("q", "random", "qm", "q", "random", "qm", "zero", "q"),
        ("qm", "qm", "qm", "qm", "qm", "qm", "qm", "qm"),
    ], ids=["q-deficient", "mixed", "qm-deficient"])
    def test_only_irrational_members_are_expanded(self, ref_tower, kinds):
        # A @ C with A of full column rank has C's row space: its reduced rows
        # lie in GF(q) when C does ("q"), so only the "qm" members, whose
        # reduced rows leave GF(q), reach the GF(q) elimination
        rng = np.random.default_rng(3)
        F, Fq = ref_tower.ext_field, ref_tower.base_field
        part, rows = LengthPartition([2, 3, 2, 3]), 3
        members = []
        for kind, ni in zip(kinds, part.parts * 2):
            if kind == "zero":
                members.append(np.zeros((rows, ni), dtype=np.int64))
            elif kind == "random":
                members.append(F.random(rng, (rows, ni)))
            else:
                A = F.random(rng, (rows, ni - 1))
                assert rank(Matrix(F, A)) == ni - 1
                C = (Fq if kind == "q" else F).random(rng, (ni - 1, ni))
                while kind == "qm" and (rref(Matrix(F, C))[0].array < ref_tower.q).all():
                    C = F.random(rng, (ni - 1, ni))  # a row space not defined over GF(q)
                members.append(F.matmul(A, C))
        arr = np.stack([np.hstack(members[:4]), np.hstack(members[4:])])
        reduced = [rref(blk)[0] for b in range(2) for blk in part.blocks(Matrix(F, arr[b]))]
        # the draws are what they claim: only "random" members have full
        # rank, and exactly the "qm" ones have reduced rows outside GF(q)
        assert [rank(R) < R.cols for R in reduced] == [k != "random" for k in kinds]
        irrational = [k for k, R in zip(kinds, reduced) if (R.array >= ref_tower.q).any()]
        assert irrational == [k for k in kinds if k == "qm"]
        want = [(F, len(kinds) - kinds.count("zero"))]
        want += [(Fq, len(irrational))] if irrational else []
        with stacked_eliminations() as calls:
            block_ranks(ref_tower, arr, part)
        assert calls == want
        check_against_per_block_loop(ref_tower, part, arr)

    def test_degree_one_tower_never_expands(self):
        # over GF(q) = GF(q^m) every reduced row lies in GF(q)
        tower = FieldTower.standard(2, 1)
        part = LengthPartition([2, 3, 2])
        arr = tower.ext_field.random(np.random.default_rng(7), (6, 2, 7))
        nonzero = sum(blocks[b].any() for blocks in np.split(arr, [2, 5], axis=2) for b in range(6))
        with stacked_eliminations() as calls:
            block_ranks(tower, arr, part)
        assert calls == [(tower.ext_field, nonzero)]
        check_against_per_block_loop(tower, part, arr)

    def test_length_one_members_reach_no_elimination(self, ref_tower):
        # a nonzero column has GF(q)-rank 1 and kernel {0}; a zero one rank 0
        rng = np.random.default_rng(9)
        F = ref_tower.ext_field
        part = LengthPartition([1, 3, 1, 2])
        arr = F.random(rng, (3, 2, 7))
        arr[0, :, 0] = 0
        arr[1, :, 1:4] = 0
        with stacked_eliminations() as calls:
            block_ranks(ref_tower, arr, part)
        assert calls[0] == (F, 5)  # the nonzero members of length >= 2
        check_against_per_block_loop(ref_tower, part, arr)
        hamming = LengthPartition.hamming(7)
        with stacked_eliminations() as calls:
            for b in range(arr.shape[0]):
                block_supports(ref_tower, arr[b : b + 1], hamming)
            block_ranks(ref_tower, arr, hamming)
        assert calls == []
        check_against_per_block_loop(ref_tower, hamming, arr)

    @pytest.mark.parametrize("case", ["mixed", "all_zero", "zero_row", "short"])
    def test_zero_members(self, ref_tower, case):
        # a zero block has rank 0 and kernel GF(q)^{n_i} without elimination;
        # "short" has one row, the r < min(parts) branch of the distance oracle
        part = LengthPartition([2, 3, 2])
        rows = {"zero_row": 0, "short": 1}.get(case, 3)
        arr = ref_tower.ext_field.random(np.random.default_rng(11), (2, rows, 7))
        if case == "all_zero":
            arr[:] = 0
        else:
            arr[0, :, 2:5] = 0
            arr[1, :, :2] = 0
            arr[1, :, 5:] = 0
        nonzero = sum(int(blocks[b].any()) for blocks in np.split(arr, [2, 5], axis=2) for b in range(2))
        with reduced_stacks() as shapes:
            block_ranks(ref_tower, arr, part)
        if rows >= min(part.parts):
            # zero members skip both eliminations: the first sees exactly
            # the nonzero members, the second at most those
            assert max((shape[0] for shape in shapes), default=0) == nonzero
        else:
            # below the shortest block, one GF(q) elimination expands
            # every member as it is, zero or not
            assert [shape[0] for shape in shapes] == [arr.shape[0] * part.ell]
        check_against_per_block_loop(ref_tower, part, arr)

    def test_zero_row_matrix(self, ref_tower):
        part = LengthPartition([2, 1])
        B, dims, _ = block_supports(ref_tower, np.zeros((1, 0, 3), dtype=np.int64), part)
        assert dims == (2, 1) and B.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert block_ranks(ref_tower, np.zeros((1, 0, 3), dtype=np.int64), part).tolist() == [[0, 0]]


class _Rows:
    """A row source (see sumrank._reduce_blocks) over a formed array."""

    def __init__(self, a):
        self.a, self.rows = a, a.shape[0]

    def take(self, rows, cols):
        return self.a[rows][:, cols]


class TestBlockSupports:
    @pytest.mark.parametrize("below", ["none", "grows"])
    def test_unequal_blocks_on_the_slice_path(self, ref_tower, below):
        # blocks of 1, 2, 3 and 4 with r = 4w + 2 rows, read on the leading
        # slice of 2w = 8: the block of 1 is zero, the block of 2 zero on the
        # slice and, for "grows", random below it, and the blocks of 3 and 4
        # have GF(q) row spaces of dimension 2; the slice's kernel dimensions
        # 1 + 2 + 1 + 2 add up to t_hat = 6, so they are kept, and the
        # completion gives the exact ones, 1 + 0 + 1 + 2 for "grows"
        F, Fq = ref_tower.ext_field, ref_tower.base_field
        rng = np.random.default_rng(41)
        part, w, r = LengthPartition([1, 2, 3, 4]), 4, 18
        second = np.zeros((r, 2), dtype=np.int64)
        if below == "grows":
            second[2 * w:] = F.random(rng, (r - 2 * w, 2))
        M = np.hstack([np.zeros((r, 1), dtype=np.int64), second]
                      + [F.matmul(F.random(rng, (r, 2)), Fq.random(rng, (2, ni))) for ni in (3, 4)])

        def kernels(a):
            return [right_kernel(ref_tower.ext_matrix(blk)) for blk in part.blocks(Matrix(F, a))]

        *kept, complete = block_supports(ref_tower, _Rows(M), part, t_hat=6)
        assert complete is not None and kept[1] == (1, 2, 1, 2)
        exact = kernels(M)
        assert [k.rows for k in exact] == [1, 0 if below == "grows" else 2, 1, 2]
        for (B, dims), want in [(kept, kernels(M[: 2 * w])), (complete(), exact)]:
            assert B.tolist() == block_diag(want).tolist()
            assert dims == tuple(k.rows for k in want)
            rows = np.split(B, np.cumsum(dims)[:-1])
            for blk_rows, sl in zip(rows, part.slices):
                # nothing outside the block's own columns, padding included
                assert not np.delete(blk_rows, np.r_[sl], axis=1).any()
                # leading columns strictly increasing
                leads = [int(np.flatnonzero(v)[0]) for v in blk_rows]
                assert leads == sorted(set(leads))
        # without t_hat the kernels read are the exact ones
        B, dims, complete = block_supports(ref_tower, _Rows(M), part)
        assert B.tolist() == block_diag(exact).tolist() and complete is None

    def test_one_matrix_only(self, ref_tower):
        part = LengthPartition([2, 1])
        for shape in [(2, 3, 3), (0, 3, 3), (3, 3)]:
            with pytest.raises(ValueError):
                block_supports(ref_tower, np.zeros(shape, dtype=np.int64), part)
