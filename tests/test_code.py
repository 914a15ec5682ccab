"""Parity-check codes, syndromes, generators and the distance oracle."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eliminations, panel_reductions
from sumrankdec.code import (
    BudgetExceeded,
    InterleavedCode,
    LinearCode,
    min_sum_rank_distance,
    random_code,
    random_instance,
    syndrome,
)
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import Matrix, rank, right_kernel, row_spaces_equal
from sumrankdec.sumrank import LengthPartition, SamplingFailure, random_profile, sample_error


class TestSyndrome:
    def test_reference_syndrome(self, ref):
        assert syndrome(ref.code.H, ref.Y) == ref.S

    def test_codewords_annihilated(self, ref):
        assert syndrome(ref.code.H, ref.C).is_zero

    def test_error_only_equals_received(self, ref):
        assert syndrome(ref.code.H, ref.E) == syndrome(ref.code.H, ref.Y)

    def test_linearity(self, ref):
        rng = np.random.default_rng(0)
        f = ref.tower.ext_field
        Y1 = Matrix.random(f, 3, 6, rng)
        Y2 = Matrix.random(f, 3, 6, rng)
        assert syndrome(ref.code.H, Y1 + Y2) == syndrome(ref.code.H, Y1) + syndrome(ref.code.H, Y2)

    def test_dimension_mismatch(self, ref):
        with pytest.raises(ValueError):
            syndrome(ref.code.H, Matrix.zeros(ref.tower.ext_field, 3, 5))

    @pytest.mark.parametrize("p, m", [(5, 2), (3, 1), (2, 3)])
    @pytest.mark.parametrize("s", [2, 9])  # s = 9 > n - k: H is the right operand
    def test_kept_digits(self, p, m, s):
        tower = FieldTower.standard(p, m)
        code = random_code(tower, LengthPartition((2,) * 6), 4, rng=np.random.default_rng(s))
        f = tower.ext_field
        if p == 2:
            assert code.H_digits is None
        else:
            assert np.array_equal(code.H_digits, f.digit_form(code.H.array))
        Y = Matrix.random(f, s, code.n, np.random.default_rng(p))
        assert syndrome(code.H, Y, code.H_digits) == syndrome(code.H, Y) == code.H @ Y.T
        with pytest.raises(ValueError):
            syndrome(code.H, Matrix.zeros(f, s, code.n - 1), code.H_digits)


class TestEncode:
    def test_zero_message(self, ref):
        M = Matrix.zeros(ref.tower.ext_field, 3, 2)
        assert ref.icode.encode(M).is_zero

    def test_rows_are_codewords(self, ref):
        rng = np.random.default_rng(1)
        M = Matrix.random(ref.tower.ext_field, 4, 2, rng)
        C = InterleavedCode(ref.code, 4).encode(M)
        assert syndrome(ref.code.H, C).is_zero

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
    def test_message_shape_checked(self, ref, shape):
        with pytest.raises(ValueError):
            ref.icode.encode(Matrix.zeros(ref.tower.ext_field, *shape))


class TestGeneratorFromParity:
    def test_systematic_duality(self, ref_tower):
        f = ref_tower.ext_field
        rng = np.random.default_rng(2)
        P = Matrix.random(f, 2, 2, rng)
        H = Matrix(f, np.hstack([np.eye(2, dtype=np.int64), P.array]))
        G = LinearCode(ref_tower, LengthPartition([2, 2]), H).generator
        expected = Matrix(f, np.hstack([(-P.T).array, np.eye(2, dtype=np.int64)]))
        assert row_spaces_equal(G, expected)
        assert (G @ H.T).is_zero

    def test_reference_generator_row_space(self, ref):
        G = ref.code.generator
        assert row_spaces_equal(G, ref.G)
        assert rank(G) == 2

    def test_rank(self, ref_tower):
        rng = np.random.default_rng(3)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng)
        assert rank(code.generator) == 2
        assert (code.generator @ code.H.T).is_zero


class TestLinearCodeValidation:
    def test_rank_deficient_parity_rejected(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        H = Matrix.zeros(ref_tower.ext_field, 2, 6)
        with pytest.raises(ValueError, match="full row rank"):
            LinearCode(ref_tower, part, H)

    @pytest.mark.parametrize("rows,n", [(4, 6), (40, 160)], ids=["stepping", "panels"])
    def test_dependent_rows_rejected(self, rows, n):
        # one row a combination of the others; at 40 x 160 over GF(5^2) the
        # one elimination of H takes the panel route
        tower = FieldTower.standard(5, 2)
        f = tower.ext_field
        rng = np.random.default_rng(21)
        H = f.random(rng, (rows, n))
        H[-1] = f.matmul(f.random(rng, (1, rows - 1)), H[:-1])[0]
        with panel_reductions() as shapes, pytest.raises(ValueError, match="full row rank"):
            LinearCode(tower, LengthPartition((2,) * (n // 2)), Matrix(f, H))
        assert shapes == ([(rows, n)] if rows == 40 else [])

    def test_wrong_generator_rejected(self, ref):
        rng = np.random.default_rng(4)
        bad = Matrix.random(ref.tower.ext_field, 2, 6, rng)
        while (bad @ ref.code.H.T).is_zero:
            bad = Matrix.random(ref.tower.ext_field, 2, 6, rng)
        with pytest.raises(ValueError):
            LinearCode(ref.tower, ref.partition, ref.code.H, G=bad)

    def test_json_roundtrip(self, ref):
        d = ref.code.to_dict()
        code = LinearCode.from_dict(d)
        assert code.H == ref.code.H and code.k == 2 and code.d == 5

    def test_json_dimension_mismatch(self, ref):
        d = ref.code.to_dict()
        d["k"] = 3
        with pytest.raises(ValueError, match="dimension"):
            LinearCode.from_dict(d)

    def test_interleaved(self, ref):
        ic = InterleavedCode(ref.code, 3)
        assert ic.contains(ref.C)
        assert not ic.contains(ref.Y)
        # a matrix of the right shape over another field is no codeword stack
        assert not ic.contains(Matrix.zeros(ref.tower.base_field, 3, ref.code.n))
        with pytest.raises(ValueError):
            InterleavedCode(ref.code, 0)


class TestMinDistance:
    def test_reference_code(self, ref):
        assert min_sum_rank_distance(ref.code) == 5

    def test_repetition_code_hamming(self, ref_tower):
        # H = (I | -1 column) forces all coordinates equal: d = n
        n = 4
        f = ref_tower.ext_field
        arr = np.hstack(
            [np.eye(n - 1, dtype=np.int64), np.full((n - 1, 1), f.neg(1), dtype=np.int64)]
        )
        code = LinearCode(ref_tower, LengthPartition.hamming(n), Matrix(f, arr))
        assert min_sum_rank_distance(code) == n

    def test_budget(self, ref):
        with pytest.raises(BudgetExceeded):
            min_sum_rank_distance(ref.code, budget=100)

    def test_k_zero_guard(self, ref_tower):
        part = LengthPartition([2])
        H = Matrix.identity(ref_tower.ext_field, 2)
        code = LinearCode(ref_tower, part, H)
        with pytest.raises(ValueError):
            min_sum_rank_distance(code)

    def test_singleton_bound_hamming_partition(self):
        from sumrankdec.gf import FieldTower

        tower = FieldTower.standard(2, 3)
        part = LengthPartition.hamming(5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            code = random_code(tower, part, 2, rng=rng)
            assert min_sum_rank_distance(code) <= code.n - code.k + 1

    def test_matches_exhaustive_pairwise(self, ref_tower):
        # distance equals min over distinct pairs, which for linear codes is
        # the min weight; cross-check on a tiny code with direct enumeration
        rng = np.random.default_rng(5)
        part = LengthPartition([2, 2])
        code = random_code(ref_tower, part, 1, rng=rng)
        from sumrankdec.sumrank import sum_rank_weight

        G = code.generator
        weights = []
        for c0 in range(1, ref_tower.order):
            msg = Matrix(ref_tower.ext_field, [[c0]])
            weights.append(sum_rank_weight(ref_tower, msg @ G, part))
        assert min_sum_rank_distance(code) == min(weights)


    @pytest.mark.parametrize(
        "tower,parts,k,seed",
        [
            (FieldTower.standard(3, 2), (2, 1, 2), 3, 1),  # 728 codewords, d = 2: two chunks
            (FieldTower.standard(2, 3), (1, 3, 2), 3, 1),  # characteristic 2
            (FieldTower.standard(2, 2, e=2), (2, 2), 2, 2),  # GF(4) <= GF(16)
        ],
    )
    def test_matches_per_codeword_loop(self, tower, parts, k, seed):
        part = LengthPartition(parts)
        code = random_code(tower, part, k, seed=seed)
        F = tower.ext_field
        weights = []
        for msg in itertools.product(range(tower.order), repeat=k):
            if any(msg):
                cw = Matrix(F, F.matmul(np.array([msg]), code.generator.array))
                weights.append(sum(rank(tower.ext_matrix(blk)) for blk in part.blocks(cw)))
        assert min_sum_rank_distance(code) == min(weights)


# GF(2) has one codeword per line, so the oracle saves nothing there
MINDIST_TOWERS = [FieldTower.standard(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2))]


def distance_by_full_enumeration(code):
    """Minimum sum-rank weight over all Q^k - 1 nonzero codewords, each block
    weighed by the rank of its expansion over GF(q)."""
    tower, part, F = code.tower, code.partition, code.tower.ext_field
    ranks = {}  # block rank by the block's codes, so repeated blocks are ranked once
    best = code.n
    for msg in itertools.product(range(tower.order), repeat=code.k):
        if any(msg):
            cw = Matrix(F, F.matmul(np.array([msg]), code.generator.array))
            weight = 0
            for blk in part.blocks(cw):
                key = tuple(blk.array[0].tolist())
                if key not in ranks:
                    ranks[key] = rank(tower.ext_matrix(blk))
                weight += ranks[key]
            best = min(best, weight)
    return best


class TestMinDistanceProperty:
    """min_sum_rank_distance weighs one codeword per line; the reference here
    weighs every codeword and shares no code with block_ranks."""

    @pytest.mark.parametrize("tower", MINDIST_TOWERS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(data=st.data())
    def test_matches_full_enumeration(self, tower, data):
        Q = tower.order
        k = data.draw(st.integers(1, max(j for j in (1, 2, 3) if Q**j < 1000)))
        kind = data.draw(st.sampled_from(["hamming", "one block", "mixed"]))
        if kind == "mixed":
            parts = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5)
                              .filter(lambda p: sum(p) > k))
        else:
            n = data.draw(st.integers(k + 1, k + 4))
            parts = (1,) * n if kind == "hamming" else (n,)
        part = LengthPartition(parts)
        # a zero column of H puts a weight-1 codeword in the code
        zero_col = data.draw(st.none() | st.integers(0, part.n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        F = tower.ext_field
        while True:
            H = F.random(rng, (part.n - k, part.n))
            if zero_col is not None:
                H[:, zero_col] = 0
            try:
                code = LinearCode(tower, part, Matrix(F, H))
                break
            except ValueError:
                continue
        d = distance_by_full_enumeration(code)
        assert d == 1 or zero_col is None
        assert min_sum_rank_distance(code, budget=Q**k) == d
        with pytest.raises(BudgetExceeded):
            min_sum_rank_distance(code, budget=Q**k - 1)


class TestParityColumnIndependence:
    def test_any_d_minus_1_columns_independent(self, ref):
        # a minimum distance of d forces every d-1 columns of H independent
        d = 5
        H = ref.code.H
        for cols in itertools.combinations(range(6), d - 1):
            sub = Matrix(ref.tower.ext_field, H.array[:, list(cols)])
            assert rank(sub) == d - 1


class TestRandomCode:
    def test_full_rank_always(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        for seed in range(20):
            code = random_code(ref_tower, part, 2, seed=seed)
            assert rank(code.H) == 4 and code.k == 2

    def test_deterministic(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        assert random_code(ref_tower, part, 2, seed=9).H == random_code(ref_tower, part, 2, seed=9).H

    def test_distinct_seeds_distinct_codes(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        seen = {random_code(ref_tower, part, 2, seed=s).H for s in range(100)}
        assert len(seen) == 100

    def test_redraws_until_full_row_rank(self):
        # over GF(2) a 1 x 2 parity-check row is zero a quarter of the time;
        # the code is the first nonzero draw of the same stream
        tower = FieldTower.standard(2, 1)
        redrawn = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            H = Matrix.random(tower.ext_field, 1, 2, rng)
            while H.is_zero:
                redrawn += 1
                H = Matrix.random(tower.ext_field, 1, 2, rng)
            assert random_code(tower, LengthPartition([1, 1]), 1, seed=seed).H == H
        assert redrawn

    def test_set_up_eliminates_h_once(self, ref_tower):
        # the rank check and the generator come from one elimination; the
        # first draw has full rank
        part = LengthPartition([2, 2, 2])
        first = Matrix.random(ref_tower.ext_field, 4, 6, np.random.default_rng(3))
        assert rank(first) == 4
        with eliminations() as shapes:
            code = random_code(ref_tower, part, 2, seed=3)
            code.generator
        assert code.H == first and shapes == [(4, 6)]

    @pytest.mark.parametrize(
        "p,m,parts,k,digests",
        [
            (5, 2, (2, 2, 2), 2, ("354036e75fe1beaf", "6c2cf5d2a2aca6a8")),
            # H reversed is 128 x 256 over GF(5^2): the panel route
            (5, 2, (4,) * 64, 128, ("becce80f00dd2be6", "9ea56e670a3544da")),
            (2, 12, (1,) * 128, 64, ("1351eccf9151c60f", "fab2a0f81b3a8f56")),
        ],
        ids=["reference-tower", "sumrank-large", "hamming-wide"],
    )
    def test_draws_and_generator_pinned(self, p, m, parts, k, digests):
        # the H draws (and with them the RNG stream) and the canonical
        # generator, pinned as the stepping loop alone computes them
        tower = FieldTower.standard(p, m)
        with panel_reductions() as shapes:
            code = random_code(tower, LengthPartition(parts), k, seed=0)
        assert shapes == ([(128, 256)] if len(parts) == 64 else [])
        G = code.generator
        assert G == right_kernel(code.H)
        got = tuple(hashlib.sha256(M.array.tobytes()).hexdigest()[:16] for M in (code.H, G))
        assert got == digests

    def test_k_bounds(self, ref_tower):
        part = LengthPartition([2, 2, 2])
        with pytest.raises(ValueError):
            random_code(ref_tower, part, 0, seed=0)
        with pytest.raises(ValueError):
            random_code(ref_tower, part, 6, seed=0)

    def test_d_min_redraws_until_the_distance_is_reached(self, ref_tower):
        # the certified code is the first draw of the same stream whose
        # distance reaches d_min; seed 1 draws a code of distance 3 first
        part = LengthPartition([2, 2, 2])
        rng = np.random.default_rng(1)
        draws = [random_code(ref_tower, part, 2, rng=rng) for _ in range(2)]
        assert [min_sum_rank_distance(c) for c in draws] == [3, 4]
        code = random_code(ref_tower, part, 2, seed=1, d_min=4)
        assert code.H == draws[1].H and code.d == 4
        assert random_code(ref_tower, part, 2, seed=1).d is None

    def test_d_min_out_of_reach(self):
        # a binary code of length 3 and dimension 2 has distance at most 2
        tower = FieldTower.standard(2, 1)
        with pytest.raises(SamplingFailure, match="distance >= 3"):
            random_code(tower, LengthPartition([1, 1, 1]), 2, seed=0, d_min=3)

    def test_d_min_beyond_the_enumeration_budget(self, ref_tower):
        # 25^5 codewords exceed min_sum_rank_distance's budget of 10^6
        with pytest.raises(BudgetExceeded):
            random_code(ref_tower, LengthPartition([2] * 8), 5, seed=0, d_min=3)


class TestRandomInstance:
    @pytest.mark.parametrize("profile, full_rank", [(None, True), (None, False), ((1, 2, 0), True)])
    def test_draw_order(self, ref, profile, full_rank):
        # profile (unless given), then error, then messages, all from the one rng
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(5):
            C, em = random_instance(ref.icode, got_rng, t=3, profile=profile,
                                    require_full_rank=full_rank)
            want_profile = profile or random_profile(want_rng, ref.tower, ref.partition, 3, 3)
            want = sample_error(ref.tower, ref.partition, want_profile, 3,
                                require_full_rank=full_rank, rng=want_rng)
            msg = Matrix.random(ref.tower.ext_field, 3, ref.code.k, want_rng)
            assert em.profile == want_profile and em.E == want.E and em.A == want.A
            assert C == ref.icode.encode(msg) and ref.icode.contains(C)
