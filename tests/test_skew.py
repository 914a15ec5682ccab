"""Skew-metric decoding through the diagonal isometry."""

import numpy as np
import pytest

from conftest import make_instance
from sumrankdec.code import InterleavedCode, min_sum_rank_distance, random_code
from sumrankdec.decoder import decode
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import Matrix, rank
from sumrankdec.skew import SkewIsometry, skew_decode, skew_weight
from sumrankdec.sumrank import LengthPartition, sum_rank_weight


class TestIsometry:
    def test_zero_diagonal_rejected(self, ref):
        with pytest.raises(ValueError, match="nonzero"):
            SkewIsometry(ref.tower, ref.partition, (1, 1, 0, 1, 1, 1))

    def test_wrong_length_rejected(self, ref):
        with pytest.raises(ValueError):
            SkewIsometry(ref.tower, ref.partition, (1, 1, 1))

    @pytest.mark.parametrize("entry", [1.5, 2.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_entry_rejected(self, ref, entry):
        # kept as given by the constructor, or truncated to 1 by from_dict
        diagonal = (entry, 2, 3, 4, 1, 2)
        with pytest.raises(ValueError, match="integer"):
            SkewIsometry(ref.tower, ref.partition, diagonal)
        with pytest.raises(ValueError, match="integer"):
            SkewIsometry.from_dict({"D_diag": list(diagonal)}, ref.tower, ref.partition)

    def test_numpy_entries_stored_as_int(self, ref):
        iso = SkewIsometry(ref.tower, ref.partition, np.arange(1, 7))
        assert iso.diagonal == (1, 2, 3, 4, 5, 6) and type(iso.diagonal[0]) is int

    def test_inverse(self, ref):
        rng = np.random.default_rng(0)
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        assert iso.apply_inv(iso.D) == Matrix.identity(ref.tower.ext_field, 6)

    def test_apply_matches_matmul(self, ref):
        rng = np.random.default_rng(1)
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        X = Matrix.random(ref.tower.ext_field, 3, 6, rng)
        assert iso.apply(X) == X @ iso.D
        assert iso.apply_inv(iso.apply(X)) == X

    @pytest.mark.parametrize("cols", [1, 5, 7])
    def test_wrong_width_rejected(self, ref, cols):
        # numpy would broadcast a single column across all n
        rng = np.random.default_rng(3)
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        X = Matrix.random(ref.tower.ext_field, 2, cols, rng)
        for op in (iso.apply, iso.apply_inv):
            with pytest.raises(ValueError, match="columns"):
                op(X)

    def test_json_roundtrip(self, ref):
        rng = np.random.default_rng(2)
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        assert SkewIsometry.from_dict(iso.to_dict(), ref.tower, ref.partition) == iso


class TestSkewWeight:
    def test_zero(self, ref):
        iso = SkewIsometry.identity(ref.tower, ref.partition)
        assert skew_weight(ref.tower, iso, Matrix.zeros(ref.tower.ext_field, 3, 6)) == 0

    def test_identity_isometry_reduces_to_sum_rank(self, ref):
        iso = SkewIsometry.identity(ref.tower, ref.partition)
        assert skew_weight(ref.tower, iso, ref.E) == sum_rank_weight(ref.tower, ref.E, ref.partition)

    def test_matches_direct_computation(self, ref):
        rng = np.random.default_rng(3)
        for _ in range(20):
            iso = SkewIsometry.random(ref.tower, ref.partition, rng)
            X = Matrix.random(ref.tower.ext_field, 2, 6, rng)
            assert skew_weight(ref.tower, iso, X) == sum_rank_weight(
                ref.tower, X @ iso.D, ref.partition
            )

    def test_rank_preserved_by_diagonal(self, ref):
        rng = np.random.default_rng(4)
        for _ in range(20):
            iso = SkewIsometry.random(ref.tower, ref.partition, rng)
            X = Matrix.random(ref.tower.ext_field, 3, 6, rng)
            assert rank(X @ iso.D) == rank(X)


class TestSkewCode:
    def test_identity_gives_same_parity(self, ref):
        iso = SkewIsometry.identity(ref.tower, ref.partition)
        assert ref.code.H @ iso.D == ref.code.H
        assert iso.apply(ref.Y) == ref.Y

    def test_transformed_codewords_annihilated(self, ref):
        rng = np.random.default_rng(5)
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        # skew-side codewords C @ D^-1 have parity-check matrix H @ D
        H_skew = ref.code.H @ iso.D
        for _ in range(10):
            M = Matrix.random(ref.tower.ext_field, 3, 2, rng)
            C = ref.icode.encode(M)
            assert (H_skew @ iso.apply_inv(C).T).is_zero

    def test_min_skew_distance_matches(self, ref_tower):
        # enumerate the skew-side codewords and minimise the skew weight
        rng = np.random.default_rng(6)
        part = LengthPartition([2, 2])
        code = random_code(ref_tower, part, 1, rng=rng, d_min=2)
        iso = SkewIsometry.random(ref_tower, part, rng)
        G = code.generator
        best = None
        for c0 in range(1, ref_tower.order):
            cw = Matrix(ref_tower.ext_field, [[c0]]) @ G
            w = skew_weight(ref_tower, iso, iso.apply_inv(cw))
            best = w if best is None else min(best, w)
        assert best == min_sum_rank_distance(code)


class TestSkewDecode:
    def test_identity_matches_plain_decode(self, ref):
        iso = SkewIsometry.identity(ref.tower, ref.partition)
        rep = skew_decode(ref.icode, iso, ref.Y)
        plain = decode(ref.icode, ref.Y)
        assert rep.C_hat == plain.C_hat and rep.E_hat == plain.E_hat

    def test_composition_law(self, ref):
        rng = np.random.default_rng(7)
        for _ in range(20):
            iso = SkewIsometry.random(ref.tower, ref.partition, rng)
            inst = make_instance(ref.code, s=3, rng=rng, t=3)
            Y_skew = iso.apply_inv(inst.Y)
            rep = skew_decode(ref.icode, iso, Y_skew)
            plain = decode(ref.icode, inst.Y)
            assert rep.C_hat == iso.apply_inv(plain.C_hat)
            assert rep.E_hat == iso.apply_inv(plain.E_hat)
            assert rep.t_hat == plain.t_hat
            assert rep.C_hat == iso.apply_inv(inst.C)

    def test_forward_constructed_skew_instance(self):
        tower = FieldTower.standard(2, 3)
        part = LengthPartition([2, 2, 1])
        rng = np.random.default_rng(8)
        code = random_code(tower, part, 2, rng=rng, d_min=4)
        icode = InterleavedCode(code, 2)
        for _ in range(10):
            iso = SkewIsometry.random(tower, part, rng)
            inst = make_instance(code, s=2, rng=rng, t=2)
            rep = skew_decode(icode, iso, iso.apply_inv(inst.Y))
            assert rep.C_hat == iso.apply_inv(inst.C)

    def test_failure_propagates(self, ref):
        from sumrankdec.decoder import DecodingFailure
        from sumrankdec.linalg import Inconsistent, NonUniqueSolution

        rng = np.random.default_rng(9)
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        # weight 4 exceeds d - 2 = 3 and s = 3, so rank(E) < t: typed failure
        inst = make_instance(ref.code, s=3, rng=rng, profile=(2, 1, 1), require_full_rank=False)
        with pytest.raises((DecodingFailure, NonUniqueSolution, Inconsistent)):
            skew_decode(ref.icode, iso, iso.apply_inv(inst.Y))

    def test_single_column_not_decoded(self, ref):
        # a 2 x 1 received matrix is not the 2 x 6 one that D would spread it to
        iso = SkewIsometry.random(ref.tower, ref.partition, np.random.default_rng(5))
        Y = Matrix.random(ref.tower.ext_field, 2, 1, np.random.default_rng(6))
        with pytest.raises(ValueError, match="columns"):
            skew_decode(InterleavedCode(ref.code, 2), iso, Y)

    def test_mismatched_partition_rejected(self, ref):
        iso = SkewIsometry.identity(ref.tower, LengthPartition([3, 3]))
        with pytest.raises(ValueError, match="partition"):
            skew_decode(ref.icode, iso, ref.Y)
