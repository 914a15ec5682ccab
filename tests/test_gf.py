"""Field tower arithmetic, expansion maps and serialization."""

import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from sumrankdec import gf
from sumrankdec.gf import FieldTower, PrimeField, Scalar, default_modulus, is_irreducible
from sumrankdec.linalg import Matrix


def towers():
    return [
        FieldTower(5, 1, 2, [2, 4, 1]),
        FieldTower.standard(2, 3),
        FieldTower.standard(3, 2),
    ]


class TestReferenceTowerConstants:
    def test_alpha_powers(self, ref_tower):
        t = ref_tower
        assert t.alpha_power(6) == 2
        assert t.alpha_power(12) == 4
        assert t.alpha_power(18) == 3

    def test_alpha_is_primitive(self, ref_tower):
        assert ref_tower.multiplicative_order(ref_tower.alpha) == 24

    def test_ext_of_alpha16(self, ref_tower):
        assert ref_tower.ext(ref_tower.alpha_power(16)).tolist() == [3, 3]

    def test_ext_of_one(self, ref_tower):
        assert ref_tower.ext(1).tolist() == [1, 0]

    def test_ext_of_zero(self, ref_tower):
        assert ref_tower.ext(0).tolist() == [0, 0]


class TestScalarOps:
    def test_alpha_doubling(self, ref_tower):
        a = ref_tower.alpha
        assert ref_tower.add(a, a) == ref_tower.mul(2, a)

    def test_additive_identity(self, ref_tower):
        rng = np.random.default_rng(1)
        for x in rng.integers(0, 25, size=20):
            assert ref_tower.add(0, int(x)) == int(x)

    def test_embedded_prime_arithmetic(self, ref_tower):
        assert ref_tower.add(3, 4) == 2  # mod-5 reduction inside GF(25)

    def test_multiplicative_identity(self, ref_tower):
        rng = np.random.default_rng(2)
        for x in rng.integers(0, 25, size=20):
            assert ref_tower.mul(1, int(x)) == int(x)

    def test_alpha_squared_reduction(self, ref_tower):
        # x^2 = x + 3 modulo x^2 + 4x + 2 over GF(5)
        assert ref_tower.mul(ref_tower.alpha, ref_tower.alpha) == 3 + 5 * 1

    def test_inverse_small(self, ref_tower):
        assert ref_tower.inv(1) == 1
        assert ref_tower.inv(2) == 3

    def test_inverse_roundtrip(self, ref_tower):
        rng = np.random.default_rng(3)
        for x in rng.integers(1, 25, size=50):
            assert ref_tower.mul(int(x), ref_tower.inv(int(x))) == 1

    def test_zero_inverse_raises(self, ref_tower):
        with pytest.raises(ZeroDivisionError):
            ref_tower.inv(0)

    def test_scalar_wrapper_ops(self, ref_tower):
        a = ref_tower.scalar(ref_tower.alpha)
        assert int(a * a) == ref_tower.alpha_power(2)
        assert int(a - a) == 0
        assert int(a**6) == 2
        assert int(a.inverse() * a) == 1
        assert int(a / a) == 1
        assert int(-a + a) == 0

    def test_scalar_tower_mismatch(self, ref_tower):
        other = FieldTower.standard(2, 3)
        with pytest.raises(ValueError):
            ref_tower.scalar(1) + other.scalar(1)

    def test_scalar_out_of_range(self, ref_tower):
        with pytest.raises(ValueError):
            Scalar(ref_tower, 25)


@pytest.mark.parametrize("tower", towers(), ids=lambda t: repr(t))
class TestFieldAxioms:
    def test_axioms_randomized(self, tower):
        rng = np.random.default_rng(12345)
        order = tower.order
        n = 1000
        a = rng.integers(0, order, size=n)
        b = rng.integers(0, order, size=n)
        c = rng.integers(0, order, size=n)
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()):
            assert tower.add(x, y) == tower.add(y, x)
            assert tower.mul(x, y) == tower.mul(y, x)
            assert tower.add(tower.add(x, y), z) == tower.add(x, tower.add(y, z))
            assert tower.mul(tower.mul(x, y), z) == tower.mul(x, tower.mul(y, z))
            assert tower.mul(x, tower.add(y, z)) == tower.add(tower.mul(x, y), tower.mul(x, z))
            assert tower.add(x, tower.neg(x)) == 0
            if x:
                assert tower.mul(x, tower.inv(x)) == 1

    def test_ext_linearity(self, tower):
        rng = np.random.default_rng(99)
        base = tower.base_field
        for _ in range(200):
            x = int(rng.integers(0, tower.order))
            y = int(rng.integers(0, tower.order))
            c = int(rng.integers(0, tower.q))
            lhs = tower.ext(tower.add(x, y))
            rhs = base.add(tower.ext(x), tower.ext(y))
            assert np.array_equal(lhs, rhs)
            # GF(q) scalars embed as constant polynomials, codes unchanged
            lhs2 = tower.ext(tower.mul(c, x))
            rhs2 = base.mul(c, tower.ext(x))
            assert np.array_equal(lhs2, rhs2)

    def test_defining_identity(self, tower):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = int(rng.integers(0, tower.order))
            coords = tower.ext(x)
            acc = 0
            for bj, cj in zip(tower.basis, coords.tolist()):
                acc = tower.add(acc, tower.mul(bj, cj))
            assert acc == x

    def test_unext_roundtrip(self, tower):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = int(rng.integers(0, tower.order))
            assert tower.unext(tower.ext(x)) == x


class TestExtMatrix:
    def test_reference_block_one(self, ref):
        # 1 x 2 matrix (1, alpha^6) expands to [[1, 2], [0, 0]]
        t = ref.tower
        M = Matrix(t.ext_field, [[1, t.alpha_power(6)]])
        assert t.ext_matrix(M).tolist() == [[1, 2], [0, 0]]

    def test_reference_block_three(self, ref):
        t = ref.tower
        M = Matrix(t.ext_field, [[t.alpha_power(18), t.alpha_power(16)]])
        assert t.ext_matrix(M).tolist() == [[3, 3], [0, 3]]

    def test_zero_matrix(self, ref_tower):
        M = Matrix.zeros(ref_tower.ext_field, 3, 2)
        out = ref_tower.ext_matrix(M)
        assert out.shape == (6, 2) and out.is_zero

    def test_stacking_layout(self, ref_tower):
        t = ref_tower
        rng = np.random.default_rng(5)
        M = Matrix.random(t.ext_field, 3, 4, rng)
        X = t.ext_matrix(M)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(X.array[t.m * i : t.m * (i + 1), j], t.ext(M[i, j]))


class TestConstructionValidation:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            FieldTower(5, 1, 2, [1, 0, 1])  # x^2 + 1 = (x+2)(x+3) over GF(5)

    def test_nonmonic_modulus_rejected(self):
        with pytest.raises(ValueError):
            FieldTower(5, 1, 2, [2, 4, 2])

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldTower(6, 1, 2, [1, 1, 1])

    def test_dependent_basis_rejected(self, ref_tower):
        with pytest.raises(ValueError, match="dependent"):
            FieldTower(5, 1, 2, [2, 4, 1], basis=[1, 2])  # both in GF(5)

    def test_custom_basis_expansion(self, ref_tower):
        t = FieldTower(5, 1, 2, [2, 4, 1], basis=[ref_tower.alpha_power(3), ref_tower.alpha_power(10)])
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = int(rng.integers(0, 25))
            coords = t.ext(x)
            acc = 0
            for bj, cj in zip(t.basis, coords.tolist()):
                acc = t.add(acc, t.mul(bj, cj))
            assert acc == x
            assert t.unext(coords) == x

    def test_unext_wrong_length(self, ref_tower):
        with pytest.raises(ValueError):
            ref_tower.unext(np.array([1, 2, 3]))

    def test_default_modulus_is_irreducible(self):
        for p, deg in [(2, 4), (3, 3), (5, 2)]:
            K = PrimeField(p)
            assert is_irreducible(K, default_modulus(K, deg))


class TestLargePrime:
    # (p-1)^2 is just under 2^62, so an int64 sum holds only two products
    P = 2**31 - 1

    def test_matmul_sums_in_chunks(self):
        f = PrimeField(self.P)
        a = np.full((1, 4), f.p - 1, dtype=np.int64)
        b = np.full((4, 1), f.p - 1, dtype=np.int64)
        assert f.matmul(a, b).tolist() == [[4]]

    def test_matmul_matches_scalar_oracle(self):
        f = PrimeField(self.P)
        rng = np.random.default_rng(12)
        a, b = f.random(rng, (3, 7)), f.random(rng, (7, 2))
        expect = [
            [reduce(f._add_i, (f._mul_i(int(x), int(y)) for x, y in zip(row, col))) for col in b.T]
            for row in a
        ]
        assert f.matmul(a, b).tolist() == expect

    def test_matmul_under_optimize_flag(self):
        code = (
            "import numpy as np; from sumrankdec.gf import PrimeField; "
            f"f = PrimeField({self.P}); x = np.full((1, 4), f.p - 1); "
            "print(f.matmul(x, x.T).tolist())"
        )
        src = str(Path(gf.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[[4]]"

    def test_oversized_prime_rejected(self):
        # (p-1)^2 overflows int64, so even element-wise mul would be wrong
        with pytest.raises(ValueError, match="overflows int64"):
            PrimeField(2**61 - 1)


class TestTwoLevelTower:
    # the supported e > 1 path gets one smoke test; everything shipped
    # elsewhere runs with e = 1
    def test_gf4_squared(self):
        t = FieldTower.standard(2, 2, e=2)
        assert t.q == 4 and t.order == 16
        rng = np.random.default_rng(21)
        for _ in range(300):
            x = int(rng.integers(0, 16))
            y = int(rng.integers(0, 16))
            assert tuple(t.ext(t.add(x, y))) == tuple(t.base_field.add(t.ext(x), t.ext(y)))
            if x:
                assert t.mul(x, t.inv(x)) == 1
            assert t.unext(t.ext(x)) == x


class TestSerialization:
    def test_tower_roundtrip(self, ref_tower):
        d = ref_tower.to_dict()
        assert d == {"p": 5, "e": 1, "m": 2, "ext_modulus": [2, 4, 1]}
        assert FieldTower.from_dict(d) == ref_tower

    def test_tower_roundtrip_with_basis(self, ref_tower):
        t = FieldTower(5, 1, 2, [2, 4, 1], basis=[ref_tower.alpha_power(3), 2])
        assert FieldTower.from_dict(t.to_dict()) == t

    def test_integer_encoding_is_basis_coordinates(self, ref_tower):
        # code = sum_j c_j q^j where (c_j) = ext coordinates, default basis
        t = ref_tower
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = int(rng.integers(0, 25))
            coords = t.ext(x).tolist()
            assert x == coords[0] + 5 * coords[1]
