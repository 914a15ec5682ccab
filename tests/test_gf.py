"""Field tower arithmetic, expansion maps and serialization."""

import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumrankdec import gf
from sumrankdec.gf import ExtField, FieldTower, PrimeField, default_modulus, is_irreducible
from sumrankdec.linalg import Matrix, rank, right_kernel


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
        powers = {ref_tower.alpha_power(k) for k in range(24)}
        assert len(powers) == 24 and 0 not in powers

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

    @pytest.mark.parametrize("p", [P, 1000003])
    def test_inv_matches_scalar_oracle(self, p):
        f = PrimeField(p)
        x = np.array([1, 2, 3, p // 2, p - 2, p - 1], dtype=np.int64)
        assert f.inv(x).tolist() == [f._inv_i(int(v)) for v in x]
        assert f.inv(3) == f._inv_i(3) and type(f.inv(3)) is int

    def test_inverse_table_only_up_to_table_limit(self):
        big = PrimeField(self.P)
        big.inv(np.arange(1, 1000))
        assert big._inv_table is None
        small = PrimeField(1000003)  # just below TABLE_LIMIT
        small.inv(3)
        assert small._inv_table.shape == (small.p,)

    def test_rank_and_kernel_against_oracle(self):
        f = PrimeField(self.P)
        rng = np.random.default_rng(13)
        # rank 2: the third row is a combination of the first two
        rows = f.random(rng, (2, 5)).tolist()
        rows.append([(3 * x + (f.p - 5) * y) % f.p for x, y in zip(*rows)])
        R, pivots = _oracle_rref(rows, f.p)
        assert rank(Matrix(f, rows)) == len(pivots) == 2
        free = [j for j in range(5) if j not in pivots]
        basis = [[1 if j == fc else 0 for j in range(5)] for fc in free]
        for v, fc in zip(basis, free):
            for i, pc in enumerate(pivots):
                v[pc] = -R[i][fc] % f.p
        assert right_kernel(Matrix(f, rows)).tolist() == _oracle_rref(basis, f.p)[0]

    def test_oversized_prime_rejected(self):
        # (p-1)^2 overflows int64, so even element-wise mul would be wrong
        with pytest.raises(ValueError, match="overflows int64"):
            PrimeField(2**61 - 1)


def _oracle_rref(rows, p):
    """Reduced echelon form (zero rows dropped) and pivots, in Python ints."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        top = len(pivots)
        pr = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[top], rows[pr] = rows[pr], rows[top]
        inv = pow(rows[top][col], p - 2, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


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


def _oracle_matmul(f, a, b):
    return [
        [reduce(f._add_i, (f._mul_i(int(x), int(y)) for x, y in zip(row, col)), 0) for col in b.T]
        for row in a
    ]


def _above_table_limit(p, deg):
    K = PrimeField(p)
    return ExtField(K, default_modulus(K, deg))


# Characteristic 2 and odd p, two-level towers, odd fields on each side of
# the add/sub table bound q^2 <= TABLE_LIMIT (GF(31^2) inside, GF(37^2) and
# GF(257^2), whose digits are wider than 8 bits, outside) and one field of
# each kind above TABLE_LIMIT.
KERNEL_FIELDS = [
    FieldTower.standard(2, 3).ext_field,
    FieldTower.standard(2, 12).ext_field,
    FieldTower(5, 1, 2, [2, 4, 1]).ext_field,
    FieldTower.standard(3, 3).ext_field,
    FieldTower.standard(2, 2, e=2).ext_field,
    FieldTower.standard(3, 2, e=2).ext_field,
    FieldTower.standard(31, 2).ext_field,
    FieldTower.standard(37, 2).ext_field,
    FieldTower.standard(257, 2).ext_field,
    _above_table_limit(2, 21),
    _above_table_limit(3, 13),
]


def _with_basis(tower, basis):
    return FieldTower(tower.p, tower.e, tower.m, tower.ext_modulus,
                      base_modulus=tower.base_modulus, basis=basis)


# towers whose expansion maps go through base_field.matmul (custom bases),
# over GF(p) and over char-2 and odd extension subfields
CUSTOM_BASIS_TOWERS = [
    _with_basis(FieldTower(5, 1, 2, [2, 4, 1]), [15, 7]),
    _with_basis(FieldTower.standard(2, 2, e=2), [6, 9]),
    _with_basis(FieldTower.standard(3, 2, e=2), [11, 28]),
]


class TestVectorisedKernels:
    """add/sub/neg/mul/inv/matmul on arrays against the scalar _*_i oracles."""

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(shape=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(3, 0, 2), seed=0)
    @example(shape=(2, 3, 4), seed=1)
    @example(shape=(4, 3, 2), seed=2)
    def test_matches_scalar_oracles(self, field, shape, seed):
        rows, inner, cols = shape
        rng = np.random.default_rng(seed)
        a, c = field.random(rng, (rows, inner)), field.random(rng, (rows, inner))
        b = field.random(rng, (inner, cols))
        a[:, ::3] = 0  # zeros take their own path through the log table
        pairs = list(zip(a.ravel().tolist(), c.ravel().tolist()))
        assert field.add(a, c).ravel().tolist() == [field._add_i(x, y) for x, y in pairs]
        assert field.sub(a, c).ravel().tolist() == [field._add_i(x, field._neg_i(y)) for x, y in pairs]
        assert field.neg(c).ravel().tolist() == [field._neg_i(y) for _, y in pairs]
        assert field.mul(a, c).ravel().tolist() == [field._mul_i(x, y) for x, y in pairs]
        nonzero = c[c != 0]
        assert field.inv(nonzero).tolist() == [field._inv_i(y) for y in nonzero.tolist()]
        out = field.matmul(a, b)
        assert out.dtype == np.int64 and out.shape == (rows, cols)
        assert out.tolist() == _oracle_matmul(field, a, b)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    def test_scalars_stay_ints(self, field):
        x, y = field.order - 1, field.order // 2
        for got, want in [
            (field.add(x, y), field._add_i(x, y)),
            (field.sub(x, y), field._add_i(x, field._neg_i(y))),
            (field.neg(x), field._neg_i(x)),
            (field.mul(x, y), field._mul_i(x, y)),
            (field.mul(x, 0), 0),
        ]:
            assert type(got) is int and got == want

    @pytest.mark.parametrize("tower", CUSTOM_BASIS_TOWERS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_custom_basis_expansion(self, tower, seed):
        rng = np.random.default_rng(seed)
        arr = tower.ext_field.random(rng, (3, 2))
        coords = tower.ext_array(arr)
        F = tower.ext_field
        for i, j in np.ndindex(arr.shape):
            col = coords[i * tower.m : (i + 1) * tower.m, j].tolist()
            assert all(0 <= x < tower.q for x in col)
            acc = reduce(F._add_i, (F._mul_i(bj, x) for bj, x in zip(tower.basis, col)), 0)
            assert acc == arr[i, j]
            assert tower.unext(col) == arr[i, j]


class TestAddTables:
    def test_tables_only_up_to_table_limit(self):
        inside = FieldTower.standard(31, 2).ext_field  # 961^2 <= TABLE_LIMIT
        inside.add(1, 2)
        assert [t.shape for t in inside._sum_tables.values()] == [(961**2,)] * 2
        for field in [FieldTower.standard(37, 2).ext_field, FieldTower.standard(2, 3).ext_field]:
            field.add(1, 2)
            assert field._sum_tables is None  # 1369^2 > TABLE_LIMIT; XOR in char 2

    @pytest.mark.parametrize(
        "field",
        [FieldTower(5, 1, 2, [2, 4, 1]).ext_field, FieldTower.standard(3, 2, e=2).ext_field],
        ids=repr,
    )
    def test_every_pair(self, field):
        a, b = np.divmod(np.arange(field.order**2), field.order)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert field.add(a, b).tolist() == [field._add_i(x, y) for x, y in pairs]
        assert field.sub(a, b).tolist() == [field._add_i(x, field._neg_i(y)) for x, y in pairs]
        codes = np.arange(field.order)
        assert field.neg(codes).tolist() == [field._neg_i(x) for x in codes.tolist()]


class TestPrimeMatmulSwitch:
    # (p-1)^2 has 50 bits, so inner <= 8 takes float64 BLAS, inner >= 9 int64
    P = 33554393

    def test_threshold(self):
        assert 8 * (self.P - 1) ** 2 < 2**53 <= 9 * (self.P - 1) ** 2

    @pytest.mark.parametrize("inner", [0, 1, 7, 8, 9, 16])
    def test_large_odd_products(self, inner):
        # (p-2)^2 is odd and = 4 mod p: an odd sum past 2^53 is inexact in float64
        f = PrimeField(self.P)
        x = np.full((2, inner), f.p - 2, dtype=np.int64)
        assert f.matmul(x, x.T).tolist() == [[4 * inner] * 2] * 2

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(inner=st.integers(0, 16), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_oracle(self, inner, seed):
        f = PrimeField(self.P)
        rng = np.random.default_rng(seed)
        a, b = f.random(rng, (3, inner)), f.random(rng, (inner, 2))
        assert f.matmul(a, b).tolist() == _oracle_matmul(f, a, b)


class TestTables:
    @pytest.mark.parametrize(
        "tower, generator",
        [
            (FieldTower(5, 1, 2, [2, 4, 1]), 5),
            (FieldTower.standard(2, 3), 2),
            (FieldTower.standard(3, 2), 4),
            (FieldTower.standard(2, 2, e=2), 4),
            (FieldTower.standard(3, 2, e=2), 10),
            (FieldTower.standard(2, 12), 3),
        ],
        ids=repr,
    )
    def test_match_element_loop(self, tower, generator):
        # the generator search order and the exp table the per-element
        # loop v <- v * g builds
        F = tower.ext_field
        F.mul(1, 1)
        assert F.generator == generator
        n1 = F.order - 1
        expect, v = [], 1
        for _ in range(n1):
            expect.append(v)
            v = F._mul_i(v, generator)
        assert F._exp[:n1].tolist() == expect
        assert F._log[F._exp[:n1]].tolist() == list(range(n1))

    def test_gf2_16_by_doubling(self):
        F = FieldTower.standard(2, 16).ext_field
        F.mul(1, 1)
        n1, g = F.order - 1, F.generator
        exp = F._exp[:n1]
        assert np.array_equal(np.sort(exp), np.arange(1, F.order))
        assert np.array_equal(F._log[exp], np.arange(n1))
        for i in np.random.default_rng(16).integers(0, n1 - 1, size=200).tolist() + [0, n1 - 2]:
            assert exp[i + 1] == F._mul_i(int(exp[i]), g)
