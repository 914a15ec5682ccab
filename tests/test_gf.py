"""Field tower arithmetic, expansion maps and serialization."""

import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PROPERTY_TOWERS, STACK_FIELDS
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
        F, a = ref_tower.ext_field, ref_tower.alpha
        assert F.add(a, a) == F.mul(2, a)

    def test_additive_identity(self, ref_tower):
        rng = np.random.default_rng(1)
        for x in rng.integers(0, 25, size=20):
            assert ref_tower.ext_field.add(0, int(x)) == int(x)

    def test_embedded_prime_arithmetic(self, ref_tower):
        assert ref_tower.ext_field.add(3, 4) == 2  # mod-5 reduction inside GF(25)

    def test_multiplicative_identity(self, ref_tower):
        rng = np.random.default_rng(2)
        for x in rng.integers(0, 25, size=20):
            assert ref_tower.ext_field.mul(1, int(x)) == int(x)

    def test_alpha_squared_reduction(self, ref_tower):
        # x^2 = x + 3 modulo x^2 + 4x + 2 over GF(5)
        assert ref_tower.ext_field.mul(ref_tower.alpha, ref_tower.alpha) == 3 + 5 * 1

    def test_inverse_small(self, ref_tower):
        assert ref_tower.ext_field.inv(1) == 1
        assert ref_tower.ext_field.inv(2) == 3

    def test_inverse_roundtrip(self, ref_tower):
        F = ref_tower.ext_field
        rng = np.random.default_rng(3)
        for x in rng.integers(1, 25, size=50):
            assert F.mul(int(x), F.inv(int(x))) == 1

    def test_zero_inverse_raises(self, ref_tower):
        with pytest.raises(ZeroDivisionError):
            ref_tower.ext_field.inv(0)


@pytest.mark.parametrize("tower", towers(), ids=lambda t: repr(t))
class TestFieldAxioms:
    def test_axioms_randomized(self, tower):
        F = tower.ext_field
        rng = np.random.default_rng(12345)
        order = tower.order
        n = 1000
        a = rng.integers(0, order, size=n)
        b = rng.integers(0, order, size=n)
        c = rng.integers(0, order, size=n)
        for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()):
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
            assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
            assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
            assert F.add(x, F.neg(x)) == 0
            if x:
                assert F.mul(x, F.inv(x)) == 1

    def test_ext_linearity(self, tower):
        rng = np.random.default_rng(99)
        base = tower.base_field
        for _ in range(200):
            x = int(rng.integers(0, tower.order))
            y = int(rng.integers(0, tower.order))
            c = int(rng.integers(0, tower.q))
            lhs = tower.ext(tower.ext_field.add(x, y))
            rhs = base.add(tower.ext(x), tower.ext(y))
            assert np.array_equal(lhs, rhs)
            # GF(q) scalars embed as constant polynomials, codes unchanged
            lhs2 = tower.ext(tower.ext_field.mul(c, x))
            rhs2 = base.mul(c, tower.ext(x))
            assert np.array_equal(lhs2, rhs2)

    def test_defining_identity(self, tower):
        # the coordinates are in the polynomial basis 1, alpha, ..., alpha^(m-1)
        F = tower.ext_field
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = int(rng.integers(0, tower.order))
            coords = tower.ext(x)
            acc = 0
            for j, cj in enumerate(coords.tolist()):
                acc = F.add(acc, F.mul(tower.alpha_power(j), cj))
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

    def test_unext_wrong_length(self, ref_tower):
        with pytest.raises(ValueError):
            ref_tower.unext(np.array([1, 2, 3]))

    @pytest.mark.parametrize("p,deg", [(2, 64), (3, 40)])
    def test_codes_beyond_int64_rejected(self, p, deg):
        # the size check runs before the irreducibility test, so any monic
        # modulus of the degree will do
        with pytest.raises(ValueError, match="int64"):
            ExtField(PrimeField(p), [1] * deg + [1])

    def test_largest_int64_field_accepted(self):
        f = ExtField(PrimeField(2), [1, 1] + [0] * 61 + [1])  # x^63 + x + 1
        assert f.order - 1 == np.iinfo(np.int64).max
        x = f.random(np.random.default_rng(13), 4)
        x[0] = f.order - 1
        assert not f.add(x, x).any()
        assert f.mul(x, f.inv(x)).tolist() == [1] * 4

    def test_largest_int64_code_round_trip(self):
        t = FieldTower(2, 1, 63, [1, 1] + [0] * 61 + [1])
        top = t.ext_field.order - 1
        assert t.ext(top).tolist() == [1] * 63
        assert t.unext(t.ext(top)) == top

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
            assert tuple(t.ext(t.ext_field.add(x, y))) == tuple(t.base_field.add(t.ext(x), t.ext(y)))
            if x:
                assert t.ext_field.mul(x, t.ext_field.inv(x)) == 1
            assert t.unext(t.ext(x)) == x


class TestSerialization:
    def test_tower_roundtrip(self, ref_tower):
        d = ref_tower.to_dict()
        assert d == {"p": 5, "e": 1, "m": 2, "ext_modulus": [2, 4, 1]}
        assert FieldTower.from_dict(d) == ref_tower

    def test_legacy_basis_key_ignored(self, ref_tower):
        d = {**ref_tower.to_dict(), "basis": [15, 7]}
        assert FieldTower.from_dict(d) == ref_tower

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


# GF(2) as a degree-1 extension (its only unit generates it), characteristic
# 2 and odd p, two-level towers, odd fields on each side of the add/sub table
# bound q^2 <= TABLE_LIMIT (GF(31^2) inside, GF(37^2) and GF(257^2), whose
# digits are wider than 8 bits, outside) and one field of each kind above
# TABLE_LIMIT.
KERNEL_FIELDS = [
    FieldTower.standard(2, 1).ext_field,
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


class TestVectorisedKernels:
    """add/sub/neg/mul/inv/matmul on arrays against the scalar _*_i oracles."""

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(shape=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(3, 0, 2), seed=0)
    @example(shape=(2, 3, 4), seed=1)
    @example(shape=(4, 3, 2), seed=2)
    @example(shape=(3, 4, 3), seed=3)  # rows == cols
    @example(shape=(4, 3, 1), seed=4)  # one received word
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


# Every field an elimination can run over: the kernel fields (GF(2) as a
# degree-1 extension and two fields above TABLE_LIMIT among them), the
# decoder's property towers, both sides of the uint16/uint32 exp-table switch
# (GF(2^16), GF(2^17)) and prime fields, one without an inverse table.
FUSED_FIELDS = (
    KERNEL_FIELDS
    + [t.ext_field for t in PROPERTY_TOWERS]
    + [FieldTower.standard(2, 16).ext_field, FieldTower.standard(2, 17).ext_field]
    + [PrimeField(2), PrimeField(5), PrimeField(2**31 - 1)]
)

# The operand shapes of the pivot steps, (a, fac, prow) for
# eliminate(a, fac, prow, pv) and the shape of pv (() for a Python int):
# _reduce_steps, rref_stack (pivot 1 for members without a pivot) and
# sumrank._reduce_blocks's residual check (pivot 1).
ENGINE_SHAPES = [
    ((4, 5), (4, 1), (5,), ()),
    ((3, 4, 5), (3, 4, 1), (3, 1, 5), (3, 1, 1)),
    ((2, 6, 3), (2, 6, 1), (2, 1, 3), ()),
]


def _nonzero(field, rng, shape):
    return field.random(rng, shape) % (field.order - 1) + 1


class TestFusedKernels:
    """eliminate, div and the narrow-table products against the scalar oracles."""

    @pytest.mark.parametrize("field", FUSED_FIELDS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=6, deadline=None)
    @given(shapes=st.sampled_from(ENGINE_SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_match_scalar_oracles(self, field, shapes, seed):
        rng = np.random.default_rng(seed)
        a, f, b = (field.random(rng, shape) for shape in shapes[:3])
        # zeros in every operand, and the largest code
        a[..., ::2, 0] = 0
        f[..., ::3, :] = 0
        b[..., ::4] = 0
        b.flat[-1] = field.order - 1
        pv = _nonzero(field, rng, shapes[3])
        if pv.ndim == 0:
            pv = int(pv)
        else:
            pv.flat[0] = 1  # a stack member without a pivot
        out = a.copy()
        row = field.eliminate(out, f, b, pv)
        assert out.dtype == np.int64 and row.shape == b.shape
        B, P = np.broadcast_arrays(b, pv)
        want = [field._mul_i(z, field._inv_i(v)) for z, v in zip(B.ravel().tolist(), P.ravel().tolist())]
        assert row.ravel().tolist() == want
        F, W = np.broadcast_arrays(f, np.reshape(want, b.shape))
        assert out.ravel().tolist() == [
            field._add_i(x, field._neg_i(field._mul_i(y, z)))
            for x, y, z in zip(a.ravel().tolist(), F.ravel().tolist(), W.ravel().tolist())
        ]
        d = _nonzero(field, rng, f.shape)
        D = np.broadcast_to(d, a.shape)
        got = field.div(a, d)
        assert got.dtype == np.int64 and got.shape == a.shape
        assert got.ravel().tolist() == [
            field._mul_i(x, field._inv_i(y)) for x, y in zip(a.ravel().tolist(), D.ravel().tolist())
        ]

    @pytest.mark.parametrize("field", FUSED_FIELDS, ids=repr)
    def test_eliminate_on_views(self, field):
        # as _reduce_steps calls it: a, fac and prow are views of one array,
        # and the step clears the pivot row before it is written back
        rng = np.random.default_rng(3)
        a = field.random(rng, (4, 5))
        a[0, 1], a[2, 1], a[3] = field.order - 1, 0, 0
        want = a.tolist()
        pv = want[0][1]
        prow = [field._mul_i(x, field._inv_i(pv)) for x in want[0][1:]]
        for i, r in enumerate(want):
            r[1:] = [field._add_i(x, field._neg_i(field._mul_i(r[1], y))) for x, y in zip(r[1:], prow)]
        want[0][1:] = prow
        a[0, 1:] = field.eliminate(a[:, 1:], a[:, 1, None], a[0, 1:], pv)
        assert a.tolist() == want

    @pytest.mark.parametrize("field", FUSED_FIELDS, ids=repr)
    def test_scalars_stay_ints(self, field):
        x, y = field.order - 1, field.order // 2 or 1
        for got, want in [
            (field.div(x, y), field._mul_i(x, field._inv_i(y))),
            (field.div(0, y), 0),
            (field.inv(y), field._inv_i(y)),
        ]:
            assert type(got) is int and got == want

    @pytest.mark.parametrize("m, dtype", [(12, np.uint16), (16, np.uint16), (17, np.uint32)])
    def test_narrow_tables(self, m, dtype):
        F = FieldTower.standard(2, m).ext_field
        F.mul(1, 1)
        assert F._exp.dtype == dtype and F._log.dtype == np.int64
        rng = np.random.default_rng(m)
        a, b = F.random(rng, (3, 9)), F.random(rng, (9, 4))
        a[0] = F.order - 1
        a[1, ::2] = 0
        b[:, 0] = F.order - 1
        for x, y in [(a, b), (b.T, a.T)]:  # both operand orders of the tensor
            out = F.matmul(x, y)
            assert out.dtype == np.int64 and out.tolist() == _oracle_matmul(F, x, y)
        assert F.mul(a, a).dtype == np.int64 and F.inv(b[b != 0]).dtype == np.int64

    @pytest.mark.parametrize(
        "field",
        [FieldTower.standard(2, 3).ext_field, FieldTower.standard(5, 2).ext_field,
         FieldTower.standard(257, 2).ext_field, _above_table_limit(3, 13)],
        ids=repr,
    )
    @pytest.mark.parametrize("dtype", [object, np.uint64, np.uint32, np.int32])
    def test_sums_take_any_integer_dtype(self, field, dtype):
        # add, sub and neg convert both operands to int64 codes; only
        # eliminate hands the sum kernel its products unconverted, in the exp
        # table's dtype
        rng = np.random.default_rng(7)
        a, b = field.random(rng, (2, 5)), field.random(rng, (2, 5))
        b[0, 0] = field.order - 1
        x, y = a.astype(dtype), b.astype(dtype)
        for got, want in [
            (field.add(a, y), field.add(a, b)),
            (field.add(x, y), field.add(a, b)),
            (field.sub(a, y), field.sub(a, b)),
            (field.sub(x, b), field.sub(a, b)),
            (field.neg(y), field.neg(b)),
        ]:
            assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "field",
        [FieldTower.standard(2, 12).ext_field, FieldTower.standard(5, 2).ext_field,
         _above_table_limit(2, 21), PrimeField(5), PrimeField(2**31 - 1)],
        ids=repr,
    )
    def test_division_by_zero_raises(self, field):
        for a, b in [(np.array([1, 2]), np.array([3, 0])), (np.ones((2, 2), dtype=np.int64), 0), (1, 0)]:
            with pytest.raises(ZeroDivisionError):
                field.div(a, b)
        with pytest.raises(ZeroDivisionError):
            field.inv(np.array([[1], [0]]))

    def test_division_by_zero_under_optimize_flag(self):
        code = (
            "from sumrankdec.gf import FieldTower, PrimeField\n"
            "for f in (FieldTower.standard(2, 12).ext_field, FieldTower.standard(5, 2).ext_field,"
            " PrimeField(5)):\n"
            "    try:\n"
            "        f.div([1, 2], [3, 0])\n"
            "    except ZeroDivisionError:\n"
            "        print('raised')\n"
        )
        src = str(Path(gf.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        )
        assert out.stdout.split() == ["raised"] * 3


# Characteristic-2 fields on both sides of the uint16 log-sum bound: a sum of
# two logs is at most 4 (order - 1), which fits uint16 up to GF(2^14).
LOG_SUM_FIELDS = [FieldTower.standard(2, m).ext_field for m in (1, 3, 12, 14, 15)]


class TestLogSumRoute:
    """The characteristic-2 matmul adds its logs in uint16 where every sum fits."""

    @pytest.mark.parametrize("field", LOG_SUM_FIELDS, ids=repr)
    def test_route_by_fit_bound(self, field):
        if field.order <= 1 << 14:
            assert field._log16.dtype == np.uint16
            assert np.array_equal(field._log16, field._log)
        else:
            assert field._log16 is None

    @pytest.mark.parametrize("field", LOG_SUM_FIELDS, ids=repr)
    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(shape=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(3, 0, 4), seed=0)  # inner dimension 0
    @example(shape=(5, 4, 2), seed=1)  # rows > cols: the transpose branch
    @example(shape=(2, 4, 5), seed=2)
    def test_matches_oracle_and_int64_logs(self, field, shape, seed):
        rows, inner, cols = shape
        rng = np.random.default_rng(seed)
        a, b = field.random(rng, (rows, inner)), field.random(rng, (inner, cols))
        # all-zero rows and columns give the largest log sum, 4 (order - 1)
        a[::2] = 0
        b[:, ::3] = 0
        b[::2, 1::3] = field.order - 1
        out = field.matmul(a, b)
        assert out.dtype == np.int64 and out.shape == (rows, cols)
        assert out.tolist() == _oracle_matmul(field, a, b)
        int64_logs = np.bitwise_xor.reduce(field._prod(a.T[:, :, None], b[:, None, :]), axis=0, initial=0)
        assert np.array_equal(out, int64_logs)


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


class TestFloatReduction:
    """Odd-p ExtField products: the GF(p) digit product and the recomposition
    of codes run in float64 only inside their exactness bounds."""

    # GF(P^2) for TestPrimeMatmulSwitch's P: codes are below 2^53, and the
    # digit product sums inner * 2 products, in float64 for inner <= 4
    P = TestPrimeMatmulSwitch.P
    WIDE = _above_table_limit(P, 2)

    def test_threshold(self):
        assert 8 * (self.P - 1) ** 2 < 2**53 <= 10 * (self.P - 1) ** 2
        assert self.WIDE.order <= 2**53

    @pytest.mark.parametrize("inner", [1, 4, 5, 8])
    def test_digit_product_straddles_switch(self, inner):
        f = self.WIDE
        rng = np.random.default_rng(inner)
        a, b = f.random(rng, (3, inner)), f.random(rng, (inner, 2))
        a[0] = f.order - 1  # every digit p - 1
        b[:, 0] = f.order - 1
        assert f.matmul(a, b).tolist() == _oracle_matmul(f, a, b)

    def test_codes_above_2_53(self):
        # the digit product is float64, the recomposition must not be: an
        # odd code above 2^53 has no float64 representation
        f = _above_table_limit(3, 34)
        assert f.order > 2**53
        a = np.array([[f.order - 1], [f.order - 2], [5]])
        b = np.array([[1, f.order - 2]])
        assert f.matmul(a, b).tolist() == _oracle_matmul(f, a, b)
        assert f.matmul(a, b)[:, 0].tolist() == a[:, 0].tolist()


class TestFloat32Bound:
    """GF(p) products on both sides of inner * (p-1)^2 = 2^24, checked
    against the int64 route and the scalar oracle.  Over GF(257),
    (p-1)^2 = 2^16: a GF(p) inner dimension of 255 runs in float32 and 256 in
    float64, and all-(p-1) digits put every partial sum at its largest."""

    P = 257

    @staticmethod
    def _int64_route(monkeypatch, f, a, b):
        with monkeypatch.context() as mp:
            mp.setattr(PrimeField, "_product_dtype", lambda self, inner: np.dtype(np.int64))
            return f.matmul(a, b).tolist()

    def test_threshold(self):
        f = PrimeField(self.P)
        assert 255 * 2**16 < 2**24 == 256 * 2**16
        assert [f._product_dtype(k) for k in (0, 255, 256, 2**37 - 1, 2**37)] == [
            np.float32, np.float32, np.float64, np.float64, np.int64]

    @pytest.mark.parametrize("inner", [255, 256])
    @pytest.mark.parametrize("degree_one", [False, True], ids=["prime", "ext"])
    def test_all_top_digits(self, monkeypatch, inner, degree_one):
        f = _above_table_limit(self.P, 1) if degree_one else PrimeField(self.P)
        a = np.full((2, inner), self.P - 1)
        b = np.full((inner, 3), self.P - 1)
        b[0, 1] = 1  # one column one below the largest sum
        out = f.matmul(a, b)
        assert out.dtype == np.int64
        assert out.tolist() == self._int64_route(monkeypatch, f, a, b) == _oracle_matmul(f, a, b)

    @pytest.mark.parametrize("inner", [127, 128])
    def test_two_digit_codes(self, monkeypatch, inner):
        # GF(257^2) multiplies 2 * inner GF(p) terms: float32 at inner 127,
        # float64 at 128; every digit of a is p - 1
        f = _above_table_limit(self.P, 2)
        rng = np.random.default_rng(inner)
        a = np.full((2, inner), f.order - 1)
        b = f.random(rng, (inner, 3))
        b[:, 0] = f.order - 1
        assert f.digit_form(a).dtype == (np.float32 if inner == 127 else np.float64)
        out = f.matmul(a, b)
        assert out.tolist() == self._int64_route(monkeypatch, f, a, b) == _oracle_matmul(f, a, b)

    def test_odd_sum_above_the_bound(self):
        # 259 (p-2)^2 = 16 841 475 is odd and above 2^24: float32 cannot hold it
        f = PrimeField(self.P)
        x = np.full((1, 259), self.P - 2)
        assert f._product_dtype(259) == np.float64
        assert f.matmul(x, x.T).tolist() == [[259 * (self.P - 2) ** 2 % self.P]]

    def test_largest_float32_prime(self):
        # (4092)^2 = 16 736 464 < 2^24: single products of GF(4093) run in
        # float32 with partial sums just below 2^24, and their reduction
        # c - p floor(c / p) must still be exact
        f = PrimeField(4093)
        assert f._product_dtype(1) == np.float32 and f._product_dtype(2) == np.float64
        a = np.arange(f.p)[:, None]
        b = np.array([[f.p - 1, f.p - 2, f.p // 2, 2, 1]])
        assert f.matmul(a, b).tolist() == (a * b % f.p).tolist()


def _as_ext(field):
    """An odd-p field as an ExtField: a prime field as its degree-1 extension."""
    return field if isinstance(field, ExtField) else _above_table_limit(field.p, 1)


# the odd-p fields of STACK_FIELDS, as ExtFields, and GF(3^13) above TABLE_LIMIT
DIGIT_FORM_FIELDS = [_as_ext(f) for f in STACK_FIELDS if f.char != 2] + [_above_table_limit(3, 13)]


class TestDigitForm:
    def test_characteristic_2(self):
        assert FieldTower.standard(2, 3).ext_field.digit_form(np.ones((2, 3), dtype=np.int64)) is None

    @pytest.mark.parametrize("field", DIGIT_FORM_FIELDS, ids=repr)
    def test_layout(self, field):
        rng = np.random.default_rng(0)
        a = field.random(rng, (3, 4))
        digits = field.digit_form(a)
        d = field.pdigits
        assert digits.shape == (3, 4 * d)
        assert digits.dtype == field._gfp._product_dtype(4 * d)
        assert np.array_equal(digits.reshape(3, 4, d).astype(np.int64) @ field._powers, a)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(DIGIT_FORM_FIELDS),
        shape=st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 7)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(field=DIGIT_FORM_FIELDS[0], shape=(2, 3, 6), seed=0)  # cols > rows: swapped
    @example(field=DIGIT_FORM_FIELDS[-1], shape=(1, 4, 5), seed=1)
    @example(field=DIGIT_FORM_FIELDS[1], shape=(5, 3, 2), seed=2)  # a stays on the left
    def test_matches_matmul(self, field, shape, seed):
        rows, inner, cols = shape
        rng = np.random.default_rng(seed)
        a, b = field.random(rng, (rows, inner)), field.random(rng, (inner, cols))
        out = field.matmul(a, b, digits=field.digit_form(a))
        assert out.dtype == np.int64 and np.array_equal(out, field.matmul(a, b))
        assert out.tolist() == _oracle_matmul(field, a, b)


class TestTables:
    @pytest.mark.parametrize(
        "tower, generator",
        [
            (FieldTower.standard(2, 1), 1),
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
