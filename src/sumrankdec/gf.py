"""Exact arithmetic in GF(q) and GF(q^m) towers, with basis expansion maps.

Field elements are plain Python integers.  An element of GF(p^e) with
polynomial coefficients (d_0, ..., d_{e-1}) over GF(p) has code
sum_i d_i * p^i, and an element of GF(q^m) with polynomial coefficients
(c_0, ..., c_{m-1}) over GF(q) = GF(p^e) has code sum_j c_j * q^j.  Codes
are therefore base-p positional in every tower, addition is digit-wise
mod p, and 0 / 1 always encode the additive / multiplicative identities.
GF(q) embeds into GF(q^m) without re-encoding (codes below q are the
constant polynomials).

Field objects expose vectorised operations on numpy int64 arrays of codes;
no kernel loops over digits in Python.  In characteristic 2, add, sub and
neg are XOR, and matmul XOR-reduces the tensor of table products.  In odd
characteristic, a field of order q with q^2 <= TABLE_LIMIT (q <= 1024)
adds and subtracts by one lookup in flat q x q tables of a + b and a - b,
indexed by a*q + b and built once, on first use, by the digit kernel (two
7.4 MB int64 tables at GF(31^2), 8.3 MB at GF(1021) as a degree-1
extension).  Above that bound add/sub/neg run the digit kernel itself:
digits from a per-field digit table (or computed above TABLE_LIMIT), added
mod p and recomposed.  matmul is one GF(p) product: x -> x*b is
GF(p)-linear, so A @ B is digits(A) times the stacked multiplication
matrices of B's entries.  GF(p) products run in float64 BLAS while
inner * (p-1)^2 < 2^53, where every partial sum is an exact integer, and in
int64 chunks otherwise.  Fields of order up to TABLE_LIMIT get exp/log
tables, built by doubling (about a second at 2^20); larger fields multiply
element by element in polynomial arithmetic (correct but slow).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PrimeField",
    "ExtField",
    "FieldTower",
    "default_modulus",
    "TABLE_LIMIT",
]

# Largest field order for which exp/log tables are built.
TABLE_LIMIT = 1 << 20
_INT64_MAX = np.iinfo(np.int64).max


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over a coefficient field K.
#
# Polynomials are little-endian lists of integer codes.  They are used for
# modulus validation, inversion and table bootstrap only, so they stay on the
# plain-int scalar paths (K._add_i and friends).
# ---------------------------------------------------------------------------


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_sub(K, f: Sequence[int], g: Sequence[int]) -> list[int]:
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out.append(K._add_i(a, K._neg_i(b)))
    return _poly_trim(out)


def _poly_mul(K, f: Sequence[int], g: Sequence[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = K._add_i(out[i + j], K._mul_i(a, b))
    return _poly_trim(out)


def _poly_divmod(K, f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int]]:
    g = _poly_trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _poly_trim(list(f))
    if len(rem) < len(g):
        return [], rem
    quo = [0] * (len(rem) - len(g) + 1)
    ginv = K._inv_i(g[-1])
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        c = K._mul_i(rem[-1], ginv)
        quo[shift] = c
        for i, gi in enumerate(g):
            if gi:
                rem[shift + i] = K._add_i(rem[shift + i], K._neg_i(K._mul_i(c, gi)))
        _poly_trim(rem)
    return _poly_trim(quo), rem


def _poly_mod(K, f, g):
    return _poly_divmod(K, f, g)[1]


def _poly_gcd(K, f, g) -> list[int]:
    a, b = _poly_trim(list(f)), _poly_trim(list(g))
    while b:
        a, b = b, _poly_mod(K, a, b)
    if a:
        lead_inv = K._inv_i(a[-1])
        a = [K._mul_i(c, lead_inv) for c in a]
    return a


def _poly_mulmod(K, f, g, mod):
    return _poly_mod(K, _poly_mul(K, f, g), mod)


def _poly_powmod(K, f, exp: int, mod) -> list[int]:
    result = [1]
    base = _poly_mod(K, f, mod)
    while exp > 0:
        if exp & 1:
            result = _poly_mulmod(K, result, base, mod)
        base = _poly_mulmod(K, base, base, mod)
        exp >>= 1
    return result


def _poly_inv_mod(K, f, mod) -> list[int]:
    """Inverse of f modulo `mod`, assuming gcd(f, mod) = 1."""
    old_r, r = _poly_trim(list(mod)), _poly_mod(K, f, mod)
    old_t: list[int] = []
    t: list[int] = [1]
    while r:
        q, rem = _poly_divmod(K, old_r, r)
        old_r, r = r, rem
        old_t, t = t, _poly_sub(K, old_t, _poly_mul(K, q, t))
    if len(old_r) != 1:
        raise ZeroDivisionError("element is not invertible modulo the given polynomial")
    c = K._inv_i(old_r[0])
    return _poly_trim([K._mul_i(c, x) for x in old_t])


def is_irreducible(K, f: Sequence[int]) -> bool:
    """Rabin's deterministic irreducibility test for a monic f over K."""
    f = _poly_trim(list(f))
    n = len(f) - 1
    if n < 1:
        return False
    if f[-1] != 1:
        raise ValueError("modulus must be monic")
    if n == 1:
        return True
    Q = K.order
    x = [0, 1]
    h = _poly_powmod(K, x, Q**n, f)
    if _poly_sub(K, h, x):
        return False
    for r in _prime_factors(n):
        h = _poly_powmod(K, x, Q ** (n // r), f)
        g = _poly_gcd(K, _poly_sub(K, h, x), f)
        if len(g) != 1:
            return False
    return True


def default_modulus(K, degree: int) -> list[int]:
    """First monic irreducible of the given degree over K, in code order.

    Candidates are enumerated by the integer whose base-|K| digits are the
    non-leading coefficients, so the result is deterministic.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    Q = K.order
    for code in range(Q**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            c, d = divmod(c, Q)
            coeffs.append(d)
        coeffs.append(1)
        if is_irreducible(K, coeffs):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field backends
# ---------------------------------------------------------------------------


def _unwrap(a: np.ndarray):
    return int(a) if a.ndim == 0 else a


class PrimeField:
    """GF(p) with elements 0..p-1."""

    def __init__(self, p: int):
        # one product of two elements must fit int64 (mul and matmul rely on it)
        if p > 1 and (p - 1) ** 2 > _INT64_MAX:
            raise ValueError(f"p = {p} is too large: (p-1)^2 overflows int64")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.pdigits = 1
        self._inv_table: np.ndarray | None = None

    # scalar (plain int) paths
    def _add_i(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def _neg_i(self, a: int) -> int:
        return (-a) % self.p

    def _mul_i(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def _inv_i(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def _pow_i(self, a: int, k: int) -> int:
        return pow(a, k, self.p)

    # vectorised paths (accept ints or int64 arrays of codes)
    def add(self, a, b):
        return _unwrap((np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p)

    def neg(self, a):
        return _unwrap((-np.asarray(a, dtype=np.int64)) % self.p)

    def sub(self, a, b):
        return _unwrap((np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p)

    def mul(self, a, b):
        return _unwrap((np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p)

    def inv(self, a):
        arr = np.asarray(a, dtype=np.int64)
        if (arr == 0).any():
            raise ZeroDivisionError("division by zero in GF(p)")
        if self.p > TABLE_LIMIT:
            return _unwrap(self._fermat_inv(arr))
        if self._inv_table is None:
            self._inv_table = self._fermat_inv(np.arange(self.p, dtype=np.int64))
        return _unwrap(self._inv_table.take(arr))

    def _fermat_inv(self, a: np.ndarray) -> np.ndarray:
        # a^(p-2) by square and multiply; products of two residues fit int64
        out = np.ones_like(a)
        base = a % self.p
        k = self.p - 2
        while k:
            if k & 1:
                out = out * base % self.p
            base = base * base % self.p
            k >>= 1
        return out

    def pow(self, a: int, k: int) -> int:
        return pow(int(a), int(k), self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[1] * (self.p - 1) ** 2 < 2**53:
            # every partial sum is an integer below 2^53, so float64 BLAS is exact
            return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % self.p
        # sum the inner dimension in chunks whose partial sums of products
        # (each at most (p-1)^2) cannot overflow int64
        step = _INT64_MAX // (self.p - 1) ** 2
        out = (a[:, :step] @ b[:step]) % self.p
        for i in range(step, a.shape[1], step):
            out = (out + (a[:, i : i + step] @ b[i : i + step]) % self.p) % self.p
        return out

    def random(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.order, size=size, dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtField:
    """GF(|sub|^deg) as sub[x] modulo a monic irreducible polynomial."""

    def __init__(self, subfield, modulus: Sequence[int], check_irreducible: bool = True):
        modulus = [int(c) for c in modulus]
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if any(c < 0 or c >= subfield.order for c in modulus):
            raise ValueError("modulus coefficients out of range for the subfield")
        if check_irreducible and not is_irreducible(subfield, modulus):
            raise ValueError("modulus is reducible over the subfield")
        self.subfield = subfield
        self.modulus = tuple(modulus)
        self.deg = len(modulus) - 1
        self.order = subfield.order ** self.deg
        self.char = subfield.char
        self.pdigits = subfield.pdigits * self.deg
        # codes of the GF(p)-basis whose coordinates are the base-p digits
        self._powers = self.char ** np.arange(self.pdigits, dtype=np.int64)
        self._gfp = PrimeField(self.char)
        # x^deg reduced: the negated non-leading modulus coefficients
        self._xred = tuple(subfield._neg_i(c) for c in modulus[:-1])
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self.generator: int | None = None

    # ---- coefficient conversions -------------------------------------
    def _coeffs(self, a: int) -> list[int]:
        out = []
        q = self.subfield.order
        for _ in range(self.deg):
            a, c = divmod(a, q)
            out.append(c)
        return out

    def _from_coeffs(self, cs: Iterable[int]) -> int:
        out = 0
        q = self.subfield.order
        for c in reversed(list(cs)):
            out = out * q + c
        return out

    # ---- scalar (plain int) paths --------------------------------------
    def _add_i(self, a: int, b: int) -> int:
        p = self.char
        out = 0
        mult = 1
        for _ in range(self.pdigits):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _neg_i(self, a: int) -> int:
        p = self.char
        out = 0
        mult = 1
        for _ in range(self.pdigits):
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def _mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        sub = self.subfield
        n = self.deg
        fa = self._coeffs(a)
        fb = self._coeffs(b)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(fa):
            if ai == 0:
                continue
            for j, bj in enumerate(fb):
                if bj:
                    prod[i + j] = sub._add_i(prod[i + j], sub._mul_i(ai, bj))
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, rj in enumerate(self._xred):
                    if rj:
                        prod[i - n + j] = sub._add_i(prod[i - n + j], sub._mul_i(c, rj))
        return self._from_coeffs(prod[:n])

    def _inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(q^m)")
        inv = _poly_inv_mod(self.subfield, self._coeffs(a), list(self.modulus))
        inv += [0] * (self.deg - len(inv))
        return self._from_coeffs(inv)

    def _pow_i(self, a: int, k: int) -> int:
        if k < 0:
            return self._pow_i(self._inv_i(a), -k)
        result = 1
        base = a
        while k > 0:
            if k & 1:
                result = self._mul_i(result, base)
            base = self._mul_i(base, base)
            k >>= 1
        return result

    # ---- exp/log tables -------------------------------------------------
    def _find_generator(self) -> int:
        n1 = self.order - 1
        factors = _prime_factors(n1)
        first = [self.subfield.order] if self.deg >= 2 else []  # the residue class of x
        for g in chain(first, (c for c in range(2, self.order) if c not in first)):
            if all(self._pow_i(g, n1 // r) != 1 for r in factors):
                return g
        raise RuntimeError("no multiplicative generator found")  # unreachable

    def _ensure_tables(self) -> bool:
        if self._exp is not None:
            return True
        if self.order > TABLE_LIMIT:
            return False
        g = self._find_generator()
        n1 = self.order - 1
        exp = np.ones(n1, dtype=np.int64)
        size, g_size = 1, g
        while size < n1:
            # exp[size:2*size] = exp[:size] * g^size, one GF(p) product with
            # the matrix of x -> x * g^size
            k = min(size, n1 - size)
            mat = self._digits(np.array([self._mul_i(int(e), g_size) for e in self._powers]))
            exp[size : size + k] = self._gfp.matmul(self._digits(exp[:k]), mat) @ self._powers
            size, g_size = 2 * size, self._mul_i(g_size, g_size)
        # log(0) = 2*n1 and exp is doubled then padded with zeros, so
        # exp[log(a) + log(b)] is a*b for every a, b, zero or not
        log = np.full(self.order, 2 * n1, dtype=np.int64)
        log[exp] = np.arange(n1)
        self.generator = g
        self._exp = np.concatenate([exp, exp, np.zeros(2 * n1 + 1, dtype=np.int64)])
        self._log = log
        return True

    @cached_property
    def _digit_table(self) -> np.ndarray | None:
        # digits of every code in the smallest signed dtype holding +-2p;
        # characteristic 2 adds by XOR instead
        if self.char == 2 or self.order > TABLE_LIMIT:
            return None
        codes = np.arange(self.order, dtype=np.int64)
        return (codes[:, None] // self._powers % self.char).astype(np.min_scalar_type(-2 * self.char))

    def _digits(self, a: np.ndarray) -> np.ndarray:
        """Base-p digits of the codes in a, along a new last axis."""
        if self._digit_table is None:
            return a[..., None] // self._powers % self.char
        return self._digit_table.take(a, axis=0)

    @cached_property
    def _sum_tables(self) -> dict | None:
        # a + b and a - b for every pair of codes, at index a * order + b, in
        # odd characteristic while order^2 <= TABLE_LIMIT
        if self.char == 2 or self.order**2 > TABLE_LIMIT:
            return None
        a, b = np.divmod(np.arange(self.order**2, dtype=np.int64), self.order)
        return {op: self._digit_kernel(op, a, b) for op in (np.add, np.subtract)}

    def _digit_kernel(self, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return op(self._digits(a), self._digits(b)) % self.char @ self._powers

    # ---- vectorised paths ------------------------------------------------
    def _digitwise(self, op, a, b):
        """op (np.add or np.subtract) digit by digit mod p; XOR in characteristic 2.

        In odd characteristic with order^2 <= TABLE_LIMIT this is one lookup
        in the table of op at index a * order + b (neg(a) is index a of the
        subtraction table); larger fields, whose q x q tables would exceed
        TABLE_LIMIT, run the digit kernel.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.char == 2:
            return _unwrap(a ^ b)
        tables = self._sum_tables
        if tables is None:
            return _unwrap(self._digit_kernel(op, a, b))
        return _unwrap(tables[op].take(a * self.order + b))

    def add(self, a, b):
        return self._digitwise(np.add, a, b)

    def neg(self, a):
        return self._digitwise(np.subtract, 0, a)

    def sub(self, a, b):
        return self._digitwise(np.subtract, a, b)

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._ensure_tables():
            return _unwrap(self._exp.take(self._log.take(a) + self._log.take(b)))
        if a.ndim == 0 and b.ndim == 0:
            return self._mul_i(int(a), int(b))
        fn = np.frompyfunc(self._mul_i, 2, 1)
        return fn(a, b).astype(np.int64)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("division by zero in GF(q^m)")
        if self._ensure_tables():
            return _unwrap(self._exp.take(self.order - 1 - self._log.take(a)))
        if a.ndim == 0:
            return self._inv_i(int(a))
        fn = np.frompyfunc(self._inv_i, 1, 1)
        return fn(a).astype(np.int64)

    def pow(self, a: int, k: int) -> int:
        return self._pow_i(int(a), int(k))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.char == 2:
            # addition is XOR, so the inner sum is one XOR reduction
            return np.bitwise_xor.reduce(self.mul(a[:, :, None], b[None, :, :]), axis=1, initial=0)
        # x -> x * b[k, c] is GF(p)-linear and row i of its matrix is the digit
        # vector of p^i * b[k, c], so a @ b is digits(a) times these stacked
        # matrices over GF(p).  Expand the operand with fewer columns.
        if b.shape[1] > a.shape[0]:
            return self.matmul(b.T, a.T).T
        (rows, inner), cols, d = a.shape, b.shape[1], self.pdigits
        mats = self._digits(self.mul(b[:, None, :], self._powers[:, None]))
        prod = self._gfp.matmul(self._digits(a).reshape(rows, inner * d), mats.reshape(inner * d, cols * d))
        return prod.reshape(rows, cols, d) @ self._powers

    def random(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.order, size=size, dtype=np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.subfield == self.subfield
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.subfield, self.modulus))

    def __repr__(self):
        return f"GF({self.subfield.order}^{self.deg})"


# ---------------------------------------------------------------------------
# Field tower with basis expansion
# ---------------------------------------------------------------------------


class FieldTower:
    """GF(p) <= GF(q) <= GF(q^m) with a fixed ordered expansion basis.

    Parameters
    ----------
    p : characteristic (prime).
    e : degree of GF(q) over GF(p); base_modulus required when e > 1.
    m : degree of GF(q^m) over GF(q).
    ext_modulus : little-endian coefficients (codes over GF(q)) of a monic
        irreducible polynomial of degree m.
    basis : optional m-tuple of GF(q^m) codes used by the expansion map;
        defaults to the polynomial basis (1, x, ..., x^(m-1)).  Must be
        linearly independent over GF(q).
    """

    def __init__(
        self,
        p: int,
        e: int,
        m: int,
        ext_modulus: Sequence[int],
        base_modulus: Sequence[int] | None = None,
        basis: Sequence[int] | None = None,
    ):
        if e < 1 or m < 1:
            raise ValueError("extension degrees must be >= 1")
        self.p = p
        self.e = e
        self.m = m
        if e == 1:
            if base_modulus is not None:
                raise ValueError("base_modulus only applies when e > 1")
            self.base_field = PrimeField(p)
            self.base_modulus = None
        else:
            if base_modulus is None:
                raise ValueError("base_modulus required when e > 1")
            if len(base_modulus) != e + 1:
                raise ValueError("base_modulus must have degree e")
            self.base_field = ExtField(PrimeField(p), base_modulus)
            self.base_modulus = tuple(int(c) for c in base_modulus)
        if len(ext_modulus) != m + 1:
            raise ValueError("ext_modulus must have degree m")
        self.ext_field = ExtField(self.base_field, ext_modulus)
        self.ext_modulus = tuple(int(c) for c in ext_modulus)
        self.q = self.base_field.order
        self.order = self.ext_field.order
        self._qpowers = self.q ** np.arange(m, dtype=np.int64)

        if basis is None:
            self.basis = tuple(self.q**j for j in range(m))
            self._bmat = None
            self._bmat_inv = None
        else:
            basis = tuple(int(b) for b in basis)
            if len(basis) != m:
                raise ValueError("basis must have m elements")
            if any(b < 0 or b >= self.order for b in basis):
                raise ValueError("basis element out of range")
            self.basis = basis
            bmat = np.zeros((m, m), dtype=np.int64)
            for j, b in enumerate(basis):
                bmat[:, j] = b // self._qpowers % self.q
            self._bmat = bmat
            self._bmat_inv = self._invert_base_matrix(bmat)

    @classmethod
    def standard(cls, p: int, m: int, e: int = 1) -> "FieldTower":
        """Tower with deterministically chosen default moduli."""
        if e == 1:
            return cls(p, 1, m, default_modulus(PrimeField(p), m))
        base_mod = default_modulus(PrimeField(p), e)
        base = ExtField(PrimeField(p), base_mod)
        return cls(p, e, m, default_modulus(base, m), base_modulus=base_mod)

    # ---- small helpers ---------------------------------------------------
    def _invert_base_matrix(self, bmat: np.ndarray) -> np.ndarray:
        # tiny Gauss-Jordan over GF(q); raises if the basis is dependent
        K = self.base_field
        m = self.m
        a = bmat.copy()
        inv = np.eye(m, dtype=np.int64)
        for col in range(m):
            piv = next((r for r in range(col, m) if a[r, col] != 0), None)
            if piv is None:
                raise ValueError("basis elements are linearly dependent over GF(q)")
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                inv[[col, piv]] = inv[[piv, col]]
            f = K.inv(int(a[col, col]))
            a[col] = K.mul(f, a[col])
            inv[col] = K.mul(f, inv[col])
            for r in range(m):
                if r != col and a[r, col] != 0:
                    fac = int(a[r, col])
                    a[r] = K.sub(a[r], K.mul(fac, a[col]))
                    inv[r] = K.sub(inv[r], K.mul(fac, inv[col]))
        return inv

    # ---- scalar arithmetic (codes in GF(q^m)) -----------------------------
    def add(self, a: int, b: int) -> int:
        return int(self.ext_field.add(a, b))

    def sub(self, a: int, b: int) -> int:
        return int(self.ext_field.sub(a, b))

    def neg(self, a: int) -> int:
        return int(self.ext_field.neg(a))

    def mul(self, a: int, b: int) -> int:
        return int(self.ext_field.mul(a, b))

    def inv(self, a: int) -> int:
        return int(self.ext_field.inv(a))

    def pow(self, a: int, k: int) -> int:
        return self.ext_field.pow(a, k)

    @property
    def alpha(self) -> int:
        """Code of the residue class of the indeterminate in GF(q^m)."""
        if self.m < 2:
            raise ValueError("alpha undefined for m = 1")
        return self.q

    def alpha_power(self, k: int) -> int:
        return self.pow(self.alpha, k)

    # ---- expansion maps ---------------------------------------------------
    def ext(self, a: int) -> np.ndarray:
        """Coordinates of a in the configured basis (length-m GF(q) codes)."""
        digits = int(a) // self._qpowers % self.q
        if self._bmat_inv is None:
            return digits
        return self.base_field.matmul(self._bmat_inv, digits[:, None])[:, 0]

    def unext(self, v) -> int:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.m,):
            raise ValueError(f"expected a length-{self.m} coordinate vector")
        if np.any(v < 0) or np.any(v >= self.q):
            raise ValueError("coordinates out of range for GF(q)")
        digits = v if self._bmat is None else self.base_field.matmul(self._bmat, v[:, None])[:, 0]
        return int(digits @ self._qpowers)

    def ext_array(self, arr: np.ndarray) -> np.ndarray:
        """Element-wise expansion of an (r, c) code array into (r*m, c).

        Entry (i, j) expands column-wise into rows i*m .. i*m+m-1 of column j.
        """
        arr = np.asarray(arr, dtype=np.int64)
        r, c = arr.shape
        digits = arr[:, None, :] // self._qpowers[:, None] % self.q
        if self._bmat_inv is not None:
            flat = digits.transpose(1, 0, 2).reshape(self.m, r * c)
            flat = self.base_field.matmul(self._bmat_inv, flat)
            digits = flat.reshape(self.m, r, c).transpose(1, 0, 2)
        return digits.reshape(r * self.m, c)

    def ext_matrix(self, M) -> "Matrix":
        """Matrix version of ext(); expands a GF(q^m) matrix over GF(q)."""
        from .linalg import Matrix

        if M.field != self.ext_field:
            raise ValueError("matrix is not over this tower's extension field")
        return Matrix(self.base_field, self.ext_array(M.array), _checked=True)

    def lift(self, M) -> "Matrix":
        """Reinterpret a GF(q) matrix as a GF(q^m) matrix (codes unchanged)."""
        from .linalg import Matrix

        if M.field != self.base_field:
            raise ValueError("matrix is not over this tower's base field")
        return Matrix(self.ext_field, M.array, _checked=True)

    # ---- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        d = {"p": self.p, "e": self.e, "m": self.m, "ext_modulus": list(self.ext_modulus)}
        if self.base_modulus is not None:
            d["base_modulus"] = list(self.base_modulus)
        if self._bmat is not None:
            d["basis"] = list(self.basis)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FieldTower":
        return cls(
            int(d["p"]),
            int(d.get("e", 1)),
            int(d["m"]),
            d["ext_modulus"],
            base_modulus=d.get("base_modulus"),
            basis=d.get("basis"),
        )

    def __eq__(self, other):
        return (
            isinstance(other, FieldTower)
            and (other.p, other.e, other.m) == (self.p, self.e, self.m)
            and other.base_modulus == self.base_modulus
            and other.ext_modulus == self.ext_modulus
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.p, self.e, self.m, self.base_modulus, self.ext_modulus, self.basis))

    def __repr__(self):
        return f"FieldTower(GF({self.q}^{self.m}), p={self.p}, e={self.e})"
