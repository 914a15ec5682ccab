"""Linear constituent codes given by parity-check matrices, and interleaving.

A code is defined by a full-row-rank parity-check matrix H over GF(q^m); its
generator matrix is the canonical right-kernel basis, which LinearCode takes
from the same elimination of H that checks the rank.
The minimum sum-rank distance oracle certifies every nonzero codeword and is
intended for test-scale codes only (guarded by a budget on the Q^k codewords,
Q = q^m).  Scaling by a nonzero scalar keeps the weight, so it weighs one
codeword per GF(q^m)-line, (Q^k - 1)/(Q - 1) of them, 512 per stacked
elimination and 2-5 x 10^5 per second on a 2-core x86 VM: over GF(5^2) with
blocks of 2, the 390 624 codewords at k = 4 are 16 276 lines, weighed in
0.06 s.  The default budget of 10^6 codewords takes about 2 s over GF(2),
where every line is one codeword, and less over any larger field.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldTower
from .linalg import Matrix, _right_kernel, int_from_dict, rank, matrix_from_dict, matrix_to_dict
from .sumrank import (ErrorModel, LengthPartition, SamplingFailure, block_ranks, random_profile,
                      sample_error)

__all__ = [
    "LinearCode",
    "InterleavedCode",
    "syndrome",
    "min_sum_rank_distance",
    "random_code",
    "random_instance",
    "BudgetExceeded",
]


# Lines (codewords weighed) per stacked weight computation in
# min_sum_rank_distance; larger chunks raise peak memory without making the
# enumeration faster.
_MINDIST_CHUNK = 512

# Codes random_code draws, at most, to find one of distance >= d_min.
_CODE_DRAWS = 50


class BudgetExceeded(RuntimeError):
    """The brute-force enumeration would exceed the configured budget."""


def syndrome(H: Matrix, Y: Matrix, digits: np.ndarray | None = None) -> Matrix:
    """S = H @ Y^T; zero exactly when the rows of Y are codewords.

    digits, H's digit form (LinearCode.H_digits), saves the product from
    expanding H again; it is used while H stays the left operand of the
    GF(p) product, that is while s <= n - k (see ExtField.matmul).
    """
    if Y.cols != H.cols:
        raise ValueError(f"received word has {Y.cols} columns, code length is {H.cols}")
    if digits is None:
        return H @ Y.T
    H._compat(Y)
    return Matrix(H.field, H.field.matmul(H.array, Y.array.T, digits=digits), _checked=True)


class LinearCode:
    """A linear sum-rank-metric code over a field tower.

    H is eliminated once, in __init__: its rank is the full-row-rank check
    (random_code redraws on its ValueError), and the free-column vectors of
    the same reduction are the canonical generator.  A G passed in is
    validated against H and kept instead.

    H_digits is H's digit form (ExtField.digit_form), formed once here for
    the products that keep H on the left: every syndrome of a decode and
    verify's residual on H's support columns.  H is immutable and a code
    decodes many received words, so the digits are not expanded again per
    decode.  It holds 4 d bytes per entry of H (8 d where the product needs
    float64, d = pdigits), less than the 9 d bytes per entry that a product
    expanding H allocates transiently; None in characteristic 2, whose
    products take logs.
    """

    def __init__(
        self,
        tower: FieldTower,
        partition: LengthPartition,
        H: Matrix,
        G: Matrix | None = None,
        d: int | None = None,
    ):
        if H.field != tower.ext_field:
            raise ValueError("H is not over the tower's extension field")
        if H.cols != partition.n:
            raise ValueError(f"H has {H.cols} columns, partition length is {partition.n}")
        kernel, rank_H = _right_kernel(H)
        if rank_H != H.rows:
            raise ValueError("parity-check matrix must have full row rank")
        self.tower = tower
        self.partition = partition
        self.H = H
        self.n = H.cols
        self.k = H.cols - H.rows
        self.d = d
        if G is not None:
            if G.shape != (self.k, self.n) or rank(G) != self.k:
                raise ValueError("G must be a full-rank k x n matrix")
            if not (G @ H.T).is_zero:
                raise ValueError("G is not orthogonal to H")
        self.generator = kernel if G is None else G
        self.H_digits = tower.ext_field.digit_form(H.array)

    def to_dict(self) -> dict:
        d = {
            "field": self.tower.to_dict(),
            "partition": self.partition.to_dict(),
            "k": self.k,
            "H": matrix_to_dict(self.H, self.tower),
            "G": matrix_to_dict(self.generator, self.tower),
        }
        if self.d is not None:
            d["d"] = self.d
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        tower = FieldTower.from_dict(d["field"])
        partition = LengthPartition.from_dict(d["partition"])
        H = matrix_from_dict(d["H"], tower)
        G = matrix_from_dict(d["G"], tower) if "G" in d else None
        dist = d.get("d")
        code = cls(tower, partition, H, G=G, d=None if dist is None else int_from_dict(dist, "d"))
        if "k" in d and int_from_dict(d["k"], "k") != code.k:
            raise ValueError(f"declared dimension {d['k']} does not match H (k = {code.k})")
        return code

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, blocks={self.partition.parts}, {self.tower!r})"


class InterleavedCode:
    """Vertical stack of s codewords of one constituent code."""

    def __init__(self, constituent: LinearCode, s: int):
        if s < 1:
            raise ValueError("interleaving order must be >= 1")
        self.constituent = constituent
        self.s = s

    @property
    def tower(self) -> FieldTower:
        return self.constituent.tower

    @property
    def partition(self) -> LengthPartition:
        return self.constituent.partition

    def contains(self, C: Matrix) -> bool:
        """Whether C is a stack of s codewords; False for a matrix of another
        shape or over another field."""
        if C.shape != (self.s, self.constituent.n) or C.field != self.tower.ext_field:
            return False
        return syndrome(self.constituent.H, C, self.constituent.H_digits).is_zero

    def encode(self, M: Matrix) -> Matrix:
        if M.rows != self.s:
            raise ValueError(f"expected {self.s} message rows, got {M.rows}")
        return M @ self.constituent.generator

    def __repr__(self):
        return f"InterleavedCode(s={self.s}, {self.constituent!r})"


def min_sum_rank_distance(code: LinearCode, budget: int = 10**6) -> int:
    """Exact minimum distance, certified over every nonzero codeword.

    The budget bounds Q^k, the codewords in the code (Q = q^m), but only
    one codeword per GF(q^m)-line is weighed: the (Q^k - 1)/(Q - 1)
    messages whose last nonzero coordinate is 1.  In the little-endian
    digits of a message index, msgs[:, j] = idx // Q^j % Q, these are the
    indices in [Q^j, 2 Q^j) for j = 0 ... k - 1, and code 1 is the field's
    multiplicative identity.  This is exact:

    - For lambda != 0, x -> lambda x is a GF(q)-linear bijection of GF(q^m),
      so ext(lambda c_i) = M_lambda ext(c_i) with M_lambda invertible over
      GF(q): every block rank of lambda c, hence its sum-rank weight, is
      that of c.
    - Every nonzero codeword c = u G has a last nonzero message coordinate
      u_j, and c is lambda = u_j times exactly one enumerated codeword,
      (u / u_j) G.
    """
    if code.k < 1:
        raise ValueError("minimum distance needs k >= 1")
    order = code.tower.order
    count = order**code.k
    if count > budget:
        raise BudgetExceeded(f"{count} codewords exceed the budget of {budget}")
    G = code.generator
    tower, part = code.tower, code.partition
    # line p of range r is index Q^r + p - first[r], where first[r] =
    # (Q^r - 1)/(Q - 1) counts the lines of the ranges before range r
    powers = np.array([order**j for j in range(code.k)], dtype=np.int64)
    first = (powers - 1) // (order - 1)
    lines = (count - 1) // (order - 1)
    best = code.n
    for start in range(0, lines, _MINDIST_CHUNK):
        p = np.arange(start, min(start + _MINDIST_CHUNK, lines), dtype=np.int64)
        r = np.searchsorted(first, p, side="right") - 1  # the range of each line
        w = powers[r] + p - first[r]
        msgs = np.zeros((p.size, code.k), dtype=np.int64)
        for j in range(code.k):
            msgs[:, j] = w % order
            w //= order
        cws = tower.ext_field.matmul(msgs, G.array)
        best = min(best, int(block_ranks(tower, cws[:, None, :], part).sum(axis=1).min()))
        if best == 1:
            break
    return best


def random_code(
    tower: FieldTower,
    partition: LengthPartition,
    k: int,
    seed=None,
    rng: np.random.Generator | None = None,
    d_min: int | None = None,
) -> LinearCode:
    """Uniformly random code: redraw H until it has full row rank.

    LinearCode's own rank check decides each draw: H is over the tower's
    extension field and has partition.n columns by construction, so the
    only ValueError it can raise is for a rank-deficient H.

    With d_min set, the code is redrawn, up to _CODE_DRAWS times, until its
    brute-forced distance code.d reaches d_min; min_sum_rank_distance may
    raise BudgetExceeded, and SamplingFailure means no draw reached d_min.
    """
    n = partition.n
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k = {k}, n = {n}")
    if rng is None:
        rng = np.random.default_rng(seed)

    def draw() -> LinearCode:
        while True:
            try:
                return LinearCode(tower, partition, Matrix.random(tower.ext_field, n - k, n, rng))
            except ValueError:
                continue

    if d_min is None:
        return draw()
    for _ in range(_CODE_DRAWS):
        code = draw()
        code.d = min_sum_rank_distance(code)
        if code.d >= d_min:
            return code
    raise SamplingFailure(
        f"no code with minimum distance >= {d_min} found in {_CODE_DRAWS} draws "
        f"(last d = {code.d}); weaken t or change the parameters"
    )


def random_instance(
    icode: InterleavedCode,
    rng: np.random.Generator,
    t: int | None = None,
    profile=None,
    require_full_rank: bool = True,
) -> tuple[Matrix, ErrorModel]:
    """A seeded decoding instance (C, em); the received matrix is C + em.E.

    Draws from rng in a fixed order: the block profile (random with total
    weight t unless profile is given), then the error, then the messages
    that are encoded to the codeword stack C.
    """
    tower, partition, s = icode.tower, icode.partition, icode.s
    if profile is None:
        profile = random_profile(rng, tower, partition, t, s)
    em = sample_error(tower, partition, profile, s, require_full_rank=require_full_rank, rng=rng)
    C = icode.encode(Matrix.random(tower.ext_field, s, icode.constituent.k, rng))
    return C, em
