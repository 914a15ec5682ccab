"""Length partitions, sum-rank weights and supports, and error sampling.

A length partition n = n_1 + ... + n_l fixes the block structure of the
metric.  The weight of a matrix is the sum over blocks of the GF(q)-rank of
the block's basis expansion; supports are the corresponding GF(q) row
spaces, kept in canonical reduced-echelon form so they compare by equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import FieldTower
from .linalg import Matrix, block_diag, hstack, rank, row_space_basis, rref_stack, solve_unique

__all__ = [
    "LengthPartition",
    "ErrorModel",
    "block_ranks",
    "block_kernels",
    "sum_rank_weight",
    "rank_support",
    "hamming_support",
    "sample_error",
    "decompose_error",
    "random_profile",
    "Infeasible",
    "SamplingFailure",
]


class Infeasible(ValueError):
    """The requested weight profile cannot be realised."""


class SamplingFailure(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


@dataclass(frozen=True)
class LengthPartition:
    """The vector (n_1, ..., n_l) of positive block lengths."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(x) for x in parts)
        if not parts or any(x < 1 for x in parts):
            raise ValueError("all block lengths must be >= 1")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def ell(self) -> int:
        return len(self.parts)

    @property
    def slices(self) -> list[slice]:
        out = []
        start = 0
        for ni in self.parts:
            out.append(slice(start, start + ni))
            start += ni
        return out

    def blocks(self, M: Matrix) -> list[Matrix]:
        """Column blocks of a matrix with n columns."""
        if M.cols != self.n:
            raise ValueError(f"matrix has {M.cols} columns, partition needs {self.n}")
        return [M[:, sl] for sl in self.slices]

    def to_dict(self) -> dict:
        return {"parts": list(self.parts)}

    @classmethod
    def from_dict(cls, d: dict) -> "LengthPartition":
        return cls(d["parts"])

    @classmethod
    def hamming(cls, n: int) -> "LengthPartition":
        return cls((1,) * n)

    @classmethod
    def full(cls, n: int) -> "LengthPartition":
        return cls((n,))


def _reduce_blocks(tower: FieldTower, arr: np.ndarray, partition: LengthPartition):
    """The two stacked eliminations behind block_ranks and block_kernels.

    Every column block of every matrix in the (batch, r, n) stack arr is one
    member, gathered with its columns reversed and zero-padded to w, the
    largest block length.  The GF(q)-kernel of a block is GF(q)^{n_i} meet
    its GF(q^m)-kernel, which row operations over GF(q^m) keep; so every
    member is first reduced over GF(q^m) to at most n_i rows.  A member of
    full GF(q^m)-rank n_i has kernel {0}; only the others are expanded over
    GF(q) and reduced in a second stacked call.  With fewer rows than the
    shortest block (one codeword per member, as in min_sum_rank_distance)
    no member can reach full rank, so the first call is skipped and every
    member is expanded unreduced: the GF(q)-row space, and so the reduced
    rows, are the same.  Zero columns never pivot, and reversing the columns
    makes the free-column kernel vectors, reversed back, a reduced echelon
    basis (see block_kernels).

    Returns (ranks, deficient, Rq, pq, rev, real): the GF(q)-ranks of all
    batch * l expanded blocks, the members below full GF(q^m)-rank, their
    GF(q)-reduced rows and pivot masks (reversed columns), and per block the
    column reversal and the mask of real (unpadded) columns.
    """
    parts = np.array(partition.parts)
    ell, w = parts.size, int(parts.max())
    if arr.shape[1] == 0:  # a zero row leaves every kernel as it is
        arr = np.zeros((arr.shape[0], 1, arr.shape[2]), dtype=np.int64)
    batch, r, _ = arr.shape
    j = np.arange(w)
    real = j < parts[:, None]
    rev = np.where(real, parts[:, None] - 1 - j, j)  # an involution on 0..w-1
    cols = np.cumsum(parts)[:, None] - 1 - j  # pad entries land anywhere; masked
    X = (arr[:, :, cols] * real).transpose(0, 2, 1, 3).reshape(batch * ell, r, w)

    ranks = np.tile(parts, batch)
    if r < parts.min():
        # no block can reach full GF(q^m)-rank: expand every member as it is
        R, deficient = X, np.arange(batch * ell)
    else:
        R, piv = rref_stack(tower.ext_field, X)
        deficient = np.flatnonzero(piv.sum(axis=1) < ranks)
    h = min(r, w)  # rows below the GF(q^m)-rank are zero
    ext = tower.ext_array(R[deficient, :h].reshape(-1, w))
    Rq, pq = rref_stack(tower.base_field, ext.reshape(deficient.size, h * tower.m, w))
    ranks[deficient] = pq.sum(axis=1)
    return ranks, deficient, Rq, pq, rev, real


def block_ranks(tower: FieldTower, arr: np.ndarray, partition: LengthPartition) -> np.ndarray:
    """GF(q)-ranks of the expanded column blocks of a (batch, r, n) stack, as (batch, l)."""
    return _reduce_blocks(tower, arr, partition)[0].reshape(arr.shape[0], partition.ell)


def block_kernels(
    tower: FieldTower, arr: np.ndarray, partition: LengthPartition
) -> tuple[np.ndarray, np.ndarray]:
    """GF(q)-kernels of the expanded column blocks of a stack of GF(q^m) matrices.

    arr is a (batch, r, n) array of GF(q^m) codes.  Returns (K, lead) with K
    of shape (batch, l, w, w) and lead of shape (batch, l, w), w the largest
    block length: K[b, i][lead[b, i]] is the canonical (reduced echelon)
    basis of {v in GF(q)^{n_i} : block_i(arr[b]) @ v = 0}, in the first n_i
    columns, and equals right_kernel(tower.ext_matrix(block_i)).  Row o of
    K[b, i] is the basis vector whose leading entry is in column o, and is
    zero where lead[b, i, o] is False; lead.sum(-1) are the kernel dimensions.
    """
    _, deficient, Rq, pq, rev, real = _reduce_blocks(tower, arr, partition)
    ell, w = real.shape
    K = np.zeros((arr.shape[0] * ell, w, w), dtype=np.int64)
    lead = np.zeros((arr.shape[0] * ell, w), dtype=bool)
    if deficient.size:
        # T[d, p] is the reduced row with its pivot in column p, zero if p is
        # free; the kernel vector of free column f is e_f - T[d, :, f], with
        # its leading entry at f once the columns are reversed back
        d = np.arange(deficient.size)[:, None]
        T = Rq[d, np.cumsum(pq, axis=1) - 1] * pq[:, :, None]
        rv = rev[deficient % ell]
        j = np.arange(w)
        kern = tower.base_field.neg(T[d[:, :, None], rv[:, None, :], rv[:, :, None]])
        kern[:, j, j] = 1
        lead[deficient] = (~pq & real[deficient % ell])[d, rv]
        K[deficient] = kern * lead[deficient][:, :, None]
    return K.reshape(-1, ell, w, w), lead.reshape(-1, ell, w)


def sum_rank_weight(tower: FieldTower, M: Matrix, partition: LengthPartition) -> int:
    """Sum over blocks of the GF(q)-rank of the expanded block."""
    if M.field != tower.ext_field:
        raise ValueError("matrix is not over the tower's extension field")
    if M.cols != partition.n:
        raise ValueError(f"matrix has {M.cols} columns, partition needs {partition.n}")
    return int(block_ranks(tower, M.array[None], partition).sum())


def rank_support(tower: FieldTower, block: Matrix) -> Matrix:
    """Canonical basis of the GF(q) row space of the expanded block."""
    if block.field != tower.ext_field:
        raise ValueError("matrix is not over the tower's extension field")
    return row_space_basis(tower.ext_matrix(block))


def hamming_support(M: Matrix) -> set[int]:
    """0-based indices of nonzero columns."""
    return {int(j) for j in np.nonzero(np.any(M.array != 0, axis=0))[0]}


@dataclass(frozen=True)
class ErrorModel:
    """An error matrix together with its decomposition E = A @ B.

    B is block-diagonal over GF(q) in canonical per-block row-space bases;
    A is over GF(q^m).  profile holds the per-block weights (t_1, ..., t_l).
    """

    tower: FieldTower
    partition: LengthPartition
    E: Matrix
    A: Matrix
    B: Matrix
    profile: tuple[int, ...]
    full_rank: bool
    seed: int | None = None

    @property
    def t(self) -> int:
        return sum(self.profile)

    @property
    def s(self) -> int:
        return self.E.rows

    def to_dict(self) -> dict:
        from .linalg import matrix_to_dict

        return {
            "profile": list(self.profile),
            "full_rank": self.full_rank,
            "seed": self.seed,
            "E": matrix_to_dict(self.E, self.tower),
            "A": matrix_to_dict(self.A, self.tower),
            "B": matrix_to_dict(self.B, self.tower),
        }

    @classmethod
    def from_dict(cls, d: dict, tower: FieldTower, partition: LengthPartition) -> "ErrorModel":
        from .linalg import matrix_from_dict

        return cls(
            tower=tower,
            partition=partition,
            E=matrix_from_dict(d["E"], tower),
            A=matrix_from_dict(d["A"], tower),
            B=matrix_from_dict(d["B"], tower),
            profile=tuple(d["profile"]),
            full_rank=bool(d["full_rank"]),
            seed=d.get("seed"),
        )


def _random_full_rank(field, rows: int, cols: int, rng, budget: int) -> Matrix:
    want = min(rows, cols)
    for _ in range(budget):
        M = Matrix.random(field, rows, cols, rng)
        if rank(M) == want:
            return M
    raise SamplingFailure(f"no full-rank {rows}x{cols} matrix after {budget} draws")


def check_profile(
    tower: FieldTower,
    partition: LengthPartition,
    profile: Sequence[int],
    s: int,
    require_full_rank: bool,
) -> tuple[int, ...]:
    profile = tuple(int(x) for x in profile)
    if len(profile) != partition.ell:
        raise Infeasible(f"profile has {len(profile)} entries, partition has {partition.ell} blocks")
    if s < 1:
        raise Infeasible("interleaving order must be >= 1")
    for ti, ni in zip(profile, partition.parts):
        if ti < 0 or ti > min(ni, tower.m * s):
            raise Infeasible(f"block weight {ti} infeasible for block length {ni}, m*s = {tower.m * s}")
    if require_full_rank and sum(profile) > s:
        raise Infeasible(f"full-rank errors need t <= s, got t = {sum(profile)}, s = {s}")
    return profile


def sample_error(
    tower: FieldTower,
    partition: LengthPartition,
    profile: Sequence[int],
    s: int,
    require_full_rank: bool = True,
    seed=None,
    rng: np.random.Generator | None = None,
    max_attempts: int = 1000,
) -> ErrorModel:
    """Draw an error with the given per-block weights via rejection sampling.

    B blocks are uniform full-rank t_i x n_i matrices over GF(q); A is
    uniform over GF(q^m)^(s x t) subject to rk_q(A_block_i) = t_i, plus
    rk(A) = t over GF(q^m) when require_full_rank is set.  Deterministic for
    a given seed.
    """
    profile = check_profile(tower, partition, profile, s, require_full_rank)
    t = sum(profile)
    if rng is None:
        rng = np.random.default_rng(seed)
    Fq, Fqm = tower.base_field, tower.ext_field

    if t == 0:
        E = Matrix.zeros(Fqm, s, partition.n)
        return ErrorModel(tower, partition, E, Matrix.zeros(Fqm, s, 0),
                          Matrix.zeros(Fq, 0, partition.n), profile, full_rank=True,
                          seed=seed if isinstance(seed, int) else None)

    for _ in range(max_attempts):
        b_blocks = [
            _random_full_rank(Fq, ti, ni, rng, max_attempts) if ti else Matrix.zeros(Fq, 0, ni)
            for ti, ni in zip(profile, partition.parts)
        ]
        B = block_diag(b_blocks)
        A = Matrix.random(Fqm, s, t, rng)
        ok = True
        col = 0
        for ti in profile:
            if ti and rank(tower.ext_matrix(A[:, col : col + ti])) != ti:
                ok = False
                break
            col += ti
        if ok and require_full_rank and rank(A) != t:
            ok = False
        if not ok:
            continue
        E = A @ tower.lift(B)
        if any(
            rank(tower.ext_matrix(blk)) != ti
            for ti, blk in zip(profile, partition.blocks(E))
        ):
            continue
        full = rank(E) == t
        if require_full_rank and not full:
            continue
        return ErrorModel(tower, partition, E, A, B, profile, full_rank=full,
                          seed=seed if isinstance(seed, int) else None)
    raise SamplingFailure(f"no admissible error after {max_attempts} attempts")


def random_profile(
    rng: np.random.Generator,
    tower: FieldTower,
    partition: LengthPartition,
    t: int,
    s: int,
) -> tuple[int, ...]:
    """Random per-block weight profile summing to t within feasibility caps."""
    caps = [min(ni, tower.m * s) for ni in partition.parts]
    if t > sum(caps) or t < 0:
        raise Infeasible(f"total weight {t} infeasible for caps {caps}")
    prof = [0] * partition.ell
    for _ in range(t):
        open_blocks = [i for i in range(partition.ell) if prof[i] < caps[i]]
        prof[open_blocks[int(rng.integers(len(open_blocks)))]] += 1
    return tuple(prof)


def decompose_error(
    tower: FieldTower, E: Matrix, partition: LengthPartition
) -> tuple[Matrix, Matrix]:
    """Factor E as A @ B with B the canonical block-diagonal support basis."""
    blocks = partition.blocks(E)
    b_blocks = [rank_support(tower, blk) for blk in blocks]
    a_blocks = []
    for blk, bb in zip(blocks, b_blocks):
        if bb.rows == 0:
            a_blocks.append(Matrix.zeros(tower.ext_field, E.rows, 0))
            continue
        # E_i = A_i @ B_i with B_i full row rank: solve B_i^T X = E_i^T
        At = solve_unique(tower.lift(bb).T, blk.T)
        a_blocks.append(At.T)
    A = hstack(a_blocks) if a_blocks else Matrix.zeros(tower.ext_field, E.rows, 0)
    B = block_diag(b_blocks)
    return A, B
