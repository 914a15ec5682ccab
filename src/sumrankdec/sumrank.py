"""Length partitions, sum-rank weights and supports, and error sampling.

A length partition n = n_1 + ... + n_l fixes the block structure of the
metric.  The weight of a matrix is the sum over blocks of the GF(q)-rank of
the block's basis expansion; supports are the corresponding GF(q) row
spaces, kept in canonical reduced-echelon form so they compare by equality.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .gf import FieldTower
from .linalg import (Matrix, block_diag, hstack, int_from_dict, matrix_from_dict, matrix_to_dict,
                     rank, row_space_basis, rref_stack, solve_unique)

__all__ = [
    "LengthPartition",
    "ErrorModel",
    "block_ranks",
    "block_supports",
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


# Draws of an error, and of each block of its B, before sample_error fails.
_SAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class LengthPartition:
    """The vector (n_1, ..., n_l) of positive block lengths, each an
    integer (see linalg.int_from_dict)."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int_from_dict(x, "block length") for x in parts)
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

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (parts, real, rev, cols): _reduce_blocks's gather of the
        column blocks into an (l, w) grid, built once per partition."""
        parts = np.array(self.parts)
        j = np.arange(parts.max())
        real = j < parts[:, None]
        rev = np.where(real, parts[:, None] - 1 - j, j)  # an involution on 0..w-1
        cols = np.cumsum(parts)[:, None] - 1 - j  # pad entries land anywhere; masked
        for a in (parts, real, rev, cols):
            a.setflags(write=False)
        return parts, real, rev, cols

    @cached_property
    def _column_blocks(self) -> np.ndarray:
        """Read-only: the index of the block that holds each of the n columns."""
        out = np.repeat(np.arange(self.ell), self.parts)
        out.setflags(write=False)
        return out

    @classmethod
    def hamming(cls, n: int) -> "LengthPartition":
        return cls((1,) * n)

    @classmethod
    def full(cls, n: int) -> "LengthPartition":
        return cls((n,))


def _reduce_blocks(tower: FieldTower, arr, partition: LengthPartition, t_hat: int | None = None):
    """The stacked eliminations behind block_ranks and block_supports.

    Every column block of every matrix in the (batch, r, n) stack arr is one
    member, gathered with its columns reversed and zero-padded to w, the
    largest block length.  The GF(q)-kernel of a block is GF(q)^{n_i} meet
    its GF(q^m)-kernel, which row operations over GF(q^m) keep; so every
    member is first reduced over GF(q^m) to at most n_i rows.  A member of
    full GF(q^m)-rank n_i has kernel {0}.  So has a nonzero member of length
    1, without any elimination; a zero member has rank 0 and kernel
    GF(q)^{n_i}.  Only the members of length >= 2 that are not zero are
    reduced, and the stack is copied without the others only when there are
    some.  A member short of full rank whose reduced rows R all lie in GF(q)
    (codes below q) is done too: its kernel vectors e_f - sum_p R[p, f] e_p
    lie in GF(q)^{n_i}, and a GF(q)-kernel is never larger than the
    GF(q^m)-kernel, so both kernels have the same basis and R is the GF(q)
    reduced echelon form of the expanded block.  Only the other members are
    expanded over GF(q) and reduced in a second stacked call (_over_base).
    With fewer rows than the shortest block (one codeword per member, as in
    min_sum_rank_distance) no member can reach full rank, so the first call
    is skipped and every member, zero or not, is expanded unreduced: the
    GF(q)-row space, and so the reduced rows, are the same, and leaving out
    zero members there costs more than it spares.  Zero columns never
    pivot, and reversing the columns makes the free-column kernel vectors,
    reversed back, a reduced echelon basis (see block_supports).

    arr may also be a row source of one r x n matrix (batch 1), an object
    with rows and take(rows, cols), such as decoder.Annihilator: its entries
    are formed only when read.  A source of r > 4w rows is read on its
    leading slice of 2w rows first, on all columns, and the slice's nonzero
    members of length >= 2 are reduced, once; a shorter source is read
    whole, as every row would be read.

    Slice first: given t_hat, the slice's kernels are kept, and no row
    below it is read, when their GF(q^m)-dimensions add up to t_hat (n_i
    for a member zero on the slice, n_i - rank for the reduced ones, 0 for
    a nonzero member of length 1) and every short member's reduced rows lie
    in GF(q), so that nothing is expanded and the GF(q)-dimensions are the
    same.  A slice member has a subset of the block's rows, so its kernel
    contains the block's, over GF(q) and over GF(q^m); when the exact
    GF(q)-dimensions add up to t_hat too, as they do in decoding inside the
    guarantee (t <= d - 2, s >= t, full rank), each slice kernel equals the
    exact one.  Outside it the slice's kernels can be larger and still add
    up to t_hat, so kept kernels come with their completion: the check
    below the slice, deferred until it is called.

    Otherwise, and always without t_hat, that check runs at once.  A
    member of full rank n_i on the slice is done.  The members zero or short
    on the slice, blocks of length 1 among them (a nonzero test per column),
    read their rows below in one take; one zero on the slice is zero unless
    its rows below are not.  The short members, and the zero ones of length
    >= 2 nonzero below, are reduced once more, slice and rows below stacked
    in one call; as an RREF is canonical for the row space, a member whose
    rank does not grow below the slice gets the slice's R again.  A formed
    stack, and a source read whole, are reduced in full, and t_hat changes
    nothing there.

    Returns (ranks, deficient, R, piv, complete): the GF(q)-ranks of all
    batch * l expanded blocks, the members of length >= 2 short of full
    rank, and their GF(q)-reduced rows and pivot masks (reversed columns).
    complete is None when these are exact; for kept kernels it is a
    function of no arguments that returns the exact (ranks, deficient, R,
    piv).
    """
    parts, real, _, cols = partition._grid
    ell, w = real.shape
    if isinstance(arr, np.ndarray):
        batch, r, _ = arr.shape
        top = (arr[:, :, cols] * real).transpose(0, 2, 1, 3).reshape(batch * ell, r, w)
    else:
        source, batch, r = arr, 1, arr.rows

        def rows(members, lo, hi):
            c = cols[members]
            out = source.take(slice(lo, hi), c.ravel()).reshape(hi - lo, len(c), w)
            # C order: the eliminations step through every member's rows
            return np.ascontiguousarray((out * real[members]).transpose(1, 0, 2))

        top = rows(slice(None), 0, 2 * w if r > 4 * w else r)
    h = top.shape[1]
    if h == 0:  # a zero row leaves every kernel as it is
        top, h, r = np.zeros((batch * ell, 1, w), dtype=np.int64), 1, 1
    lengths = parts if batch == 1 else np.tile(parts, batch)  # read-only at batch 1
    if r < parts.min():
        # no block can reach full GF(q^m)-rank: expand every member as it is
        return _over_base(tower, lengths.copy(), np.arange(batch * ell), top, None) + (None,)
    f = tower.ext_field
    nonzero = top.any(axis=(1, 2))
    ranks = nonzero * lengths
    live = np.flatnonzero(ranks > 1)
    if live.size:
        R, piv = rref_stack(f, top[live] if live.size < ranks.size else top)
    else:
        R, piv = np.zeros((0, h, w), dtype=np.int64), np.zeros((0, w), dtype=bool)
    short = piv.sum(axis=1) < ranks[live]

    def below():
        # the members short or zero on the slice read their rows below, in
        # one take; one zero on the slice is zero unless its rows below are
        # not, and one of length 1 nonzero there is done
        zero = np.flatnonzero(~nonzero)
        m = np.concatenate([live[short], zero])
        rest = rows(m, h, r) if m.size else np.zeros((0, r - h, w), dtype=np.int64)
        ranks = parts * nonzero
        ranks[zero] = parts[zero] * rest[np.count_nonzero(short):].any(axis=(1, 2))
        keep = ranks[m] > 1
        m = m[keep]
        Rm, pm = rref_stack(f, np.concatenate([top[m], rest[keep]], axis=1))
        still = pm.sum(axis=1) < ranks[m]
        # a member's RREF has at most w nonzero rows
        return _over_base(tower, ranks, m[still], Rm[still, :w], pm[still])

    if h < r and not (
        # slice first: keep the slice's kernels when their GF(q^m)
        # dimensions (n_i for a member zero there, 0 for a nonzero one of
        # length 1) add up to t_hat and no short member leaves GF(q)
        t_hat == partition.n - np.count_nonzero(ranks == 1) - piv.sum()
        and R[short].max(initial=0) < tower.q
    ):
        return below() + (None,)
    complete = below if h < r else None
    if not live.size:
        return ranks, live, R, piv, complete
    # rows below the rank are zero
    return _over_base(tower, ranks, live[short], R[short, :w], piv[short]) + (complete,)


def _over_base(tower: FieldTower, ranks, deficient, R, piv):
    """_reduce_blocks' result over GF(q), from the deficient members' rows R
    over GF(q^m), reduced with pivot masks piv or, for piv None, not;
    ranks[deficient] is set in place."""
    if piv is None:
        expand = slice(None)
    elif R.max(initial=0) < tower.q:  # every reduced row lies in GF(q)
        ranks[deficient] = piv.sum(axis=1)
        return ranks, deficient, R, piv
    else:
        expand = (R >= tower.q).any(axis=(1, 2))
    w = R.shape[2]
    ext = tower.ext_array(R[expand].reshape(-1, w))
    Rq, pq = rref_stack(tower.base_field, ext.reshape(-1, R.shape[1] * tower.m, w))
    if len(Rq) == len(deficient):
        R, piv = Rq, pq
    else:
        # the GF(q)-rank can exceed the GF(q^m)-rank: make room for its rows
        pad = np.zeros((len(R), Rq.shape[1] - R.shape[1], w), dtype=np.int64)
        R = np.concatenate([R, pad], axis=1)  # np.pad costs 15x more on small stacks
        R[expand], piv[expand] = Rq, pq
    ranks[deficient] = piv.sum(axis=1)
    return ranks, deficient, R, piv


def block_ranks(tower: FieldTower, arr: np.ndarray, partition: LengthPartition) -> np.ndarray:
    """GF(q)-ranks of the expanded column blocks of a (batch, r, n) stack, as (batch, l)."""
    return _reduce_blocks(tower, arr, partition)[0].reshape(arr.shape[0], partition.ell)


def block_supports(
    tower: FieldTower, arr, partition: LengthPartition, t_hat: int | None = None
) -> tuple[np.ndarray, tuple[int, ...], Callable[[], tuple[np.ndarray, tuple[int, ...]]] | None]:
    """GF(q) supports of the expanded column blocks of one GF(q^m) matrix.

    arr is a row source of one r x n matrix, or a (1, r, n) array of GF(q^m)
    codes (see _reduce_blocks); any other array raises ValueError.  Returns
    (B, dims, complete): B is the block-diagonal int64 GF(q) matrix whose
    i-th diagonal block, of dims[i] rows, is the canonical (reduced echelon)
    basis of {v in GF(q)^{n_i} : block_i(arr) @ v = 0}, and equals
    right_kernel(tower.ext_matrix(block_i)).  A zero block's kernel
    GF(q)^{n_i} has the unit vectors as its basis; a nonzero block of length
    1, or of full GF(q^m)-rank, has kernel {0} and no rows.  The basis of
    each other block is read off its GF(q)-reduced rows R, in reversed
    columns (see _reduce_blocks): T[p] is the row of R with its pivot in
    column p, zero if p is free, and the kernel vector of free column f is
    e_f - T[:, f].  Reversed back, its leading entry is in column n_i - 1 -
    f, so the block's rows come in order of decreasing f.

    t_hat matters only for a row source read on its leading slice: when the
    slice's kernels add up to t_hat they are returned as they stand (the
    slice-first rule of _reduce_blocks), and complete is a function of no
    arguments that returns the exact (B, dims), read on the rows below the
    slice.  Kept kernels contain the exact ones and equal them whenever the
    exact dimensions add up to t_hat too, as in decoding inside the
    guarantee.  Otherwise, and always without t_hat, the kernels are exact
    and complete is None.
    """
    if isinstance(arr, np.ndarray) and (arr.ndim != 3 or arr.shape[0] != 1):
        raise ValueError(f"block_supports takes one r x n matrix, got an array of shape {arr.shape}")
    ranks, deficient, R, piv, complete = _reduce_blocks(tower, arr, partition, t_hat)
    B, dims = _supports(tower, partition, ranks, deficient, R, piv)
    return B, dims, None if complete is None else lambda: _supports(tower, partition, *complete())


def _supports(tower: FieldTower, partition: LengthPartition, ranks, deficient, R, piv):
    """block_supports' (B, dims) from _reduce_blocks' (ranks, deficient, R,
    piv) of one matrix."""
    parts, real, rev, cols = partition._grid
    w = real.shape[1]
    dims = parts - ranks
    # block i's rows end at row end[i]; the grid's padding columns map to
    # at most w columns left of their block, so B has w more before column
    # 0, and the entries written to them are zero
    end = np.cumsum(dims)
    B = np.zeros((end[-1], w + partition.n), dtype=np.int64)
    zero = np.flatnonzero(ranks == 0)
    if zero.size:
        # the unit vector of column f, reversed back, leads at n_i - 1 - f
        i, f = np.nonzero(real[zero])
        i = zero[i]
        B[end[i] - dims[i] + rev[i, f], w + cols[i, f]] = 1
    if deficient.size:
        d = np.arange(deficient.size)[:, None]
        T = R[d, np.cumsum(piv, axis=1) - 1] * piv[:, :, None]
        free = ~piv & real[deficient]
        # the vector of free column f follows those of the free columns
        # after it
        rows = end[deficient, None] - np.cumsum(free, axis=1)
        e, f = np.nonzero(free)
        v = tower.base_field.neg(T[e, :, f])
        v[np.arange(e.size), f] = 1
        B[rows[e, f, None], w + cols[deficient[e]]] = v
    return B[:, w:], tuple(dims.tolist())


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
        """Raises ValueError for a non-integer weight or seed, a non-bool
        full_rank, a profile other than B's rows per block (each row
        counted in the block of its first nonzero column), a row of B
        nonzero in two blocks, an E of other than n columns or an A of other
        than E's rows and B's rows as columns, E != A @ lift(B), block
        weights of E other than the profile (so B's rows in a block are
        independent), or a full_rank other than rank(A) == t."""
        profile = tuple(int_from_dict(x, "block weight") for x in d["profile"])
        full_rank = d["full_rank"]
        if not isinstance(full_rank, bool):
            raise ValueError(f"full_rank must be true or false, got {full_rank!r}")
        seed = d.get("seed")
        B = matrix_from_dict(d["B"], tower)
        if B.cols != partition.n:
            raise ValueError(f"B has {B.cols} columns, partition length is {partition.n}")
        nz = B.array != 0
        # a zero row is counted in no block: the extra last bin
        block = np.where(nz.any(axis=1), partition._column_blocks[nz.argmax(axis=1)], partition.ell)
        if tuple(np.bincount(block, minlength=partition.ell + 1)) != profile + (0,):
            raise ValueError(f"profile {profile} does not match B's rows per block")
        if (nz & (partition._column_blocks != block[:, None])).any():
            raise ValueError("a row of B is nonzero in more than one block")
        E, A = matrix_from_dict(d["E"], tower), matrix_from_dict(d["A"], tower)
        if E.cols != partition.n or A.shape != (E.rows, B.rows):
            raise ValueError(f"E is {E.rows} x {E.cols} and A {A.rows} x {A.cols}, expected "
                             f"s x {partition.n} and s x {B.rows}")
        if A @ tower.lift(B) != E:
            raise ValueError("E is not A @ lift(B)")
        weights = tuple(block_ranks(tower, E.array[None], partition)[0].tolist())
        if weights != profile:
            raise ValueError(f"E has block weights {weights}, the profile says {profile}")
        if full_rank != (rank(A) == B.rows):
            raise ValueError(f"full_rank is {full_rank} for an A of rank {rank(A)} with {B.rows} columns")
        return cls(
            tower=tower,
            partition=partition,
            E=E,
            A=A,
            B=B,
            profile=profile,
            full_rank=full_rank,
            seed=None if seed is None else int_from_dict(seed, "seed"),
        )


def _random_full_rank(field, rows: int, cols: int, rng) -> Matrix:
    want = min(rows, cols)
    for _ in range(_SAMPLE_ATTEMPTS):
        M = Matrix.random(field, rows, cols, rng)
        if rank(M) == want:
            return M
    raise SamplingFailure(f"no full-rank {rows}x{cols} matrix after {_SAMPLE_ATTEMPTS} draws")


def check_profile(
    tower: FieldTower,
    partition: LengthPartition,
    profile: Sequence[int],
    s: int,
    require_full_rank: bool,
) -> tuple[int, ...]:
    profile = tuple(int_from_dict(x, "block weight") for x in profile)
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
) -> ErrorModel:
    """Draw an error with the given per-block weights via rejection sampling.

    B blocks are uniform full-rank t_i x n_i matrices over GF(q); A is
    uniform over GF(q^m)^(s x t) subject to rk_q(A_block_i) = t_i, plus
    rk(A) = t over GF(q^m) when require_full_rank is set.  Deterministic for
    a given seed.

    E = A @ lift(B) needs no checks of its own.  Block i of E is A_i @ B_i
    with B_i over GF(q), so its expansion is ext(A_i) @ B_i, and B_i has
    full row rank t_i: the GF(q)-rank of E's block i is that of A_i.
    lift(B) has full row rank t over GF(q^m) too, so rk(E) = rk(A).
    """
    profile = check_profile(tower, partition, profile, s, require_full_rank)
    t = sum(profile)
    if rng is None:
        rng = np.random.default_rng(seed)
    # an integral seed of any type, np.int64 too, is recorded as an int
    seed = int(seed) if isinstance(seed, numbers.Integral) and not isinstance(seed, bool) else None
    Fq, Fqm = tower.base_field, tower.ext_field

    if t == 0:
        E = Matrix.zeros(Fqm, s, partition.n)
        return ErrorModel(tower, partition, E, Matrix.zeros(Fqm, s, 0),
                          Matrix.zeros(Fq, 0, partition.n), profile, full_rank=True, seed=seed)

    # A's column blocks, one per nonzero block weight, and B's row blocks
    a_parts = LengthPartition([ti for ti in profile if ti])
    b_rows = [slice(end - ti, end) for ti, end in zip(profile, np.cumsum(profile))]
    for _ in range(_SAMPLE_ATTEMPTS):
        B = np.zeros((t, partition.n), dtype=np.int64)
        for ti, ni, rows, cols in zip(profile, partition.parts, b_rows, partition.slices):
            if ti:
                B[rows, cols] = _random_full_rank(Fq, ti, ni, rng).array
        B = Matrix(Fq, B, _checked=True)
        A = Matrix.random(Fqm, s, t, rng)
        if (block_ranks(tower, A.array[None], a_parts)[0] != a_parts.parts).any():
            continue
        full = rank(A) == t
        if require_full_rank and not full:
            continue
        return ErrorModel(tower, partition, A @ tower.lift(B), A, B, profile, full_rank=full,
                          seed=seed)
    raise SamplingFailure(f"no admissible error after {_SAMPLE_ATTEMPTS} attempts")


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
