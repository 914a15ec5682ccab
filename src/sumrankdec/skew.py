"""Decoding in the skew metric via a diagonal isometry to the sum-rank metric.

The skew metric is isometric to the sum-rank metric through right
multiplication by an invertible diagonal matrix D: the skew weight of X is
the sum-rank weight of X @ D.  D itself is an input here (its construction
depends on code parameters this module does not validate; that is the
caller's responsibility), so skew-side decoding is transform, decode,
transform back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .code import InterleavedCode
from .decoder import DecodingReport, decode
from .gf import FieldTower
from .linalg import Matrix, int_from_dict
from .sumrank import LengthPartition, sum_rank_weight

__all__ = ["SkewIsometry", "skew_weight", "skew_decode"]


@dataclass(frozen=True)
class SkewIsometry:
    """Invertible diagonal transform between the skew and sum-rank metrics."""

    tower: FieldTower
    partition: LengthPartition
    diagonal: tuple[int, ...]

    def __post_init__(self):
        # a fraction or a bool raises ValueError; numpy integers are stored as int
        diagonal = tuple(int_from_dict(d, "diagonal entry") for d in self.diagonal)
        object.__setattr__(self, "diagonal", diagonal)
        if len(self.diagonal) != self.partition.n:
            raise ValueError(f"diagonal has {len(self.diagonal)} entries, expected {self.partition.n}")
        if any(not 0 < d < self.tower.order for d in self.diagonal):
            raise ValueError("diagonal entries must be nonzero field elements")

    @property
    def D(self) -> Matrix:
        return Matrix(self.tower.ext_field, np.diag(np.asarray(self.diagonal, dtype=np.int64)), _checked=True)

    def _scale(self, M: Matrix, op) -> Matrix:
        f = self.tower.ext_field
        if M.field != f:
            raise ValueError("matrix is not over the isometry's field")
        # a single column would otherwise broadcast across all n
        if M.cols != self.partition.n:
            raise ValueError(f"matrix has {M.cols} columns, the isometry acts on {self.partition.n}")
        diag = np.asarray(self.diagonal, dtype=np.int64)
        return Matrix(f, op(M.array, diag[None, :]), _checked=True)

    def apply(self, M: Matrix) -> Matrix:
        """M @ D as a column scaling."""
        return self._scale(M, self.tower.ext_field.mul)

    def apply_inv(self, M: Matrix) -> Matrix:
        """M @ D^-1 as a column scaling."""
        return self._scale(M, self.tower.ext_field.div)

    @classmethod
    def random(cls, tower: FieldTower, partition: LengthPartition, rng: np.random.Generator) -> "SkewIsometry":
        diag = tuple(int(x) for x in rng.integers(1, tower.order, size=partition.n))
        return cls(tower, partition, diag)

    @classmethod
    def identity(cls, tower: FieldTower, partition: LengthPartition) -> "SkewIsometry":
        return cls(tower, partition, (1,) * partition.n)

    def to_dict(self) -> dict:
        return {"D_diag": list(self.diagonal)}

    @classmethod
    def from_dict(cls, d: dict, tower: FieldTower, partition: LengthPartition) -> "SkewIsometry":
        return cls(tower, partition, tuple(d["D_diag"]))


def skew_weight(tower: FieldTower, iso: SkewIsometry, X: Matrix) -> int:
    """Skew weight computed through the defining isometry identity."""
    return sum_rank_weight(tower, iso.apply(X), iso.partition)


def skew_decode(icode: InterleavedCode, iso: SkewIsometry, Y: Matrix) -> DecodingReport:
    """Decode a skew-side received matrix: transform, decode, transform back.

    Equals decode(icode, Y @ D) with C_hat and E_hat mapped back through
    D^{-1}; the other fields (S, h_sub, A, B, weights) stay on the sum-rank
    side where they are defined.  The isometry must share the code's tower
    and partition.
    """
    if iso.partition != icode.partition or iso.tower != icode.tower:
        raise ValueError("isometry does not match the code's tower/partition")
    report = decode(icode, iso.apply(Y))
    return replace(report, C_hat=iso.apply_inv(report.C_hat), E_hat=iso.apply_inv(report.E_hat))
