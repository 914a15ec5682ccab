"""Shared fixtures: the reference instance and random decodable instances."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

# one line per acceptance criterion, printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from sumrankdec import example_case, linalg, sumrank
from sumrankdec.code import InterleavedCode, LinearCode, random_instance
from sumrankdec.gf import FieldTower, PrimeField
from sumrankdec.linalg import Matrix
from sumrankdec.sumrank import ErrorModel, LengthPartition


# Small towers for the property tests, including a two-level GF(4) <= GF(16).
PROPERTY_TOWERS = [
    FieldTower.standard(2, 2),
    FieldTower.standard(2, 3),
    FieldTower.standard(3, 2),
    FieldTower.standard(5, 2),
    FieldTower.standard(2, 2, e=2),
]


# characteristic 2 and odd p, prime and extension fields, the two-level
# GF(4) <= GF(16) and a prime above TABLE_LIMIT (inverses without a table)
STACK_FIELDS = [
    PrimeField(2),
    PrimeField(5),
    FieldTower.standard(2, 3).ext_field,
    FieldTower.standard(5, 2).ext_field,
    FieldTower.standard(2, 2, e=2).base_field,
    FieldTower.standard(2, 2, e=2).ext_field,
    FieldTower.standard(2, 12).ext_field,
    PrimeField(2**31 - 1),
]


@pytest.fixture(scope="session")
def ref():
    return example_case.load()


@pytest.fixture(scope="session")
def ref_tower(ref):
    return ref.tower


@dataclass
class Instance:
    """A forward-constructed decoding instance with known ground truth."""

    tower: FieldTower
    partition: LengthPartition
    code: LinearCode
    icode: InterleavedCode
    em: ErrorModel
    C: Matrix
    E: Matrix
    Y: Matrix

    @property
    def t(self) -> int:
        return self.em.t


def make_instance(
    code: LinearCode,
    s: int,
    rng: np.random.Generator,
    t: int | None = None,
    profile=None,
    require_full_rank: bool = True,
) -> Instance:
    icode = InterleavedCode(code, s)
    C, em = random_instance(icode, rng, t=t, profile=profile, require_full_rank=require_full_rank)
    return Instance(
        tower=code.tower,
        partition=code.partition,
        code=code,
        icode=icode,
        em=em,
        C=C,
        E=em.E,
        Y=C + em.E,
    )


@contextmanager
def reduced_stacks():
    """Record the shape of every stack that block_ranks and block_supports
    pass to rref_stack.

    The slice path of a row source of r > 4w rows and blocks of at most w
    columns reduces a (batch, 2w, w) slice first, then, at full height, the
    members short of full rank on it and those zero on it but not below.
    """
    shapes: list[tuple[int, ...]] = []
    inner = sumrank.rref_stack

    def spy(field, a):
        shapes.append(a.shape)
        return inner(field, a)

    with mock.patch.object(sumrank, "rref_stack", spy):
        yield shapes


@contextmanager
def eliminations():
    """Record the shape of every matrix that linalg._rref_arrays reduces."""
    shapes: list[tuple[int, ...]] = []
    inner = linalg._rref_arrays

    def spy(field, arr):
        shapes.append(arr.shape)
        return inner(field, arr)

    with mock.patch.object(linalg, "_rref_arrays", spy):
        yield shapes


@contextmanager
def panel_reductions(min_rows: int | None = None, min_cols: int | None = None,
                     width: int | None = None):
    """Record the shape of every matrix that linalg._rref_arrays sends to
    the panel route.  With min_rows, min_cols or width set, the route bound
    or the panel width is lowered to it, so that matrices of test size take
    the route in several panels."""
    shapes: list[tuple[int, ...]] = []
    inner = linalg._reduce_panels

    def spy(field, a):
        shapes.append(a.shape)
        return inner(field, a)

    with mock.patch.object(linalg, "_reduce_panels", spy), mock.patch.multiple(
        linalg,
        _PANEL_MIN_ROWS=linalg._PANEL_MIN_ROWS if min_rows is None else min_rows,
        _PANEL_MIN_COLS=linalg._PANEL_MIN_COLS if min_cols is None else min_cols,
        _PANEL=linalg._PANEL if width is None else width,
    ):
        yield shapes


@contextmanager
def stacked_eliminations():
    """Record (field, batch) of every stacked elimination that block_ranks
    and block_supports run: the GF(q^m) reductions (the slice, and the
    members short or zero on it at full height) and the GF(q) fallback."""
    calls: list = []
    inner = sumrank.rref_stack

    def spy(field, a):
        calls.append((field, a.shape[0]))
        return inner(field, a)

    with mock.patch.object(sumrank, "rref_stack", spy):
        yield calls

