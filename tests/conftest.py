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

from sumrankdec import example_case, linalg
from sumrankdec.code import (
    InterleavedCode,
    LinearCode,
    min_sum_rank_distance,
    random_code,
    random_instance,
)
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import Matrix
from sumrankdec.sumrank import ErrorModel, LengthPartition


@pytest.fixture(scope="session")
def ref():
    return example_case.load()


@pytest.fixture(scope="session")
def ref_tower(ref):
    return ref.tower


def code_with_distance(
    tower: FieldTower,
    partition: LengthPartition,
    k: int,
    rng: np.random.Generator,
    d_min: int,
    tries: int = 100,
    budget: int = 10**6,
) -> LinearCode:
    """Random code redrawn until its brute-forced distance reaches d_min."""
    best = None
    for _ in range(tries):
        code = random_code(tower, partition, k, rng=rng)
        d = min_sum_rank_distance(code, budget=budget)
        if d >= d_min:
            code.d = d
            return code
        best = d if best is None else max(best, d)
    raise RuntimeError(f"no code with d >= {d_min} in {tries} draws (best {best})")


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
def reduced_stacks(min_work: int | None = None):
    """Record the shape of every stack that rref_stack's stepping code reduces.

    The slice path of a (batch, r, c) stack reduces a (batch, 2c, c) slice
    first, then the full height of the members whose rank grows below it.
    With min_work set, the slice path's work bound is lowered to it, so that
    tall stacks of test size (min_work = 0) take the path too.
    """
    shapes: list[tuple[int, ...]] = []
    inner = linalg._reduce_stack

    def spy(field, a):
        shapes.append(a.shape)
        return inner(field, a)

    bound = linalg._SLICE_MIN_WORK if min_work is None else min_work
    with mock.patch.object(linalg, "_reduce_stack", spy), mock.patch.object(
        linalg, "_SLICE_MIN_WORK", bound
    ):
        yield shapes
