"""Support recovery, erasure decoding and the end-to-end decoder."""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sumrankdec
from conftest import (PROPERTY_TOWERS, eliminations, make_instance, panel_reductions,
                      reduced_stacks, stacked_eliminations)
from sumrankdec import decoder
from sumrankdec.code import (InterleavedCode, LinearCode, min_sum_rank_distance, random_code,
                             syndrome)
from sumrankdec.decoder import (
    ResidualCheckFailed,
    SupportMismatch,
    SupportSpaceEmpty,
    compute_hsub,
    decode,
    erasure_decode,
    recover_block_supports,
)
from sumrankdec.gf import ExtField, FieldTower
from sumrankdec.linalg import (
    Inconsistent,
    LinearSystemError,
    Matrix,
    NonUniqueSolution,
    block_diag,
    hstack,
    rank,
    rref,
    right_kernel,
    row_space_basis,
    row_space_intersection,
    row_spaces_equal,
    solve_unique,
    vstack,
)
from sumrankdec.sumrank import (
    LengthPartition,
    block_supports,
    hamming_support,
    random_profile,
    rank_support,
    sample_error,
    sum_rank_weight,
)

FAILURES = (SupportSpaceEmpty, SupportMismatch, ResidualCheckFailed, NonUniqueSolution, Inconsistent)

# The annihilator oracle also runs odd p over a two-digit base field, GF(9) <= GF(81).
ORACLE_TOWERS = PROPERTY_TOWERS + [FieldTower.standard(3, 2, e=2)]


@st.composite
def annihilator_cases(draw, towers=PROPERTY_TOWERS):
    """(tower, partition, H, E) with E full-rank of weight t <= s, of any
    per-block weights, or zero."""
    tower = draw(st.sampled_from(towers))
    parts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    s = draw(st.integers(1, 4))
    redundancy = sum(parts) - draw(st.integers(0, sum(parts) - 1))
    kind = draw(st.sampled_from(["inside", "outside", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    part = LengthPartition(parts)
    H = Matrix.random(tower.ext_field, redundancy, part.n, rng)
    if kind == "zero":
        return tower, part, H, Matrix.zeros(tower.ext_field, s, part.n)
    # Weights are drawn as a shortfall from the largest feasible one, so the
    # simplest examples are the heaviest errors.
    budget = s if kind == "inside" else tower.m * s * len(parts)
    profile = []
    for ni in parts:
        top = min(ni, tower.m * s, budget)
        profile.append(top - draw(st.integers(0, top)))
        budget -= profile[-1]
    em = sample_error(tower, part, profile, s, require_full_rank=kind == "inside", rng=rng)
    return tower, part, H, em.E


@st.composite
def syndrome_cases(draw):
    """(H, S): a syndrome H @ E^T of annihilator_cases over ORACLE_TOWERS
    (zero, inside or outside the guarantee) or a random S of rank n - k,
    with row 1 of S optionally replaced by row 0 (dependent leading rows)."""
    _, _, H, E = draw(annihilator_cases(ORACLE_TOWERS))
    if not draw(st.booleans()):
        S = H @ E.T
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cols = H.rows + draw(st.integers(0, 2))
        S = Matrix.random(H.field, H.rows, cols, rng)
        while rank(S) < H.rows:
            S = Matrix.random(H.field, H.rows, cols, rng)
    if S.rows > 1 and draw(st.booleans()):
        S = vstack([S[:1], S[:1], S[2:]])
    return H, S


class TestReferenceInstance:
    def test_full_pipeline(self, ref):
        S = syndrome(ref.code.H, ref.Y)
        assert S == ref.S
        h_sub, t_hat, _ = compute_hsub(ref.code.H, S)
        assert t_hat == 3
        assert row_spaces_equal(h_sub.matrix(), ref.h_sub)
        B, per_block_t, _ = recover_block_supports(ref.tower, h_sub, ref.partition, t_hat)
        assert per_block_t == (1, 2, 0)
        assert B == block_diag(ref.B_blocks)
        A = erasure_decode(ref.code.H, B, S)
        assert A == ref.A
        assert A @ ref.tower.lift(B) == ref.E

    def test_decode_report(self, ref):
        report = decode(ref.icode, ref.Y)
        assert report.C_hat == ref.C
        assert report.E_hat == ref.E
        assert report.t_hat == 3
        assert report.per_block_t == (1, 2, 0)
        assert report.C_hat + report.E_hat == ref.Y
        assert report.S == ref.S
        assert row_spaces_equal(report.h_sub, ref.h_sub)
        assert report.S.rows - report.h_sub.rows == report.t_hat

    def test_decode_deterministic(self, ref):
        assert decode(ref.icode, ref.Y).C_hat == decode(ref.icode, ref.Y).C_hat
        # reports compare by value, without forming the annihilator
        assert decode(ref.icode, ref.Y) == decode(ref.icode, ref.Y)

    def test_error_free_received(self, ref):
        report = decode(ref.icode, ref.C)
        assert report.C_hat == ref.C and report.E_hat.is_zero and report.t_hat == 0

    def test_report_json(self, ref):
        d = decode(ref.icode, ref.Y).to_dict(ref.tower)
        assert d["status"] == "success" and d["t_hat"] == 3 and d["per_block_t"] == [1, 2, 0]


class TestComputeHsub:
    def test_zero_error_gives_full_row_space(self, ref):
        S = syndrome(ref.code.H, ref.C)
        h_sub, t_hat, pivots = compute_hsub(ref.code.H, S)
        assert t_hat == 0 and len(pivots) == 0
        assert row_spaces_equal(h_sub.matrix(), ref.code.H)

    def test_annihilates_error(self, ref_tower):
        rng = np.random.default_rng(0)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng, d_min=4)
        for _ in range(10):
            inst = make_instance(code, s=2, rng=rng, t=2)
            S = syndrome(code.H, inst.Y)
            h_sub, t_hat, _ = compute_hsub(code.H, S)
            assert t_hat == 2
            assert (h_sub.matrix() @ inst.E.T).is_zero

    def test_support_space_empty(self, ref_tower):
        # rank(S) = n - k leaves no annihilator rows
        rng = np.random.default_rng(1)
        part = LengthPartition([2, 2, 2])
        f = ref_tower.ext_field
        code = random_code(ref_tower, part, 2, rng=rng, d_min=3)
        for _ in range(100):
            em = sample_error(ref_tower, part, (2, 1, 1), s=4, rng=rng)
            S = syndrome(code.H, em.E)
            if rank(S) == 4:
                with pytest.raises(SupportSpaceEmpty) as info:
                    compute_hsub(code.H, S)
                assert (info.value.t_hat, info.value.redundancy) == (4, 4)
                assert info.value.stage == "annihilator"
                break
        else:
            pytest.fail("never hit a full-rank syndrome")

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(annihilator_cases())
    def test_annihilator_properties(self, case):
        _, _, H, E = case
        S = H @ E.T
        if rank(S) == H.rows:
            with pytest.raises(SupportSpaceEmpty) as info:
                compute_hsub(H, S)
            assert info.value.t_hat == info.value.redundancy == H.rows
            return
        h_sub, t_hat, _ = compute_hsub(H, S)
        h_sub = h_sub.matrix()
        assert t_hat == rank(S)
        assert h_sub.rows == H.rows - t_hat
        assert (h_sub @ E.T).is_zero
        assert row_space_basis(h_sub) == row_space_basis(right_kernel(S.T) @ H)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(syndrome_cases())
    def test_left_kernel_contract(self, case):
        # I: the first linearly independent rows of S; every other row f of
        # S is X[f] @ S[I], so H[f] - X[f] @ H[I] is an annihilator row
        H, S = case
        I: list[int] = []
        for i in range(S.rows):
            if rank(S[I + [i], :]) > len(I):
                I.append(i)
        F = [f for f in range(S.rows) if f not in I]
        with eliminations() as shapes:
            if not F:
                with pytest.raises(SupportSpaceEmpty):
                    compute_hsub(H, S)
            else:
                h_sub, t_hat, pivots = compute_hsub(H, S)
        assert shapes == [(S.cols, S.rows)]
        if not F:
            return
        X = solve_unique(S[I, :].T, S[F, :].T).T
        assert t_hat == len(I) and list(pivots) == I
        assert h_sub.matrix() == H[F, :] - X @ H[I, :]

    def test_dependent_leading_rows(self, ref_tower):
        # row 1 of S repeats row 0, so the first non-pivot row is H_1 - H_0
        f = ref_tower.ext_field
        H = Matrix(f, f.random(np.random.default_rng(4), (4, 6)))
        S = Matrix(f, [[0, 1], [0, 1], [1, 0], [0, 0]])
        h_sub, t_hat, _ = compute_hsub(H, S)
        assert t_hat == 2
        assert h_sub.matrix().tolist() == [f.sub(H.array[1], H.array[0]).tolist(), H.array[3].tolist()]


class TestLemmaInvariants:
    """Row-space and kernel equalities behind support recovery.

    The profiles deliberately include zero-weight blocks and saturated
    (full-space) blocks.
    """

    def _instances(self, ref, count):
        rng = np.random.default_rng(2)
        profiles = [(1, 2, 0), (1, 1, 1), (0, 2, 1), (2, 0, 1), (2, 1, 0), (0, 2, 0)]
        return [
            make_instance(ref.code, s=sum(profiles[i % len(profiles)]) + 1, rng=rng,
                          profile=profiles[i % len(profiles)])
            for i in range(count)
        ]

    def test_hsub_row_space_equality(self, ref):
        # annihilator row space == right kernel of E intersected with row(H)
        for inst in self._instances(ref, 18):
            S = syndrome(ref.code.H, inst.Y)
            h_sub, t_hat, _ = compute_hsub(ref.code.H, S)
            kerE = right_kernel(inst.E)
            expected = row_space_intersection(kerE, ref.code.H)
            assert row_space_basis(h_sub.matrix()) == expected

    def test_error_kernel_equals_b_kernel(self, ref):
        # full-rank errors: kernel of E equals kernel of its support basis B
        for inst in self._instances(ref, 18):
            B = ref.tower.lift(inst.em.B)
            assert right_kernel(inst.E) == right_kernel(B)
            for eb, bb in zip(inst.partition.blocks(inst.E), inst.partition.blocks(B)):
                assert right_kernel(eb) == right_kernel(bb)

    def test_block_kernels_recover_supports(self, ref):
        # kernel of each expanded annihilator block == error block row space
        for inst in self._instances(ref, 18):
            S = syndrome(ref.code.H, inst.Y)
            h_sub, t_hat, _ = compute_hsub(ref.code.H, S)
            B, per_block_t, _ = recover_block_supports(ref.tower, h_sub, inst.partition, t_hat)
            blocks = inst.partition.blocks(inst.E)
            assert B == block_diag([rank_support(ref.tower, blk) for blk in blocks])
            assert per_block_t == inst.em.profile


class TestErasureDecode:
    def test_forward_construction(self, ref_tower):
        rng = np.random.default_rng(3)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng, d_min=5)
        for _ in range(10):
            em = sample_error(ref_tower, part, (1, 1, 1), s=3, rng=rng)
            S = syndrome(code.H, em.E)
            A = erasure_decode(code.H, em.B, S)
            assert A == em.A

    def test_empty_support(self, ref):
        B = Matrix.zeros(ref.tower.base_field, 0, 6)
        S = Matrix.zeros(ref.tower.ext_field, 4, 3)
        A = erasure_decode(ref.code.H, B, S)
        assert A.shape == (3, 0)

    def test_empty_support_nonzero_syndrome(self, ref):
        # no error values can produce a nonzero syndrome on an empty support
        B = Matrix.zeros(ref.tower.base_field, 0, 6)
        S = Matrix(ref.tower.ext_field, [[0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(Inconsistent):
            erasure_decode(ref.code.H, B, S)

    def test_weight_at_distance_not_unique(self, ref_tower):
        # t >= d makes the erasure system rank-deficient for some supports
        rng = np.random.default_rng(4)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng, d_min=4)
        hit = False
        for _ in range(50):
            em = sample_error(ref_tower, part, (2, 2, 1), s=5, rng=rng)
            try:
                erasure_decode(code.H, em.B, syndrome(code.H, em.E))
            except (NonUniqueSolution, Inconsistent):
                hit = True
                break
        assert hit


def _erasure_outcome(H, B, S):
    """erasure_decode's solution as nested lists, or the type of its solver error."""
    try:
        return erasure_decode(H, B, S).tolist()
    except LinearSystemError as ex:
        return type(ex)


def _full_product_outcome(tower, H, B, S):
    """The erasure system with its product over all n columns, H @ lift(B)^T:
    the solution as nested lists, or the type of the solver error."""
    try:
        return solve_unique(H @ tower.lift(B).T, S).T.tolist()
    except LinearSystemError as ex:
        return type(ex)


def _solver_errors_as_full_product(tower, H, B, S):
    """erasure_decode on H and B restricted to B's nonzero columns J, as
    decode calls it, and on all n columns, against the product with B lifted
    to GF(q^m), on B and on B with a repeated and with a dropped row: the
    same solution or solver error each time.  Returns the solver errors
    seen."""
    errors = set()
    for B2 in (B, vstack([B, B[:1]]), B[1:]):
        J = np.flatnonzero(B2.array.any(axis=0))
        outcome = _erasure_outcome(H[:, J], B2[:, J], S)
        assert outcome == _erasure_outcome(H, B2, S) == _full_product_outcome(tower, H, B2, S)
        if isinstance(outcome, type):
            errors.add(outcome)
    return errors


class TestErasureOnPivotRows:
    """decode solves the erasure system on compute_hsub's t_hat pivot rows.

    Every other row of [H @ B^T | S] is a combination of them plus a row of
    [h_sub @ B^T | 0], which is zero, so both systems have one reduced
    echelon form: the same solution, and the same solver error for a wrong
    support basis.
    """

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(annihilator_cases())
    def test_matches_full_system(self, case):
        tower, part, H, E = case
        S = H @ E.T
        try:
            h_sub, t_hat, I = compute_hsub(H, S)
            B = recover_block_supports(tower, h_sub, part, t_hat)[0]
        except (SupportSpaceEmpty, SupportMismatch):
            return
        assert (h_sub.matrix() @ tower.lift(B).T).is_zero
        H_top, S_top = H[I, :], S[I, :]
        full = _erasure_outcome(H, B, S)
        assert _erasure_outcome(H_top, B, S_top) == full
        if B.rows == 0:
            return
        duplicated, dropped = vstack([B, B[:1]]), B[1:]
        for B2 in (duplicated, dropped):
            assert _erasure_outcome(H_top, B2, S_top) == _erasure_outcome(H, B2, S)
        if isinstance(full, list):
            # a unique solution A: a repeated basis row leaves the system
            # consistent but rank-deficient, and without row 0 of B the
            # syndrome is out of reach whenever column 0 of A is nonzero
            assert _erasure_outcome(H, duplicated, S) is NonUniqueSolution
            if any(row[0] for row in full):
                assert _erasure_outcome(H, dropped, S) is Inconsistent

    @pytest.mark.parametrize(
        "tower",
        [FieldTower.standard(2, 2, e=2), FieldTower.standard(5, 2), FieldTower.standard(3, 2)],
        ids=repr,
    )
    def test_wrong_supports_fail_alike(self, tower):
        rng = np.random.default_rng(12)
        part = LengthPartition([2, 2, 2])
        code = random_code(tower, part, 2, rng=rng, d_min=4)
        for _ in range(5):
            inst = make_instance(code, s=2, rng=rng, t=2)
            S = syndrome(code.H, inst.Y)
            h_sub, t_hat, I = compute_hsub(code.H, S)
            B = recover_block_supports(tower, h_sub, part, t_hat)[0]
            H_top, S_top = code.H[I, :], S[I, :]
            assert erasure_decode(H_top, B, S_top) == erasure_decode(code.H, B, S)
            for B2, error in ((vstack([B, B[:1]]), NonUniqueSolution), (B[1:], Inconsistent)):
                for system in ((H_top, B2, S_top), (code.H, B2, S)):
                    with pytest.raises(error):
                        erasure_decode(*system)


# GF(5^2) once more with a modulus other than the default one
TALL_TOWERS = PROPERTY_TOWERS + [FieldTower(5, 1, 2, [2, 4, 1])]


@st.composite
def tall_decoding_cases(draw):
    """(code, s, t, kind, rng) over TALL_TOWERS with n - k - t > 4 max n_i,
    so the annihilator's blocks are tall enough for rref_stack's slice path.

    "inside" draws a random code with t <= d - 2, s >= t and a full-rank
    error; "deficient" has s < t, so the error has rank below t; and
    "overweight" plants the codeword (1, a, 0, ..., 0) in the code, so
    d <= 2 and t > d - 2.  d is certified by min_sum_rank_distance.
    """
    tower = draw(st.sampled_from(TALL_TOWERS))
    w = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["inside", "deficient", "overweight"]))
    t = draw(st.integers(2 if kind == "deficient" else 1, 3))
    parts = [w] + draw(st.lists(st.integers(1, w), max_size=3))
    while sum(parts) <= k + t + 4 * w:
        parts.append(w)
    part = LengthPartition(parts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "overweight":
        f = tower.ext_field
        while True:
            H = f.random(rng, (part.n - k, part.n))
            H[:, 0] = f.neg(f.mul(int(f.random(rng, ())), H[:, 1]))
            if rank(Matrix(f, H)) == part.n - k:
                break
        code = LinearCode(tower, part, Matrix(f, H))
    else:
        code = random_code(tower, part, k, rng=rng)
    code.d = min_sum_rank_distance(code)
    if kind == "inside":
        assume(t <= code.d - 2)
        s = t + draw(st.integers(0, 1))
    elif kind == "deficient":
        s = draw(st.integers(1, t - 1))
    else:
        assert t > code.d - 2
        s = t
    return code, s, t, kind, rng


class TestDecoderPromise:
    """decode() with the annihilator's blocks on rref_stack's slice path."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(tall_decoding_cases())
    def test_exact_inside_typed_or_verified_outside(self, case):
        code, s, t, kind, rng = case
        inst = make_instance(code, s=s, rng=rng, t=t, require_full_rank=kind != "deficient")
        with reduced_stacks() as shapes, stacked_eliminations() as calls:
            try:
                report, failure = decode(inst.icode, inst.Y), None
            except FAILURES as ex:
                report, failure = None, ex
        w = max(code.partition.parts)
        # zero blocks and nonzero blocks of length 1 of h_sub never reach an
        # elimination
        S = syndrome(code.H, inst.Y)
        h_sub, t_hat, I = compute_hsub(code.H, S)
        if failure is None or failure.stage != "supports":
            # decode's erasure system on the pivot rows I
            B = recover_block_supports(code.tower, h_sub, code.partition, t_hat)[0]
            H_top, S_top = code.H[I, :], S[I, :]
            assert _erasure_outcome(H_top, B, S_top) == _full_product_outcome(code.tower, H_top, B, S_top)
        long = sum(blk.cols > 1 and blk.array.any() for blk in code.partition.blocks(h_sub.matrix()))
        assert shapes[0] == (long, 2 * w, w)
        if kind == "inside":
            assert failure is None and report.C_hat == inst.C
            # with d > t + w the GF(q^m)-kernel of every block of h_sub is
            # spanned by the error's GF(q) support, so no reduced row leaves
            # GF(q) and nothing is expanded; verify reduces no block of E_hat,
            # so nothing is expanded at s < min n_i either
            assert code.d > t + w
            assert [batch for field, batch in calls if field == code.tower.base_field] == []
        elif failure is not None:
            assert failure.stage in {"annihilator", "supports", "erasure", "verify"}
        else:
            assert inst.icode.contains(report.C_hat)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_at_the_edge_on_certified_k4_codes(self, seed):
        # 25^4 = 390 624 codewords, certified by min_sum_rank_distance (d = 7 to 9
        # at these seeds); decoding at s = t = d - 2, the edge of the guarantee
        tower, part = FieldTower.standard(5, 2), LengthPartition([2] * 8)
        rng = np.random.default_rng(seed)
        code = random_code(tower, part, 4, rng=rng)
        code.d = min_sum_rank_distance(code)
        t = code.d - 2
        for _ in range(5):
            inst = make_instance(code, s=t, rng=rng, t=t)
            assert decode(inst.icode, inst.Y).C_hat == inst.C


@st.composite
def high_order_cases(draw):
    """(icode, C, E, kind) with interleaving order s >= 4t, the paper's s >> t.

    The code has k = 1 or 2 and certified distance d >= t + 2.  "inside"
    adds a full-rank error of weight t, inside the guarantee.  "deficient"
    adds E = M @ E_r: E_r is an error of weight t with r < t rows and M a
    random s x r matrix, so E has GF(q^m)-rank at most r < t however large
    s is, outside the full-rank condition.
    """
    tower = draw(st.sampled_from(PROPERTY_TOWERS))
    kind = draw(st.sampled_from(["inside", "deficient"]))
    t = draw(st.integers(1 if kind == "inside" else 2, 3))
    s = draw(st.integers(4 * t, 6 * t))
    k = draw(st.integers(1, 2))
    part = LengthPartition(draw(st.lists(st.integers(1, 3), min_size=t + 3, max_size=t + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = random_code(tower, part, k, rng=rng, d_min=t + 2)
    if kind == "inside":
        inst = make_instance(code, s=s, rng=rng, t=t)
        return inst.icode, inst.C, inst.E, kind
    r = draw(st.integers(1, t - 1))
    small = sample_error(tower, part, random_profile(rng, tower, part, t, r), r,
                         require_full_rank=False, rng=rng)
    E = Matrix.random(tower.ext_field, s, r, rng) @ small.E
    icode = InterleavedCode(code, s)
    C = icode.encode(Matrix.random(tower.ext_field, s, k, rng))
    return icode, C, E, kind


class TestHighOrderPromise:
    """decode() at s >= 4t, inside the guarantee and with rank-deficient errors."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(high_order_cases())
    def test_exact_inside_typed_or_verified_outside(self, case):
        icode, C, E, kind = case
        try:
            report, failure = decode(icode, C + E), None
        except FAILURES as ex:
            report, failure = None, ex
        if kind == "inside":
            assert failure is None and report.C_hat == C and report.E_hat == E
            return
        assert rank(E) < sum_rank_weight(icode.tower, E, icode.partition)
        if failure is not None:
            assert failure.stage in {"annihilator", "supports", "erasure", "verify"}
        else:
            assert icode.contains(report.C_hat)


# GF(2) as a degree-1 extension is the binary Hamming and rank metric.
# The on-demand annihilator over odd p with two and with four digits, and
# characteristic 2 with a narrow and a wide field.
ON_DEMAND_TOWERS = [FieldTower.standard(5, 2), FieldTower.standard(3, 4),
                    FieldTower.standard(2, 3), FieldTower.standard(2, 12)]
BLOCK_KINDS = ["full", "zero", "zero_on_slice", "in_span", "irrational", "grows_below"]


def _annihilator_block(tower, kind, r, ni, h, rng):
    """An r x ni annihilator block over GF(q^m) whose leading slice has h
    rows: random, zero, zero on the slice only, of rank ni - 1 with its
    kernel's row space in GF(q) ("in_span") or not ("irrational"), or of
    rank at most 1 on the slice and random below it."""
    f = tower.ext_field
    M = np.zeros((r, ni), dtype=np.int64)
    if kind == "full":
        M = f.random(rng, (r, ni))
    elif kind == "zero_on_slice":
        M[h:] = f.random(rng, (max(r - h, 0), ni))
    elif kind in ("in_span", "irrational") and ni > 1:
        rows = (tower.base_field if kind == "in_span" else f).random(rng, (ni - 1, ni))
        M = f.matmul(f.random(rng, (r, ni - 1)), rows)
    elif kind == "grows_below":
        M[:h] = f.matmul(f.random(rng, (min(h, r), 1)), f.random(rng, (1, ni)))
        M[h:] = f.random(rng, (max(r - h, 0), ni))
    return M


@st.composite
def factored_annihilators(draw):
    """(tower, partition, M, annihilator): an annihilator of chosen column
    blocks M, in factored form H[F] - X @ H[I] with a random inner
    dimension, of r <= 4w rows, read whole, or r > 4w, read on its leading
    slice first."""
    tower = draw(st.sampled_from(ON_DEMAND_TOWERS))
    shape = draw(st.sampled_from(["blocks_of_4", "blocks_of_1", "mixed"]))
    count = draw(st.integers(1, 3))
    parts = {"blocks_of_4": [4] * 3 * count, "blocks_of_1": [1] * 8 * count,
             "mixed": [3, 1, 4, 2] * count}[shape]
    part = LengthPartition(parts)
    w = max(parts)
    r = draw(st.one_of(st.integers(2, 4 * w), st.integers(4 * w + 1, 6 * w + 6)))
    kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=len(parts), max_size=len(parts)))
    t = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = tower.ext_field
    M = np.hstack([_annihilator_block(tower, kind, r, ni, 2 * w, rng)
                   for kind, ni in zip(kinds, parts)])
    X, HI = f.random(rng, (r, t)), f.random(rng, (t, part.n))
    H = np.vstack([f.add(M, f.matmul(X, HI)), HI])
    ann = decoder.Annihilator(f, H, np.arange(r), X, HI)
    return tower, part, M, ann


def _block_kernels(tower, part, a):
    """right_kernel of every expanded column block of the GF(q^m) array a."""
    return [right_kernel(tower.ext_matrix(blk)) for blk in part.blocks(Matrix(tower.ext_field, a))]


def _check_supports(supports, kernels):
    """block_supports' (B, dims) is block_diag of the kernels."""
    B, dims = supports
    assert B.tolist() == block_diag(kernels).tolist()
    assert dims == tuple(k.rows for k in kernels)


class TestAnnihilatorOnDemand:
    """block_supports reading the factored annihilator on demand against
    the per-block kernels of the whole annihilator array, the reference."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(factored_annihilators())
    def test_matches_full_array(self, case):
        tower, part, M, ann = case
        assert ann.matrix().tolist() == M.tolist()
        kernels = _block_kernels(tower, part, M)
        with reduced_stacks() as shapes, stacked_eliminations() as calls:
            B, dims, _ = block_supports(tower, ann, part)
        _check_supports((B, dims), kernels)
        w, r = max(part.parts), ann.rows
        blocks = np.split(M, np.cumsum(part.parts)[:-1], axis=1)
        ext = [shape for shape, (field, _) in zip(shapes, calls) if field == tower.ext_field]
        if r > 4 * w:
            # the only GF(q^m) elimination not of full height r is the
            # leading slice's, of its blocks of length >= 2 nonzero there;
            # the blocks short or zero on the slice are reduced again in full
            live = sum(ni > 1 and blk[: 2 * w].any() for ni, blk in zip(part.parts, blocks))
            assert [shape for shape in ext if shape[1] != r] == ([(live, 2 * w, w)] if live else [])
        elif r >= min(part.parts):
            live = sum(ni > 1 and blk.any() for ni, blk in zip(part.parts, blocks))
            assert ext == ([(live, r, w)] if live else [])
        B, got_t, _ = recover_block_supports(tower, ann, part, sum(dims))
        assert got_t == dims and B == block_diag(kernels)

    def test_decode_never_forms_hsub(self):
        # at sumrank-large's shape (GF(5^2), 64 blocks of 4, k = 128,
        # s = t = 8) no product has the (n - k - t) x n shape of h_sub
        tower = FieldTower.standard(5, 2)
        code = random_code(tower, LengthPartition((4,) * 64), 128, rng=np.random.default_rng(23))
        inst = make_instance(code, s=8, rng=np.random.default_rng(24), t=8)
        shapes = []
        inner = ExtField.matmul

        def spy(self, a, b, digits=None):
            out = inner(self, a, b, digits=digits)
            shapes.append(out.shape)
            return out

        with mock.patch.object(ExtField, "matmul", spy):
            report = decode(inst.icode, inst.Y)
            assert report.C_hat == inst.C and report.annihilator.rows == 120
            assert shapes and (120, 256) not in shapes
            # the report forms it when asked
            assert report.h_sub.shape == (120, 256) and shapes[-1] == (120, 256)


# The small fields where a leading slice of 2w rows most often falls short
# of its block's rank
SLICE_FIRST_TOWERS = [FieldTower.standard(2, 1), FieldTower.standard(2, 2),
                      FieldTower.standard(3, 1), FieldTower.standard(2, 3)]


@st.composite
def slice_first_cases(draw):
    """(icode, Y) over SLICE_FIRST_TOWERS, blocks of 2, of 3 or mixed, with
    n - k - t > 4w, so that the annihilator is read on its leading slice.
    "inside" draws a code of certified distance d >= t + 2 and s >= t;
    "deficient" has s < t; "overweight" plants the codeword
    (1, a, 0, ..., 0), so d <= 2 < t + 2.  The error is drawn with or
    without the full-rank condition (always without at s < t).
    """
    tower = draw(st.sampled_from(SLICE_FIRST_TOWERS))
    w = draw(st.integers(2, 3))
    shape = draw(st.sampled_from(["equal", "mixed"]))
    kind = draw(st.sampled_from(["inside", "deficient", "overweight"]))
    t = draw(st.integers(2, 4) if kind == "deficient" else st.integers(1, 3))
    s = draw(st.integers(1, t - 1)) if kind == "deficient" else t + draw(st.integers(0, 1))
    full = kind != "deficient" and draw(st.booleans())
    k = draw(st.integers(1, 2))
    parts = [w] + (draw(st.lists(st.integers(1, w), max_size=3)) if shape == "mixed" else [])
    while sum(parts) <= k + t + 4 * w + draw(st.integers(0, 2)):
        parts.append(w)
    part = LengthPartition(parts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "overweight":
        f = tower.ext_field
        while True:
            H = f.random(rng, (part.n - k, part.n))
            H[:, 0] = f.neg(f.mul(int(f.random(rng, ())), H[:, 1]))
            if rank(Matrix(f, H)) == part.n - k:
                break
        code = LinearCode(tower, part, Matrix(f, H))
    else:
        code = random_code(tower, part, k, rng=rng, d_min=t + 2 if kind == "inside" else None)
    inst = make_instance(code, s=s, rng=rng, t=t, require_full_rank=full)
    return inst.icode, inst.Y


def _outcome(icode, Y):
    """decode's report, or the failure's type, message and fields."""
    try:
        return decode(icode, Y)
    except FAILURES as ex:
        return type(ex), str(ex), vars(ex)


_recover = decoder.recover_block_supports


def _exact_supports(tower, h_sub, partition, t_hat):
    """recover_block_supports on the formed annihilator, always reduced in
    full: the exact supports."""
    return _recover(tower, h_sub.matrix().array[None], partition, t_hat)


def _no_rederivation(*args):
    """recover_block_supports reporting its kernels as exact, so that decode
    never completes them."""
    return _recover(*args)[:2] + (None,)


class TestSliceFirst:
    """The slice-first rule of support recovery: the kernels of the
    annihilator's leading slice are kept when their dimensions add up to
    t_hat; a later failure completes them to the exact ones, on the rows
    below the slice."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(slice_first_cases())
    def test_same_outcome_as_exact_supports(self, case):
        icode, Y = case
        with reduced_stacks():
            got = _outcome(icode, Y)
            with mock.patch.object(decoder, "recover_block_supports", _exact_supports):
                want = _outcome(icode, Y)
        assert got == want

    def test_failure_after_the_slice_rederives(self):
        # GF(3), 64 blocks of 2, k = 40, s = 2 and t = 4 without the rank
        # condition: the slice's kernels add up to t_hat, verify (instance 0)
        # or the erasure solve (instance 6) fails on them, and the exact
        # kernels, completed on the rows below the slice, add up to less, so
        # decode raises their SupportMismatch without forming h_sub
        tower, part = FieldTower.standard(3, 1), LengthPartition([2] * 64)
        rng = np.random.default_rng(0)
        code = random_code(tower, part, 40, rng=rng)
        insts = [make_instance(code, s=2, rng=rng, t=4, require_full_rank=False) for _ in range(7)]
        take, matrix = decoder.Annihilator.take, decoder.Annihilator.matrix
        for inst, later in [(insts[0], ResidualCheckFailed), (insts[6], Inconsistent)]:
            reads, formed = [], []

            def take_spy(self, rows, cols):
                reads.append((rows.start, rows.stop))
                return take(self, rows, cols)

            def matrix_spy(self):
                formed.append(self.rows)
                return matrix(self)

            with mock.patch.object(decoder.Annihilator, "take", take_spy), \
                    mock.patch.object(decoder.Annihilator, "matrix", matrix_spy):
                got = _outcome(inst.icode, inst.Y)
            # the slice, then the completion's one read, of the rows below it
            r = code.H.rows - got[2]["t_hat"]
            assert reads == [(0, 4), (4, r)] and not formed
            with mock.patch.object(decoder, "recover_block_supports", _no_rederivation):
                assert _outcome(inst.icode, inst.Y)[0] is later
            with mock.patch.object(decoder, "recover_block_supports", _exact_supports):
                want = _outcome(inst.icode, inst.Y)
            assert got[0] is SupportMismatch and got == want
            assert sum(got[2]["per_block_t"]) < got[2]["t_hat"]

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(factored_annihilators(), st.sampled_from(["slice", "qm", "exact", "neither"]))
    def test_block_kernels_given_t_hat(self, case, target):
        tower, part, M, ann = case
        w, r = max(part.parts), ann.rows
        exact, on_slice = (_block_kernels(tower, part, a) for a in (M, M[: 2 * w]))
        # the slice's kernel dimensions over GF(q^m); a block zero there
        # counts n_i, a nonzero block of length 1 counts 0
        blocks = [Matrix(tower.ext_field, b)
                  for b in np.split(M[: 2 * w], np.cumsum(part.parts)[:-1], axis=1)]
        dims_qm = sum(ni - rank(b) for ni, b in zip(part.parts, blocks))
        t_hat = {"slice": sum(k.rows for k in on_slice), "qm": dims_qm,
                 "exact": sum(k.rows for k in exact), "neither": dims_qm + 1}[target]
        reads = []
        take = decoder.Annihilator.take

        def spy(self, rows, cols):
            reads.append(rows.stop)
            return take(self, rows, cols)

        with reduced_stacks(), mock.patch.object(decoder.Annihilator, "take", spy):
            got = block_supports(tower, ann, part, t_hat)
        kept = got[2] is not None
        # on the slice path the slice's kernels are kept exactly when their
        # GF(q^m)-dimensions add up to t_hat and equal their GF(q)-dimensions
        # (the reduced rows lie in GF(q))
        assert kept == (r > 4 * w and sum(k.rows for k in on_slice) == dims_qm == t_hat)
        _check_supports(got[:2], on_slice if kept else exact)
        if r > 4 * w:
            # rows below the slice are read unless the slice is kept or
            # every block is nonzero on it and of full rank there
            short = any(b.is_zero or rank(b) < ni for ni, b in zip(part.parts, blocks))
            assert (max(reads) > 2 * w) == (short and not kept)
        if kept:
            # the completion, on the slice's reduction: the exact kernels
            _check_supports(got[2](), exact)


@st.composite
def rank_law_cases(draw):
    """(code, inst, tall): a code with certified distance d >= t + 2 and an
    error of weight t <= s drawn without the full-rank condition, redrawn
    until it has GF(q^m)-rank t or, for the other half, below t (s = t >=
    2 there).  "tall" is GF(4) with 8 blocks of 2 and k = 3, so
    n - k - t > 4w and the annihilator is read on its leading slice."""
    full = draw(st.booleans())
    tall = draw(st.booleans())
    t = draw(st.integers(1 if full else 2, 3 if tall else 2))
    s = t + (draw(st.integers(0, 1)) if full else 0)
    if tall:
        tower, part, k = FieldTower.standard(2, 2), LengthPartition([2] * 8), 3
    else:
        tower = draw(st.sampled_from([FieldTower.standard(2, 2), FieldTower.standard(2, 3),
                                      FieldTower.standard(3, 2)]))
        k = draw(st.integers(1, 2))
        part = LengthPartition(draw(st.lists(st.integers(1, 3), min_size=t + k + 2,
                                             max_size=t + k + 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = random_code(tower, part, k, rng=rng, d_min=t + 2)
    for _ in range(50):
        inst = make_instance(code, s=s, rng=rng, t=t, require_full_rank=False)
        if (rank(inst.E) == t) == full:
            return code, inst, tall
    assume(False)


class TestExactRankLaw:
    """Inside t <= d - 2 and s >= t, decode returns C exactly when
    rank(E) = t.  "If" is the decoding theorem; "only if" because t < d
    gives t_hat = rank(S) = rank(E) < t, and verify certifies the weight of
    every returned E_hat as t_hat, so E_hat = E, of weight t, is never
    returned."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(rank_law_cases())
    def test_success_exactly_when_full_rank(self, case):
        code, inst, tall = case
        with reduced_stacks() as shapes:
            try:
                report, failure = decode(inst.icode, inst.Y), None
            except FAILURES as ex:
                report, failure = None, ex
        assert inst.em.full_rank == (rank(inst.E) == inst.t)
        if tall and shapes:
            # the annihilator's leading slice of 2w = 4 rows
            assert shapes[0][1:] == (4, 2)
        if inst.em.full_rank:
            assert failure is None and report.C_hat == inst.C
        else:
            assert failure is not None or (inst.icode.contains(report.C_hat)
                                           and report.C_hat != inst.C)


VERDICT_TOWERS = PROPERTY_TOWERS + [FieldTower.standard(2, 1)]


def full_verdict(code, Y, E, t_hat):
    """The check by the whole residual: Y - E is a codeword stack of weight t_hat."""
    return syndrome(code.H, Y - E).is_zero and sum_rank_weight(code.tower, E, code.partition) == t_hat


def product(tower, A, B):
    """A @ B over GF(q^m), B's codes read as GF(q^m) codes."""
    return A @ (tower.lift(B) if B.field == tower.base_field else B)


def well_formed(tower, B, partition, t_hat):
    """B is a witness: t_hat rows of GF(q) codes, each nonzero in at most one block."""
    blocks = np.stack([blk.array.any(axis=1) for blk in partition.blocks(B)], axis=1)
    return B.rows == t_hat and int(B.array.max(initial=0)) < tower.q and (blocks.sum(axis=1) <= 1).all()


def support_verdict(code, S, A, B, t_hat):
    try:
        E_hat = decoder._verify(code, S, A, B, t_hat)
    except ResidualCheckFailed:
        return False
    assert E_hat == product(code.tower, A, B)
    return True


def planted_candidates(tower, A, B, partition, rng):
    """(A, B) with one entry of A changed, one entry of B changed inside the
    block of its row, one nonzero of B added in another block, and, when
    m > 1, one entry of B set outside GF(q), where A and B have such
    places.  The last two are malformed witnesses."""
    field = tower.ext_field
    out = []
    if A.array.size:
        a = A.array.copy()
        i, j = rng.integers(a.shape[0]), rng.integers(a.shape[1])
        a[i, j] = field.add(a[i, j], 1 + int(rng.integers(field.order - 1)))
        out.append((Matrix(field, a), B))
    rows = np.flatnonzero(B.array.any(axis=1))
    if rows.size:
        r = rng.choice(rows)
        own = next(sl for sl in partition.slices if B.array[r, sl].any())
        others = [sl for sl in partition.slices if sl != own]
        b = B.array.copy()
        c = rng.integers(own.start, own.stop)
        b[r, c] = tower.base_field.add(b[r, c], 1 + int(rng.integers(tower.q - 1)))
        out.append((A, Matrix(B.field, b)))
        if others:
            b = B.array.copy()
            sl = others[rng.integers(len(others))]
            b[r, rng.integers(sl.start, sl.stop)] = 1 + rng.integers(tower.q - 1)
            out.append((A, Matrix(B.field, b)))
        if tower.m > 1:
            b = B.array.copy()
            b[r, c] = tower.q + rng.integers(field.order - tower.q)
            out.append((A, Matrix(field, b)))
    return out


def block_row_bases(E, partition):
    """(A, B) with E = A @ B and B block-diagonal over GF(q^m): block i of B
    is the reduced row basis of block i of E, and A's columns for it are
    that block's pivot columns.  B has one row per unit of GF(q^m)-rank of
    each block, which may be fewer than the block's weight."""
    coeffs, bases = [], []
    for blk in partition.blocks(E):
        R, piv = rref(blk)
        coeffs.append(blk[:, list(piv)])
        bases.append(R[: len(piv)])
    return hstack(coeffs), block_diag(bases)


VERDICT_SHAPES = ["random", "blocks_of_1", "mixed", "s_below_min", "high_s"]


@st.composite
def verdict_cases(draw):
    """(code, s, t, full_rank, rng) over VERDICT_TOWERS: t from 0 up to n - k,
    inside the guarantee or not, on random block lengths, blocks of 1, the
    mixed lengths [3, 1, 4, 2], s below the shortest block, or s >= 4t."""
    tower = draw(st.sampled_from(VERDICT_TOWERS))
    shape = draw(st.sampled_from(VERDICT_SHAPES))
    if shape == "blocks_of_1":
        parts = [1] * draw(st.integers(2, 8))
    elif shape == "mixed":
        parts = [3, 1, 4, 2]
    else:
        lo = 2 if shape == "s_below_min" else 1
        parts = draw(st.lists(st.integers(lo, lo + 2), min_size=2, max_size=5 if lo == 2 else 6))
    part = LengthPartition(parts)
    k = draw(st.integers(1, part.n - 1))
    if shape == "s_below_min":
        s = draw(st.integers(1, min(parts) - 1))
    elif shape == "high_s":
        s = draw(st.integers(8, 12))
    else:
        s = draw(st.integers(1, 3))
    full_rank = draw(st.booleans())
    cap = sum(min(ni, tower.m * s) for ni in parts)
    top = min(part.n - k, s if full_rank else cap)
    t = draw(st.integers(0, min(top, s // 4) if shape == "high_s" else top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_code(tower, part, k, rng=rng), s, t, full_rank, rng


class TestVerifyOnSupport:
    """decode's check, the residual over B's nonzero columns and the witness
    B, against the whole residual and the recomputed weight of E = A @ B."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(verdict_cases())
    def test_same_verdict_as_full_residual(self, case):
        code, s, t, full_rank, rng = case
        tower = code.tower
        inst = make_instance(code, s=s, rng=rng, t=t, require_full_rank=full_rank)
        S = syndrome(code.H, inst.Y)
        t_hat = rank(S)
        try:
            report = decode(inst.icode, inst.Y)
        except FAILURES:
            A, B = inst.em.A, inst.em.B
        else:
            A, B = report.A_hat, report.B_hat
            assert full_verdict(code, inst.Y, report.E_hat, t_hat)
            assert sum_rank_weight(tower, report.E_hat, code.partition) == report.t_hat == t_hat
            assert syndrome(code.H, report.C_hat).is_zero
        # E plus a nonzero codeword stack keeps the residual, and the unit
        # vectors are a witness of n rows for it
        Z = inst.icode.encode(Matrix.random(tower.ext_field, s, code.k, rng))
        shifted = (product(tower, A, B) + Z, Matrix.identity(tower.base_field, code.n))
        # the true error over GF(q^m) row bases keeps the residual; where an
        # error block's rank over GF(q^m) is below its weight, only the
        # GF(q) test of the witness tells its weight from t_hat
        over_ext = block_row_bases(inst.E, code.partition)
        candidates = [(A, B), shifted, over_ext] + planted_candidates(tower, A, B, code.partition, rng)
        for A2, B2 in candidates:
            verdict = support_verdict(code, S, A2, B2, t_hat)
            full = full_verdict(code, inst.Y, product(tower, A2, B2), t_hat)
            # never accepts what the whole check rejects, and agrees with it
            # on every well-formed witness
            assert full or not verdict
            if well_formed(tower, B2, code.partition, t_hat):
                assert verdict == full

    @pytest.mark.parametrize(
        "tower", [FieldTower.standard(2, 1), FieldTower.standard(2, 3), FieldTower.standard(5, 2)], ids=repr
    )
    def test_error_free_word_has_empty_support(self, tower):
        # t_hat = 0: J is empty and the residual product has inner dimension 0
        rng = np.random.default_rng(4)
        code = random_code(tower, LengthPartition([2, 1, 2]), 2, rng=rng, d_min=2)
        inst = make_instance(code, s=2, rng=rng, t=0)
        report = decode(inst.icode, inst.Y)
        assert report.t_hat == 0 and report.E_hat.shape == (2, code.n) and report.E_hat.is_zero
        assert report.B_hat.shape == (0, code.n) and report.A_hat.shape == (2, 0)
        assert report.C_hat == inst.C
        S = syndrome(code.H, inst.Y)
        assert support_verdict(code, S, report.A_hat, report.B_hat, 0)
        # a nonzero error of weight 1 in the first or the last block: a
        # witness of one row where t_hat = 0 asks for none
        for col in (0, code.n - 1):
            A = Matrix(tower.ext_field, [[1], [int(rng.integers(tower.ext_field.order))]])
            B = Matrix(tower.base_field, np.eye(1, code.n, col, dtype=np.int64))
            assert not support_verdict(code, S, A, B, 0)
            assert not full_verdict(code, inst.Y, product(tower, A, B), 0)


class TestDecodeRandomised:
    @pytest.mark.parametrize(
        "p,m,parts,k,s,t",
        [
            (5, 2, (2, 2, 2), 1, 3, 3),
            (2, 3, (1, 1, 1, 1, 1, 1, 1), 2, 2, 2),
            (3, 4, (4,), 1, 2, 2),
            (2, 1, (1,) * 10, 3, 2, 2),  # binary Hamming metric
        ],
    )
    def test_exact_recovery(self, p, m, parts, k, s, t):
        tower = FieldTower(5, 1, 2, [2, 4, 1]) if (p, m) == (5, 2) else FieldTower.standard(p, m)
        part = LengthPartition(parts)
        rng = np.random.default_rng(5)
        code = random_code(tower, part, k, rng=rng, d_min=t + 2)
        for _ in range(25):
            inst = make_instance(code, s=s, rng=rng, t=t)
            report = decode(inst.icode, inst.Y)
            assert report.C_hat == inst.C
            assert report.E_hat == inst.E

    def test_set_up_on_panels_decode_on_stepping_loop(self):
        # n = 256, k = 128, s = t = 8 over GF(5^2): the set-up's one
        # elimination of H takes the panel route, the decode's S^T (8 x 128)
        # and erasure system (8 x 16) the stepping loop
        tower = FieldTower.standard(5, 2)
        rng = np.random.default_rng(23)
        with panel_reductions() as shapes, eliminations() as eliminated:
            code = random_code(tower, LengthPartition((4,) * 64), 128, rng=rng)
        assert shapes == [(128, 256)] and eliminated == [(128, 256)]
        inst = make_instance(code, s=8, rng=rng, t=8)
        with panel_reductions() as shapes, eliminations() as eliminated:
            report = decode(inst.icode, inst.Y)
        assert report.C_hat == inst.C
        assert shapes == [] and eliminated == [(8, 128), (8, 16)]

    def test_erasure_system_on_support_columns(self, ref, monkeypatch):
        # decode hands erasure_decode H and B on B's nonzero columns only,
        # four of the six here
        seen = []

        def spy(H, B, S):
            seen.append((H.cols, B.cols, bool(B.array.any(axis=0).all())))
            return erasure_decode(H, B, S)

        monkeypatch.setattr(decoder, "erasure_decode", spy)
        report = decode(ref.icode, ref.Y)
        assert report.C_hat == ref.C
        assert seen == [(4, 4, True)]

    def test_wrong_shape_rejected(self, ref):
        with pytest.raises(ValueError):
            decode(ref.icode, Matrix.zeros(ref.tower.ext_field, 2, 6))

    def test_wrong_field_rejected(self, ref):
        with pytest.raises(ValueError):
            decode(ref.icode, Matrix.zeros(ref.tower.base_field, 3, 6))


class TestRobustness:
    def test_rank_deficient_errors_never_silently_wrong(self, ref_tower):
        rng = np.random.default_rng(6)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng, d_min=4)
        failures = 0
        solver_errors = set()
        for _ in range(30):
            # s < t forces rk(E) < t
            inst = make_instance(code, s=3, rng=rng, profile=(2, 1, 1), require_full_rank=False)
            solver_errors |= _solver_errors_as_full_product(
                ref_tower, code.H, inst.em.B, syndrome(code.H, inst.Y))
            try:
                report = decode(inst.icode, inst.Y)
            except FAILURES:
                failures += 1
                continue
            assert syndrome(code.H, report.C_hat).is_zero
        assert failures > 0
        assert solver_errors == {NonUniqueSolution, Inconsistent}

    def test_overweight_errors_never_silently_wrong(self, ref_tower):
        rng = np.random.default_rng(7)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng, d_min=4)
        t = code.d  # beyond the d - 2 guarantee
        solver_errors = set()
        for _ in range(30):
            inst = make_instance(code, s=t, rng=rng, t=t)
            solver_errors |= _solver_errors_as_full_product(
                ref_tower, code.H, inst.em.B, syndrome(code.H, inst.Y))
            try:
                report = decode(inst.icode, inst.Y)
            except FAILURES:
                continue
            assert syndrome(code.H, report.C_hat).is_zero
        assert solver_errors == {NonUniqueSolution, Inconsistent}

    def test_support_mismatch_surfaced(self, ref_tower):
        rng = np.random.default_rng(8)
        part = LengthPartition([2, 2, 2])
        code = random_code(ref_tower, part, 2, rng=rng, d_min=4)
        hit = False
        for _ in range(50):
            inst = make_instance(code, s=2, rng=rng, profile=(1, 1, 1), require_full_rank=False)
            if rank(inst.E) == 3:
                continue
            try:
                decode(inst.icode, inst.Y)
            except SupportMismatch as ex:
                assert ex.t_hat == rank(syndrome(code.H, inst.Y)) and ex.stage == "supports"
                assert len(ex.per_block_t) == 3 and sum(ex.per_block_t) != ex.t_hat
                hit = True
                break
            except FAILURES:
                continue
        assert hit

    @pytest.mark.parametrize("check", ["residual", "weight"])
    def test_residual_check_failed_fields(self, ref, monkeypatch, check):
        # Both checks hold whenever the earlier stages are exact, so a faulty
        # stage is injected through the names decode() calls.
        if check == "residual":
            monkeypatch.setattr(
                decoder, "erasure_decode", lambda H, B, S: Matrix.zeros(H.field, S.cols, B.rows)
            )
        else:
            # a malformed witness: one nonzero of B moves to the same place
            # in the next block, so its row is nonzero in two blocks
            recover = decoder.recover_block_supports

            def moved(tower, h_sub, partition, t_hat):
                B, per_block_t, complete = recover(tower, h_sub, partition, t_hat)
                b = B.array.copy()
                r = int(np.argmax((b != 0).sum(axis=1)))
                c = int(np.flatnonzero(b[r])[-1])
                assert (b[r] != 0).sum() >= 2 and partition.parts == (2, 2, 2)
                b[r, (c + 2) % partition.n], b[r, c] = b[r, c], 0
                return Matrix(B.field, b), per_block_t, complete

            monkeypatch.setattr(decoder, "recover_block_supports", moved)
        with pytest.raises(ResidualCheckFailed) as info:
            decode(ref.icode, ref.Y)
        assert (info.value.t_hat, info.value.check) == (3, check)
        assert vars(info.value)["stage"] == "verify"

    @pytest.mark.parametrize("error", [NonUniqueSolution, Inconsistent])
    def test_erasure_failure_names_its_stage(self, ref, monkeypatch, error):
        def failing(H, B, S):
            raise error("injected")

        monkeypatch.setattr(decoder, "erasure_decode", failing)
        with pytest.raises(error) as info:
            decode(ref.icode, ref.Y)
        assert vars(info.value)["stage"] == "erasure"

    @pytest.mark.parametrize("seed", [4, 33, 45])
    def test_erasure_inconsistent_on_own_supports(self, seed):
        # binary Hamming metric (GF(2), ten blocks of 1), k = 4, s = t = 4,
        # errors not of full rank: the supports the decoder recovers itself
        # pass their weight check, and the erasure system on them has no
        # solution, so decode raises instead of returning a codeword
        tower = FieldTower.standard(2, 1)
        part = LengthPartition([1] * 10)
        rng = np.random.default_rng(seed)
        code = random_code(tower, part, 4, rng=rng)
        profile = random_profile(rng, tower, part, 4, 4)
        em = sample_error(tower, part, profile, 4, require_full_rank=False, rng=rng)
        icode = InterleavedCode(code, 4)
        C = icode.encode(Matrix.random(tower.ext_field, 4, 4, rng))
        Y = C + em.E
        S = syndrome(code.H, Y)
        h_sub, t_hat, _ = compute_hsub(code.H, S)
        recover_block_supports(tower, h_sub, part, t_hat)  # no SupportMismatch
        with pytest.raises(Inconsistent) as info:
            decode(icode, Y)
        assert info.value.stage == "erasure"


class TestSpecialCaseReductions:
    def test_hamming_partition_recovers_error_positions(self):
        tower = FieldTower.standard(2, 3)
        part = LengthPartition.hamming(7)
        rng = np.random.default_rng(9)
        code = random_code(tower, part, 2, rng=rng, d_min=4)
        for _ in range(20):
            inst = make_instance(code, s=2, rng=rng, t=2)
            report = decode(inst.icode, inst.Y)
            recovered = {i for i, ti in enumerate(report.per_block_t) if ti == 1}
            assert recovered == hamming_support(inst.E)
            assert report.C_hat == inst.C

    def test_full_partition_recovers_rank_support(self):
        tower = FieldTower.standard(3, 3)
        part = LengthPartition.full(4)
        rng = np.random.default_rng(10)
        code = random_code(tower, part, 1, rng=rng, d_min=3)
        for _ in range(20):
            inst = make_instance(code, s=2, rng=rng, t=1)
            report = decode(inst.icode, inst.Y)
            S = syndrome(code.H, inst.Y)
            h_sub, t_hat, _ = compute_hsub(code.H, S)
            B, _, _ = recover_block_supports(tower, h_sub, part, t_hat)
            assert B == rank_support(tower, inst.E)
            assert report.C_hat == inst.C


# Runs in a fresh process: whether freed memory is trimmed off the heap
# depends on the allocations made before, so in a long test session the
# count can read 0 without the pinned thresholds.  Prints the faults of five
# decodes and of five set-ups, after three set-ups that bring the heap to
# its working size.
FRESH_DECODES = """
import resource
import numpy as np
from sumrankdec import FieldTower, InterleavedCode, LengthPartition, decode, random_code, random_instance

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

# n = 256, k = 128, s = t = 8 over GF(5^2): elimination steps free arrays of
# a few hundred KB
tower = FieldTower.standard(5, 2)
part = LengthPartition((4,) * 64)
rng = np.random.default_rng(11)
icode = InterleavedCode(random_code(tower, part, 128, rng=rng), 8)
C, em = random_instance(icode, rng, t=8)
Y = C + em.E
assert decode(icode, Y).C_hat == C
before = faults()
for _ in range(5):
    decode(icode, Y)
decodes = faults() - before
for _ in range(3):
    random_code(tower, part, 128, rng=rng)
before = faults()
for _ in range(5):
    random_code(tower, part, 128, rng=rng)
print(decodes, faults() - before)
"""


@pytest.mark.skipif(not sumrankdec._HEAP_PINNED, reason="heap thresholds are pinned under glibc only")
def test_repeated_decodes_fault_in_no_fresh_memory():
    # the decodes read 0 faults with the thresholds pinned or not; the
    # set-ups read 0 pinned and 1 100 to 2 300 unpinned, under python -O
    # too, so 50 lies well between the two
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", FRESH_DECODES], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    decodes, setups = map(int, out.stdout.split())
    assert decodes < 50 and setups < 50
