"""Support recovery, erasure decoding and the end-to-end decoder."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sumrankdec
from conftest import code_with_distance, make_instance, reduced_stacks
from sumrankdec import decoder
from sumrankdec.code import LinearCode, min_sum_rank_distance, random_code, syndrome
from sumrankdec.decoder import (
    ResidualCheckFailed,
    SupportMismatch,
    SupportSpaceEmpty,
    compute_hsub,
    decode,
    erasure_decode,
    recover_block_supports,
)
from sumrankdec.gf import FieldTower
from sumrankdec.linalg import (
    Inconsistent,
    LinearSystemError,
    Matrix,
    NonUniqueSolution,
    block_diag,
    hstack,
    rank,
    right_kernel,
    row_space_basis,
    row_space_intersection,
    row_spaces_equal,
    rref,
    vstack,
)
from sumrankdec.sumrank import (
    LengthPartition,
    hamming_support,
    rank_support,
    sample_error,
)

FAILURES = (SupportSpaceEmpty, SupportMismatch, ResidualCheckFailed, NonUniqueSolution, Inconsistent)

# Small towers for the property tests, including a two-level GF(4) <= GF(16).
PROPERTY_TOWERS = [
    FieldTower.standard(2, 2),
    FieldTower.standard(2, 3),
    FieldTower.standard(3, 2),
    FieldTower.standard(5, 2),
    FieldTower.standard(2, 2, e=2),
]


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
        assert row_spaces_equal(h_sub, ref.h_sub)
        support = recover_block_supports(ref.tower, h_sub, ref.partition, t_hat)
        assert support.per_block_t == (1, 2, 0)
        assert support.per_block_kernels[0] == ref.B_blocks[0]
        assert support.per_block_kernels[1] == ref.B_blocks[1]
        assert support.per_block_kernels[2] == ref.B_blocks[2]
        B = block_diag(support.per_block_kernels)
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

    def test_error_free_received(self, ref):
        report = decode(ref.icode, ref.C)
        assert report.C_hat == ref.C and report.E_hat.is_zero and report.t_hat == 0

    def test_report_json(self, ref):
        d = decode(ref.icode, ref.Y).to_dict(ref.tower)
        assert d["status"] == "success" and d["t_hat"] == 3 and d["per_block_t"] == [1, 2, 0]


class TestComputeHsub:
    def test_zero_error_gives_full_row_space(self, ref):
        S = syndrome(ref.code.H, ref.C)
        h_sub, t_hat, _ = compute_hsub(ref.code.H, S)
        assert t_hat == 0
        assert row_spaces_equal(h_sub, ref.code.H)

    def test_annihilates_error(self, ref_tower):
        rng = np.random.default_rng(0)
        part = LengthPartition([2, 2, 2])
        code = code_with_distance(ref_tower, part, 2, rng, d_min=4)
        for _ in range(10):
            inst = make_instance(code, s=2, rng=rng, t=2)
            S = syndrome(code.H, inst.Y)
            h_sub, t_hat, _ = compute_hsub(code.H, S)
            assert t_hat == 2
            assert (h_sub @ inst.E.T).is_zero

    def test_support_space_empty(self, ref_tower):
        # rank(S) = n - k leaves no annihilator rows
        rng = np.random.default_rng(1)
        part = LengthPartition([2, 2, 2])
        f = ref_tower.ext_field
        code = code_with_distance(ref_tower, part, 2, rng, d_min=3)
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
        assert t_hat == rank(S)
        assert h_sub.rows == H.rows - t_hat
        assert (h_sub @ E.T).is_zero
        assert row_space_basis(h_sub) == row_space_basis(right_kernel(S.T) @ H)
        # entry-identical to P[t:] @ H for the transform P that reduces S
        RP, _ = rref(hstack([S, Matrix.identity(H.field, H.rows)]), pivot_cols=S.cols)
        P = RP[:, S.cols :]
        assert h_sub == (P @ H)[t_hat:, :]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(syndrome_cases())
    def test_matches_pivot_limited_rref(self, case):
        # the narrow elimination of S and one product give, entry for
        # entry, the split of the full-width reduction of [S | H]
        H, S = case
        R, pivots = rref(hstack([S, H]), pivot_cols=S.cols)
        t = len(pivots)
        if t == H.rows:
            with pytest.raises(SupportSpaceEmpty):
                compute_hsub(H, S)
            return
        h_sub, t_hat, top = compute_hsub(H, S)
        assert t_hat == t
        assert h_sub == R[t:, S.cols :]
        assert top == R[:t]

    def test_dependent_leading_rows(self, ref_tower):
        # row 1 of S repeats row 0, so the first non-pivot row is H_0 - H_1
        # (not H_1 - H_0, which a pivot choice by rref(S^T) would give)
        f = ref_tower.ext_field
        H = Matrix(f, f.random(np.random.default_rng(4), (4, 6)))
        S = Matrix(f, [[0, 1], [0, 1], [1, 0], [0, 0]])
        h_sub, t_hat, _ = compute_hsub(H, S)
        assert t_hat == 2
        assert h_sub.tolist() == [f.sub(H.array[0], H.array[1]).tolist(), H.array[3].tolist()]


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
            assert row_space_basis(h_sub) == expected

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
            support = recover_block_supports(ref.tower, h_sub, inst.partition, t_hat)
            for kern, blk, ti in zip(
                support.per_block_kernels, inst.partition.blocks(inst.E), inst.em.profile
            ):
                assert kern == rank_support(ref.tower, blk)
                assert kern.rows == ti


class TestErasureDecode:
    def test_forward_construction(self, ref_tower):
        rng = np.random.default_rng(3)
        part = LengthPartition([2, 2, 2])
        code = code_with_distance(ref_tower, part, 2, rng, d_min=5)
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
        code = code_with_distance(ref_tower, part, 2, rng, d_min=4)
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


class TestErasureOnPivotRows:
    """decode solves the erasure system on compute_hsub's t_hat pivot rows.

    The other rows of P @ [H @ B^T | S] are [h_sub @ B^T | 0], which is zero,
    so both systems have one reduced echelon form: the same solution, and
    the same solver error for a wrong support basis.
    """

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(annihilator_cases())
    def test_matches_full_system(self, case):
        tower, part, H, E = case
        S = H @ E.T
        try:
            h_sub, t_hat, top = compute_hsub(H, S)
            B = recover_block_supports(tower, h_sub, part, t_hat).B
        except (SupportSpaceEmpty, SupportMismatch):
            return
        assert (h_sub @ tower.lift(B).T).is_zero
        H_top, S_top = top[:, S.cols :], top[:, : S.cols]
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
        code = code_with_distance(tower, part, 2, rng, d_min=4)
        for _ in range(5):
            inst = make_instance(code, s=2, rng=rng, t=2)
            S = syndrome(code.H, inst.Y)
            h_sub, t_hat, top = compute_hsub(code.H, S)
            B = recover_block_supports(tower, h_sub, part, t_hat).B
            H_top, S_top = top[:, S.cols :], top[:, : S.cols]
            assert erasure_decode(H_top, B, S_top) == erasure_decode(code.H, B, S)
            for B2, error in ((vstack([B, B[:1]]), NonUniqueSolution), (B[1:], Inconsistent)):
                for system in ((H_top, B2, S_top), (code.H, B2, S)):
                    with pytest.raises(error):
                        erasure_decode(*system)


@st.composite
def tall_decoding_cases(draw):
    """(code, s, t, kind, rng) over PROPERTY_TOWERS with n - k - t > 4 max n_i,
    so the annihilator's blocks are tall enough for rref_stack's slice path.

    "inside" draws a random code with t <= d - 2, s >= t and a full-rank
    error; "deficient" has s < t, so the error has rank below t; and
    "overweight" plants the codeword (1, a, 0, ..., 0) in the code, so
    d <= 2 and t > d - 2.  d is certified by min_sum_rank_distance.
    """
    tower = draw(st.sampled_from(PROPERTY_TOWERS))
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
        with reduced_stacks(min_work=0) as shapes:
            try:
                report, failure = decode(inst.icode, inst.Y), None
            except FAILURES as ex:
                report, failure = None, ex
        w = max(code.partition.parts)
        assert shapes[0] == (code.partition.ell, 2 * w, w)
        if kind == "inside":
            assert failure is None and report.C_hat == inst.C
        elif failure is not None:
            assert failure.stage in {"annihilator", "supports", "erasure", "verify"}
        else:
            assert inst.icode.contains(report.C_hat)


class TestDecodeRandomised:
    @pytest.mark.parametrize(
        "p,m,parts,k,s,t",
        [
            (5, 2, (2, 2, 2), 1, 3, 3),
            (2, 3, (1, 1, 1, 1, 1, 1, 1), 2, 2, 2),
            (3, 4, (4,), 1, 2, 2),
        ],
    )
    def test_exact_recovery(self, p, m, parts, k, s, t):
        tower = FieldTower(5, 1, 2, [2, 4, 1]) if (p, m) == (5, 2) else FieldTower.standard(p, m)
        part = LengthPartition(parts)
        rng = np.random.default_rng(5)
        code = code_with_distance(tower, part, k, rng, d_min=t + 2)
        for _ in range(25):
            inst = make_instance(code, s=s, rng=rng, t=t)
            report = decode(inst.icode, inst.Y)
            assert report.C_hat == inst.C
            assert report.E_hat == inst.E

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
        code = code_with_distance(ref_tower, part, 2, rng, d_min=4)
        failures = 0
        for _ in range(30):
            # s < t forces rk(E) < t
            inst = make_instance(code, s=3, rng=rng, profile=(2, 1, 1), require_full_rank=False)
            try:
                report = decode(inst.icode, inst.Y)
            except FAILURES:
                failures += 1
                continue
            assert syndrome(code.H, report.C_hat).is_zero
        assert failures > 0

    def test_overweight_errors_never_silently_wrong(self, ref_tower):
        rng = np.random.default_rng(7)
        part = LengthPartition([2, 2, 2])
        code = code_with_distance(ref_tower, part, 2, rng, d_min=4)
        t = code.d  # beyond the d - 2 guarantee
        for _ in range(30):
            inst = make_instance(code, s=t, rng=rng, t=t)
            try:
                report = decode(inst.icode, inst.Y)
            except FAILURES:
                continue
            assert syndrome(code.H, report.C_hat).is_zero

    def test_support_mismatch_surfaced(self, ref_tower):
        rng = np.random.default_rng(8)
        part = LengthPartition([2, 2, 2])
        code = code_with_distance(ref_tower, part, 2, rng, d_min=4)
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
            monkeypatch.setattr(decoder, "sum_rank_weight", lambda tower, E, part: 0)
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


class TestSpecialCaseReductions:
    def test_hamming_partition_recovers_error_positions(self):
        tower = FieldTower.standard(2, 3)
        part = LengthPartition.hamming(7)
        rng = np.random.default_rng(9)
        code = code_with_distance(tower, part, 2, rng, d_min=4)
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
        code = code_with_distance(tower, part, 1, rng, d_min=3)
        for _ in range(20):
            inst = make_instance(code, s=2, rng=rng, t=1)
            report = decode(inst.icode, inst.Y)
            S = syndrome(code.H, inst.Y)
            h_sub, t_hat, _ = compute_hsub(code.H, S)
            support = recover_block_supports(tower, h_sub, part, t_hat)
            assert support.per_block_kernels[0] == rank_support(tower, inst.E)
            assert report.C_hat == inst.C


# Runs in a fresh process: whether freed memory is trimmed off the heap
# depends on the allocations made before, so in a long test session the
# count can read 0 without the pinned thresholds.
FRESH_DECODES = """
import resource
import numpy as np
from sumrankdec import FieldTower, InterleavedCode, LengthPartition, decode, random_code, random_instance

# n = 256, k = 128, s = t = 8 over GF(5^2): elimination steps free arrays of
# a few hundred KB
tower = FieldTower.standard(5, 2)
rng = np.random.default_rng(11)
icode = InterleavedCode(random_code(tower, LengthPartition((4,) * 64), 128, rng=rng), 8)
C, em = random_instance(icode, rng, t=8)
Y = C + em.E
assert decode(icode, Y).C_hat == C
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    decode(icode, Y)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sumrankdec._HEAP_PINNED, reason="heap thresholds are pinned under glibc only")
def test_repeated_decodes_fault_in_no_fresh_memory():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", FRESH_DECODES], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 50
