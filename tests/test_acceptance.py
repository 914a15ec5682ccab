"""Acceptance suite.

Each criterion runs at its stated tolerance and records one pass/fail line,
printed in the pytest terminal summary.  Criterion 8 is advisory (timing
trends) and never fails the suite.
"""

import time

import numpy as np

import conftest
from conftest import make_instance
from sumrankdec import example_case
from sumrankdec.cli import TrialConfig, doubling_ratios, run_bench, run_trials
from sumrankdec.code import InterleavedCode, min_sum_rank_distance, random_code, syndrome
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
    Matrix,
    NonUniqueSolution,
    block_diag,
    rank,
    right_kernel,
    row_space_basis,
    row_space_intersection,
    row_spaces_equal,
)
from sumrankdec.skew import SkewIsometry, skew_decode
from sumrankdec.sumrank import (
    LengthPartition,
    hamming_support,
    rank_support,
    sample_error,
    sum_rank_weight,
)

TYPED_FAILURES = (
    SupportSpaceEmpty,
    SupportMismatch,
    ResidualCheckFailed,
    NonUniqueSolution,
    Inconsistent,
)


def _finish(num: int, name: str, problems: list[str], detail: str = "") -> None:
    ok = not problems
    suffix = detail if ok else "; ".join(problems[:4])
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}" + (f" [{suffix}]" if suffix else "")
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_worked_example_reproduction():
    problems = []
    started = time.perf_counter()
    ref = example_case.load()
    S = syndrome(ref.code.H, ref.Y)
    if S != ref.S:
        problems.append("syndrome not entry-exact")
    h_sub, t_hat, _ = compute_hsub(ref.code.H, S)
    if t_hat != 3:
        problems.append(f"inferred weight {t_hat} != 3")
    if not row_spaces_equal(h_sub.matrix(), ref.h_sub):
        problems.append("annihilator row space differs")
    B, per_block_t, _ = recover_block_supports(ref.tower, h_sub, ref.partition, t_hat)
    Fq = ref.tower.base_field
    # block 1 spanned by (1, 2), block 2 by the unit vectors, block 3 empty
    expected = block_diag([Matrix(Fq, [[1, 2]]), Matrix.identity(Fq, 2), Matrix.zeros(Fq, 0, 2)])
    if per_block_t != (1, 2, 0) or B != expected:
        problems.append("support basis differs")
    A = erasure_decode(ref.code.H, B, S)
    if A != ref.A:
        problems.append("coefficient matrix differs")
    if A @ ref.tower.lift(B) != ref.E:
        problems.append("recovered error not entry-exact")
    if ref.Y - (A @ ref.tower.lift(B)) != ref.C:
        problems.append("recovered codeword not entry-exact")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _finish(1, "worked-example reproduction", problems, f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_minimum_distance():
    problems = []
    ref = example_case.load()
    started = time.perf_counter()
    d = min_sum_rank_distance(ref.code)
    elapsed = time.perf_counter() - started
    if d != 5:
        problems.append(f"d = {d} != 5")
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _finish(2, "minimum distance over 624 codewords", problems, f"d = 5 in {elapsed * 1e3:.0f} ms")


def _tower(p, m, modulus=None):
    if modulus is not None:
        return FieldTower(p, 1, m, modulus)
    return FieldTower.standard(p, m)


#: (label, tower, partition, k, s, t) spanning q in {2,3,5}, m in {2,3,4},
#: partitions (1,...,1), (n) and mixed
GUARANTEE_CONFIGS = [
    ("q5 m2 mixed", _tower(5, 2, [2, 4, 1]), (2, 2, 2), 1, 3, 3),
    ("q2 m3 hamming", _tower(2, 3), (1, 1, 1, 1, 1, 1, 1), 2, 2, 2),
    ("q3 m4 rank", _tower(3, 4), (4,), 1, 2, 2),
    ("q2 m2 mixed", _tower(2, 2), (2, 2, 2, 2), 3, 1, 1),
    ("q3 m3 mixed", _tower(3, 3), (3, 2, 1), 2, 2, 2),
    ("q5 m4 mixed", _tower(5, 4), (2, 1, 1), 1, 2, 2),
    ("q2 m4 hamming", _tower(2, 4), (1, 1, 1, 1, 1, 1, 1, 1), 2, 3, 3),
]


def test_criterion_3_guaranteed_recovery():
    problems = []
    details = []
    for label, tower, parts, k, s, t in GUARANTEE_CONFIGS:
        config = TrialConfig(
            tower=tower,
            partition=LengthPartition(parts),
            k=k,
            s=s,
            t=t,
            profile=None,
            trials=200,
            seed=20240,
            full_rank=True,
        )
        summary = run_trials(config)
        details.append(f"{label}: {summary.successes}/200 (d={summary.code_d})")
        if summary.successes != 200:
            problems.append(f"{label}: {summary.successes}/200, failures {summary.failures}")
    _finish(3, "guaranteed recovery, 200/200 per configuration", problems, "; ".join(details))


def test_criterion_4_support_recovery_invariants():
    problems = []
    ref = example_case.load()
    rng = np.random.default_rng(41)
    instances = []
    # zero-weight and saturated (full-space) blocks are exercised explicitly
    profiles = [(1, 2, 0), (1, 1, 1), (0, 2, 1), (2, 0, 1), (2, 1, 0), (0, 2, 0)]
    for i in range(102):
        profile = profiles[i % len(profiles)]
        instances.append(make_instance(ref.code, s=sum(profile) + 1, rng=rng, profile=profile))
    tower2 = _tower(2, 3)
    part2 = LengthPartition([2, 2, 1])
    code2 = random_code(tower2, part2, 2, rng=rng, d_min=4)
    for _ in range(30):
        instances.append(make_instance(code2, s=2, rng=rng, t=2))

    checked = 0
    for inst in instances:
        code = inst.code
        S = syndrome(code.H, inst.Y)
        h_sub, t_hat, _ = compute_hsub(code.H, S)
        kerE = right_kernel(inst.E)
        if row_space_basis(h_sub.matrix()) != row_space_intersection(kerE, code.H):
            problems.append("annihilator row-space equality violated")
            break
        B = inst.tower.lift(inst.em.B)
        if kerE != right_kernel(B):
            problems.append("error/support kernel equality violated")
            break
        for eb, bb in zip(inst.partition.blocks(inst.E), inst.partition.blocks(B)):
            if right_kernel(eb) != right_kernel(bb):
                problems.append("per-block kernel equality violated")
                break
        B, _, _ = recover_block_supports(inst.tower, h_sub, inst.partition, t_hat)
        blocks = inst.partition.blocks(inst.E)
        if B != block_diag([rank_support(inst.tower, blk) for blk in blocks]):
            problems.append("recovered support differs from error row space")
        checked += 1
    _finish(4, "support-recovery invariants", problems, f"{checked} instances exact")


def test_criterion_5_metric_reductions():
    problems = []
    rng = np.random.default_rng(51)

    tower_h = _tower(2, 3)
    part_h = LengthPartition.hamming(7)
    code_h = random_code(tower_h, part_h, 2, rng=rng, d_min=4)
    for i in range(100):
        t = 1 + int(rng.integers(code_h.d - 2))
        inst = make_instance(code_h, s=max(t, 1), rng=rng, t=t)
        report = decode(inst.icode, inst.Y)
        recovered = {j for j, tj in enumerate(report.per_block_t) if tj == 1}
        if recovered != hamming_support(inst.E):
            problems.append(f"hamming support mismatch at instance {i}")
            break
        if report.C_hat != inst.C:
            problems.append(f"hamming-case recovery failed at instance {i}")
            break

    tower_r = _tower(3, 4)
    part_r = LengthPartition.full(4)
    code_r = random_code(tower_r, part_r, 1, rng=rng, d_min=4)
    for i in range(100):
        t = 1 + int(rng.integers(code_r.d - 2))
        inst = make_instance(code_r, s=max(t, 1), rng=rng, t=t)
        S = syndrome(code_r.H, inst.Y)
        h_sub, t_hat, _ = compute_hsub(code_r.H, S)
        B, _, _ = recover_block_supports(tower_r, h_sub, part_r, t_hat)
        if B != rank_support(tower_r, inst.E):
            problems.append(f"rank support mismatch at instance {i}")
            break
        if decode(inst.icode, inst.Y).C_hat != inst.C:
            problems.append(f"rank-case recovery failed at instance {i}")
            break

    _finish(5, "hamming and rank metric reductions", problems, "100 instances each, exact")


def test_criterion_6_robustness_outside_hypotheses():
    problems = []
    ref = example_case.load()
    rng = np.random.default_rng(61)
    silent_wrong = 0
    variants: dict[str, int] = {}
    returned_codewords = 0

    def run_one(icode, Y):
        nonlocal silent_wrong, returned_codewords
        try:
            report = decode(icode, Y)
        except TYPED_FAILURES as ex:
            variants[type(ex).__name__] = variants.get(type(ex).__name__, 0) + 1
            return
        returned_codewords += 1
        if not syndrome(icode.constituent.H, report.C_hat).is_zero:
            silent_wrong += 1

    # 35 instances with rk(E) < t: s = t - 1 makes the deficiency structural
    for _ in range(35):
        inst = make_instance(ref.code, s=3, rng=rng, profile=(2, 1, 1), require_full_rank=False)
        run_one(inst.icode, inst.Y)
    # 15 with s >= t but a dependent column forced into A, so rk(E) < wt(E)
    made = 0
    attempts = 0
    while made < 15 and attempts < 300:
        attempts += 1
        em = sample_error(ref.tower, ref.partition, (1, 1, 1), s=4, rng=rng)
        arr = em.A.array.copy()
        arr[:, 2] = ref.tower.ext_field.add(arr[:, 0], arr[:, 1])
        A = Matrix(ref.tower.ext_field, arr)
        E = A @ ref.tower.lift(em.B)
        if rank(E) >= sum_rank_weight(ref.tower, E, ref.partition):
            continue
        made += 1
        icode = InterleavedCode(ref.code, 4)
        msg = Matrix.random(ref.tower.ext_field, 4, ref.code.k, rng)
        run_one(icode, icode.encode(msg) + E)
    if made < 15:
        problems.append("could not build enough dependent-column instances")
    # 50 overweight instances: t in {d-1, d} with the full-rank condition
    for i in range(50):
        t = ref.d - 1 + (i % 2)
        inst = make_instance(ref.code, s=t, rng=rng, t=t)
        run_one(inst.icode, inst.Y)

    if silent_wrong:
        problems.append(f"{silent_wrong} silent non-codeword outputs")
    if not variants:
        problems.append("no typed failure variants observed")
    _finish(
        6,
        "robustness outside hypotheses",
        problems,
        f"100 instances, 0 silent wrong, variants {variants}, {returned_codewords} verified returns",
    )


def test_criterion_7_skew_composition_law():
    problems = []
    ref = example_case.load()
    rng = np.random.default_rng(71)
    for i in range(100):
        iso = SkewIsometry.random(ref.tower, ref.partition, rng)
        inst = make_instance(ref.code, s=3, rng=rng, t=3)
        skew_report = skew_decode(ref.icode, iso, iso.apply_inv(inst.Y))
        plain = decode(ref.icode, inst.Y)
        if skew_report.C_hat != iso.apply_inv(plain.C_hat) or skew_report.E_hat != iso.apply_inv(
            plain.E_hat
        ):
            problems.append(f"composition law violated at instance {i}")
            break
        if skew_report.C_hat != iso.apply_inv(inst.C):
            problems.append(f"skew recovery failed at instance {i}")
            break
    _finish(7, "skew composition law", problems, "100 instances entry-exact")


def test_criterion_8_complexity_trend_advisory():
    tower = _tower(2, 2)
    rows_n = run_bench(tower, [32, 64, 128], [4], rate=0.5, t=4, block_size=4, reps=3, seed=80)
    rows_s = run_bench(tower, [64], [8, 16], rate=0.5, t=8, block_size=4, reps=3, seed=81)
    details = []
    warnings_ = []
    for small, large, ratio in doubling_ratios(rows_n, "n"):
        details.append(f"n {small}->{large}: x{ratio:.2f}")
        if ratio > 10:
            warnings_.append(f"n-doubling ratio {ratio:.2f} > 10")
    for small, large, ratio in doubling_ratios(rows_s, "s"):
        details.append(f"s {small}->{large}: x{ratio:.2f}")
        if ratio > 3:
            warnings_.append(f"s-doubling ratio {ratio:.2f} > 3")
    detail = "; ".join(details) + ("; ADVISORY: " + "; ".join(warnings_) if warnings_ else "")
    # advisory only: report, never fail
    _finish(8, "complexity trend (advisory)", [], detail)
