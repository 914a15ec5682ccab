"""Command-line harness.

Subcommands:
  example   decode the embedded reference instance and diff the report stage by stage
  trial     seeded Monte Carlo decoding trials with a failure histogram
  bench     decode-time scaling table over lengths / interleaving orders
  decode    decode a received-matrix file against a code file
  mindist   brute-force the minimum sum-rank distance of a code file
  gen       generate a random code plus a corrupted received instance

Exit codes: 0 success, 1 decoding/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import example_case
from .code import (
    BudgetExceeded,
    InterleavedCode,
    LinearCode,
    min_sum_rank_distance,
    random_code,
    random_instance,
)
from .decoder import DecodingFailure, decode
from .gf import FieldTower
from .linalg import (
    Inconsistent,
    Matrix,
    NonUniqueSolution,
    block_diag,
    matrix_from_dict,
    matrix_to_dict,
    row_spaces_equal,
)
from .sumrank import Infeasible, LengthPartition, SamplingFailure, check_profile

__all__ = ["main", "TrialConfig", "TrialSummary", "run_trials", "run_bench"]

_FAILURE_TYPES = (DecodingFailure, NonUniqueSolution, Inconsistent)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as ex:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from ex


def _tower_from_args(args) -> FieldTower:
    if args.modulus is None and args.base_modulus is None:
        return FieldTower.standard(args.p, args.m, e=args.e)
    if args.modulus is None:
        raise UsageError("--modulus is required when --base-modulus is given")
    try:
        return FieldTower(
            args.p,
            args.e,
            args.m,
            _parse_ints(args.modulus),
            base_modulus=_parse_ints(args.base_modulus) if args.base_modulus else None,
        )
    except ValueError as ex:
        raise UsageError(str(ex)) from ex


def _add_field_args(sub) -> None:
    sub.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    sub.add_argument("--e", type=int, default=1, help="base extension degree (q = p^e)")
    sub.add_argument("--m", type=int, required=True, help="extension degree of GF(q^m)")
    sub.add_argument("--modulus", help="little-endian GF(q) coefficients of the degree-m modulus")
    sub.add_argument("--base-modulus", help="little-endian GF(p) coefficients of the degree-e modulus")


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as ex:
        raise UsageError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise UsageError(f"malformed JSON in {path} at line {ex.lineno}, column {ex.colno}: {ex.msg}") from ex


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def cmd_example(args) -> int:
    ref = example_case.load()
    Y = ref.Y
    if args.perturb:
        pos = _parse_ints(args.perturb)
        if len(pos) != 2 or not (0 <= pos[0] < Y.rows and 0 <= pos[1] < Y.cols):
            raise UsageError(f"--perturb expects ROW,COL inside the {Y.rows} x {Y.cols} Y, "
                             f"got {args.perturb!r}")
        r, c = pos
        arr = Y.array.copy()
        arr[r, c] = ref.tower.add(int(arr[r, c]), 1)
        Y = Matrix(ref.tower.ext_field, arr)

    started = time.perf_counter()
    try:
        report = decode(ref.icode, Y)
    except _FAILURE_TYPES as ex:
        print(f"FAIL at stage {ex.stage}: {ex}", file=sys.stderr)
        return 1
    # (stage, shown intermediates, matches the reference, what matched)
    checks = [
        ("syndrome", {"S": report.S}, report.S == ref.S, "entry-exact"),
        ("annihilator", {"h_sub": report.h_sub},
         report.t_hat == ref.t and row_spaces_equal(report.h_sub, ref.h_sub),
         f"t = {report.t_hat}, row-space equal"),
        ("supports", {"B": report.B_hat}, report.B_hat == block_diag(ref.B_blocks),
         f"block weights {report.per_block_t}"),
        ("erasure", {"A": report.A_hat, "E": report.E_hat},
         report.A_hat == ref.A and report.E_hat == ref.E, "A and E entry-exact"),
        ("verify", {"C": report.C_hat}, report.C_hat == ref.C, "C entry-exact, residual zero"),
    ]
    for stage, shown, ok, detail in checks:
        if args.verbose:
            for name, M in shown.items():
                print(f"  {name} = {M.tolist()}")
        if not ok:
            print(f"FAIL at stage {stage}: {', '.join(shown)} differs from the reference",
                  file=sys.stderr)
            return 1
        print(f"stage {stage}: ok ({detail})")

    elapsed = time.perf_counter() - started
    print(f"PASS ({elapsed * 1e3:.1f} ms)")
    return 0


# ---------------------------------------------------------------------------
# trial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
    tower: FieldTower
    partition: LengthPartition
    k: int
    s: int
    t: int | None
    profile: tuple[int, ...] | None
    trials: int
    seed: int
    full_rank: bool = True
    code_tries: int = 50
    mindist_budget: int = 10**6

    @property
    def total_weight(self) -> int:
        return sum(self.profile) if self.profile is not None else int(self.t)

    def to_dict(self) -> dict:
        return {
            "field": self.tower.to_dict(),
            "partition": self.partition.to_dict(),
            "k": self.k,
            "s": self.s,
            "t": self.t,
            "profile": list(self.profile) if self.profile is not None else None,
            "trials": self.trials,
            "seed": self.seed,
            "full_rank": self.full_rank,
        }


@dataclass(frozen=True)
class TrialSummary:
    config: TrialConfig
    code_d: int | None
    successes: int
    failures: dict[str, int]
    outcomes: tuple[str, ...]
    timings_ms: tuple[float, ...]

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    def to_dict(self) -> dict:
        payload = {
            "summary": {
                "config": self.config.to_dict(),
                "code_d": self.code_d,
                "trials": self.trials,
                "successes": self.successes,
                "failures": dict(sorted(self.failures.items())),
                "outcomes": list(self.outcomes),
            }
        }
        if self.timings_ms:
            payload["timing"] = {
                "min_ms": min(self.timings_ms),
                "median_ms": statistics.median(self.timings_ms),
                "max_ms": max(self.timings_ms),
            }
        return payload


def pick_code(config: TrialConfig) -> tuple[LinearCode, int | None]:
    """Draw a code from the master seed; under the full-rank regime the code
    is redrawn until its brute-forced distance covers t + 2."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xC0DE)))
    need = config.total_weight + 2 if config.full_rank else None
    last_d = None
    for _ in range(config.code_tries):
        code = random_code(config.tower, config.partition, config.k, rng=rng)
        try:
            d = min_sum_rank_distance(code, budget=config.mindist_budget)
        except BudgetExceeded:
            if need is not None:
                raise UsageError(
                    "cannot verify the distance hypothesis: enumeration exceeds the budget"
                ) from None
            return code, None
        code.d = d
        last_d = d
        if need is None or d >= need:
            return code, d
    raise UsageError(
        f"no code with minimum distance >= {need} found in {config.code_tries} draws "
        f"(last d = {last_d}); weaken t or change the parameters"
    )


def run_single_trial(config: TrialConfig, code: LinearCode, index: int):
    """One forward-constructed instance: returns (label, elapsed_ms)."""
    icode = InterleavedCode(code, config.s)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)))
    C, em = random_instance(icode, rng, t=config.t, profile=config.profile,
                            require_full_rank=config.full_rank)
    Y = C + em.E
    started = time.perf_counter()
    try:
        report = decode(icode, Y)
    except _FAILURE_TYPES as ex:
        return type(ex).__name__, (time.perf_counter() - started) * 1e3
    elapsed = (time.perf_counter() - started) * 1e3
    if report.C_hat != C:
        return "WrongCodeword", elapsed
    return "Success", elapsed


def run_trials(config: TrialConfig) -> TrialSummary:
    try:
        if config.profile is not None:
            check_profile(config.tower, config.partition, config.profile, config.s, config.full_rank)
        elif config.full_rank and config.total_weight > config.s:
            raise Infeasible(f"full-rank errors need t <= s, got t = {config.total_weight}")
    except Infeasible as ex:
        raise UsageError(str(ex)) from ex

    code, d = (pick_code(config)) if config.trials > 0 else (None, None)
    outcomes = []
    timings = []
    failures: dict[str, int] = {}
    successes = 0
    for i in range(config.trials):
        label, ms = run_single_trial(config, code, i)
        outcomes.append(label)
        timings.append(ms)
        if label == "Success":
            successes += 1
        else:
            failures[label] = failures.get(label, 0) + 1
    return TrialSummary(
        config=config,
        code_d=d,
        successes=successes,
        failures=failures,
        outcomes=tuple(outcomes),
        timings_ms=tuple(timings),
    )


def cmd_trial(args) -> int:
    tower = _tower_from_args(args)
    partition = LengthPartition(_parse_ints(args.partition))
    if (args.t is None) == (args.profile is None):
        raise UsageError("give exactly one of --t or --profile")
    profile = tuple(_parse_ints(args.profile)) if args.profile else None
    config = TrialConfig(
        tower=tower,
        partition=partition,
        k=args.k,
        s=args.s,
        t=args.t,
        profile=profile,
        trials=args.trials,
        seed=args.seed,
        full_rank=not args.no_full_rank,
    )
    try:
        summary = run_trials(config)
    except SamplingFailure as ex:
        raise UsageError(str(ex)) from ex
    payload = summary.to_dict()
    if args.json_out:
        _write_json(args.json_out, payload)
    det = payload["summary"]
    print(f"code distance: {det['code_d']}")
    print(f"trials: {det['trials']}  successes: {det['successes']}  failures: {det['failures']}")
    if "timing" in payload:
        t = payload["timing"]
        print(f"decode time ms: min {t['min_ms']:.3f}  median {t['median_ms']:.3f}  max {t['max_ms']:.3f}")
    if args.verbose:
        print("outcomes:", "".join(o[0] for o in det["outcomes"]))
    return 0 if summary.successes == summary.trials else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def run_bench(
    tower: FieldTower,
    sizes: list[int],
    s_values: list[int],
    rate: float,
    t: int,
    block_size: int,
    reps: int,
    seed: int,
) -> list[dict]:
    rows = []
    for n in sizes:
        if n % block_size:
            raise UsageError(f"length {n} is not a multiple of the block size {block_size}")
        partition = LengthPartition((block_size,) * (n // block_size))
        k = max(1, min(n - 1, round(rate * n)))
        for s in s_values:
            rng = np.random.default_rng(np.random.SeedSequence((seed, n, s)))
            code = random_code(tower, partition, k, rng=rng)
            icode = InterleavedCode(code, s)
            times = []
            outcomes = []
            for _ in range(reps):
                C, em = random_instance(icode, rng, t=t)
                Y = C + em.E
                started = time.perf_counter()
                try:
                    report = decode(icode, Y)
                    ok = report.C_hat == C
                except _FAILURE_TYPES:
                    ok = False
                times.append((time.perf_counter() - started) * 1e3)
                outcomes.append(ok)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "s": s,
                    "t": t,
                    "median_ms": statistics.median(times),
                    "min_ms": min(times),
                    "max_ms": max(times),
                    "recovered": sum(outcomes),
                    "reps": reps,
                }
            )
    return rows


def doubling_ratios(rows: list[dict], key: str) -> list[tuple[int, int, float]]:
    """(#small, #large, time ratio) for consecutive doublings of `key`."""
    by_key = {}
    for row in rows:
        by_key.setdefault(row[key], []).append(row["median_ms"])
    med = {k: statistics.median(v) for k, v in by_key.items()}
    out = []
    for small in sorted(med):
        if 2 * small in med and med[small] > 0:
            out.append((small, 2 * small, med[2 * small] / med[small]))
    return out


def cmd_bench(args) -> int:
    tower = _tower_from_args(args)
    sizes = _parse_ints(args.sizes)
    s_values = _parse_ints(args.s)
    rows = run_bench(
        tower, sizes, s_values, args.rate, args.t, args.block_size, args.reps, args.seed
    )
    header = ["n", "k", "s", "t", "median_ms", "min_ms", "max_ms", "recovered", "reps"]
    print("  ".join(f"{h:>10}" for h in header))
    for row in rows:
        print("  ".join(f"{row[h]:>10.3f}" if isinstance(row[h], float) else f"{row[h]:>10}" for h in header))
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    for small, large, ratio in doubling_ratios(rows, "n"):
        flag = "" if ratio <= 10 else "  WARNING: exceeds the 10x advisory bound"
        print(f"n {small} -> {large}: time x{ratio:.2f}{flag}")
    for small, large, ratio in doubling_ratios(rows, "s"):
        flag = "" if ratio <= 3 else "  WARNING: exceeds the 3x advisory bound"
        print(f"s {small} -> {large}: time x{ratio:.2f}{flag}")
    return 0


# ---------------------------------------------------------------------------
# file-based commands
# ---------------------------------------------------------------------------


def _load_code(path: str) -> LinearCode:
    try:
        return LinearCode.from_dict(_read_json(path))
    except (KeyError, ValueError) as ex:
        raise UsageError(f"invalid code file {path}: {ex}") from ex


def cmd_decode(args) -> int:
    code = _load_code(args.code)
    received = _read_json(args.received)
    try:
        Y = matrix_from_dict(received, code.tower)
    except (KeyError, ValueError) as ex:
        raise UsageError(f"invalid received-matrix file {args.received}: {ex}") from ex
    icode = InterleavedCode(code, Y.rows)
    try:
        report = decode(icode, Y)
        payload = report.to_dict(code.tower)
    except _FAILURE_TYPES as ex:
        # a typed failure's fields (t_hat, redundancy, per_block_t, check)
        fields = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(ex).items()}
        payload = {"status": type(ex).__name__, "message": str(ex), **fields}
    if args.out:
        _write_json(args.out, payload)
    print(f"status: {payload['status']}")
    if payload["status"] == "success":
        print(f"t_hat: {payload['t_hat']}  per_block_t: {payload['per_block_t']}")
        return 0
    print(f"  {payload['message']}")
    return 1


def cmd_mindist(args) -> int:
    code = _load_code(args.code)
    try:
        d = min_sum_rank_distance(code, budget=args.budget)
    except BudgetExceeded as ex:
        raise UsageError(str(ex)) from ex
    print(f"d = {d}")
    if args.json_out:
        _write_json(args.json_out, {"d": d})
    return 0


def cmd_gen(args) -> int:
    tower = _tower_from_args(args)
    partition = LengthPartition(_parse_ints(args.partition))
    if (args.t is None) == (args.profile is None):
        raise UsageError("give exactly one of --t or --profile")
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x6E6)))
    profile = tuple(_parse_ints(args.profile)) if args.profile else None
    try:
        code = random_code(tower, partition, args.k, rng=rng)
        C, em = random_instance(InterleavedCode(code, args.s), rng, t=args.t, profile=profile,
                                require_full_rank=not args.no_full_rank)
    except (Infeasible, SamplingFailure, ValueError) as ex:
        raise UsageError(str(ex)) from ex
    Y = C + em.E

    _write_json(f"{args.out_prefix}.code.json", code.to_dict())
    _write_json(f"{args.out_prefix}.received.json", matrix_to_dict(Y, tower))
    _write_json(
        f"{args.out_prefix}.truth.json",
        {
            "seed": args.seed,
            "C": matrix_to_dict(C, tower),
            "error": em.to_dict(),
        },
    )
    print(f"wrote {args.out_prefix}.code.json, .received.json, .truth.json")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumrankdec",
        description="Decoding of high-order interleaved sum-rank-metric codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="replay the embedded reference instance")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--perturb", help="ROW,COL entry of Y to corrupt (fault injection)")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("trial", help="seeded Monte Carlo decoding trials")
    _add_field_args(p)
    p.add_argument("--partition", required=True, help="comma-separated block lengths")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True, help="interleaving order")
    p.add_argument("--t", type=int, help="total error weight (random per-trial profiles)")
    p.add_argument("--profile", help="fixed per-block weights, comma-separated")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-full-rank", action="store_true", help="sample errors without the rank condition")
    p.add_argument("--json-out")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("bench", help="decode-time scaling table")
    _add_field_args(p)
    p.add_argument("--sizes", default="32,64,128", help="comma-separated code lengths")
    p.add_argument("--s", default="4", help="comma-separated interleaving orders")
    p.add_argument("--rate", type=float, default=0.5, help="dimension ratio k/n")
    p.add_argument("--t", type=int, default=4, help="error weight per instance")
    p.add_argument("--block-size", type=int, default=4)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("decode", help="decode a received-matrix file")
    p.add_argument("--code", required=True)
    p.add_argument("--received", required=True)
    p.add_argument("--out", help="write the decoding report JSON here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("mindist", help="brute-force minimum sum-rank distance")
    p.add_argument("--code", required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("gen", help="generate a code and a corrupted instance")
    _add_field_args(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-full-rank", action="store_true")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
