"""Smoke test of the benchmark harness on tiny versions of each workload.

    python -m pytest -q decodebench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
from sumrankdec import SupportMismatch  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

W = harness.WORKLOADS
TINY = {
    "mc-small": replace(W["mc-small"], k=1, s=2, t=2, pool=8, outside=2, t_outside=3,
                        warmup=2, traced=8),
    "sumrank-large": replace(W["sumrank-large"], parts=(4,) * 8, k=16, s=2, t=2, pool=4,
                             warmup=1, traced=4),
    "hamming-wide": replace(W["hamming-wide"], parts=(1,) * 16, k=8, s=2, t=2, pool=4,
                            warmup=1, traced=4),
}


def run_tiny(capsys, workload: str, trace: int, seed: int = 0) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert harness.main(argv, workloads=TINY) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_instance_minima_follow_the_pool_order():
    # pool of 3, first timed decode is of instance 2
    lat = [9.0, 4.0, 5.0, 1.0, 6.0, 2.0, 3.0]
    assert harness.instance_minima(lat, 2, 3) == [4.0, 2.0, 1.0]
    p50, p90, rate = harness.latency_figures([2.0] * 9 + [7.0])
    assert (p50, rate) == (2.0, 10 / 25.0)
    assert 2.0 < p90 <= 7.0


def test_tiny_workloads_cover_the_spec():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    pool = TINY[workload].pool
    assert result["attempted"] >= (1 if trace else harness.MIN_PASSES * pool)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_trace_counts_repeat_exactly(capsys):
    def counts():
        metrics = run_tiny(capsys, "mc-small", 1, seed=3)["metrics"]
        return {
            name: m["value"]
            for name, m in metrics.items()
            if m["unit"] == "count"
        }

    first = counts()
    assert first["decoder.typed_failures.SupportMismatch"] > 0
    assert first == counts()


def test_gate_rejects_wrong_answers():
    w = TINY["mc-small"]
    icode = harness.set_up(w, 0, Tracer())
    pool = harness.make_inputs(w, icode, 0, Tracer())
    inside = next(inst for inst in pool if inst.inside)
    outside = next(inst for inst in pool if not inst.inside)
    report = harness._decode(icode, inside.Y)
    gate = harness.Gate(icode)
    assert gate.judge(inside, report) == "ok"
    other = harness.Instance(inside.C + inside.C, inside.Y, inside=True)
    assert gate.judge(other, report) == "failed"
    typed = SupportMismatch("typed")
    assert gate.judge(outside, typed) == "SupportMismatch"
    assert gate.judge(inside, typed) == "failed"
    assert gate.judge(outside, ValueError("untyped")) == "failed"
    assert (gate.attempted, gate.failed) == (5, 3)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "mc-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
