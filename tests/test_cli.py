"""CLI subcommands: exit codes, reproducibility, file round trips."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from sumrankdec.cli import main


def run(args):
    return main(args)


class TestExample:
    def test_pass(self, capsys):
        assert run(["example"]) == 0
        *stages, last = capsys.readouterr().out.splitlines()
        assert "PASS" in last
        # one line per decoder stage, in the decoder's order
        assert [line.split(":")[0] for line in stages] == [
            f"stage {s}" for s in ("syndrome", "annihilator", "supports", "erasure", "verify")
        ]

    def test_verbose(self, capsys):
        assert run(["example", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "S = " in out and "h_sub = " in out

    def test_perturbed_fails(self, capsys):
        # the decoder itself raises: its typed failure names the stage
        assert run(["example", "--perturb", "0,0"]) == 1
        assert "FAIL at stage supports" in capsys.readouterr().err

    def test_perturbed_decodes_but_differs(self, capsys):
        # a second error in the full-weight block still decodes to the
        # reference C, but the syndrome is the first intermediate that differs
        assert run(["example", "--perturb", "0,2"]) == 1
        assert "FAIL at stage syndrome" in capsys.readouterr().err

    def test_perturbed_various_positions(self):
        for pos in ["1,3", "2,5"]:
            assert run(["example", "--perturb", pos]) == 1

    @pytest.mark.parametrize("pos", ["5,0", "3,0", "0,6", "1", "1,2,3", "-1,0", "0,-1", "a,b"])
    def test_perturb_outside_y_is_a_usage_error(self, pos, capsys):
        # Y of the example is 3 x 6; "=" lets argparse pass "-1,0" as a value
        assert run(["example", f"--perturb={pos}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


BASE = ["--p", "5", "--m", "2", "--modulus", "2,4,1", "--partition", "2,2,2"]


class TestTrial:
    def test_success_run(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = run(
            ["trial", *BASE, "--k", "2", "--s", "2", "--t", "2", "--trials", "25",
             "--seed", "11", "--json-out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["successes"] == 25
        assert payload["summary"]["failures"] == {}
        assert payload["summary"]["code_d"] >= 4

    def test_records_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        out = tmp_path / "threads.json"
        assert run(["trial", *BASE, "--k", "2", "--s", "2", "--t", "2", "--trials", "1",
                    "--seed", "0", "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "unset", "MKL_NUM_THREADS": "4"}

    def test_deterministic_summary(self, tmp_path):
        args = ["trial", *BASE, "--k", "2", "--s", "2", "--t", "2", "--trials", "10", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run([*args, "--json-out", str(a)])
        run([*args, "--json-out", str(b)])
        sa = json.dumps(json.loads(a.read_text())["summary"], sort_keys=True)
        sb = json.dumps(json.loads(b.read_text())["summary"], sort_keys=True)
        assert sa == sb

    def test_hypothesis_violation_reports_failures(self, tmp_path):
        # s = t - 1 breaks the high-order condition: no successes, no
        # silently wrong outputs, variants tallied
        out = tmp_path / "hv.json"
        rc = run(
            ["trial", *BASE, "--k", "1", "--s", "2", "--t", "3", "--trials", "15",
             "--seed", "5", "--no-full-rank", "--json-out", str(out)]
        )
        assert rc == 1
        payload = json.loads(out.read_text())["summary"]
        assert payload["successes"] == 0
        assert sum(payload["failures"].values()) == 15
        assert "WrongCodeword" not in payload["failures"]

    def test_zero_trials(self, tmp_path):
        out = tmp_path / "empty.json"
        rc = run(["trial", *BASE, "--k", "2", "--s", "2", "--t", "2", "--trials", "0",
                  "--seed", "0", "--json-out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())["summary"]
        assert payload["trials"] == 0 and payload["successes"] == 0

    def test_infeasible_config(self, capsys):
        # full-rank sampling with t > s is a usage error
        rc = run(["trial", *BASE, "--k", "2", "--s", "1", "--t", "3", "--trials", "5", "--seed", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_t_and_profile_exclusive(self):
        rc = run(["trial", *BASE, "--k", "2", "--s", "2", "--t", "1", "--profile", "1,0,0",
                  "--trials", "1", "--seed", "0"])
        assert rc == 2

    @pytest.mark.parametrize("args,digest", [
        (["--k", "2", "--s", "2", "--t", "2", "--trials", "10", "--seed", "3"],
         "7003c084803dbfd39c66eb5cee32cf343ad695b15a5d5a0bf2b5e022c4aaa1a5"),
        (["--k", "1", "--s", "2", "--t", "3", "--trials", "15", "--seed", "5", "--no-full-rank"],
         "ce13e6b874c1bc01858cc4f12a652f7b64c23eac8092b5f570dc6d744fce6abd"),
    ], ids=["full-rank", "no-full-rank"])
    def test_summary_golden(self, tmp_path, args, digest):
        # the seeded code draw, its certified distance, the instance draws
        # and every outcome label are pinned; only the timing may vary
        out = tmp_path / "s.json"
        run(["trial", *BASE, *args, "--json-out", str(out)])
        summary = json.dumps(json.loads(out.read_text())["summary"], sort_keys=True)
        assert hashlib.sha256(summary.encode()).hexdigest() == digest

    def test_profile_run(self, tmp_path):
        out = tmp_path / "p.json"
        rc = run(["trial", *BASE, "--k", "1", "--s", "3", "--profile", "1,2,0", "--trials", "10",
                  "--seed", "2", "--json-out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["summary"]["successes"] == 10


class TestGenDecodeRoundtrip:
    def test_roundtrip(self, tmp_path, capsys):
        prefix = str(tmp_path / "inst")
        rc = run(["gen", *BASE, "--k", "2", "--s", "3", "--t", "2", "--seed", "17",
                  "--out-prefix", prefix])
        assert rc == 0
        report = tmp_path / "report.json"
        rc = run(["decode", "--code", f"{prefix}.code.json", "--received", f"{prefix}.received.json",
                  "--out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        truth = json.loads((tmp_path / "inst.truth.json").read_text())
        assert payload["status"] == "success"
        assert payload["C_hat"] == truth["C"]
        assert payload["E_hat"] == truth["error"]["E"]

    def test_gen_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            run(["gen", *BASE, "--k", "2", "--s", "2", "--t", "1", "--seed", "9",
                 "--out-prefix", prefix])
        for suffix in (".code.json", ".received.json", ".truth.json"):
            assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()

    def test_gen_golden(self, tmp_path):
        # the seeded draw order (code, profile, error, messages) is pinned
        prefix = str(tmp_path / "g")
        assert run(["gen", *BASE, "--k", "2", "--s", "3", "--t", "2", "--seed", "17",
                    "--out-prefix", prefix]) == 0
        digests = {
            suffix: hashlib.sha256(Path(prefix + suffix).read_bytes()).hexdigest()
            for suffix in (".received.json", ".truth.json")
        }
        assert digests == {
            ".received.json": "c8bc8947bf5ac96176465b04a0ada51ccd7ab8d66d9a318dd3d8c47e3c87ae3e",
            ".truth.json": "84b237119dcb48e5bb178fa555b54bdb2346f53a777cfb101d896722b72a27da",
        }

    def test_gen_infeasible(self, capsys):
        rc = run(["gen", *BASE, "--k", "2", "--s", "1", "--t", "5", "--seed", "0",
                  "--out-prefix", "/tmp/never"])
        assert rc == 2


def _with_first_entry(d: dict, x) -> dict:
    """A matrix file's dict with entry (0, 0) replaced by x."""
    return {**d, "data": [[x, *d["data"][0][1:]], *d["data"][1:]]}


class TestDecodeFiles:
    def test_failure_reported(self, tmp_path):
        # s < t forces a rank-deficient error, so decoding must fail typed
        prefix = str(tmp_path / "x")
        rc = run(["gen", *BASE, "--k", "1", "--s", "2", "--t", "3", "--seed", "4",
                  "--no-full-rank", "--out-prefix", prefix])
        assert rc == 0
        report = tmp_path / "rep.json"
        rc = run(["decode", "--code", f"{prefix}.code.json", "--received", f"{prefix}.received.json",
                  "--out", str(report)])
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["status"] == "SupportMismatch" and "message" in payload
        # the exception's fields ride along, tuples as lists
        assert payload["t_hat"] == 2 and payload["per_block_t"] == [0, 0, 1]
        assert payload["stage"] == "supports"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        rc = run(["decode", "--code", str(bad), "--received", str(bad)])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["decode", "--code", "/nonexistent.json", "--received", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda d: {**d, "cols": 5, "data": [row[:5] for row in d["data"]]},
        lambda d: {**d, "rows": 0, "data": []},
        lambda d: {**d, "field": "base", "data": [[x % 5 for x in row] for row in d["data"]]},
        lambda d: {**d, "data": [x for row in d["data"] for x in row]},
        lambda d: {**d, "rows": -1},
        lambda d: {**d, "data": [sum(d["data"], [])[:9], sum(d["data"], [])[9:]]},
    ], ids=["wrong-width", "no-rows", "base-field", "flat-data", "negative-rows", "rows-of-9"])
    def test_malformed_received_matrix(self, tmp_path, capsys, edit):
        # not an s x n stack over GF(q^m), or data of another shape than
        # the declared 3 x 6
        prefix = str(tmp_path / "x")
        assert run(["gen", *BASE, "--k", "2", "--s", "3", "--t", "2", "--seed", "17",
                    "--out-prefix", prefix]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(Path(f"{prefix}.received.json").read_text()))))
        capsys.readouterr()
        assert run(["decode", "--code", f"{prefix}.code.json", "--received", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid received-matrix file")

    @pytest.mark.parametrize("target,edit", [
        ("received", lambda d: _with_first_entry(d, d["data"][0][0] + 0.5)),
        ("received", lambda d: _with_first_entry(d, True)),
        ("received", lambda d: _with_first_entry(d, 2**70)),
        ("received", lambda d: {**d, "data": None}),
        ("received", lambda d: [d]),
        ("code", lambda d: {**d, "H": _with_first_entry(d["H"], d["H"]["data"][0][0] + 0.5)}),
        ("code", lambda d: {**d, "field": {**d["field"], "p": None}}),
        ("code", lambda d: [d]),
        ("received", lambda d: {**d, "rows": d["rows"] + 0.5}),
        ("code", lambda d: {**d, "H": {**d["H"], "cols": d["H"]["cols"] + 0.5}}),
    ], ids=["fraction", "bool", "overflow", "null-data", "list", "code-fraction", "code-null-p",
            "code-list", "fractional-rows", "code-fractional-cols"])
    def test_malformed_numbers(self, tmp_path, capsys, target, edit):
        # an entry that is not a JSON integer, or a file that is not an
        # object, is a usage error, not a truncated entry or a traceback
        prefix = str(tmp_path / "x")
        assert run(["gen", *BASE, "--k", "2", "--s", "3", "--t", "2", "--seed", "17",
                    "--out-prefix", prefix]) == 0
        files = {name: f"{prefix}.{name}.json" for name in ("code", "received")}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(Path(files[target]).read_text()))))
        files[target] = str(bad)
        capsys.readouterr()
        assert run(["decode", "--code", files["code"], "--received", files["received"]]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {target}")

    @pytest.mark.parametrize("edit", [
        lambda d: {**d, "k": 2.5},
        lambda d: {**d, "d": 2.5},
        lambda d: {**d, "field": {**d["field"], "p": 5.9}},
        lambda d: {**d, "field": {**d["field"], "e": True}},
        lambda d: {**d, "field": {**d["field"], "ext_modulus": [2.5, *d["field"]["ext_modulus"][1:]]}},
        lambda d: {**d, "partition": {"parts": [2.0, 2, 2.7]}},
    ], ids=["k", "d", "p", "e", "ext_modulus", "parts"])
    def test_fractional_code_scalars(self, tmp_path, capsys, edit):
        # a code-file scalar that is not a JSON integer is a usage error for
        # decode and mindist, not a truncated or coerced value
        prefix = str(tmp_path / "x")
        assert run(["gen", *BASE, "--k", "2", "--s", "3", "--t", "2", "--seed", "17",
                    "--out-prefix", prefix]) == 0
        bad = tmp_path / "bad.code.json"
        bad.write_text(json.dumps(edit(json.loads(Path(f"{prefix}.code.json").read_text()))))
        for command in (["decode", "--code", str(bad), "--received", f"{prefix}.received.json"],
                        ["mindist", "--code", str(bad)]):
            capsys.readouterr()
            assert run(command) == 2
            assert capsys.readouterr().err.startswith("error: invalid code file")

    def test_legacy_basis_key_ignored(self, tmp_path):
        # the expansion basis is fixed; a code file that names another one
        # decodes to the same report, as no decode depends on the basis
        prefix = str(tmp_path / "x")
        assert run(["gen", *BASE, "--k", "2", "--s", "3", "--t", "2", "--seed", "17",
                    "--out-prefix", prefix]) == 0
        code = json.loads(Path(f"{prefix}.code.json").read_text())
        code["field"]["basis"] = [15, 7]
        legacy = tmp_path / "legacy.code.json"
        legacy.write_text(json.dumps(code))
        reports = []
        for code_file in (f"{prefix}.code.json", str(legacy)):
            reports.append(tmp_path / f"report{len(reports)}.json")
            assert run(["decode", "--code", code_file, "--received", f"{prefix}.received.json",
                        "--out", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()


class TestMindist:
    def test_reference_code_file(self, tmp_path, ref, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(ref.code.to_dict()))
        rc = run(["mindist", "--code", str(path)])
        assert rc == 0
        assert "d = 5" in capsys.readouterr().out

    def test_budget_exceeded(self, tmp_path, ref):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(ref.code.to_dict()))
        assert run(["mindist", "--code", str(path), "--budget", "10"]) == 2


class TestBench:
    def test_single_size(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = run(["bench", "--p", "2", "--m", "2", "--sizes", "16", "--s", "2", "--t", "2",
                  "--block-size", "4", "--reps", "2", "--seed", "0", "--csv-out", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_header_records_blas_threads(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(["bench", "--p", "2", "--m", "2", "--sizes", "16", "--s", "2", "--t", "2",
                    "--block-size", "4", "--reps", "1", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "BLAS threads: OPENBLAS_NUM_THREADS=unset  OMP_NUM_THREADS=2  MKL_NUM_THREADS=unset")

    def test_golden_grid(self, tmp_path):
        # the seeded code and instance draws of each cell are pinned through
        # the outcome counts; the codes carry no distance certificate, and at
        # n = 16 with s = 2 (d = 2 < t + 2) one of three ends in a typed failure
        csv_path = tmp_path / "bench.csv"
        assert run(["bench", "--p", "2", "--m", "2", "--sizes", "16,32", "--s", "2,4", "--t", "2",
                    "--block-size", "4", "--reps", "3", "--seed", "0",
                    "--csv-out", str(csv_path)]) == 0
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        counts = [(r["n"], r["k"], r["s"], r["t"], r["recovered"], r["typed"], r["wrong"], r["reps"])
                  for r in rows]
        assert counts == [
            ("16", "8", "2", "2", "2", "1", "0", "3"),
            ("16", "8", "4", "2", "3", "0", "0", "3"),
            ("32", "16", "2", "2", "3", "0", "0", "3"),
            ("32", "16", "4", "2", "3", "0", "0", "3"),
        ]
        assert all(float(r["setup_ms"]) > 0 for r in rows)

    def test_bad_block_size(self, capsys):
        rc = run(["bench", "--p", "2", "--m", "2", "--sizes", "10", "--s", "2", "--t", "2",
                  "--block-size", "4", "--reps", "1", "--seed", "0"])
        assert rc == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            "trial --p 4 --m 2 --partition 2,2,2 --k 2 --s 2 --t 2 --trials 1",
            "bench --p 4 --m 2 --sizes 8 --reps 1",
            "trial --p 5 --m 0 --partition 2,2,2 --k 2 --s 2 --t 2 --trials 1",
            "bench --p 5 --m 0 --sizes 8 --reps 1",
            "trial --p 5 --m 2 --partition 2,2,2 --k 7 --s 2 --t 2 --trials 1",
            "trial --p 5 --m 2 --partition 2,0,2 --k 2 --s 2 --t 2 --trials 1",
            "gen --p 5 --m 2 --partition 2,0,2 --k 2 --s 2 --t 2 --out-prefix never",
            "trial --p 5 --m 2 --partition 2,2,2 --k 2 --s 0 --t 0 --trials 1",
            "trial --p 5 --m 2 --partition 2,2,2 --k 2 --s 2 --t -1 --trials 1",
            "bench --p 5 --m 2 --sizes 8 --t 9 --reps 1",
            "bench --p 5 --m 2 --sizes 8 --s 0 --reps 1",
            "bench --p 5 --m 2 --sizes 8 --reps 0",
            "bench --p 5 --m 2 --sizes 8 --block-size 0 --reps 1",
            "trial --p 5 --m 2 --partition 2,2,2 --k 2 --s 2 --t 2 --trials -1",
            "bench --p 5 --m 2 --sizes 8 --rate 2 --reps 1",
        ],
    )
    def test_invalid_parameters_exit_2(self, argv, capsys):
        # checked before any decoding: no traceback, and exit 2, not 1
        assert run(argv.split()) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["nope"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["trial"])
        assert exc.value.code == 2
