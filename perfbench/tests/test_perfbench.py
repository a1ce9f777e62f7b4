"""Tests of the benchmark itself, at quick (toy) size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SEED = 3


def run_bench(trace, workload, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_output_names_match_spec(workload, trace):
    proc = run_bench(trace, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(0, "privacy_sweep", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def passed_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name](quick=True)
    wl.prepare(SEED, str(tmp_path))
    rounds = [wl.run_round(i) for i in range(wl.pass_rounds)]
    problems, _ = workloads.check_rounds(wl, rounds)
    assert problems == []
    return wl, rounds


def test_privacy_check_catches_a_wrong_error(tmp_path):
    wl, rounds = passed_pass("privacy_sweep", tmp_path)
    row = next(r for r in rounds[0].rows if r["noise"] == "none")
    row["value"] = "100.0"
    problems, _ = workloads.check_rounds(wl, rounds)
    assert any("noise-free" in p for p in problems)


def test_rank_check_catches_a_wrong_hit(tmp_path):
    wl, rounds = passed_pass("rank_recovery", tmp_path)
    row = next(r for r in rounds[0].rows if r["metric"] == "correct")
    row["value"] = str(1 - int(row["value"]))
    problems, _ = workloads.check_rounds(wl, rounds)
    assert any("disagrees" in p for p in problems)


def test_panel_check_catches_a_wrong_forecast_error(tmp_path):
    wl, rounds = passed_pass("panel_forecast", tmp_path)
    row = next(r for r in rounds[0].rows if r["method"] == "least_squares")
    row["rmsfe"] = repr(float(row["rmsfe"]) * (1 + 1e-6))
    problems, _ = workloads.check_rounds(wl, rounds)
    assert any("recomputation" in p for p in problems)


def test_repeated_round_must_match(tmp_path):
    wl, rounds = passed_pass("rank_recovery", tmp_path)
    again = workloads.Outcome(1, 0, "0" * 64, rounds[0].rows)
    problems, _ = workloads.check_rounds(wl, rounds + [again])
    assert any("differs" in p for p in problems)
