"""The runner reports exactly the metrics BENCHMARK.json declares."""

import argparse
import json
import shutil
import subprocess
import sys
import time

import run
from workloads import GradcheckTiny

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return [m["name"] for m in DECLARED[kind]]


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 5)
    monkeypatch.setattr(run, "ROUNDS", 2)
    args = argparse.Namespace(workload="gradcheck-tiny", seed=2, seconds=0.1, trace=0)
    result = run.run_untraced(GradcheckTiny, args, tmp_path, time.perf_counter() + 60)
    assert list(result["metrics"]) == _names("end_to_end")
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] > 0


def test_traced_run_reports_the_per_layer_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = argparse.Namespace(workload="gradcheck-tiny", seed=2, seconds=0.1, trace=1)
    result = run.run_traced(GradcheckTiny, args, tmp_path, time.perf_counter() + 60)
    assert list(result["metrics"]) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in result["metrics"].items())


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-default", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
