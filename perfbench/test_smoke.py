"""Smoke test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Runs every workload at its smallest size (--smoke: one pass of the tasks
with n <= 6) untraced and traced, and checks that the last stdout line
reports every metric named in BENCHMARK.json with its unit, that every task
passed its answer gate, and that the exact work counts repeat across runs
and BLAS thread counts.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"calls/task", "cells/task", "cells", "count"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out["metrics"]


def check_names(metrics, spec):
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(bench("--workload", workload, "--seed", "7",
                           "--trace", "0", "--smoke"))
    check_names(metrics, SPEC["end_to_end"])
    assert all(metrics[m]["value"] > 0 for m in metrics)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_exact_counts(workload):
    runs = [result(bench("--workload", workload, "--seed", "7", "--trace",
                         "1", "--smoke", "--blas-threads", threads))
            for threads in ("1", "2")]
    for metrics in runs:
        check_names(metrics, SPEC["per_layer"])
    counts = [{k: v["value"] for k, v in m.items()
               if v["unit"] in COUNT_UNITS or k.endswith("useful_frac")}
              for m in runs]
    assert counts[0] == counts[1]


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
