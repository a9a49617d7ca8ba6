"""Smoke test of the benchmark at tiny sizes: python3 -m pytest -q perfbench/test_smoke.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# every workload the runner accepts, also those BENCHMARK.json leaves out
WORKLOADS = ["compare", "audit", "she", "halfline"]


def run_bench(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_gates(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
        assert trace or v["value"] > 0  # end-to-end metrics are never 0


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
