"""Smoke test of the benchmark harness at a tiny size (2k paths, 10 steps).

Runs every workload untraced and traced through the benchmark's command line
and checks that each metric BENCHMARK.json names is emitted with its unit and
that exact per-layer values repeat between two traced runs.  It does not
require the correctness checks to pass: at 2k paths the LQ-1 residual's Monte
Carlo floor lies near the 0.05 tolerance, so whether a seed converges within
30 iterations is chance.  Seed 1 is used because its tiny lq1 run is short.
Takes about two minutes:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = {"count", "ratio", "dist", "cost"}


def bench(workload, trace, root=ROOT, size=("--paths", "2000", "--steps", "10")):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *size]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace, traced):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        traced[workload] = result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_values_repeat(workload, traced):
    if workload not in traced:
        pytest.skip("needs the traced run of test_every_metric_emitted_with_its_unit")
    again = result_of(bench(workload, 1))["metrics"]
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {n: again[n]["value"] for n in exact} == {n: traced[workload][n]["value"]
                                                     for n in exact}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("mimic", 0, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
