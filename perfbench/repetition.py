#!/usr/bin/env python3
"""One repetition of a workload in a fresh interpreter, as a user's CLI run would be.

    python3 perfbench/repetition.py <workload> <seed> <traced 0|1> [cnmfg size flags]

Imports cnmfg from ``src/`` of this checkout, times one
``cnmfg.cli.run_command`` call (import excluded), checks its outputs and
prints one JSON line: exit code, wall and CPU seconds, peak RSS, check result,
fingerprint (with the accuracy values) and, when traced, the span summary; a
traced repetition also writes its spans to
``.bench_build/perfbench/<workload>-spans.jsonl``.  run.py starts one of
these at a time; a fresh process per repetition makes every
repetition pay the same first-call costs (heap growth, page faults) that a
CLI run pays, so traced and untraced repetitions compare fairly.
"""

from __future__ import annotations

import ast
import csv
import gc
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "scripts" / "lq1.cfg"
OUT = ROOT / ".bench_build" / "perfbench"

# frozen in tests/test_acceptance.py (criterion 8) for the seed-1 run of lq1.cfg
REFERENCE_Y0 = 2.943865476561604
Y0_BAND = 0.08
ACCEPTANCE_SEED = 1

WORKLOADS = {
    "lq1": ["solve"],
    "phi-80k": ["phi", "--paths", "80000"],
    "mimic": ["mimic-check"],
}
DATA_CSVS = {
    "lq1": ("residuals.csv", "bsde_residuals.csv", "flow.csv", "policy.csv", "mimicking.csv"),
    "phi-80k": ("flow.csv", "bsde_residuals.csv"),
    "mimic": ("mimicking.csv",),
}


def _read_manifest(out: Path) -> dict:
    path = out / "manifest.txt"
    if not path.exists():
        return {}
    kv = {}
    for line in path.read_text().splitlines():
        key, _, raw = line.partition(" = ")
        try:
            kv[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            kv[key] = float(raw) if raw in ("nan", "inf", "-inf") else raw
    return kv


def _num(kv: dict, key: str, missing: float = math.nan) -> float:
    val = kv.get(key)
    return float(val) if isinstance(val, (int, float)) else missing


def _residual_trajectory(out: Path) -> list:
    path = out / "residuals.csv"
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return [float(row["residual"]) for row in csv.DictReader(fh)]


def check_outputs(workload: str, rc: int, out: Path, seed: int, resized: bool):
    """Correctness checks (acceptance tolerances), accuracy values and fingerprint.

    Accuracy values a workload does not produce read 0.
    """
    man = _read_manifest(out)
    csvs = {name: out / name for name in DATA_CSVS[workload]}
    checks = {"exit_0": rc == 0,
              "data_csvs": all(p.exists() and p.stat().st_size > 0 for p in csvs.values())}
    acc = dict.fromkeys(("picard_iters", "final_residual", "y0_abs_err", "exploitability",
                         "mimic_max_w1"), 0.0)
    if workload == "lq1":
        acc.update(picard_iters=_num(man, "iterations", 0.0),
                   final_residual=_num(man, "final_residual", 0.0),
                   y0_abs_err=abs(_num(man, "y0", REFERENCE_Y0) - REFERENCE_Y0),
                   exploitability=_num(man, "exploitability", 0.0),
                   mimic_max_w1=_num(man, "mimicking_max_w1", 0.0))
        checks["converged"] = man.get("status") == "converged"
        checks["residual_le_0.05"] = _num(man, "final_residual") <= 0.05
        checks["exploitability_le_0.05"] = _num(man, "exploitability") <= 0.05
        # the y0 band was frozen from the seed-1 run at the config's size only
        if seed == ACCEPTANCE_SEED and not resized:
            checks["y0_band"] = abs(_num(man, "y0") - REFERENCE_Y0) <= Y0_BAND
    elif workload == "phi-80k":
        checks["y0_finite"] = math.isfinite(_num(man, "y0"))
        checks["y0_stderr_finite"] = math.isfinite(_num(man, "y0_stderr"))
    else:
        acc["mimic_max_w1"] = _num(man, "max_w1", 0.0)
        checks["cost_gap_ge_-3se"] = (_num(man, "cost_gap")
                                      >= -3.0 * _num(man, "cost_gap_stderr"))
    fingerprint = {
        "y0": man.get("y0"),
        "y0_stderr": man.get("y0_stderr"),
        "residuals": _residual_trajectory(out),
        "csv_sha256": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for name, p in csvs.items() if p.exists()},
        "accuracy": acc,
        "checks": checks,
    }
    return all(checks.values()), fingerprint


def main(argv) -> int:
    workload, seed, traced, size = argv[0], int(argv[1]), argv[2] == "1", argv[3:]
    sys.path.insert(0, str(SRC))
    import cnmfg.cli
    if SRC not in Path(cnmfg.cli.__file__).resolve().parents:
        print(f"imported cnmfg from {cnmfg.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer

    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    cli_argv = WORKLOADS[workload] + ["--config", str(CONFIG), "--seed", str(seed),
                                      "--out-dir", str(out)] + size
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cnmfg.cli.run_command(cli_argv)
    except Exception:   # a crashing repetition is a failed operation, not a dead benchmark
        traceback.print_exc()
        rc = 1
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer:
        tracer.write(OUT / f"{workload}-spans.jsonl", t0)
    ok, fingerprint = check_outputs(workload, rc, out, seed, bool(size))
    import numpy
    import scipy
    fingerprint.update(python=sys.version.split()[0], numpy=numpy.__version__,
                       scipy=scipy.__version__)
    print(json.dumps({
        "ok": ok, "rc": rc, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint,
        "trace": tracer.summary(wall) if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
