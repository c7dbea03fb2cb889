#!/usr/bin/env python3
"""cnmfg benchmark: runs one workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload lq1 --seed 3 --seconds 15 --trace 0

Each workload is one ``cnmfg.cli.run_command`` invocation on
``scripts/lq1.cfg`` (see repetition.py), run as a closed loop with one client:
a repetition starts in a fresh interpreter when the previous one has ended,
and repetitions go on while another one still fits in ``--seconds`` (at least
one always runs).  The seed is passed to cnmfg as ``--seed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, timed with
tracing off.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics (see tracer.py); the difference of their median
wall times is the tracing overhead.  Every repetition's outputs are checked;
a repetition that fails its check or dies counts in ``failed``.  A fingerprint
line (accuracy values, CSV hashes, versions) precedes the result for inspection.
Exits with code 2 and no result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repetition import CONFIG, ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_SPAWNS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from cnmfg.cli import parse_config; parse_config(sys.argv[2])")
REPETITION_TIMEOUT_S = 170

# BLAS runs one thread unless the caller's environment says otherwise: on a
# small shared box, threaded BLAS made mimic slower and its times twice as
# spread.  Every interpreter the benchmark starts inherits this.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import cnmfg and parse the config."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(CONFIG)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
    return statistics.median(times)


def repetition(workload: str, seed: int, traced: bool, size: list):
    """Runs repetition.py once; returns its JSON report, or None if it died."""
    cmd = [sys.executable, str(HERE / "repetition.py"), workload, str(seed),
           str(int(traced))] + size
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {REPETITION_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    print(f"repetition exited with code {proc.returncode} and no report", file=sys.stderr)
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, size: list) -> tuple:
    """Runs the workload; returns (metric values by name, attempted, failed, fingerprint)."""
    if not (SRC / "cnmfg" / "__init__.py").exists() or not CONFIG.exists():
        raise BenchError(f"cnmfg sources or {CONFIG.relative_to(ROOT)} missing under {ROOT}")
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    setup_s = None if trace else measure_setup()

    attempted = failed = 0
    plain, traced_reps = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            rep = repetition(workload, seed, traced, size)
            attempted += 1
            failed += rep is None or not rep["ok"]
            if rep is not None:
                (traced_reps if traced else plain).append(rep)
                print(f"repetition {attempted}: traced={traced} ok={rep['ok']} "
                      f"wall_s={rep['wall_s']:.4f} cpu_s={rep['cpu_s']:.4f}", file=sys.stderr)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:   # the next one would not fit
            break
    if not plain or (trace and not traced_reps):
        raise BenchError("no repetition finished")

    fingerprint = plain[0]["fingerprint"]
    if any(rep["fingerprint"]["csv_sha256"] != fingerprint["csv_sha256"]
           for rep in plain + traced_reps):
        fingerprint["reps_identical"] = False
    values = dict(fingerprint["accuracy"])
    if trace:
        summaries = [rep["trace"] for rep in traced_reps]
        exact = [({k: (v["calls"], v["rows"]) for k, v in s["layers"].items()},
                  s["bins_kept_frac"], s["ess_frac_terminal"]) for s in summaries]
        if any(e != exact[0] for e in exact):
            failed += 1
            print("exact counts differ between traced repetitions", file=sys.stderr)
        for name, first in summaries[0]["layers"].items():
            values[f"{name}.calls"] = first["calls"]
            values[f"{name}.rows"] = first["rows"]
            for key in ("self_s", "total_s"):
                values[f"{name}.{key}"] = statistics.median(s["layers"][name][key]
                                                            for s in summaries)
        values["girsanov.ess_frac_terminal"] = summaries[0]["ess_frac_terminal"]
        values["flows.bins_kept_frac"] = summaries[0]["bins_kept_frac"]
        values["trace.uncovered_s"] = statistics.median(s["uncovered_s"] for s in summaries)
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                      - statistics.median(r["wall_s"] for r in plain))
    else:
        values.update(wall_s=statistics.median(r["wall_s"] for r in plain),
                      cpu_s=statistics.median(r["cpu_s"] for r in plain),
                      setup_s=setup_s,
                      peak_rss_mb=max(r["peak_rss_mb"] for r in plain),
                      ok_frac=(attempted - failed) / attempted)
    return values, attempted, failed, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--paths", type=int, help="override the path count (smoke tests)")
    parser.add_argument("--steps", type=int, help="override the step count (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    size = []
    for flag in ("paths", "steps"):
        if getattr(args, flag) is not None:
            size += [f"--{flag}", str(getattr(args, flag))]

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        values, attempted, failed, fingerprint = run(
            args.workload, args.seed, args.seconds, bool(args.trace), size)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fingerprint.update(workload=args.workload, seed=args.seed, nproc=os.cpu_count(),
                       blas_env={k: os.environ[k] for k in BLAS_ENV if k in os.environ})
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
