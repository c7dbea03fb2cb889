#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --workloads lq1 mimic --seeds 1-10 --save a.json
    python3 perfbench/sweep.py --compare a.json b.json

For each workload and metric the report gives the median over the seeds, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  An end-to-end spread not below a third of its bound is
flagged (setup_s excepted).  ``--compare`` checks that two saved sweeps of one
code version agree: identical fingerprints and exact per-layer values (counts,
ratios, accuracy) seed by seed, and every end-to-end median of the second
within its bound of the first.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "ratio", "dist", "cost"}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "fingerprint": fingerprint}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _worse(metric: dict, base: float, new: float) -> float:
    """Relative worsening of new against base (negative when better)."""
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def _medians(runs: list, workload: str) -> dict:
    """Each end-to-end metric's per-run values (each a median over repetitions)."""
    out = {}
    for metric in SPEC["end_to_end"]:
        vals = [r["result"]["metrics"][metric["name"]]["value"]
                for r in runs if r["workload"] == workload and r["trace"] == 0]
        if vals:
            out[metric["name"]] = vals
    return out


def report(runs: list) -> bool:
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        failed = sum(r["result"]["failed"] for r in runs if r["workload"] == workload)
        print(f"{workload}: {failed} failed repetitions")
        steady &= failed == 0
        values = _medians(runs, workload)
        for metric in SPEC["end_to_end"]:
            vals = values.get(metric["name"])
            if not vals or len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = ("" if metric["name"] == "setup_s" or spread < metric["bound"] / 3
                    else "  NOT STEADY")
            steady &= not flag
            print(f"  {metric['name']:<12} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {metric['bound']}){flag}")
    return steady


def compare(first: list, second: list) -> bool:
    ok = True
    exact = {m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS}
    index = {(r["workload"], r["seed"], r["trace"]): r for r in first}
    for run in second:
        base = index.get((run["workload"], run["seed"], run["trace"]))
        if base is None:
            continue
        if run["fingerprint"] != base["fingerprint"]:
            ok = False
            print(f"fingerprint differs: {run['workload']} seed {run['seed']}")
        for name in exact & run["result"]["metrics"].keys():
            a = base["result"]["metrics"][name]["value"]
            b = run["result"]["metrics"][name]["value"]
            if a != b:
                ok = False
                print(f"{name} differs: {run['workload']} seed {run['seed']}: {a} vs {b}")
    for workload in dict.fromkeys(r["workload"] for r in first):
        med_a, med_b = _medians(first, workload), _medians(second, workload)
        for metric in SPEC["end_to_end"]:
            if metric["name"] not in med_a or metric["name"] not in med_b:
                continue
            a = statistics.median(med_a[metric["name"]])
            b = statistics.median(med_b[metric["name"]])
            worse = _worse(metric, a, b)
            flag = "" if worse <= metric["bound"] else "  WORSE THAN BOUND"
            ok &= not flag
            print(f"{workload:<8} {metric['name']:<12} {a:.6g} -> {b:.6g} "
                  f"({worse:+.4f} of bound {metric['bound']}){flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the runs as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    runs = []
    for workload in args.workloads:
        for seed in _seeds(args.seeds):
            runs.append(run_one(workload, seed, args.seconds, args.trace))
            metrics = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in metrics.items() if "." not in k),
                flush=True)
            if args.save:
                args.save.write_text(json.dumps(runs, indent=1))
    return 0 if report(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
