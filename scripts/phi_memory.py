#!/usr/bin/env python3
"""Memory after each stage of one best-response map application, or of one ``solve``.

    PYTHONPATH=src python scripts/phi_memory.py --config scripts/lq1.cfg --paths 80000
    PYTHONPATH=src python scripts/phi_memory.py --config scripts/lq1.cfg --command solve

``phi`` (the default) runs the stages of ``apply_phi(spec, None, config)`` one
at a time: the reference simulation, the BSDE pass with its Girsanov weights,
which bins each step of the input (unit-weight) flow when it reads it, and the
output flow, binned after the noise and the input flow are dropped.  ``solve``
runs the ``cnmfg solve`` command into a temporary directory and reports after
each map application, flow distance and Picard mix, the projection, the
mimicking check and ``exploitability``, and once the command has written its
files.

The run is made twice, each in a fresh interpreter as perfbench runs a
repetition: once untraced, and once under ``tracemalloc``, whose own
bookkeeping raises the resident set and can move the stage at which it peaks.
One row per stage gives, in MB: the untraced run's resident set
(``/proc/self/statm``) and peak resident set (``ru_maxrss``); the same two in
the traced run; the bytes ``tracemalloc`` traces now and at their peak during
the stage; and the slack, the traced run's resident set above its resident set
after import minus the traced bytes: freed heap the allocator keeps, plus
``tracemalloc``'s bookkeeping.  A last line per run names the stage by which
it first reached its peak.
"""

import argparse
import dataclasses
import functools
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import cnmfg.cli as cli_mod
import cnmfg.equilibrium as equilibrium_mod
from cnmfg.bsde import solve_bsde
from cnmfg.equilibrium import _estimate_flow, _reference
from cnmfg.flows import ConditionalMeasureFlow

_MB = 1024.0 ** 2
_PAGE = os.sysconf("SC_PAGE_SIZE")
# a run in a fresh interpreter: this file imported as a module, then _run
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import phi_memory; phi_memory._run()"


def _rss() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _run_phi(spec, config, report):
    noise, paths = _reference(spec, config)
    report("reference")
    m = _estimate_flow(spec, config, paths, None, on_read=True)
    solution = solve_bsde(spec, m, paths, noise, config.basis(), weights=True)
    report("BSDE pass")
    del m, noise
    flow = _estimate_flow(spec, config, paths, solution.weights)
    report("output flow")
    print(f"y0 {solution.y0!r}; {flow.n_source} paths binned")


def _run_solve(spec, config, report):
    counts = {}

    def staged(owner, name, stage):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def run_and_report(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[stage] = counts.get(stage, 0) + 1
            report(f"{stage} {counts[stage]}")
            return out

        setattr(owner, name, run_and_report)

    # each stage at the binding its caller looks up
    staged(equilibrium_mod, "apply_phi", "phi")
    staged(equilibrium_mod, "flow_distance", "distance")
    staged(ConditionalMeasureFlow, "reweighted", "mix")
    staged(equilibrium_mod, "project_control", "projection")
    staged(equilibrium_mod, "mimicking_check", "mimicking")
    staged(cli_mod, "exploitability", "exploitability")
    with tempfile.TemporaryDirectory() as out:
        cli_mod._cmd_solve(spec, config, Path(out))
        report("files")


def _run():
    """One run of the command given on stdin as JSON; prints, as its last
    line, the resident set after import and one row per stage as JSON."""
    job = json.loads(sys.stdin.read())
    spec, config, _ = cli_mod.parse_config(job["config"])
    if job["paths"] is not None:
        config = dataclasses.replace(config, n_paths=job["paths"])
    base, rows = _rss(), []

    def report(stage):
        now, peak = tracemalloc.get_traced_memory()    # zeros when not tracing
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        rows.append((stage, _rss(), maxrss, now, peak))
        tracemalloc.reset_peak()

    if job["traced"]:
        tracemalloc.start()
    (_run_solve if job["command"] == "solve" else _run_phi)(spec, config, report)
    print(json.dumps({"base": base, "rows": rows}))


def _stages(args, traced: bool) -> dict:
    """``_run``'s result for ``args`` in a fresh interpreter; its other output is echoed."""
    job = {"config": args.config, "paths": args.paths, "command": args.command,
           "traced": traced}
    done = subprocess.run([sys.executable, "-c", _CHILD, str(Path(__file__).parent)],
                          input=json.dumps(job), stdout=subprocess.PIPE, text=True, check=True)
    *printed, last = done.stdout.splitlines()
    for line in printed:
        print(line)
    return json.loads(last)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--paths", type=int)
    parser.add_argument("--command", choices=("phi", "solve"), default="phi")
    args = parser.parse_args()
    cli_mod.parse_config(args.config)     # a bad config fails here, before any run

    plain, traced = _stages(args, traced=False), _stages(args, traced=True)
    print(f"after import: rss {plain['base'] / _MB:.1f} MB untraced, "
          f"{traced['base'] / _MB:.1f} MB traced")
    print(f"{'':<16} {'untraced':>17}   {'traced run':>44}")
    print(f"{'stage':<16} {'rss':>8} {'maxrss':>8}   {'rss':>8} {'maxrss':>8} {'traced':>8} "
          f"{'peak':>8} {'slack':>8}")
    for (stage, rss, maxrss, _, _), (stage_t, rss_t, maxrss_t, now, peak) in zip(
            plain["rows"], traced["rows"]):
        assert stage == stage_t, (stage, stage_t)
        print(f"{stage:<16} {rss / _MB:8.1f} {maxrss / _MB:8.1f}   {rss_t / _MB:8.1f} "
              f"{maxrss_t / _MB:8.1f} {now / _MB:8.1f} {peak / _MB:8.1f} "
              f"{(rss_t - traced['base'] - now) / _MB:8.1f}")
    for name, run in (("untraced", plain), ("traced", traced)):
        top = max(run["rows"], key=lambda row: row[2])    # the first row at the largest maxrss
        print(f"{name} peak {top[2] / _MB:.1f} MB, first reached by stage {top[0]!r}")


if __name__ == "__main__":
    main()
