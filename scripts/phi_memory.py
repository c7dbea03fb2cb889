#!/usr/bin/env python3
"""Memory after each stage of one best-response map application, or of one ``solve``.

    PYTHONPATH=src python scripts/phi_memory.py --config scripts/lq1.cfg --paths 80000
    PYTHONPATH=src python scripts/phi_memory.py --config scripts/lq1.cfg --command solve
    PYTHONPATH=src python scripts/phi_memory.py --config scripts/lq1.cfg --command mimic-check

``phi`` (the default) runs ``apply_phi(spec, None, config)`` and reports after
each of its stages: the reference simulation, the input (unit-weight) flow
(``flow 1``, whose steps are binned only as the pass reads them), the BSDE pass
with its Girsanov weights, and the output flow (``flow 2``), binned after the
noise and the input flow are dropped.  ``solve`` runs the ``cnmfg solve``
command into a temporary directory and reports after each map application,
flow distance and Picard mix, the projection, the mimicking check and
``exploitability``, and once the command has written its files.
``mimic-check`` runs the ``cnmfg mimic-check`` command likewise and reports
after the reference, the initial flow, the probe control's weights, the
projection, the cost gap, the mimicking check's Markovian simulation, the
rest of the mimicking check and the files.  Each stage is
the program's own function, wrapped at the binding its caller looks up, and is
numbered by its calls.

The run is made twice, each in a fresh interpreter as perfbench runs a
repetition: once untraced, and once under ``tracemalloc``, whose own
bookkeeping raises the resident set and can move the stage at which it peaks.
One row per stage gives, in MB: the untraced run's resident set
(``/proc/self/statm``) and peak resident set (``ru_maxrss``, raised to that
resident set and to the row above where it lags below them); the same two in
the traced run; the bytes ``tracemalloc`` traces now and at their peak during
the stage; and the slack, the traced run's resident set above its resident set
after import minus the traced bytes: freed heap the allocator keeps, plus
``tracemalloc``'s bookkeeping.  A last line per run names the first stage that
came within 0.1 MB of its peak: the two kernel counters read disagree by about
that much.
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
import cnmfg.projection as projection_mod
from cnmfg.flows import ConditionalMeasureFlow

_MB = 1024.0 ** 2
_PAGE = os.sysconf("SC_PAGE_SIZE")
# statm's resident set and ru_maxrss disagree by about 0.1 MB (seen up to
# 0.11 MB on lq1), so a stage within this of the peak has reached it
_RESOLUTION = 0.1 * _MB
# a run in a fresh interpreter: this file imported as a module, then _run
_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import phi_memory; phi_memory._run()"


def _rss() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _staged(owner, name, stage, report, counts):
    """Replaces ``owner.name`` by a wrapper that calls it, then reports
    ``"<stage> <n>"`` for its n-th call, counted in ``counts``."""
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def run_and_report(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts[stage] = counts.get(stage, 0) + 1
        report(f"{stage} {counts[stage]}")
        return out

    setattr(owner, name, run_and_report)


def _run_phi(spec, config, report):
    counts = {}
    for name, stage in (("_reference", "reference"), ("_estimate_flow", "flow"),
                        ("solve_bsde", "BSDE pass")):
        _staged(equilibrium_mod, name, stage, report, counts)
    phi = equilibrium_mod.apply_phi(spec, None, config)
    print(f"y0 {phi.solution.y0!r}; {phi.flow.n_source} paths binned")


def _run_solve(spec, config, report):
    counts = {}
    # each stage at the binding its caller looks up
    for owner, name, stage in ((equilibrium_mod, "apply_phi", "phi"),
                               (equilibrium_mod, "flow_distance", "distance"),
                               (ConditionalMeasureFlow, "reweighted", "mix"),
                               (equilibrium_mod, "project_control", "projection"),
                               (equilibrium_mod, "mimicking_check", "mimicking"),
                               (cli_mod, "exploitability", "exploitability")):
        _staged(owner, name, stage, report, counts)
    with tempfile.TemporaryDirectory() as out:
        cli_mod._cmd_solve(spec, config, Path(out))
        report("files")


def _run_mimic_check(spec, config, report):
    counts = {}
    for owner, name, stage in ((cli_mod, "_reference", "reference"),
                               (cli_mod, "initial_flow", "initial flow"),
                               (cli_mod, "control_weights", "probe weights"),
                               (cli_mod, "project_control", "projection"),
                               (cli_mod, "project_cost_gap", "cost gap"),
                               (projection_mod, "simulate_markov_sde", "markov paths"),
                               (cli_mod, "mimicking_check", "mimicking")):
        _staged(owner, name, stage, report, counts)
    with tempfile.TemporaryDirectory() as out:
        cli_mod._cmd_mimic_check(spec, config, Path(out))
        report("files")


_RUNS = {"phi": _run_phi, "solve": _run_solve, "mimic-check": _run_mimic_check}


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
        # the resident set first, and a peak no lower than it or the last row's:
        # ru_maxrss can lag behind both
        rss = _rss()
        maxrss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024, rss,
                     rows[-1][2] if rows else 0)
        rows.append((stage, rss, maxrss, now, peak))
        tracemalloc.reset_peak()

    if job["traced"]:
        tracemalloc.start()
    _RUNS[job["command"]](spec, config, report)
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
    parser.add_argument("--command", choices=tuple(_RUNS), default="phi")
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
        peak = run["rows"][-1][2]    # the peak column never falls
        top = next(row for row in run["rows"] if row[2] >= peak - _RESOLUTION)
        print(f"{name} peak {peak / _MB:.1f} MB, first reached by stage {top[0]!r}")


if __name__ == "__main__":
    main()
