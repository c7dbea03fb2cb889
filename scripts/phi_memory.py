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
files.  After each stage it prints, in MB: the resident set
(``/proc/self/statm``), the peak resident set (``ru_maxrss``), the bytes
``tracemalloc`` traces now and at their peak during the stage, and the slack,
the resident set above the one after import minus the traced bytes: freed heap
the allocator keeps, plus ``tracemalloc``'s own bookkeeping.
"""

import argparse
import dataclasses
import functools
import os
import resource
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--paths", type=int)
    parser.add_argument("--command", choices=("phi", "solve"), default="phi")
    args = parser.parse_args()
    spec, config, _ = cli_mod.parse_config(args.config)
    if args.paths is not None:
        config = dataclasses.replace(config, n_paths=args.paths)

    base = _rss()
    print(f"after import: rss {base / _MB:.1f} MB")
    print(f"{'stage':<16} {'rss':>8} {'maxrss':>8} {'traced':>8} {'peak':>8} {'slack':>8}")

    def report(stage):
        traced, peak = tracemalloc.get_traced_memory()
        rss = _rss()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        print(f"{stage:<16} {rss / _MB:8.1f} {maxrss / _MB:8.1f} {traced / _MB:8.1f} "
              f"{peak / _MB:8.1f} {(rss - base - traced) / _MB:8.1f}")
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        (_run_solve if args.command == "solve" else _run_phi)(spec, config, report)
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    main()
