#!/usr/bin/env python3
"""Memory after each stage of one self-simulated best-response map application.

    PYTHONPATH=src python scripts/phi_memory.py --config scripts/lq1.cfg --paths 80000

Runs the stages of ``apply_phi(spec, None, config)`` one at a time: the
reference simulation, the BSDE pass with its Girsanov weights, which bins each
step of the input (unit-weight) flow when it reads it, and the output flow,
binned after the noise and the input flow are dropped.  After each stage it
prints, in MB: the resident set (``/proc/self/statm``), the peak resident set
(``ru_maxrss``), the bytes ``tracemalloc`` traces now and at their peak during
the stage, and the slack, the resident set above the one after import minus
the traced bytes: freed heap the allocator keeps, plus ``tracemalloc``'s own
bookkeeping.
"""

import argparse
import dataclasses
import os
import resource
import tracemalloc

from cnmfg.bsde import solve_bsde
from cnmfg.cli import parse_config
from cnmfg.equilibrium import _estimate_flow, _reference

_MB = 1024.0 ** 2
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--paths", type=int)
    args = parser.parse_args()
    spec, config, _ = parse_config(args.config)
    if args.paths is not None:
        config = dataclasses.replace(config, n_paths=args.paths)

    base = _rss()
    print(f"after import: rss {base / _MB:.1f} MB")
    print(f"{'stage':<12} {'rss':>8} {'maxrss':>8} {'traced':>8} {'peak':>8} {'slack':>8}")

    def report(stage):
        traced, peak = tracemalloc.get_traced_memory()
        rss = _rss()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        print(f"{stage:<12} {rss / _MB:8.1f} {maxrss / _MB:8.1f} {traced / _MB:8.1f} "
              f"{peak / _MB:8.1f} {(rss - base - traced) / _MB:8.1f}")
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        noise, paths = _reference(spec, config)
        report("reference")
        m = _estimate_flow(spec, config, paths, None, on_read=True)
        solution = solve_bsde(spec, m, paths, noise, config.basis(), weights=True)
        report("BSDE pass")
        del m, noise
        flow = _estimate_flow(spec, config, paths, solution.weights)
        report("output flow")
    finally:
        tracemalloc.stop()
    print(f"y0 {solution.y0!r}; {flow.n_source} paths binned")


if __name__ == "__main__":
    main()
