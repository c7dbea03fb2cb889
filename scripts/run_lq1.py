#!/usr/bin/env python3
"""Solve the LQ-1 instance end to end and print a compact summary.

Equivalent to `cnmfg solve --config scripts/lq1.cfg` but keeps the
intermediate objects around for interactive poking.  The last line gives the
wall time from the start of the solve and the process's peak resident memory.
"""

import argparse
import resource
import time

import numpy as np

import cnmfg
from cnmfg.equilibrium import SolverConfig, exploitability, solve_equilibrium
from cnmfg.flows import estimate_conditional_flow, flow_distance
from cnmfg.sde import simulate_markov_sde


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--bins", type=int, default=16)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--interaction", type=float, default=2.5)
    ap.add_argument("--state-weight", type=float, default=3.0)
    args = ap.parse_args()

    spec = cnmfg.make_instance("lq", interaction=args.interaction,
                               state_weight=args.state_weight)
    config = SolverConfig(n_paths=args.paths, n_bins=args.bins, seed=args.seed)

    t0 = time.perf_counter()
    result = solve_equilibrium(spec, config)
    print(f"status: {result.report.status} in {time.perf_counter() - t0:.1f}s")
    for row in result.report.rows:
        print(f"  iter {row.iteration}: residual {row.residual:.5f} "
              f"y0 {row.y0:.5f} damping {row.damping}")

    eps, se = exploitability(spec, result.flow, result.policy, config,
                             eval_noise=result.eval_noise)
    print(f"exploitability: {eps:.5f} (se {se:.2g})")

    controlled = simulate_markov_sde(spec, result.policy, result.flow, result.eval_noise)
    re_flow = estimate_conditional_flow(controlled, None, config.n_bins,
                                        min_bin_count=config.min_bin_count)
    print(f"fixed-point consistency: {flow_distance(re_flow, result.flow, 2.0):.5f}")
    print(f"mimicking: max W1 {result.mimicking.max_w1:.4f} "
          f"(clamped actions: {result.mimicking.clamp_count})")

    terminal = result.flow.measure(config.n_steps, 0)     # moments of order spec.p
    print(f"one terminal bin mean/moment: {terminal.mean[0]:.4f} / {terminal.pth_moment:.4f}")
    np.set_printoptions(precision=4)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux
    print(f"wall {time.perf_counter() - t0:.1f}s, peak RSS {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
