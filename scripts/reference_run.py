#!/usr/bin/env python3
"""High-resolution reference run (1e5 paths, 32 bins) for the LQ-1 instance.

Reruns the solve that REFERENCE_Y0, the value the acceptance suite
regression-tests against, was frozen from.  Run it after any change that
intentionally moves the numbers and report the printed y0 next to the frozen
one in CHANGES.md; REFERENCE_Y0 in tests/test_acceptance.py stays as it is.
The final residual, exploitability and flow consistency are printed for
information only; no test reads them.
"""

import time

import cnmfg
from cnmfg.equilibrium import SolverConfig, _reference, exploitability, solve_equilibrium
from cnmfg.flows import estimate_conditional_flow, flow_distance
from cnmfg.sde import generate_noise, simulate_markov_sde


def main():
    spec = cnmfg.make_instance("lq")
    config = SolverConfig(seed=1, n_paths=100_000, n_bins=32)
    t0 = time.perf_counter()
    result = solve_equilibrium(spec, config, project=False)
    print(f"solved in {time.perf_counter() - t0:.1f}s; status {result.report.status}")
    for row in result.report.rows:
        print(f"  iter {row.iteration}: residual {row.residual:.6f} y0 {row.y0:.6f}")

    fresh = generate_noise(config.n_paths, config.grid(spec), config.eval_seed,
                           spec.d_state, spec.d_common)
    controlled = simulate_markov_sde(spec, result.policy, result.flow, fresh)
    eps, se = exploitability(spec, result.flow, result.policy, config,
                             eval_reference=_reference(spec, config, fresh))
    re_flow = estimate_conditional_flow(controlled, None, config.n_bins,
                                        min_bin_count=config.min_bin_count)
    consistency = flow_distance(re_flow, result.flow, 2.0)

    print("rerun of the frozen reference constant:")
    print(f"  REFERENCE_Y0 = {result.report.rows[-1].y0!r}")
    print("for information:")
    print(f"  reference residual = {result.report.rows[-1].residual!r}")
    print(f"  reference exploitability = {eps!r} (se {se!r})")
    print(f"  reference consistency = {consistency!r}")


if __name__ == "__main__":
    main()
