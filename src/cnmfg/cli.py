"""Command-line entry points, config parsing, CSV emission, run manifests.

Config files are flat key = value text with [problem], [solver] and [output]
sections; unknown keys are rejected with the offending line number.  Data CSVs
are byte-reproducible for a fixed (config, seeds); wall-clock numbers are
quarantined in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bsde import _terminal_values, control_weights, policy_to_csv, solve_bsde
from .equilibrium import (
    SolverConfig,
    _evaluation_noise,
    _reference,
    apply_phi,
    exploitability,
    initial_flow,
    solve_equilibrium,
)
from .flows import EmpiricalMeasure, flow_to_csv, lp_transport, wasserstein_1d
from .problem import ProblemSpec, make_instance, validate_spec, _FAMILIES
from .projection import lagged_noise_control, mimicking_check, project_cost_gap, project_control

__all__ = ["ConfigError", "parse_config", "run_command", "main"]

_FMT = "%.17g"


class ConfigError(ValueError):
    pass


_SOLVER_KEYS = {
    "paths": ("n_paths", int),
    "steps": ("n_steps", int),
    "bins": ("n_bins", int),
    "min_bin_count": ("min_bin_count", int),
    "degree": ("basis_degree", int),
    "damping": ("damping", float),
    "max_iters": ("max_iters", int),
    "tol": ("tol", float),
    "seed": ("seed", int),
    "partition": ("partition_times", "times"),
}

# solver keys every command also takes as a flag (max_iters as --max-iters)
_FLAGS = ("seed", "paths", "steps", "bins", "damping", "max_iters", "tol")

_OUTPUT_KEYS = {"out_dir"}


def _parse_number(raw: str, kind, path, lineno):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "times":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: malformed number {raw!r}") from None
    raise ConfigError(f"{path}:{lineno}: unsupported value kind")


def _require_finite(values, key, raw, path, lineno) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{path}:{lineno}: {key!r} must be finite, got {raw!r}")


def parse_config(path):
    """Parse a config file into (ProblemSpec, SolverConfig, output options)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # {section: {key: (raw value, line number)}}
    table: dict = {"problem": {}, "solver": {}, "output": {}}
    entries = None
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in table:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            entries = table[section]
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if entries is None:
            raise ConfigError(f"{path}:{lineno}: key outside any section")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (raw, lineno)

    if "family" not in table["problem"]:
        raise ConfigError(f"{path}: missing required key 'family' in [problem]")
    family, lineno = table["problem"].pop("family")
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigError(f"{path}:{lineno}: unknown family {family!r} (known: {known})")
    allowed = set(inspect.signature(_FAMILIES[family]).parameters)
    problem_params = {}
    for key, (raw, lineno) in table["problem"].items():
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for family {family!r}")
        problem_params[key] = _parse_number(raw, float, path, lineno)
    spec = make_instance(family, **problem_params)   # its own messages name the keys it checks
    for key, (raw, lineno) in table["problem"].items():
        _require_finite([problem_params[key]], key, raw, path, lineno)

    solver_params = {}
    for key, (raw, lineno) in table["solver"].items():
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown solver key {key!r}")
        name, kind = _SOLVER_KEYS[key]
        solver_params[name] = _parse_number(raw, kind, path, lineno)
        if kind == "times":     # the comparisons also reject NaN and infinities
            if not all(0.0 <= t <= spec.horizon for t in solver_params[name]):
                raise ConfigError(f"{path}:{lineno}: {key!r} times must lie in "
                                  f"[0, horizon={spec.horizon:g}], got {raw!r}")
    try:
        config = SolverConfig(**solver_params)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    outputs = {}
    for key, (raw, lineno) in table["output"].items():
        if key not in _OUTPUT_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown output key {key!r}")
        outputs[key] = raw
    return spec, config, outputs


def _apply_overrides(config: SolverConfig, args) -> SolverConfig:
    fields = {_SOLVER_KEYS[key][0]: getattr(args, key) for key in _FLAGS
              if getattr(args, key) is not None}
    return dataclasses.replace(config, **fields) if fields else config


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _FMT % v for v in row])


def _write_bsde_residuals(out: Path, solution) -> None:
    _write_csv(out / "bsde_residuals.csv", ["step", "residual_var"],
               [(str(k), v) for k, v in enumerate(solution.residual_var)])


def _write_mimicking(out: Path, grid, report) -> None:
    _write_csv(out / "mimicking.csv", ["step", "t", "w1"],
               [(str(int(k)), grid.times[int(k)], w) for k, w in zip(report.steps, report.w1)])


def _write_manifest(path: Path, spec: ProblemSpec, config: SolverConfig,
                    extra: dict) -> None:
    kv = {
        "cnmfg_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "problem.family": spec.family,
    }
    for key, val in sorted(spec.params.items()):
        kv[f"problem.{key}"] = repr(val)
    for f in dataclasses.fields(config):
        kv[f"solver.{f.name}"] = repr(getattr(config, f.name))
    kv["solver.eval_seed"] = repr(config.eval_seed)
    kv.update({k: repr(v) for k, v in extra.items()})
    with open(path, "w") as fh:
        for key in sorted(kv):
            fh.write(f"{key} = {kv[key]}\n")


def _ess_values(weights) -> dict:
    """Manifest health values of Girsanov weights: the terminal and the smallest
    Kish ESS fraction over steps 1..n_steps, with the step of the smallest."""
    frac_min, step = weights.ess_frac_min()
    return {"ess_frac_terminal": weights.ess_frac(-1), "ess_frac_min": frac_min,
            "ess_frac_min_step": step}


def _cmd_solve(spec, config, out) -> tuple:
    result = solve_equilibrium(spec, config)
    # the manifest's ESS values are all that is read of the last weights, so
    # their log M goes before exploitability runs
    ess = _ess_values(result.solution.weights)
    result.solution.weights = None
    eps, eps_se = exploitability(spec, result.flow, result.policy, config,
                                 eval_reference=result.eval_reference)
    rows = result.report.rows
    _write_csv(out / "residuals.csv", ["iter", "residual", "y0", "damping"],
               [(str(r.iteration), r.residual, r.y0, r.damping) for r in rows])
    _write_bsde_residuals(out, result.solution)
    flow_to_csv(result.flow, out / "flow.csv")
    policy_to_csv(result.projected_policy, out / "policy.csv")
    _write_mimicking(out, result.flow.grid, result.mimicking)
    print(f"status={result.report.status} iterations={len(rows)} "
          f"residual={rows[-1].residual:.6g} y0={result.solution.y0:.6g} "
          f"exploitability={eps:.6g}")
    return 0 if result.report.converged else 2, {
        "status": result.report.status,
        "iterations": len(rows),
        "final_residual": rows[-1].residual,
        "y0": result.solution.y0,
        "y0_stderr": result.solution.y0_stderr,
        "exploitability": eps,
        "exploitability_stderr": eps_se,
        "mimicking_max_w1": result.mimicking.max_w1,
        **ess,
        "wall_ms_per_iter": [round(r.wall_ms, 3) for r in rows],
    }


def _cmd_phi(spec, config, out) -> tuple:
    phi = apply_phi(spec, None, config)
    flow_to_csv(phi.flow, out / "flow.csv")
    _write_bsde_residuals(out, phi.solution)
    print(f"y0={phi.solution.y0:.6g} (stderr {phi.solution.y0_stderr:.2g})")
    return 0, {"y0": phi.solution.y0, "y0_stderr": phi.solution.y0_stderr,
               **_ess_values(phi.weights)}


def _cmd_bsde_check(spec, config, out) -> tuple:
    noise, paths = _reference(spec, config)
    m0 = initial_flow(spec, config, paths)
    basis = config.basis()
    zero = solve_bsde(spec, m0, paths, noise, basis, driver="zero")
    full = solve_bsde(spec, m0, paths, noise, basis)
    terminal_mean = float(_terminal_values(spec, m0, paths).mean())
    _write_csv(out / "bsde_check.csv", ["step", "residual_var_zero", "residual_var"],
               [(str(k), zero.residual_var[k], full.residual_var[k])
                for k in range(config.n_steps)])
    martingale_gap = abs(zero.y0 - terminal_mean)
    print(f"zero-driver y0={zero.y0:.6g} vs E[terminal]={terminal_mean:.6g} "
          f"(gap {martingale_gap:.3g}); driver y0={full.y0:.6g}")
    return 0, {
        "y0_zero_driver": zero.y0,
        "terminal_mean": terminal_mean,
        "martingale_gap": martingale_gap,
        "martingale_gap_se": zero.y0_stderr,
        "y0": full.y0,
    }


def _cmd_w1_oracle(spec, config, out) -> tuple:
    rng = np.random.default_rng(config.seed)
    rows = []
    worst = 0.0
    for case in range(200):
        na, nb = rng.integers(1, 11, size=2)
        mu = EmpiricalMeasure(rng.normal(0, 2, size=(na, 1)), rng.random(na) + 0.05)
        nu = EmpiricalMeasure(rng.normal(0, 2, size=(nb, 1)), rng.random(nb) + 0.05)
        for q in (1.0, 2.0):
            a = wasserstein_1d(mu, nu, q)
            b = lp_transport(mu, nu, q)
            worst = max(worst, abs(a - b))
            rows.append((str(case), _FMT % q, a, b, abs(a - b)))
    _write_csv(out / "w1_oracle.csv", ["case", "q", "quantile", "lp", "absdiff"], rows)
    print(f"max |quantile - lp| = {worst:.3g} over 200 cases x q in (1, 2)")
    return 0 if worst <= 1e-9 else 1, {"max_absdiff": worst}


def _cmd_mimic_check(spec, config, out) -> tuple:
    noise, paths = _reference(spec, config)
    flow = initial_flow(spec, config, paths)
    paths.forget_sort_orders()       # nothing bins the reference again
    actions = lagged_noise_control(spec, noise)
    weights = control_weights(spec, flow, actions, paths, noise)
    policy = project_control(spec, paths, actions, flow, weights, config.basis())
    gap, gap_se = project_cost_gap(spec, paths, actions, policy, flow, noise)
    del noise, actions               # the probe's dW and actions go before the check's noise
    report = mimicking_check(spec, (paths, weights), policy, flow,
                            _evaluation_noise(spec, config))
    _write_mimicking(out, flow.grid, report)
    print(f"mimicking: max W1 = {report.max_w1:.4g}, mean = {report.mean_w1:.4g}; "
          f"cost gap = {gap:.4g} (se {gap_se:.2g})")
    return 0, {
        "max_w1": report.max_w1, "mean_w1": report.mean_w1,
        "cost_gap": gap, "cost_gap_stderr": gap_se,
        "clamp_count": report.clamp_count,
    }


_COMMANDS = {
    "solve": _cmd_solve,
    "phi": _cmd_phi,
    "bsde-check": _cmd_bsde_check,
    "w1-oracle": _cmd_w1_oracle,
    "mimic-check": _cmd_mimic_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnmfg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for key in _FLAGS:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_SOLVER_KEYS[key][1])
        p.add_argument("--out-dir", dest="out_dir")
    return parser


def run_command(argv) -> int:
    """Runs one command and returns its exit code.

    A ``_cmd_*`` function computes, writes its data CSVs into ``out`` and
    prints one line, then returns (exit code, manifest values); this function
    creates ``out``, times the command and writes ``manifest.txt`` last.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        spec, config, outputs = parse_config(args.config)
        config = _apply_overrides(config, args)
        if args.command == "validate":     # writes nothing
            report = validate_spec(spec, n_probes=512, seed=config.seed)
            print(report.summary())
            return 0 if report.passed else 1
        out = Path(args.out_dir or outputs.get("out_dir") or "run_out")
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        code, values = _COMMANDS[args.command](spec, config, out)
        values["wall_ms_total"] = (time.perf_counter() - t0) * 1e3
        _write_manifest(out / "manifest.txt", spec, config, values)
        return code
    except (ConfigError, ValueError, RuntimeError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
