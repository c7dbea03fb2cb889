import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnmfg
from cnmfg import equilibrium
from cnmfg.cli import _SOLVER_KEYS, ConfigError, parse_config, run_command

MINIMAL = """
[problem]
family = lq

[solver]
paths = 2000
steps = 10
bins = 4
min_bin_count = 32
seed = 7
max_iters = 10
"""
APPENDED = len(MINIMAL.splitlines()) + 1    # the line number of a line appended to MINIMAL
REPO = Path(__file__).resolve().parents[1]

NO_INTERACTION = """
[problem]
family = lq
interaction = 0.0
state_weight = 1.0

[solver]
paths = 2000
steps = 10
bins = 4
min_bin_count = 32
seed = 7
max_iters = 5
"""

# every command's manifest: versions, then the problem and solver settings
MANIFEST_COMMON_KEYS = [
    "cnmfg_version", "numpy_version", "python_version", "scipy_version",
    "problem.family", "problem.action_hi", "problem.action_lo", "problem.action_weight",
    "problem.common_init", "problem.common_init_std", "problem.horizon", "problem.init_clip",
    "problem.init_mean", "problem.init_std", "problem.interaction", "problem.sigma",
    "problem.sigma0", "problem.sigmac", "problem.state_weight", "problem.terminal_weight",
    "solver.basis_degree", "solver.damping", "solver.eval_seed", "solver.max_iters",
    "solver.min_bin_count", "solver.n_bins", "solver.n_paths", "solver.n_steps",
    "solver.partition_times", "solver.seed", "solver.tol",
]


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _hash_dir(path: Path, names) -> dict:
    return {n: hashlib.sha256((path / n).read_bytes()).hexdigest() for n in names}


class TestParseConfig:
    def test_minimal_lq_defaults(self, tmp_path):
        spec, config, outputs = parse_config(_write(tmp_path, MINIMAL))
        assert spec.family == "lq"
        assert spec.params["interaction"] == 2.5
        assert config.n_paths == 2000
        assert config.seed == 7
        assert outputs == {}

    def test_unknown_problem_key_names_line(self, tmp_path, capsys):
        # p, the moment exponent of the theory, is read by no computation and is no key
        for line, key in [("sigmma = 1.0", "sigmma"), ("p = 2.0", "p")]:
            cfg = _write(tmp_path, f"[problem]\nfamily = lq\n{line}\n")
            message = f"{cfg}:3: unknown key {key!r} for family 'lq'"
            with pytest.raises(ConfigError) as err:
                parse_config(cfg)
            assert str(err.value) == message
            out = tmp_path / "out"
            assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_damping_out_of_range(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL + "damping = 0.0\n")
        with pytest.raises(ConfigError, match="damping"):
            parse_config(cfg)

    def test_malformed_number_names_line(self, tmp_path):
        cfg = _write(tmp_path, "[problem]\nfamily = lq\n\n[solver]\npaths = ten\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:5.*malformed"):
            parse_config(cfg)

    def test_unknown_family(self, tmp_path):
        cfg = _write(tmp_path, "[problem]\nfamily = cubic\n")
        with pytest.raises(ConfigError, match="unknown family"):
            parse_config(cfg)

    def test_unknown_section(self, tmp_path):
        cfg = _write(tmp_path, "[misc]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config(cfg)

    def test_missing_family(self, tmp_path):
        cfg = _write(tmp_path, "[solver]\npaths = 100\n")
        with pytest.raises(ConfigError, match="family"):
            parse_config(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = _write(tmp_path, "[problem]\nfamily = lq\nsigma = 1\nsigma = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg)

    def test_partition_times_parse(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL + "partition = 0.0, 0.5, 1.0\n")
        _, config, _ = parse_config(cfg)
        assert config.partition_times == (0.0, 0.5, 1.0)

    def test_solver_keys_match_config_fields(self):
        targets = [name for name, _ in _SOLVER_KEYS.values()]
        fields = [f.name for f in dataclasses.fields(equilibrium.SolverConfig)]
        assert sorted(targets) == sorted(fields)

    # a key that leaves the program but stays in a shipped config fails here
    @pytest.mark.parametrize("cfg", sorted((REPO / "scripts").glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_shipped_config_loads_and_validates(self, cfg, capsys):
        parse_config(cfg)
        assert run_command(["validate", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestRunCommand:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINIMAL)
        assert run_command(["validate", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_config_is_error(self, tmp_path, capsys):
        assert run_command(["validate", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("bins = 4", "bins = 0", "'bins'"),
        ("min_bin_count = 32", "min_bin_count = 0", "min_bin_count"),
        ("min_bin_count = 32", "min_bin_count = -5", "min_bin_count"),
    ])
    def test_bad_binning_or_order_is_error(self, tmp_path, capsys, old, new, key):
        assert old in MINIMAL
        cfg = _write(tmp_path, MINIMAL.replace(old, new))
        out = tmp_path / "out"
        assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not (out / "residuals.csv").exists()

    @pytest.mark.parametrize("old, new, message, where", [
        ("steps = 10", "steps = 0", "n_steps (config key 'steps') must be >= 1", ""),
        ("seed = 7", "seed = 7\ndegree = -1", "basis_degree (config key 'degree') must be >= 0",
         ""),
        # the ridge is no setting but BasisSpec's constant, so the key is unknown
        ("seed = 7", "seed = 7\nridge = -1", "unknown solver key 'ridge'", ":11"),
        ("seed = 7", "seed = 7\nseed 8", "expected key = value, got 'seed 8'", ":11"),
        ("[problem]", "paths = 10\n[problem]", "key outside any section", ":2"),
        ("seed = 7", "seed = 7\n[output]\nformat = csv", "unknown output key 'format'", ":12"),
        ("seed = 7", "seed = -1", "seed (config key 'seed') must be >= 0", ""),
    ])
    def test_bad_grid_or_basis_fails_at_parse_time(self, tmp_path, capsys, old, new, message,
                                                   where):
        cfg = _write(tmp_path, MINIMAL.replace(old, new))
        out = tmp_path / "out"
        assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}{where}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "validate", "w1-oracle"])
    def test_negative_seed_flag_fails_before_out_dir(self, tmp_path, capsys, command):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out-dir", str(out), "--seed", "-1"]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == "error: seed (config key 'seed') must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "order = 2", "order = 0.5", "retained_eval_paths = 2048", "retained_eval_paths = 0",
        "ridge = 1e-8", "eval_seed = 5",
        "ridge = inf", "ridge = -inf", "order = inf", "order = -inf",
    ])
    def test_constant_settings_are_unknown_keys(self, tmp_path, capsys, line):
        cfg = _write(tmp_path, MINIMAL + line + "\n")
        out = tmp_path / "out"
        assert run_command(["phi", "--config", str(cfg), "--out-dir", str(out)]) == 1
        key = line.split(" = ")[0]
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:{APPENDED}: unknown solver key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["partition = 0.5, 2.0", "partition = -0.5"])
    def test_partition_outside_horizon_fails_before_out_dir(self, tmp_path, capsys, line):
        cfg = _write(tmp_path, MINIMAL + line + "\n")
        out = tmp_path / "out"
        assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{APPENDED}: 'partition' times must lie in "
                              "[0, horizon=1], got ")
        assert not out.exists()

    @pytest.mark.parametrize("text, flags", [
        (MINIMAL, ["--paths", "1"]),
        (MINIMAL.replace("paths = 2000", "paths = 1"), []),
    ])
    def test_single_path_is_error(self, tmp_path, capsys, text, flags):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert run_command(["phi", "--config", str(cfg), "--out-dir", str(out)] + flags) == 1
        assert "'paths'" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("section, line, named", [
        ("solver", "tol = nan", "'tol'"),
        ("solver", "tol = inf", "'tol'"),
        ("problem", "horizon = inf", "horizon"),
        ("problem", "sigma0 = nan", "sigma0"),
        ("problem", "action_lo = nan", "action_lo"),
        ("problem", "action_hi = inf", "action_hi"),
    ])
    def test_non_finite_value_is_error(self, tmp_path, capsys, section, line, named):
        text = (MINIMAL + line + "\n" if section == "solver"
                else MINIMAL.replace("family = lq", "family = lq\n" + line))
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("section, line, named", [
        ("problem", "interaction = nan", "'interaction'"),
        ("problem", "init_std = inf", "'init_std'"),
        ("problem", "action_weight = -inf", "'action_weight'"),
        ("solver", "partition = 0.5, nan", "'partition'"),
        ("solver", "partition = inf", "'partition'"),
    ])
    def test_non_finite_value_fails_before_out_dir(self, tmp_path, capsys, section, line,
                                                    named):
        text = (MINIMAL + line + "\n" if section == "solver"
                else MINIMAL.replace("family = lq", "family = lq\n" + line))
        cfg = _write(tmp_path, text)
        lineno = text.splitlines().index(line) + 1
        out = tmp_path / "out"
        assert run_command(["phi", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{lineno}: ") and named in err
        assert not out.exists()

    def test_validate_creates_no_out_dir(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run_command(["validate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert not out.exists()

    @pytest.mark.parametrize("command, keys", [
        ("solve", ["ess_frac_min", "ess_frac_min_step", "ess_frac_terminal", "exploitability",
                   "exploitability_stderr", "final_residual", "iterations",
                   "mimicking_max_w1", "status", "wall_ms_per_iter", "y0", "y0_stderr"]),
        ("phi", ["ess_frac_min", "ess_frac_min_step", "ess_frac_terminal", "y0", "y0_stderr"]),
        ("bsde-check", ["martingale_gap", "martingale_gap_se", "terminal_mean", "y0",
                        "y0_zero_driver"]),
        ("w1-oracle", ["max_absdiff"]),
        ("mimic-check", ["clamp_count", "cost_gap", "cost_gap_stderr", "max_w1", "mean_w1"]),
    ])
    def test_manifest_keys(self, tmp_path, command, keys):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert run_command([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
        manifest = dict(line.split(" = ", 1)
                        for line in (out / "manifest.txt").read_text().splitlines())
        assert set(manifest) == set(MANIFEST_COMMON_KEYS + keys + ["wall_ms_total"])
        # each SolverConfig field, and the evaluation seed its property derives
        assert {k for k in manifest if k.startswith("solver.")} == {
            f"solver.{f.name}" for f in dataclasses.fields(equilibrium.SolverConfig)
        } | {"solver.eval_seed"}
        assert manifest["solver.eval_seed"] == repr(7 + 99_991)

    def test_unknown_flag_is_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINIMAL)
        assert run_command(["validate", "--config", str(cfg), "--bogus"]) == 1

    def test_solve_no_interaction_exits_zero(self, tmp_path):
        cfg = _write(tmp_path, NO_INTERACTION)
        out = tmp_path / "out"
        code = run_command(["solve", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        for name in ("residuals.csv", "flow.csv", "policy.csv", "mimicking.csv",
                     "manifest.txt"):
            assert (out / name).exists()
        manifest = (out / "manifest.txt").read_text()
        assert "status = 'converged'" in manifest
        assert "iterations = 1" in manifest

    def test_solve_max_iters_one_forces_nonconvergence(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code = run_command(["solve", "--config", str(cfg), "--out-dir", str(out),
                            "--max-iters", "1", "--tol", "1e-9"])
        assert code == 2
        residuals = (out / "residuals.csv").read_text().splitlines()
        assert len(residuals) == 2  # header plus the single iteration row

    def test_residuals_replay_through_the_stop_rule(self, tmp_path):
        # a tolerance no run meets: the damping halves before the run stops
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code = run_command(["solve", "--config", str(cfg), "--out-dir", str(out),
                            "--tol", "1e-12", "--max-iters", "40"])
        with open(out / "residuals.csv", newline="") as fh:
            rows = [equilibrium.IterationRow(int(r["iter"]), float(r["residual"]),
                                             float(r["damping"]), float(r["y0"]), 0.0)
                    for r in csv.DictReader(fh)]
        manifest = dict(line.split(" = ", 1)
                        for line in (out / "manifest.txt").read_text().splitlines())
        config = equilibrium.SolverConfig(tol=float(manifest["solver.tol"]),
                                          max_iters=int(manifest["solver.max_iters"]),
                                          damping=float(manifest["solver.damping"]))
        assert rows[0].damping == config.damping
        assert len({r.damping for r in rows}) > 1
        for i in range(1, len(rows)):
            assert equilibrium.next_damping(rows[:i], config) == ("running", rows[i].damping)
        status, _ = equilibrium.next_damping(rows, config)
        assert manifest["status"] == repr(status)
        assert int(manifest["iterations"]) == len(rows) == rows[-1].iteration
        assert code == (0 if status == "converged" else 2)

    def test_solve_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, NO_INTERACTION)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        names = ("residuals.csv", "flow.csv", "policy.csv", "mimicking.csv")
        assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert run_command(["solve", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert _hash_dir(out1, names) == _hash_dir(out2, names)

    def test_phi_writes_flow(self, tmp_path, monkeypatch):
        calls = []
        real = equilibrium.generate_noise
        monkeypatch.setattr(equilibrium, "generate_noise",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "phi"
        assert run_command(["phi", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert len(calls) == 1   # one reference system serves the seed flow and the map
        assert (out / "flow.csv").exists()
        assert (out / "bsde_residuals.csv").exists()

    def test_bsde_check(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "bsde"
        assert run_command(["bsde-check", "--config", str(cfg), "--out-dir", str(out)]) == 0
        text = (out / "manifest.txt").read_text()
        assert "martingale_gap" in text

    def test_w1_oracle(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "w1"
        assert run_command(["w1-oracle", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "w1_oracle.csv").read_text().splitlines()
        assert len(lines) == 1 + 400  # 200 cases x q in {1, 2}

    def test_mimic_check(self, tmp_path):
        cfg = _write(tmp_path, MINIMAL)
        out = tmp_path / "mimic"
        assert run_command(["mimic-check", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "mimicking.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write(tmp_path, NO_INTERACTION)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_command(["solve", "--config", str(cfg), "--out-dir", str(out1)])
        run_command(["solve", "--config", str(cfg), "--out-dir", str(out2),
                     "--seed", "8"])
        h1 = _hash_dir(out1, ("flow.csv",))
        h2 = _hash_dir(out2, ("flow.csv",))
        assert h1 != h2


class TestModuleEntryPoint:
    """``python -m cnmfg`` and ``python -m cnmfg.cli`` run the command line."""

    @staticmethod
    def _run(tmp_path, *argv):
        env = dict(os.environ)
        src = str(Path(cnmfg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("module", ["cnmfg", "cnmfg.cli"])
    def test_validate_prints_pass(self, tmp_path, module):
        cfg = _write(tmp_path, MINIMAL)
        proc = self._run(tmp_path, module, "validate", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert "validation: PASS" in proc.stdout

    @pytest.mark.parametrize("module", ["cnmfg", "cnmfg.cli"])
    def test_unknown_command_fails(self, tmp_path, module):
        cfg = _write(tmp_path, MINIMAL)
        proc = self._run(tmp_path, module, "no-such-command", "--config", str(cfg))
        assert proc.returncode != 0
        assert "invalid choice" in proc.stderr
