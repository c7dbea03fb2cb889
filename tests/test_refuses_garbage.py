"""Known garbage configurations, each run through ``run_command``: a run must
end with the status that names the failed check and a nonzero exit code,
never ``converged``."""

from pathlib import Path

import pytest

from cnmfg.cli import run_command

LQ1 = (Path(__file__).resolve().parents[1] / "scripts" / "lq1.cfg").read_text()


@pytest.mark.parametrize("text, status", [
    pytest.param(LQ1.replace("seed = 1", "seed = 1\ndegree = 1"), "unresolved",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP direction 2: a linear value fit cannot hold LQ-1's quadratic "
                     "value, and no check on the BSDE fit stops the run yet")),
                 id="lq1-degree-1"),
])
def test_garbage_run_ends_with_a_named_status(tmp_path, capsys, text, status):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = run_command(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert f"status={status} " in capsys.readouterr().out
    assert code != 0
