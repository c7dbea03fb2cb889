import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "csv_diff.py"
_spec = importlib.util.spec_from_file_location("csv_diff", _SCRIPT)
csv_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_diff)


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_reports_identical_files_and_column_maxima(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "same.csv", "t,x\n0,1\n")
    _write(b / "same.csv", "t,x\n0,1\n")
    _write(a / "moved.csv", "t,x,tag\n0,1.5,p\n1,nan,q\n2,inf,r\n")
    _write(b / "moved.csv", "t,x,tag\n0,1.25,p\n1,nan,s\n2,inf,r\n")
    _write(a / "only_a.csv", "t\n0\n")
    assert csv_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "moved.csv: differs",
        "  t: max |a - b| = 0",
        "  x: max |a - b| = 0.25",
        "  tag: differs",
        f"only_a.csv: only in {a}",
        "same.csv: identical",
    ]


def test_file_on_one_side_differs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "x.csv", "t\n0\n")
    _write(b / "x.csv", "t\n0\n")
    _write(b / "policy.csv", "t\n0\n")
    assert csv_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"policy.csv: only in {b}",
                                                    "x.csv: identical"]
    # --max-abs forgives numbers, not a missing file
    assert csv_diff.main(["--max-abs", "1e9", str(b), str(a)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"policy.csv: only in {b}"
    (b / "policy.csv").unlink()
    _write(a / "manifest.txt", "y0 = 1.0\n")
    assert csv_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["x.csv: identical",
                                                    f"manifest.txt: only in {a}"]


def test_shape_mismatch_and_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "f.csv", "t,x\n0,1\n")
    _write(b / "f.csv", "t,y\n0,1\n")
    _write(a / "g.csv", "t\n0\n1\n")
    _write(b / "g.csv", "t\n0\n")
    assert csv_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "headers differ" in out and "row counts differ: 2 vs 1" in out
    assert csv_diff.main([str(a), str(a)]) == 0
    assert csv_diff.main([str(a), str(tmp_path / "missing")]) == 2


def test_manifests_compare_key_by_key_without_wall_clock(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "f.csv", "t\n0\n")
    _write(b / "f.csv", "t\n0\n")
    _write(a / "manifest.txt", "wall_ms_total = 10.5\ny0 = 1.25\nwall_ms_per_iter = [1.0]\n")
    _write(b / "manifest.txt", "wall_ms_total = 99.0\ny0 = 1.25\nwall_ms_per_iter = [7.0]\n")
    assert csv_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["f.csv: identical",
                                                    "manifest.txt: identical"]
    _write(b / "manifest.txt", "wall_ms_total = 99.0\ny0 = 1.2500000000000002\nstatus = 'ok'\n")
    assert csv_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "f.csv: identical",
        "manifest.txt: differs",
        f"  status: only in {b}",
        "  y0: 1.25 vs 1.2500000000000002",
    ]
    (b / "f.csv").unlink()
    (a / "f.csv").unlink()
    assert csv_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "manifest.txt: differs"


def test_max_abs_forgives_small_numeric_differences_only(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "f.csv", "t,x,tag\n0,1.5,p\n1,nan,q\n")
    _write(b / "f.csv", "t,x,tag\n0,1.5000000000000004,p\n1,nan,q\n")
    _write(a / "manifest.txt", "wall_ms_total = 1.0\ncost_gap = 0.0955\nstatus = 'ok'\n")
    _write(b / "manifest.txt", "wall_ms_total = 2.0\ncost_gap = 0.09550000000000045\n"
                               "status = 'ok'\n")
    assert csv_diff.main([str(a), str(b)]) == 1
    capsys.readouterr()
    assert csv_diff.main(["--max-abs", "1e-12", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "f.csv: within 1e-12"
    assert out[4] == "manifest.txt: within 1e-12"
    assert csv_diff.main([str(a), str(b), "--max-abs", "1e-16"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "f.csv: differs"


@pytest.mark.parametrize("csv_b, manifest_b", [
    ("t,x,tag\n0,1.5,P\n", "y0 = 1.0\n"),                     # non-numeric cell
    ("t,y,tag\n0,1.5,p\n", "y0 = 1.0\n"),                     # header
    ("t,x,tag\n0,1.5,p\n1,2.0,p\n", "y0 = 1.0\n"),            # row count
    ("t,x,tag\n0,nan,p\n", "y0 = 1.0\n"),                     # nan against a number
    ("t,x,tag\n0,1.5,p\n", "y0 = 'one'\n"),                   # non-numeric value
    ("t,x,tag\n0,1.5,p\n", "y0 = 1.0\nstatus = 'ok'\n"),      # key on one side
    ("t,x,tag\n0,1.5,p\n", "y0 = [1.0]\n"),                   # list value
])
def test_max_abs_keeps_other_differences(tmp_path, capsys, csv_b, manifest_b):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "f.csv", "t,x,tag\n0,1.5,p\n")
    _write(a / "manifest.txt", "y0 = 1.0\n")
    _write(b / "f.csv", csv_b)
    _write(b / "manifest.txt", manifest_b)
    assert csv_diff.main(["--max-abs", "1e9", str(a), str(b)]) == 1
    assert "differs" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--max-abs"], ["--max-abs", "x"], ["--max-abs", "-1"],
                                  ["--max-abs", "nan"], ["--tol", "1"]])
def test_max_abs_argument_errors(tmp_path, argv):
    (tmp_path / "a").mkdir()
    assert csv_diff.main(argv + [str(tmp_path / "a"), str(tmp_path / "a")]) == 2
