#!/usr/bin/env python3
"""Compare the CSV files and run manifests of two output directories.

    python3 scripts/csv_diff.py [--max-abs TOL] DIR_A DIR_B

For each CSV present in both directories, prints ``identical`` when the files
are byte-identical; otherwise the largest absolute difference of each numeric
column (``max |a - b|``), or why the files cannot be compared column by
column (different headers or row counts).  Columns whose cells are not all
numbers are reported as ``differs`` or ``same``.  When both directories hold a
``manifest.txt``, its ``key = value`` lines are compared key by key, skipping
the wall-clock keys (those starting with ``wall_ms``); each other key whose
value differs or that only one side has is listed.  A CSV or manifest that
only one directory holds is reported as ``only in DIR`` and counts as a
difference.  Exits 1 when some file differs, 0 otherwise.

With ``--max-abs TOL``, a file whose only differences are numbers (numeric CSV
columns, or manifest values that both parse as numbers) that differ by at most
TOL is reported as ``within TOL`` and does not count as differing.  Any other
difference (non-numeric cells or values, headers, row counts, a key on one side
only) still does.  Bad arguments exit 2.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

MANIFEST = "manifest.txt"
WALL_CLOCK_PREFIX = "wall_ms"


def _read(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _as_float(cells):
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        return None


def compare(a: Path, b: Path):
    """(report lines, largest numeric difference) for one pair of files.

    ``([], 0.0)`` when they are byte-identical; the difference is inf when they
    differ in anything but numbers.
    """
    if a.read_bytes() == b.read_bytes():
        return [], 0.0
    head_a, rows_a = _read(a)
    head_b, rows_b = _read(b)
    if head_a != head_b:
        return [f"  headers differ: {head_a} vs {head_b}"], np.inf
    if len(rows_a) != len(rows_b):
        return [f"  row counts differ: {len(rows_a)} vs {len(rows_b)}"], np.inf
    lines = []
    worst = 0.0
    for j, name in enumerate(head_a):
        col_a = [r[j] for r in rows_a]
        col_b = [r[j] for r in rows_b]
        va, vb = _as_float(col_a), _as_float(col_b)
        if va is None or vb is None:
            lines.append(f"  {name}: {'same' if col_a == col_b else 'differs'}")
            if col_a != col_b:
                worst = np.inf
            continue
        with np.errstate(invalid="ignore"):
            equal = (va == vb) | (np.isnan(va) & np.isnan(vb))
            diff = np.where(equal, 0.0, np.abs(va - vb))
        gap = float(np.max(diff, initial=0.0))
        lines.append(f"  {name}: max |a - b| = {gap:.3g}")
        worst = _max_gap(worst, gap)
    return lines, worst


def _max_gap(worst: float, gap: float) -> float:
    return np.inf if np.isnan(gap) else max(worst, gap)


def _value_gap(val_a: str, val_b: str) -> float:
    """|a - b| of two differing manifest values, or inf unless both are numbers."""
    try:
        return _max_gap(0.0, abs(float(val_a) - float(val_b)))
    except ValueError:
        return np.inf


def _manifest(path: Path) -> dict:
    kv = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(" = ")
        if sep and not key.startswith(WALL_CLOCK_PREFIX):
            kv[key] = val
    return kv


def compare_manifests(a: Path, b: Path):
    """(report lines, largest numeric difference) for two manifests, as ``compare``."""
    kv_a, kv_b = _manifest(a), _manifest(b)
    lines = []
    worst = 0.0
    for key in sorted(kv_a.keys() | kv_b.keys()):
        if key not in kv_b:
            lines.append(f"  {key}: only in {a.parent}")
            worst = np.inf
        elif key not in kv_a:
            lines.append(f"  {key}: only in {b.parent}")
            worst = np.inf
        elif kv_a[key] != kv_b[key]:
            lines.append(f"  {key}: {kv_a[key]} vs {kv_b[key]}")
            worst = max(worst, _value_gap(kv_a[key], kv_b[key]))
    return lines, worst


def _parse_args(argv: list[str]):
    """(DIR_A, DIR_B, TOL or None), or None when the arguments are malformed."""
    args = list(argv)
    tol = None
    if "--max-abs" in args:
        i = args.index("--max-abs")
        try:
            tol = float(args[i + 1])
        except (IndexError, ValueError):
            return None
        if not tol >= 0:
            return None
        del args[i:i + 2]
    if len(args) != 2 or any(arg.startswith("--") for arg in args):
        return None
    return Path(args[0]), Path(args[1]), tol


def main(argv: list[str]) -> int:
    parsed = _parse_args(argv)
    if parsed is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b, tol = parsed
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.csv")})
    names += [MANIFEST] if (dir_a / MANIFEST).is_file() or (dir_b / MANIFEST).is_file() else []
    if not names:
        print("no CSV files")
        return 0
    differs = False
    for name in names:
        present = [d for d in (dir_a, dir_b) if (d / name).is_file()]
        if len(present) == 1:
            print(f"{name}: only in {present[0]}")
            differs = True
            continue
        cmp = compare_manifests if name == MANIFEST else compare
        lines, worst = cmp(dir_a / name, dir_b / name)
        if not lines:
            status = "identical"
        elif tol is not None and worst <= tol:
            status = f"within {tol:g}"
        else:
            status = "differs"
            differs = True
        print(f"{name}: {status}")
        for line in lines:
            print(line)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
