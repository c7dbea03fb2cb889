#!/usr/bin/env python3
"""Compare the CSV files and run manifests two output directories have in common.

    python3 scripts/csv_diff.py DIR_A DIR_B

For each CSV present in both directories, prints ``identical`` when the files
are byte-identical; otherwise the largest absolute difference of each numeric
column (``max |a - b|``), or why the files cannot be compared column by
column (different headers or row counts).  Columns whose cells are not all
numbers are reported as ``differs`` or ``same``.  When both directories hold a
``manifest.txt``, its ``key = value`` lines are compared key by key, skipping
the wall-clock keys (those starting with ``wall_ms``); each other key whose
value differs or that only one side has is listed.  Exits 1 when some file
differs, 0 otherwise.
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


def compare(a: Path, b: Path) -> list[str]:
    """Report lines for one pair of files; empty when they are byte-identical."""
    if a.read_bytes() == b.read_bytes():
        return []
    head_a, rows_a = _read(a)
    head_b, rows_b = _read(b)
    if head_a != head_b:
        return [f"  headers differ: {head_a} vs {head_b}"]
    if len(rows_a) != len(rows_b):
        return [f"  row counts differ: {len(rows_a)} vs {len(rows_b)}"]
    lines = []
    for j, name in enumerate(head_a):
        col_a = [r[j] for r in rows_a]
        col_b = [r[j] for r in rows_b]
        va, vb = _as_float(col_a), _as_float(col_b)
        if va is None or vb is None:
            lines.append(f"  {name}: {'same' if col_a == col_b else 'differs'}")
            continue
        with np.errstate(invalid="ignore"):
            equal = (va == vb) | (np.isnan(va) & np.isnan(vb))
            diff = np.where(equal, 0.0, np.abs(va - vb))
        lines.append(f"  {name}: max |a - b| = {float(np.max(diff, initial=0.0)):.3g}")
    return lines


def _manifest(path: Path) -> dict:
    kv = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition(" = ")
        if sep and not key.startswith(WALL_CLOCK_PREFIX):
            kv[key] = val
    return kv


def compare_manifests(a: Path, b: Path) -> list[str]:
    """Report lines for two manifests; empty when every non-wall-clock key agrees."""
    kv_a, kv_b = _manifest(a), _manifest(b)
    lines = []
    for key in sorted(kv_a.keys() | kv_b.keys()):
        if key not in kv_b:
            lines.append(f"  {key}: only in {a.parent}")
        elif key not in kv_a:
            lines.append(f"  {key}: only in {b.parent}")
        elif kv_a[key] != kv_b[key]:
            lines.append(f"  {key}: {kv_a[key]} vs {kv_b[key]}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = Path(argv[0]), Path(argv[1])
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    common = sorted({p.name for p in dir_a.glob("*.csv")} & {p.name for p in dir_b.glob("*.csv")})
    reports = [(name, compare(dir_a / name, dir_b / name)) for name in common]
    if (dir_a / MANIFEST).is_file() and (dir_b / MANIFEST).is_file():
        reports.append((MANIFEST, compare_manifests(dir_a / MANIFEST, dir_b / MANIFEST)))
    if not reports:
        print("no CSV files in common")
        return 0
    for name, lines in reports:
        print(f"{name}: {'identical' if not lines else 'differs'}")
        for line in lines:
            print(line)
    return 1 if any(lines for _, lines in reports) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
