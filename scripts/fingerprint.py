#!/usr/bin/env python3
"""Result fingerprint: the seed-1 suite CSVs, ideal and crossbar, and the device sweep.

`--write` regenerates tests/golden/, which tests/test_golden.py checks on
every Tier-1 run.  Without it the fingerprint is written to a scratch
directory, and every file that differs from tests/golden/ byte for byte is
listed with each moved value: its row, column, golden value, new value and
relative change (exit 1 when any differs).  A regeneration is a reviewed
change: CHANGES.md lists each moved row and why it moved.

    PYTHONPATH=src python scripts/fingerprint.py [--write]
"""

import argparse
import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

from neurofuzzy import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

# (subdirectory, CLI arguments); runtime_ms stays empty without --timing
RUNS = (
    ("ideal", ["suite", "--seed", "1"]),
    ("crossbar", ["suite", "--seed", "1", "--backend", "crossbar"]),
    ("", ["crossbar-compare", "--sweep-only"]),
)


def write(out: Path) -> None:
    for sub, argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv + ["--out-dir", str(out / sub)])
        if rc != 0:
            raise SystemExit(f"neurofuzzy {' '.join(argv)} exited {rc}")


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def moved_values(golden: Path, new: Path) -> list:
    """One line per cell of new that differs from golden, labelled by the row's
    first cell and the column's header."""
    old_rows, new_rows = _rows(golden), _rows(new)
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return [f"  {len(new_rows)} rows with header {new_rows[:1]}, "
                f"golden has {len(old_rows)} with {old_rows[:1]}"]
    lines = []
    for old, row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(new_rows[0], old, row):
            if a == b:
                continue
            try:
                rel = f"{abs(float(b) - float(a)) / abs(float(a)):.2e}"
            except (ValueError, ZeroDivisionError):
                rel = "n/a"
            lines.append(f"  {row[0]} {column}: {a} -> {b} (relative change {rel})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN}")
    args = parser.parse_args(argv)
    if args.write:
        write(GOLDEN)
        return 0
    moved = False
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        for p in sorted(Path(tmp).rglob("*.csv")):
            name = p.relative_to(tmp)
            golden = GOLDEN / name
            if golden.is_file() and golden.read_bytes() == p.read_bytes():
                continue
            moved = True
            print(f"differs from the golden copy: {name}")
            if golden.is_file():
                print("\n".join(moved_values(golden, p)))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
