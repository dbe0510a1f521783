#!/usr/bin/env python3
"""Result fingerprint: the seed-1 suite CSVs, ideal and crossbar, and the device sweep.

`--write` regenerates tests/golden/, which tests/test_golden.py checks on
every Tier-1 run.  Without it the fingerprint is written to a scratch
directory, and every file that differs from tests/golden/ byte for byte is
listed with each moved value: its row, column, golden value, new value and
relative change.  A summary follows, one line per differing file: its largest
relative change and whether any cell other than fvu_or_rate moved (exit 1
when any file differs).  A regeneration is a reviewed change: CHANGES.md
lists each moved row and why it moved.  The runs use one BLAS thread, as
nfbench does, whatever the environment asks for: the GEMMs split their sums
by thread, so the last digit of an FVU depends on the thread count.

    PYTHONPATH=src python scripts/fingerprint.py [--write]
"""

import argparse
import contextlib
import csv
import io
import os
import sys
import tempfile
from pathlib import Path

# set before neurofuzzy imports numpy, which reads them once
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from neurofuzzy import cli  # noqa: E402

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


def moved_values(golden: Path, new: Path):
    """(row, column, golden value, new value, relative change or None) of each cell
    of new that differs from golden, the row named by its first cell; one entry
    for the whole file when the row count or the header differs."""
    old_rows, new_rows = _rows(golden), _rows(new)
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return [("all rows", "row count and header", f"{len(old_rows)} rows {old_rows[:1]}",
                 f"{len(new_rows)} rows {new_rows[:1]}", None)]
    cells = []
    for old, row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(new_rows[0], old, row):
            if a == b:
                continue
            try:
                rel = abs(float(b) - float(a)) / abs(float(a))
            except (ValueError, ZeroDivisionError):
                rel = None
            cells.append((row[0], column, a, b, rel))
    return cells


def _relative(rel) -> str:
    return "n/a" if rel is None else f"{rel:.2e}"


def summary(name, cells) -> str:
    """One line for a differing file: its largest relative change, and the columns
    other than fvu_or_rate that moved."""
    if cells is None:
        return f"{name}: no golden copy"
    known = [rel for *_, rel in cells if rel is not None]
    others = sorted({column for _, column, *_ in cells} - {"fvu_or_rate"})
    return (f"{name}: largest relative change {_relative(max(known) if known else None)}; "
            + (f"other cells moved: {', '.join(others)}" if others
               else "no cell other than fvu_or_rate moved"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN}")
    args = parser.parse_args(argv)
    if args.write:
        write(GOLDEN)
        return 0
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        for p in sorted(Path(tmp).rglob("*.csv")):
            name = p.relative_to(tmp)
            golden = GOLDEN / name
            if golden.is_file() and golden.read_bytes() == p.read_bytes():
                continue
            print(f"differs from the golden copy: {name}")
            cells = moved_values(golden, p) if golden.is_file() else None
            for row, column, a, b, rel in cells or []:
                print(f"  {row} {column}: {a} -> {b} (relative change {_relative(rel)})")
            summaries.append(summary(name, cells))
    for line in summaries:
        print(line)
    return 1 if summaries else 0


if __name__ == "__main__":
    sys.exit(main())
