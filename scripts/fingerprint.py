#!/usr/bin/env python3
"""Result fingerprint: the seed-1 suite CSVs, ideal and crossbar, and the device sweep.

`--write` regenerates tests/golden/, which tests/test_golden.py checks on
every Tier-1 run.  Without it the fingerprint is written to a scratch
directory and every file that differs from tests/golden/ byte for byte is
listed (exit 1 when any differs).  A regeneration is a reviewed change:
CHANGES.md lists each moved row and why it moved.

    PYTHONPATH=src python scripts/fingerprint.py [--write]
"""

import argparse
import contextlib
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN}")
    args = parser.parse_args(argv)
    if args.write:
        write(GOLDEN)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        moved = [str(p.relative_to(tmp)) for p in sorted(Path(tmp).rglob("*.csv"))
                 if not (GOLDEN / p.relative_to(tmp)).is_file()
                 or (GOLDEN / p.relative_to(tmp)).read_bytes() != p.read_bytes()]
    for name in moved:
        print(f"differs from the golden copy: {name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
