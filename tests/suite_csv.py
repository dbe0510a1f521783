"""Run the seed-1 suite in-process and read back the CSVs it writes."""

import contextlib
import csv
import io

from neurofuzzy import cli


def read_suite(out_dir, table):
    """Rows of suite_<table>.csv as they were written: one dict per row, keyed by column."""
    with open(out_dir / f"suite_{table}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def run_suite(out_dir, *extra):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["suite", "--seed", "1", "--out-dir", str(out_dir), *extra])
    assert rc == 0
