"""The committed result fingerprint (tests/golden/, written by scripts/fingerprint.py).

Every suite row must keep its min-term count and classification rate
exactly, and its FVU to rtol 1e-12; every sweep value must hold to rtol
1e-12.  The remaining columns define the row and must match as written.
A change that moves any of them regenerates the golden files and lists
each moved row in CHANGES.md.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from neurofuzzy import cli
from suite_csv import read_suite, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLES = ("table1", "table3", "classification", "noise", "fault")
RTOL = 1e-12


def assert_rows_match(got, want, where):
    assert len(got) == len(want), f"{where}: {len(got)} rows, golden has {len(want)}"
    for g, w in zip(got, want):
        label = w["function_or_dataset"]
        fixed = [k for k in w if k not in ("fvu_or_rate", "runtime_ms")]
        assert [g[k] for k in fixed] == [w[k] for k in fixed], f"{where} {label}: {g} != {w}"
        if label.startswith("set"):      # a classification rate
            assert g["fvu_or_rate"] == w["fvu_or_rate"], f"{where} {label}: rate moved"
        else:
            got_fvu, want_fvu = float(g["fvu_or_rate"]), float(w["fvu_or_rate"])
            assert np.isclose(got_fvu, want_fvu, rtol=RTOL, atol=0.0), \
                f"{where} {label}: FVU {got_fvu!r}, golden {want_fvu!r}"


@pytest.mark.parametrize("table", TABLES)
def test_ideal_suite_matches_golden(seed1_suite, table):
    assert_rows_match(read_suite(seed1_suite["dir"], table),
                      read_suite(GOLDEN / "ideal", table), f"ideal {table}")


def test_crossbar_suite_matches_golden(tmp_path):
    run_suite(tmp_path, "--backend", "crossbar")
    for table in TABLES:
        assert_rows_match(read_suite(tmp_path, table),
                          read_suite(GOLDEN / "crossbar", table), f"crossbar {table}")


def test_device_sweep_matches_golden(tmp_path):
    assert cli.main(["crossbar-compare", "--sweep-only", "--out-dir", str(tmp_path)]) == 0

    def sweep(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], [r[0] for r in rows[1:]], np.array([float(r[1]) for r in rows[1:]])

    header, volts, dw = sweep(tmp_path / "device_weight_sweep.csv")
    want_header, want_volts, want_dw = sweep(GOLDEN / "device_weight_sweep.csv")
    assert header == want_header and volts == want_volts
    np.testing.assert_allclose(dw, want_dw, rtol=RTOL, atol=0.0)
