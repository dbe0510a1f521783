from types import SimpleNamespace

import pytest

from suite_csv import read_suite, run_suite


def _report(row):
    """A suite CSV row as the report fields the acceptance criteria read."""
    ref = row["paper_reference_value"]
    return SimpleNamespace(
        n_train=int(row["n_train"]), n_minterms=int(row["n_minterms"]),
        fvu_or_rate=float(row["fvu_or_rate"]), runtime_ms=float(row["runtime_ms"]),
        paper_reference=float(ref) if ref else None)


@pytest.fixture(scope="session")
def seed1_suite(tmp_path_factory):
    """One timed seed-1 ideal suite run: {"dir": its CSVs, table: {label: report}}."""
    out = tmp_path_factory.mktemp("seed1_suite")
    run_suite(out, "--timing")
    tables = {t: {row["function_or_dataset"]: _report(row) for row in read_suite(out, t)}
              for t in ("table1", "table3", "classification", "noise", "fault")}
    return {"dir": out, **tables}
