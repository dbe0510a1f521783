"""Smoke tests of the command-line scripts under scripts/."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestGrowingData:
    def test_two_seeds_two_sizes(self, capsys):
        assert load("run_growing_data").main(
            ["--functions", "g1", "--sizes", "30", "40", "--seeds", "1", "2"]) == 0
        header, *rows = csv_rows(capsys.readouterr().out)
        assert header == ["function", "seed", "n_train", "fvu", "n_minterms"]
        assert [r[:3] for r in rows] == [["g1", "1", "30"], ["g1", "1", "40"],
                                         ["g1", "2", "30"], ["g1", "2", "40"]]

    def test_default_is_seed_1(self, capsys):
        assert load("run_growing_data").main(["--functions", "g1", "--sizes", "30"]) == 0
        _, *rows = csv_rows(capsys.readouterr().out)
        assert [r[:3] for r in rows] == [["g1", "1", "30"]]


class TestBench:
    def test_unknown_workload_exits_before_any_run(self, monkeypatch, tmp_path, capsys):
        bench = load("bench")

        def no_run(*args, **kwargs):
            raise AssertionError("a subprocess was started")
        monkeypatch.setattr(bench, "run", no_run)
        monkeypatch.setattr(bench, "nfbench", no_run)
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as info:
            bench.main(["--out", str(out), "--workloads", "train-novel,train-nvel"])
        assert info.value.code == 2
        assert "train-nvel" in capsys.readouterr().err
        assert not out.exists()
