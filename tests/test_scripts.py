"""Smoke tests of the command-line scripts under scripts/."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
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

    @staticmethod
    def runs(**metrics):
        """Synthetic nfbench results, run i holding the i-th value of each metric."""
        units = {"device_steps_per_s": "1/s", "run_s": "s"}
        return [{"metrics": {name: {"value": v, "unit": units[name]} for name, v in run.items()},
                 "correct": True, "failed": 0}
                for run in (dict(zip(metrics, vs)) for vs in zip(*metrics.values()))]

    def test_figures_record_median_and_quartiles(self):
        fig = load("bench").figures({"readout": self.runs(device_steps_per_s=[5, 1, 4, 2, 3])})
        assert fig["readout"]["runs"] == 5 and fig["readout"]["correct"]
        assert fig["readout"]["metrics"]["device_steps_per_s"] == {
            "median": 3, "q1": 2, "q3": 4, "unit": "1/s"}

    def test_figures_count_the_pairs_won_by_each_metric_direction(self):
        bench = load("bench")
        change = {"readout": self.runs(device_steps_per_s=[10, 8, 5, 7, 9], run_s=[1, 2, 3, 4, 5])}
        parent = {"readout": self.runs(device_steps_per_s=[9, 9, 5, 6, 8], run_s=[2, 2, 2, 5, 6])}
        fig = bench.figures(change, parent)["readout"]["metrics"]
        # higher is better: 10 > 9, 7 > 6 and 9 > 8 win, 8 < 9 loses, 5 = 5 wins for neither
        assert fig["device_steps_per_s"]["pairs_won"] == 3
        # lower is better: 1 < 2, 4 < 5 and 5 < 6 win, 3 > 2 loses, 2 = 2 wins for neither
        assert fig["run_s"]["pairs_won"] == 3
        assert "pairs_won" not in bench.figures(parent)["readout"]["metrics"]["run_s"]

    def test_figures_record_each_runs_figure_and_each_pairs_ratio(self):
        bench = load("bench")
        change = {"readout": self.runs(device_steps_per_s=[12, 6, 9, 10, 8])}
        parent = {"readout": self.runs(device_steps_per_s=[6, 6, 3, 5, 4])}
        fig = bench.figures(change, parent)["readout"]
        assert fig["values"] == {"device_steps_per_s": [12, 6, 9, 10, 8]}
        assert bench.figures(parent)["readout"]["values"] == {"device_steps_per_s": [6, 6, 3, 5, 4]}
        assert fig["metrics"]["device_steps_per_s"]["ratios"] == [2.0, 1.0, 3.0, 2.0, 2.0]

    def test_the_median_ratio_interval_is_seeded_and_holds_the_median(self):
        bench = load("bench")
        values = [1.30, 1.10, 1.25, 0.95, 1.40, 1.20, 1.05, 1.15, 1.35, 1.22]
        got = bench.claim(values, [1.0] * 10, "higher")
        lo, hi = got["median_ratio_ci95"]
        assert lo <= 1.21 <= hi and 0.95 <= lo < hi <= 1.40
        assert got == bench.claim(values, [1.0] * 10, "higher")
        assert bench.claim([2.0] * 10, [1.0] * 10, "higher")["median_ratio_ci95"] == [2.0, 2.0]

    @pytest.mark.parametrize("values, others, better, holds", [
        # 10 of 10 won, median 16 against 10 + q3 - q1 = 10 + 3.5
        ([16, 15, 17, 18, 16, 14, 19, 16, 15, 17], [10, 8, 12, 11, 9, 7, 13, 10, 6, 14],
         "higher", True),
        # 8 of 10 won: the median gain alone is no claim
        ([16, 15, 17, 18, 16, 14, 19, 16, 5, 5], [10, 8, 12, 11, 9, 7, 13, 10, 6, 14],
         "higher", False),
        # 10 of 10 won by a median gain of 3 <= the baseline's q3 - q1 of 3.5
        ([13, 11, 15, 14, 12, 10, 16, 13, 9, 17], [10, 8, 12, 11, 9, 7, 13, 10, 6, 14],
         "higher", False),
        # lower is better: 10 of 10 won, median 4 below 10, by more than 3.5
        ([4, 3, 5, 6, 4, 2, 7, 4, 3, 5], [10, 8, 12, 11, 9, 7, 13, 10, 6, 14], "lower", True),
        ([16, 15, 17, 18, 16, 14, 19, 16, 15, 17], [10, 8, 12, 11, 9, 7, 13, 10, 6, 14],
         "lower", False),
    ])
    def test_the_claim_rule(self, values, others, better, holds):
        assert load("bench").claim(values, others, better)["claim_holds"] is holds

    def test_records_the_package_line_count_of_each_checkout(self, monkeypatch, tmp_path):
        bench = load("bench")
        result = {"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "correct": True, "failed": 0}
        monkeypatch.setattr(bench, "nfbench", lambda *args: ({"cpus": 1}, result))
        monkeypatch.setattr(bench, "fingerprint", lambda checkout: {"exit": 0, "summary": []})
        monkeypatch.setattr(bench, "commit", lambda checkout: "parent")
        monkeypatch.setattr(bench, "cpu_seconds", lambda: None)
        package = tmp_path / "parent" / "src" / "neurofuzzy"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\ny = 2\n")
        (package / "b.py").write_text("z = 3\n")
        (package / "notes.txt").write_text("not a module\n")
        out = tmp_path / "bench.json"
        assert bench.main(["--out", str(out), "--workloads", "readout",
                           "--baseline", str(tmp_path / "parent")]) == 0
        report = json.loads(out.read_text())
        assert report["baseline"]["src_lines"] == 3
        ours = sum(len(p.read_text().splitlines())
                   for p in (SCRIPTS.parent / "src" / "neurofuzzy").glob("*.py"))
        assert report["src_lines"] == ours > 1000


    def test_records_one_traced_run_per_workload_and_checkout_on_a_fresh_seed(
            self, monkeypatch, tmp_path):
        bench = load("bench")
        calls = []

        def fake_nfbench(checkout, workload, seed, seconds, trace=0):
            calls.append((checkout.name, workload, seed, trace))
            ours = checkout == bench.ROOT
            metrics = ({"cli.self_s": {"value": 0.04 if ours else 0.06, "unit": "s"},
                        "network.samples": {"value": 0, "unit": "count"}} if trace else
                       {"run_s": {"value": 1.0 if ours else 1.2, "unit": "s"}})
            return {"cpus": 1}, {"metrics": metrics, "correct": True, "failed": 0}
        monkeypatch.setattr(bench, "nfbench", fake_nfbench)
        monkeypatch.setattr(bench, "fingerprint", lambda checkout: {"exit": 0, "summary": []})
        monkeypatch.setattr(bench, "commit", lambda checkout: "parent")
        monkeypatch.setattr(bench, "cpu_seconds", lambda: None)
        monkeypatch.setattr(bench, "host_parallel", lambda: 2.0)
        (tmp_path / "parent").mkdir()
        out = tmp_path / "bench.json"
        assert bench.main(["--out", str(out), "--workloads", "readout,cli-session",
                           "--baseline", str(tmp_path / "parent")]) == 0
        traced = [c for c in calls if c[3] == 1]
        assert sorted(traced) == sorted((name, w, 6, 1) for name in (bench.ROOT.name, "parent")
                                         for w in ("readout", "cli-session"))
        assert calls[-len(traced):] == traced          # after every timed run
        assert {c[2] for c in calls if c[3] == 0} == {1, 2, 3, 4, 5}
        report = json.loads(out.read_text())
        assert report["per_layer"]["seed"] == 6
        cli_session = report["per_layer"]["workloads"]["cli-session"]
        assert cli_session["correct"] and cli_session["failed"] == 0
        # recorded as reported, a figure the tracer leaves at 0 too
        assert cli_session["metrics"] == {
            "cli.self_s": {"value": 0.04, "unit": "s", "baseline": 0.06},
            "network.samples": {"value": 0, "unit": "count", "baseline": 0}}
        assert "run_s" not in cli_session["metrics"]

    def test_records_each_operations_median_raw_time_first_pass_dropped(self, monkeypatch,
                                                                       tmp_path):
        bench = load("bench")
        # three passes; the first, the warm-up, is the slowest and is dropped
        pass_ops = [[["run_modeling", 9.0], ["probe", 9.0]],
                    [["run_modeling", 1.0], ["probe", 2.0], ["probe", 6.0]],
                    [["run_modeling", 3.0], ["probe", 3.0]]]
        result = {"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "correct": True, "failed": 0}

        def fake_run(checkout, argv, **env):
            seed = int(argv[argv.index("--seed") + 1])
            path = checkout / "nfbench" / "results" / f"train-novel-seed{seed}-trace0.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            ops = [[[name, seed * t] for name, t in p] for p in pass_ops]
            path.write_text(json.dumps({"pass_ops": ops, "pass_cals": []}))
            return 0, [json.dumps({"machine": {"cpus": 1}}), json.dumps(result)], ""
        monkeypatch.setattr(bench, "run", fake_run)
        runs = [bench.nfbench(tmp_path, "train-novel", seed, 1.0)[1] for seed in range(1, 6)]
        assert runs[1]["op_s"] == {"run_modeling": 4.0, "probe": 6.0}
        ops = bench.figures({"train-novel": runs})["train-novel"]["ops_uncalibrated_s"]
        assert ops == {"run_modeling": {"median": 6.0, "q1": 4.0, "q3": 8.0},
                       "probe": {"median": 9.0, "q1": 6.0, "q3": 12.0}}

    def test_records_each_operations_raw_time_pairs_against_the_baseline(self):
        bench = load("bench")

        def runs(ops):
            return [{"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "correct": True,
                     "failed": 0, "op_s": dict(zip(ops, ts))} for ts in zip(*ops.values())]
        change = runs({"run_modeling": [1.0, 3.0, 2.0, 4.0, 1.0],
                       "rebuild_trained_state": [2.0, 2.0, 2.0, 2.0, 2.0],
                       "renamed": [1.0] * 5})
        parent = runs({"run_modeling": [2.0, 2.0, 4.0, 4.0, 2.0],
                       "rebuild_trained_state": [1.0, 4.0, 1.0, 8.0, 2.0]})
        fig = bench.figures({"train-novel": change}, {"train-novel": parent})["train-novel"]
        # lower is better: 3.0 > 2.0 loses, 4.0 = 4.0 wins for neither
        assert fig["ops_uncalibrated_pairs"] == {
            "run_modeling": {"pairs_won": 3, "ratios": [0.5, 1.5, 0.5, 1.0, 0.5]},
            "rebuild_trained_state": {"pairs_won": 2, "ratios": [2.0, 0.5, 2.0, 0.25, 1.0]}}
        assert fig["ops_uncalibrated_s"]["run_modeling"]["median"] == 2.0
        assert "ops_uncalibrated_pairs" not in bench.figures({"train-novel": change})["train-novel"]

    def test_host_parallel_is_twice_the_loop_time_alone_over_its_shared_time(self, monkeypatch):
        bench = load("bench")
        times = iter([0.3, 0.6])
        monkeypatch.setattr(bench, "spin", lambda n: next(times))
        assert bench.host_parallel(1000) == pytest.approx(1.0)   # one core for two copies

    def test_host_parallel_runs_a_second_process_and_leaves_none(self, monkeypatch):
        bench = load("bench")
        started = []
        real = subprocess.Popen

        def popen(*args, **kwargs):
            started.append(real(*args, **kwargs))
            return started[-1]
        monkeypatch.setattr(bench.subprocess, "Popen", popen)
        figure = bench.host_parallel(20_000)
        assert len(started) == 1 and started[0].poll() is not None
        assert 0.0 < figure < 10.0

    def test_records_host_parallel_at_the_start_and_the_end(self, monkeypatch, tmp_path):
        bench = load("bench")
        result = {"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "correct": True, "failed": 0}
        figures = iter([1.9, 1.1])
        monkeypatch.setattr(bench, "host_parallel", lambda: next(figures))
        monkeypatch.setattr(bench, "cpu_seconds", lambda: None)
        monkeypatch.setattr(bench, "nfbench", lambda *args: ({"cpus": 2}, result))
        monkeypatch.setattr(bench, "fingerprint", lambda checkout: {"exit": 0, "summary": []})
        out = tmp_path / "bench.json"
        assert bench.main(["--out", str(out), "--workloads", "readout"]) == 0
        assert json.loads(out.read_text())["host_parallel"] == {"start": 1.9, "end": 1.1}

    def test_cpu_seconds_records_each_cpu_and_the_ratio(self, monkeypatch):
        bench = load("bench")
        runs = []

        def run(argv, **kwargs):
            runs.append(argv)
            seconds = {"0": "0.30", "3": "0.45"}[argv[-1]]
            return subprocess.CompletedProcess(argv, 0, stdout=seconds + "\n", stderr="")
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {3, 0})
        monkeypatch.setattr(bench.subprocess, "run", run)
        assert bench.cpu_seconds(1000) == {"seconds": {"0": 0.30, "3": 0.45},
                                           "max_over_min": pytest.approx(1.5)}
        assert [argv[-2:] for argv in runs] == [["1000", "0"], ["1000", "3"]]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_cpu_seconds_pins_only_its_children_and_leaves_none(self, monkeypatch):
        bench = load("bench")
        mask, started, real = os.sched_getaffinity(0), [], subprocess.Popen
        cpus = set(sorted(mask)[:2])

        def popen(*args, **kwargs):
            started.append(real(*args, **kwargs))
            return started[-1]
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(bench.subprocess, "Popen", popen)
        record = bench.cpu_seconds(20_000)
        assert sorted(record["seconds"]) == sorted(map(str, cpus))
        assert all(0.0 < t < 10.0 for t in record["seconds"].values())
        assert record["max_over_min"] >= 1.0
        assert len(started) == len(cpus) and all(p.poll() is not None for p in started)
        assert os.sched_getaffinity(0) == mask

    def test_records_cpu_seconds_at_the_start_and_the_end(self, monkeypatch, tmp_path):
        bench = load("bench")
        result = {"metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "correct": True, "failed": 0}
        records = iter([{"seconds": {"0": 1.0}, "max_over_min": 1.0}, None])
        monkeypatch.setattr(bench, "host_parallel", lambda: 2.0)
        monkeypatch.setattr(bench, "cpu_seconds", lambda: next(records))
        monkeypatch.setattr(bench, "nfbench", lambda *args: ({"cpus": 2}, result))
        monkeypatch.setattr(bench, "fingerprint", lambda checkout: {"exit": 0, "summary": []})
        out = tmp_path / "bench.json"
        assert bench.main(["--out", str(out), "--workloads", "readout"]) == 0
        assert json.loads(out.read_text())["cpu_seconds"] == {
            "start": {"seconds": {"0": 1.0}, "max_over_min": 1.0}, "end": None}


class TestFingerprint:
    def test_pins_one_blas_thread_over_the_environment(self):
        # the pin must be set before numpy loads OpenBLAS, so it is read in a new process
        code = ("import importlib.util, os, sys\n"
                "spec = importlib.util.spec_from_file_location('fingerprint', sys.argv[1])\n"
                "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
                "sys.path.insert(0, sys.argv[2])\n"
                "import run\n"
                "print(*[os.environ[v] for v in run.BLAS_THREAD_VARS], run.blas_threads())\n")
        root = SCRIPTS.parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4",
               "MKL_NUM_THREADS": "4", "PYTHONPATH": str(root / "src")}
        proc = subprocess.run([sys.executable, "-c", code, str(SCRIPTS / "fingerprint.py"),
                               str(root / "nfbench")], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        *pinned, threads = proc.stdout.split()
        assert pinned == ["1", "1", "1"]
        assert threads in ("1", "None")   # None: no OpenBLAS found to ask
