import argparse
import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurofuzzy import cli
from neurofuzzy.errors import ConfigError
from neurofuzzy.experiments import ExperimentConfig

FAST = ["--n-train", "40", "--n-test", "200"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, tmp_path):
    return cli.main(["--out-dir" if a == "@OUT@" else a for a in args]
                    if "@OUT@" in args else args + ["--out-dir", str(tmp_path)])


class TestConfigFile:
    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["model", "--fn", "g1", "--config", str(tmp_path / "nope.ini")])
        assert rc == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            cli.load_config_file(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[universe]\nanswer = 42\n")
        with pytest.raises(ConfigError, match="universe"):
            cli.load_config_file(str(path))

    def test_typed_values(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text("[network]\np = 5\nalpha = 0.001\n[experiment]\nseed = 3\n")
        cfg = cli.load_config_file(str(path))
        assert cfg == {"network": {"p": 5, "alpha": 0.001}, "experiment": {"seed": 3}}

    # values are literal (no % interpolation) and the file is UTF-8: each once raised
    # InterpolationSyntaxError, InterpolationMissingOptionError or UnicodeDecodeError
    @pytest.mark.parametrize("content", [b"[experiment]\nfunction = g%1\n",
                                         b"[network]\np = %(x)s\n",
                                         b"[experiment]\nfunction = g1\xff\n"],
                             ids=["percent", "interpolation", "not-utf-8"])
    def test_unreadable_value_exit_1_with_no_traceback(self, tmp_path, capsys, content):
        path = tmp_path / "odd.ini"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert cli.main(["model", "--config", str(path), "--out-dir", str(out)] + FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["odd.ini"]

    def test_suite_reads_seed_from_file(self, tmp_path):
        def suite_csv(out, *extra):
            rc = cli.main(["suite", "--only", "classification", "--jobs", "1",
                           "--out-dir", str(tmp_path / out), *extra])
            assert rc == 0
            return (tmp_path / out / "suite_classification.csv").read_text()

        path = tmp_path / "seed.ini"
        path.write_text("[experiment]\nseed = 2\n")
        from_file = suite_csv("file", "--config", str(path))
        assert from_file == suite_csv("flag", "--seed", "2")
        assert from_file != suite_csv("default")
        # a flag beats the file
        assert suite_csv("both", "--config", str(path), "--seed", "1") == suite_csv("default")

    def test_suite_bad_backend_in_file(self, tmp_path):
        path = tmp_path / "backend.ini"
        path.write_text("[experiment]\nbackend = analog\n")
        rc = cli.main(["suite", "--only", "classification", "--config", str(path),
                       "--out-dir", str(tmp_path)])
        assert rc == 1

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text("[experiment]\nseed = 3\nfunction = g2\n")
        rc = cli.main(["model", "--config", str(path), "--fn", "g1", "--seed", "8",
                      "--n-train", "30", "--n-test", "100", "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "model_g1.csv").read_text()
        row = text.strip().split("\n")[1].split(",")
        assert row[0] == "g1" and row[3] == "8"


class TestModelCommand:
    def test_writes_report(self, tmp_path):
        rc = run_cli(["model", "--fn", "g1"] + FAST, tmp_path)
        assert rc == 0
        out = tmp_path / "model_g1.csv"
        assert out.exists()
        header = out.read_text().split("\n")[0]
        assert header.split(",") == cli.REPORT_COLUMNS

    def test_seed_determinism_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            rc = cli.main(["model", "--fn", "g1", "--seed", "42", "--out-dir", str(d)]
                          + FAST)
            assert rc == 0
        a = (a_dir / "model_g1.csv").read_bytes()
        b = (b_dir / "model_g1.csv").read_bytes()
        assert a == b

    def test_surface_and_state(self, tmp_path):
        rc = cli.main(["model", "--fn", "g1", "--surface", "--save-state",
                       str(tmp_path / "g1.state"), "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0
        surface = (tmp_path / "surface_g1.csv").read_text().strip().split("\n")
        assert surface[0] == "x,y,predicted,actual"
        assert len(surface) == 1 + 101 * 101
        assert (tmp_path / "g1.state").stat().st_size > 0

    def test_surface_text_is_that_of_repr_per_numpy_scalar(self, tmp_path, monkeypatch):
        from neurofuzzy import experiments

        rows = np.array([[0.0, -0.0, 5e-324, 1e300], [0.1, 1 / 3, np.nan, -2.5e-308]])
        monkeypatch.setattr(experiments, "surface_grid", lambda cfg, state: rows)
        assert cli.main(["model", "--fn", "g1", "--surface", "--out-dir", str(tmp_path)]
                        + FAST) == 0
        want = "x,y,predicted,actual\n" + "".join(
            ",".join([repr(float(v)) for v in row]) + "\n" for row in rows)
        assert (tmp_path / "surface_g1.csv").read_bytes() == want.encode()
        assert "-0.0,5e-324,1e+300" in want

    def test_surface_and_state_train_once(self, tmp_path, monkeypatch):
        from neurofuzzy import network

        # train_matrix is the one trainer: train_one and train_dataset call it too
        calls = []
        real = network.train_matrix
        monkeypatch.setattr(network, "train_matrix",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        rc = cli.main(["model", "--fn", "g1", "--surface", "--save-state",
                       str(tmp_path / "g1.state"), "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0
        assert len(calls) == 1

    def test_save_state_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "g1.state"
        path.write_bytes(b"previous state")

        real_replace = os.replace

        def failing_replace(src, dst):
            if os.fspath(dst) == str(path):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cli.main(["model", "--fn", "g1", "--save-state", str(path),
                      "--out-dir", str(tmp_path / "out")] + FAST)
        assert path.read_bytes() == b"previous state"
        # the report was written; no temporary file is left beside the state
        assert (tmp_path / "out" / "model_g1.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g1.state", "out"]

    @pytest.mark.parametrize("where", ["missing/g1.state", "."],
                             ids=["missing-directory", "a-directory"])
    def test_unusable_state_path_exit_1_before_training(self, tmp_path, capsys, monkeypatch,
                                                        where):
        from neurofuzzy import experiments

        monkeypatch.setattr(experiments, "train_and_score", lambda cfg: pytest.fail("trained"))
        path = tmp_path / where
        out = tmp_path / "out"
        assert cli.main(["model", "--fn", "g1", "--save-state", str(path),
                         "--out-dir", str(out)] + FAST) == 1
        assert capsys.readouterr().err == \
            f"error: --save-state {path} is no file in an existing directory\n"
        assert not out.exists() and not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", [["model", "--fn", "g1"] + FAST, ["dump-state"]])
    def test_out_dir_that_is_a_file_exit_1(self, tmp_path, capsys, command):
        from neurofuzzy import experiments, network

        state = tmp_path / "net.state"
        state.write_bytes(network.serialize(experiments.rebuild_trained_state(
            ExperimentConfig(function="g1", n_train=20))))
        out = tmp_path / "out"
        out.write_text("a file")
        argv = command + (["--state", str(state)] if command == ["dump-state"] else [])
        assert cli.main(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f"error: [Errno 17] File exists: '{out}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.state", "out"]

    @pytest.mark.parametrize("command", [["model", "--fn", "g1"], ["classify", "--dataset", "3"],
                                         ["noise", "--fn", "g1"], ["fault", "--fn", "g1"]])
    def test_out_dir_that_is_a_file_exit_1_before_training(self, tmp_path, capsys, monkeypatch,
                                                           command):
        from neurofuzzy import experiments

        calls, real = [], experiments.train_and_score
        monkeypatch.setattr(experiments, "train_and_score",
                            lambda cfg: calls.append(cfg) or real(cfg))
        out = tmp_path / "out"
        out.write_text("a file")
        assert cli.main(command + ["--n-train", "30", "--n-test", "50",
                                   "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f"error: [Errno 17] File exists: '{out}'\n")
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["out"] and out.read_text() == "a file"

    def test_learning_coefficient_message_word_for_word(self, tmp_path, capsys):
        assert run_cli(["model", "--fn", "g1", "--alpha", "-1"], tmp_path) == 1
        assert capsys.readouterr().err == \
            "error: learning coefficient must be finite and >= 0, got -1.0\n"

    def test_the_network_config_is_built_once_per_run(self, tmp_path, monkeypatch):
        from neurofuzzy import experiments

        calls = []
        real = experiments._network_config
        monkeypatch.setattr(experiments, "_network_config",
                            lambda cfg: calls.append(cfg) or real(cfg))
        assert run_cli(["model", "--fn", "g1"] + FAST, tmp_path) == 0
        assert len(calls) == 1

    def test_unknown_function_exit_1(self, tmp_path):
        assert run_cli(["model", "--fn", "g7"], tmp_path) == 1

    def test_paper_defaults_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[network]\np = 2\nthreshold = 5.0\n[experiment]\nn_train = 10\n")
        rc = cli.main(["model", "--fn", "g1", "--paper-defaults", "--config", str(path),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        row = (tmp_path / "model_g1.csv").read_text().strip().split("\n")[1].split(",")
        assert row[1] == "225" and row[4] == "7" and row[6] == "0.2"


class TestOtherCommands:
    def test_classify(self, tmp_path):
        rc = cli.main(["classify", "--dataset", "1", "--n-train", "60",
                       "--n-test", "200", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "classify_set1.csv").exists()

    def test_classify_row_is_the_suite_row(self, tmp_path):
        # classify and every suite row run the one protocol, experiments.train_and_score
        assert cli.main(["suite", "--only", "classification", "--seed", "3", "--jobs", "1",
                         "--out-dir", str(tmp_path)]) == 0
        suite = (tmp_path / "suite_classification.csv").read_text().splitlines()[1:]
        for k in range(1, 5):
            assert cli.main(["classify", "--dataset", str(k), "--seed", "3",
                             "--out-dir", str(tmp_path)]) == 0
            row = (tmp_path / f"classify_set{k}.csv").read_text().splitlines()[1]
            assert row.startswith(f"set{k},")
            assert suite[k - 1] == row + ",ok"

    @pytest.mark.parametrize("argv", [
        ["classify", "--dataset", "4", "--n-train", "60", "--n-test", "200"],
        ["suite", "--only", "classification", "--jobs", "1"],
    ])
    def test_crossbar_backend_scores_on_crossbars(self, tmp_path, monkeypatch, argv):
        from neurofuzzy import crossbar

        mapped = []
        real = crossbar.map_network
        monkeypatch.setattr(crossbar, "map_network",
                            lambda *a, **k: mapped.append(1) or real(*a, **k))
        assert cli.main(argv + ["--out-dir", str(tmp_path / "ideal")]) == 0
        assert mapped == []
        assert cli.main(argv + ["--backend", "crossbar",
                                "--out-dir", str(tmp_path / "crossbar")]) == 0
        assert len(mapped) == (1 if argv[0] == "classify" else 4)

    def test_noise_default_variance(self, tmp_path):
        rc = run_cli(["noise", "--fn", "g1"] + FAST, tmp_path)
        assert rc == 0
        assert (tmp_path / "noise_g1.csv").exists()

    def test_fault_default_fraction(self, tmp_path):
        rc = run_cli(["fault", "--fn", "g1"] + FAST, tmp_path)
        assert rc == 0
        assert (tmp_path / "fault_g1.csv").exists()

    def test_sweep_only(self, tmp_path):
        rc = run_cli(["crossbar-compare", "--sweep-only"], tmp_path)
        assert rc == 0
        lines = (tmp_path / "device_weight_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "voltage,delta_weight"
        assert len(lines) == 82

    def test_crossbar_compare_small(self, tmp_path):
        rc = cli.main(["crossbar-compare", "--fn", "g1", "--n-train", "30",
                       "--n-probes", "10", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "crossbar_compare_g1.csv").exists()

    def test_crossbar_compare_probes_default_to_100(self, tmp_path):
        assert cli.main(["crossbar-compare", "--fn", "g1", "--n-train", "30",
                         "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "crossbar_compare_g1.csv").read_text().splitlines()
        assert len(lines) == 1 + 100

    @pytest.mark.parametrize("argv", [
        ["suite", "--only", "table1", "--jobs", "-1"],
        ["suite", "--only", "table1", "--jobs", "0"],
        ["crossbar-compare", "--fn", "g1", "--n-probes", "0"],
        ["crossbar-compare", "--fn", "g1", "--n-probes", "-3"],
    ], ids=["jobs-1", "jobs0", "probes0", "probes-3"])
    def test_bad_counts_exit_1_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = cli.main(argv + ["--n-train", "20"] * (argv[0] != "suite")
                      + ["--out-dir", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv,key", [
        (["model", "--fn", "g1", "--seed", "-1"], "seed"),
        (["suite", "--only", "classification", "--seed", "-3"], "seed"),
        (["classify", "--dataset", "1", "--n-train", "1"], "n_train"),
        (["classify", "--dataset", "1", "--n-test", "1"], "n_test"),
        (["model", "--fn", "g1", "--n-test", "1"], "n_test"),
    ], ids=["model-seed", "suite-seed", "classify-n-train", "classify-n-test", "model-n-test"])
    def test_bad_run_setting_exit_1_before_writing(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command,setting", [
        (["fault", "--fn", "g1"], "fault_seed = -4\nfault_fraction = 0.1"),
        (["model", "--fn", "g1"], "test_seed = -2"),
    ], ids=["fault_seed", "test_seed"])
    def test_negative_seed_in_file_exit_1_before_writing(self, tmp_path, capsys, command,
                                                         setting):
        path = tmp_path / "seed.ini"
        path.write_text(f"[experiment]\n{setting}\n")
        out = tmp_path / "out"
        assert cli.main(command + ["--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and setting.split()[0] in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("setting", ["dt = nan", "dt = 0", "mu_v = inf", "r_f = nan",
                                         "r_f = -1", "dt = 1e-9"])
    def test_bad_device_constant_exit_1_before_writing(self, tmp_path, capsys, setting):
        path = tmp_path / "device.ini"
        path.write_text(f"[crossbar]\n{setting}\n")
        out = tmp_path / "out"
        rc = cli.main(["crossbar-compare", "--sweep-only", "--config", str(path),
                       "--out-dir", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["model", "--fn", "g1", "--p", "0"],
        ["model", "--fn", "g1", "--alpha", "inf", "--save-state", "@STATE@"],
        ["model", "--fn", "g1", "--threshold", "nan"],
        ["classify", "--dataset", "1", "--threshold", "nan"],
        ["noise", "--fn", "g1", "--noise-variance", "nan"],
    ], ids=["p0", "alpha-inf", "threshold-nan", "classify-threshold-nan", "noise-nan"])
    def test_bad_network_setting_exit_1_before_writing(self, tmp_path, capsys, argv):
        out, state = tmp_path / "out", tmp_path / "net.state"
        rc = cli.main([str(state) if a == "@STATE@" else a for a in argv]
                      + ["--n-train", "20", "--n-test", "50", "--out-dir", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not state.exists()
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv,setting,named", [
        (["model", "--fn", "g1"], "[network]\nnx = 1", "nx"),
        (["classify", "--dataset", "1"], "[network]\nny = 0", "ny"),
        (["model", "--fn", "g1"], "[network]\nnz = 1", "nz"),
        (["model", "--fn", "g1"], "[experiment]\nnoise_variance = inf", "noise variance"),
    ], ids=["model-nx", "classify-ny", "model-nz", "model-noise-inf"])
    def test_bad_grid_or_noise_in_file_exit_1_before_writing(self, tmp_path, capsys, argv,
                                                             setting, named):
        path = tmp_path / "run.ini"
        path.write_text(setting + "\n")
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists() or not any(out.iterdir())

    def test_suite_dataset_rows_drop_the_test_seed(self, tmp_path):
        path = tmp_path / "seed.ini"
        path.write_text("[experiment]\ntest_seed = 5\n")
        argv = ["suite", "--only", "classification", "--seed", "1", "--jobs", "1"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "bare")]) == 0
        assert cli.main(argv + ["--config", str(path), "--out-dir", str(tmp_path / "file")]) == 0
        name = "suite_classification.csv"
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes()

    def test_weight_overflow_config_exit_2(self, tmp_path):
        path = tmp_path / "overflow.ini"
        path.write_text("[crossbar]\nscale_in = 1e6\n")
        rc = cli.main(["crossbar-compare", "--fn", "g1", "--n-train", "20",
                       "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_dump_state(self, tmp_path):
        state_path = tmp_path / "net.state"
        rc = cli.main(["model", "--fn", "g1", "--save-state", str(state_path),
                       "--out-dir", str(tmp_path)] + FAST)
        assert rc == 0
        rc = cli.main(["dump-state", "--state", str(state_path),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "state_w_out.csv").exists()
        assert (tmp_path / "state_w_in_x.csv").exists()

    def test_dump_state_text_is_that_of_repr_per_numpy_scalar(self, tmp_path):
        from neurofuzzy import experiments, network

        state = experiments.rebuild_trained_state(ExperimentConfig(function="g1", n_train=20))
        state._w_out[:3, 0] = (-0.0, 5e-324, 1e300)
        state._w_in[0][0, :3] = (-0.0, 5e-324, 1e300)
        path = tmp_path / "net.state"
        path.write_bytes(network.serialize(state))
        assert cli.main(["dump-state", "--state", str(path), "--out-dir", str(tmp_path)]) == 0
        for name, rows in [("state_w_in_x.csv", state.w_in(0)), ("state_w_in_y.csv", state.w_in(1)),
                           ("state_w_out.csv", state.w_out)]:
            want = "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
            assert (tmp_path / name).read_bytes() == want.encode()
        assert "-0.0,5e-324,1e+300" in (tmp_path / "state_w_in_x.csv").read_text()

    def test_dump_state_of_no_minterms(self, tmp_path):
        from neurofuzzy import network

        # a (0, count) table is an empty file, a (nz, 0) table nz empty lines
        cfg = ExperimentConfig(function="g1", n_train=20)
        path = tmp_path / "net.state"
        path.write_bytes(network.serialize(network.NetworkState(cfg.net)))
        assert cli.main(["dump-state", "--state", str(path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "state_w_in_x.csv").read_bytes() == b""
        assert (tmp_path / "state_w_in_y.csv").read_bytes() == b""
        assert (tmp_path / "state_w_out.csv").read_bytes() == b"\n" * cfg.net.output_universe.count

    def test_dump_state_of_a_directory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["dump-state", "--state", str(tmp_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not out.exists()

    def test_dump_state_meta_that_is_no_object_exit_2(self, tmp_path, capsys):
        from neurofuzzy import experiments, network
        from test_network import with_meta_json

        cfg = experiments.paper_modeling_config("g1", n_train=20, n_test=50)
        path = tmp_path / "net.state"
        path.write_bytes(with_meta_json(
            network.serialize(experiments.rebuild_trained_state(cfg)), [1, 2]))
        out = tmp_path / "out"
        assert cli.main(["dump-state", "--state", str(path), "--out-dir", str(out)]) == 2
        assert "MalformedPayload" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_state_malformed_fault_mask_exit_2(self, tmp_path):
        from neurofuzzy import experiments, network

        cfg = experiments.paper_modeling_config("g1", n_train=40, n_test=50,
                                                fault_fraction=0.2)
        payload = network.serialize(experiments.rebuild_trained_state(cfg))
        data = dict(np.load(io.BytesIO(payload)))
        data["fault_out_mask"] = data["fault_out_mask"][:, :-1]
        buf = io.BytesIO()
        np.savez(buf, **data)
        state_path = tmp_path / "net.state"
        state_path.write_bytes(buf.getvalue())
        rc = cli.main(["dump-state", "--state", str(state_path), "--out-dir", str(tmp_path)])
        assert rc == 2

    @staticmethod
    def state_with_group_names(tmp_path, names):
        """A saved g1 state whose meta header names its input groups as given."""
        from neurofuzzy import experiments, network

        cfg = experiments.paper_modeling_config("g1", n_train=20, n_test=50)
        data = dict(np.load(io.BytesIO(network.serialize(experiments.rebuild_trained_state(cfg)))))
        meta = json.loads(bytes(data["meta"]).decode())
        for group, name in zip(meta["groups"], names):
            group["name"] = name
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        buf = io.BytesIO()
        np.savez(buf, **data)
        path = tmp_path / "net.state"
        path.write_bytes(buf.getvalue())
        return path

    def test_dump_state_duplicate_group_names_exit_2(self, tmp_path, capsys):
        # both groups would write state_w_in_x.csv, the second over the first
        path = self.state_with_group_names(tmp_path, ["x", "x"])
        out = tmp_path / "out"
        assert cli.main(["dump-state", "--state", str(path), "--out-dir", str(out)]) == 2
        assert "MalformedPayload" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_state_group_name_is_no_path(self, tmp_path, capsys):
        # with out/state_w_in_a/ present, this name would write escaped.csv beside out/
        path = self.state_with_group_names(tmp_path, ["a/../../escaped", "y"])
        out = tmp_path / "out"
        (out / "state_w_in_a").mkdir(parents=True)
        assert cli.main(["dump-state", "--state", str(path), "--out-dir", str(out)]) == 2
        assert "MalformedPayload" in capsys.readouterr().err
        assert not (tmp_path / "escaped.csv").exists()
        assert [p.name for p in out.rglob("*")] == ["state_w_in_a"]

    @pytest.mark.parametrize("case", ["negative input resolution", "input lo above hi",
                                      "negative half support", "zero output resolution"])
    def test_dump_state_invalid_universe_or_group_exit_2(self, tmp_path, capsys, case):
        from neurofuzzy import experiments, network
        from test_network import INVALID_META_EDITS, edited_meta

        cfg = experiments.paper_modeling_config("g1", n_train=50, n_test=50)
        payload = network.serialize(experiments.rebuild_trained_state(cfg))
        path = tmp_path / "net.state"
        path.write_bytes(edited_meta(payload, INVALID_META_EDITS[case]))
        out = tmp_path / "out"
        assert cli.main(["dump-state", "--state", str(path), "--out-dir", str(out)]) == 2
        assert "MalformedPayload" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_only_table1(self, tmp_path):
        rc = cli.main(["suite", "--only", "table1", "--jobs", "2",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "suite_table1.csv").read_text().strip().split("\n")
        assert len(lines) == 6                       # header + 5 rows
        assert lines[0].endswith(",status")
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_suite_jobs_default_to_the_usable_cores(self, tmp_path, monkeypatch):
        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(cli.fuzzy, "usable_cores", lambda: 1)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", pool)
        assert cli.main(["suite", "--only", "table1", "--out-dir", str(tmp_path)]) == 0
        assert sizes == [1]

    def test_suite_bad_only(self, tmp_path):
        assert run_cli(["suite", "--only", "table9"], tmp_path) == 1

    def test_suite_marks_failed_rows_and_continues(self, tmp_path, monkeypatch):
        from neurofuzzy import experiments

        real_train_and_score = experiments.train_and_score

        def flaky(cfg):
            if cfg.function == "g2":
                raise RuntimeError("boom")
            return real_train_and_score(cfg)

        monkeypatch.setattr(cli.experiments, "train_and_score", flaky)
        rc = cli.main(["suite", "--only", "table1", "--jobs", "1",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "suite_table1.csv").read_text().strip().split("\n")
        assert len(lines) == 6
        statuses = {line.split(",")[0]: line.rsplit(",", 1)[1] for line in lines[1:]}
        assert statuses["g2"].startswith("error:")
        assert all(statuses[fn] == "ok" for fn in ("g1", "g3", "g4", "g5"))

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        rc = cli.main(["model", "--fn", "g1"] + FAST)
        assert rc == 0
        assert (tmp_path / "envout" / "model_g1.csv").exists()


class TestResolvedConfig:
    """Every run is configured by cli.resolve: flags > config file > defaults."""

    # a valid value, other than the default, for every config key
    VALUES = {
        "p": "3", "alpha": "0.001", "threshold": "0.3", "nx": "50", "ny": "50", "nz": "51",
        "input_hs_scale": "5.0", "input_hs_shrink_exp": "0.2", "output_hs_mult": "2.0",
        "function": "g2", "dataset": "2", "n_train": "50", "n_test": "100", "seed": "3",
        "test_seed": "5", "noise_variance": "0.02", "fault_fraction": "0.1",
        "fault_seed": "4", "backend": "crossbar", "r_on": "200", "r_off": "8000",
        "d": "2e-8", "mu_v": "2e-14", "v_threshold": "0.8", "dt": "2e-5", "r_f": "5000",
        "scale_in": "2.0", "scale_out": "3.0",
    }
    COMMANDS = {
        "model": ["model", "--fn", "g1"], "noise": ["noise", "--fn", "g1"],
        "fault": ["fault", "--fn", "g1"], "crossbar-compare": ["crossbar-compare", "--fn", "g1"],
        "classify": ["classify", "--dataset", "1"], "suite": ["suite"],
    }

    class Resolved(Exception):
        """Stops a subcommand at the first configuration it resolves."""

    def first_config(self, monkeypatch, argv):
        """The first configuration argv resolves, or its exit code if it stops before."""
        real = cli.resolve

        def spy(*args, **kwargs):
            raise self.Resolved(real(*args, **kwargs))

        monkeypatch.setattr(cli, "resolve", spy)
        try:
            return cli.main(argv)
        except self.Resolved as stop:
            return stop.args[0]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("section,key", [(section, key)
                                             for section, keys in cli.CONFIG_SCHEMA.items()
                                             for key in keys])
    def test_every_key_changes_the_run_or_exits_1(self, tmp_path, capsys, monkeypatch,
                                                  command, section, key):
        argv = self.COMMANDS[command]
        base = self.first_config(monkeypatch, argv + ["--out-dir", str(tmp_path / "base")])
        assert isinstance(base, ExperimentConfig)
        if key in ("function", "dataset"):
            argv = argv[:1]                  # the file names the target, not a flag
        path = tmp_path / "key.ini"
        path.write_text(f"[{section}]\n{key} = {self.VALUES[key]}\n")
        out = tmp_path / "out"
        got = self.first_config(monkeypatch, argv + ["--config", str(path), "--out-dir", str(out)])
        if isinstance(got, ExperimentConfig):
            assert got != base
        else:
            assert got == 1
            err = capsys.readouterr().err
            assert "error:" in err and key in err
            assert not out.exists() or not any(out.iterdir())

    # subcommand: (argv without its target, the target flags, sections to cover); the
    # base's fault plan keeps fault_seed live, and n_train != 225 input_hs_shrink_exp
    STRONG = {
        "classify": (["classify"], ["--dataset", "1"], ("network", "experiment")),
        "crossbar-compare": (["crossbar-compare", "--n-probes", "20"], ["--fn", "g1"],
                             ("network", "experiment", "crossbar")),
    }
    STRONG_BASE = {"experiment": {"fault_fraction": "0.05", "n_train": "100"}}
    # read, but the files cannot show it: the classification CSV has no backend
    # column, and crossbar-compare's deviations are relative, so doubling alpha,
    # which doubles every output weight, moves none of them
    UNSEEN = {("classify", "backend"), ("crossbar-compare", "alpha")}

    @staticmethod
    def run_files(argv, sections, out):
        """Exit code and {name: bytes} of the files argv writes under the given config."""
        path = out.parent / f"{out.name}.ini"
        path.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                for section, keys in sections.items()))
        rc = cli.main(argv + ["--config", str(path), "--out-dir", str(out)])
        return rc, {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}

    @pytest.fixture(scope="class")
    def strong_base(self, tmp_path_factory):
        return {command: self.run_files(argv + target, self.STRONG_BASE,
                                        tmp_path_factory.mktemp("base") / command)
                for command, (argv, target, _) in self.STRONG.items()}

    @pytest.mark.parametrize("command,section,key", [
        (command, section, key) for command, (_, _, sections) in STRONG.items()
        for section in sections for key in cli.CONFIG_SCHEMA[section]])
    def test_every_key_changes_the_files_written_or_exits_1(self, strong_base, tmp_path, capsys,
                                                           command, section, key):
        argv, target, _ = self.STRONG[command]
        if key not in ("function", "dataset"):
            argv = argv + target
        sections = {**self.STRONG_BASE}
        sections[section] = {**sections.get(section, {}), key: self.VALUES[key]}
        base_rc, base_files = strong_base[command]
        assert base_rc == 0 and base_files
        rc, files = self.run_files(argv, sections, tmp_path / "out")
        if rc == 0:
            assert (files == base_files) == ((command, key) in self.UNSEEN)
        else:
            assert rc == 1
            err = capsys.readouterr().err
            assert "error:" in err and key in err
            assert not files

    @pytest.mark.parametrize("flag,key", [(["--backend", "crossbar"], "backend"),
                                          (["--n-test", "50"], "n_test"),
                                          (["--timing"], "--timing")],
                             ids=["backend", "n_test", "timing"])
    def test_crossbar_compare_flags_it_never_reads_exit_1(self, tmp_path, capsys, flag, key):
        out = tmp_path / "out"
        assert cli.main(["crossbar-compare", "--fn", "g1", "--out-dir", str(out)] + flag) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,default", [("noise", "noise_variance", 0.01),
                                                     ("fault", "fault_fraction", 0.2)])
    def test_study_default_sits_below_the_file_and_the_flag(self, tmp_path, monkeypatch,
                                                           command, key, default):
        argv = [command, "--fn", "g1", "--out-dir", str(tmp_path / "out")]
        assert getattr(self.first_config(monkeypatch, argv), key) == default
        path = tmp_path / "study.ini"
        path.write_text(f"[experiment]\n{key} = 0.0\n")
        argv += ["--config", str(path)]
        assert getattr(self.first_config(monkeypatch, argv), key) == 0.0
        flag = "--" + key.replace("_", "-")
        assert getattr(self.first_config(monkeypatch, argv + [flag, "0.05"]), key) == 0.05

    # no crossbar read or mapping integrates a write pulse: only the sweep reads these
    DRIFT_RUNS = {
        "model": ["model", "--fn", "g1"] + FAST, "noise": ["noise", "--fn", "g1"] + FAST,
        "fault": ["fault", "--fn", "g1"] + FAST,
        "classify": ["classify", "--dataset", "1"] + FAST,
        "suite": ["suite", "--only", "classification", "--jobs", "1"],
    }

    @pytest.mark.parametrize("command", sorted(DRIFT_RUNS))
    @pytest.mark.parametrize("key", ["d", "mu_v", "dt"])
    def test_drift_constants_exit_1_outside_the_sweep(self, tmp_path, capsys, command, key):
        path = tmp_path / "drift.ini"
        path.write_text(f"[crossbar]\n{key} = {self.VALUES[key]}\n")
        out = tmp_path / "out"
        rc = cli.main(self.DRIFT_RUNS[command] + ["--backend", "crossbar", "--config", str(path),
                                                  "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and f"crossbar.{key}" in err
        assert not out.exists() or not any(out.iterdir())

    # only a crossbar mapping or read uses these; r_on and r_off also set an ideal
    # run's fault plan
    @pytest.mark.parametrize("backend", [[], ["--backend", "ideal"]], ids=["default", "flag"])
    @pytest.mark.parametrize("command", sorted(DRIFT_RUNS))
    @pytest.mark.parametrize("key", ["scale_in", "scale_out", "v_threshold", "r_f"])
    def test_read_setup_exits_1_on_the_ideal_backend(self, tmp_path, capsys, backend, command,
                                                    key):
        path = tmp_path / "read.ini"
        path.write_text(f"[crossbar]\n{key} = {self.VALUES[key]}\n")
        out = tmp_path / "out"
        rc = cli.main(self.DRIFT_RUNS[command] + backend + ["--config", str(path),
                                                            "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and f"crossbar.{key}" in err and "ideal" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["model", "classify"])
    def test_read_setup_applies_to_a_crossbar_backend_from_the_file(self, tmp_path, command):
        path = tmp_path / "read.ini"
        path.write_text("[experiment]\nbackend = crossbar\n[crossbar]\nv_threshold = 0.8\n")
        assert cli.main(self.DRIFT_RUNS[command] + ["--config", str(path),
                                                    "--out-dir", str(tmp_path)]) == 0

    # what the error names, for each model flag
    SWEEP_FLAGS = {"experiment.function": ["--fn", "g9"], "experiment.seed": ["--seed", "3"],
                   "experiment.backend": ["--backend", "crossbar"],
                   "experiment.n_train": ["--n-train", "50"],
                   "experiment.n_test": ["--n-test", "100"], "network.p": ["--p", "3"],
                   "network.alpha": ["--alpha", "0.001"],
                   "network.threshold": ["--threshold", "0.3"],
                   "--paper-defaults": ["--paper-defaults"],
                   "--n-probes": ["--n-probes", "7"], "--timing": ["--timing"]}

    @pytest.mark.parametrize("key", list(SWEEP_FLAGS))
    def test_sweep_only_model_flags_exit_1(self, tmp_path, capsys, key):
        flag = self.SWEEP_FLAGS[key]
        out = tmp_path / "out"
        assert cli.main(["crossbar-compare", "--sweep-only", "--out-dir", str(out)] + flag) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("section,key", [
        (section, key) for section in ("network", "experiment")
        for key in cli.CONFIG_SCHEMA[section]]
        + [("crossbar", "scale_in"), ("crossbar", "scale_out")])
    def test_sweep_only_model_keys_exit_1(self, tmp_path, capsys, section, key):
        path = tmp_path / "model.ini"
        path.write_text(f"[{section}]\n{key} = {self.VALUES[key]}\n")
        out = tmp_path / "out"
        assert cli.main(["crossbar-compare", "--sweep-only", "--config", str(path),
                         "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and f"{section}.{key}" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", ["r_on", "r_off", "d", "mu_v", "v_threshold", "dt", "r_f"])
    def test_sweep_only_reads_the_device_constants(self, tmp_path, key):
        sweep = "device_weight_sweep.csv"
        assert cli.main(["crossbar-compare", "--sweep-only", "--out-dir", str(tmp_path)]) == 0
        bare = (tmp_path / sweep).read_bytes()
        path = tmp_path / "device.ini"
        path.write_text(f"[crossbar]\n{key} = {self.VALUES[key]}\n")
        out = tmp_path / "out"
        assert cli.main(["crossbar-compare", "--sweep-only", "--config", str(path),
                         "--out-dir", str(out)]) == 0
        assert (out / sweep).read_bytes() != bare

    def test_suite_row_honours_the_device_constants(self, tmp_path):
        # the fault plan's memristance ratio is R_off / R_on
        path = tmp_path / "device.ini"
        path.write_text("[crossbar]\nr_off = 8000\n")
        common = ["--config", str(path), "--out-dir", str(tmp_path)]
        assert cli.main(["suite", "--only", "fault", "--jobs", "2"] + common) == 0
        assert cli.main(["fault", "--fn", "g1"] + common) == 0
        suite_g1 = (tmp_path / "suite_fault.csv").read_text().splitlines()[1].split(",")
        fault_g1 = (tmp_path / "fault_g1.csv").read_text().splitlines()[1].split(",")
        assert suite_g1[:-1] == fault_g1
        assert fault_g1[10] == "169"

    @pytest.mark.parametrize("argv", [
        ["model", "--fn", "g1", "--backend", "crossbar"],
        ["classify", "--dataset", "1", "--backend", "crossbar"],
    ], ids=["model", "classify"])
    def test_crossbar_scales_reach_every_crossbar_run(self, tmp_path, argv):
        path = tmp_path / "overflow.ini"
        path.write_text("[crossbar]\nscale_in = 1e9\n")
        assert cli.main(argv + ["--n-train", "20", "--n-test", "50", "--config", str(path),
                                "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("setting", ["input_hs_scale = nan", "input_hs_scale = 0",
                                         "input_hs_scale = inf", "input_hs_shrink_exp = nan"])
    def test_bad_input_support_exit_1_before_writing(self, tmp_path, capsys, setting):
        path = tmp_path / "support.ini"
        path.write_text(f"[network]\n{setting}\n")
        out = tmp_path / "out"
        rc = cli.main(["model", "--fn", "g1", "--n-train", "20", "--config", str(path),
                       "--out-dir", str(out)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flag", [["--config", "x.ini"], ["--seed", "1"],
                                      ["--backend", "ideal"], ["--timing"]],
                             ids=lambda f: f[0])
    def test_dump_state_takes_no_run_flags(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["dump-state", "--state", str(tmp_path / "net.state")] + flag)
        assert exit_info.value.code == 2


# One value of each kind per key type: a usable one, one out of range, one of the
# wrong type and the literal values that once raised from configparser.  Every size
# stays small: the command lines below set n_train, n_test and --n-probes.
_VALUES = {int: ["2", "3", "-1", "2.5", "abc", "%(x)s"],
           float: ["0.5", "-1", "nan", "abc", "%(x)s"],
           str: ["g1", "g9", "g%1", "crossbar", "analog"]}
_SMALL = ["--n-train", "40", "--n-test", "100"]
_COMMANDS = {
    "model": ["model", "--fn", "g1"] + _SMALL,
    "classify": ["classify", "--dataset", "1"] + _SMALL,
    "noise": ["noise", "--fn", "g1"] + _SMALL,
    "fault": ["fault", "--fn", "g1"] + _SMALL,
    "suite": ["suite", "--only", "tiny", "--jobs", "1"],
    "crossbar-compare": ["crossbar-compare", "--fn", "g1", "--n-train", "40", "--n-probes", "10"],
    "dump-state": ["dump-state"],
}
# the suite's own tables score 2,000 to 10,000 points a row: the test runs a table
# of two small rows, pinned as every table's rows are
_TINY_SUITE = {"tiny": [{"function": "g1", "n_train": 40, "n_test": 100},
                        {"dataset": 1, "n_train": 40, "n_test": 100}]}


@st.composite
def _config_files(draw):
    """An INI file's bytes with one key: a schema key with a drawn value, an unknown key
    or section, or a line that is not UTF-8."""
    keys = [(section, key, typ) for section, schema in cli.CONFIG_SCHEMA.items()
            for key, typ in schema.items()]
    odd = [b"[network]\nwarp_factor = 9\n", b"[universe]\nanswer = 42\n",
           b"[experiment]\nseed = 2\xff\n"]
    line = draw(st.sampled_from(keys + odd))
    if isinstance(line, bytes):
        return line
    section, key, typ = line
    return f"[{section}]\n{key} = {draw(st.sampled_from(_VALUES[typ]))}\n".encode()


@functools.cache
def _state_bytes() -> bytes:
    from neurofuzzy import experiments, network

    return network.serialize(experiments.rebuild_trained_state(
        ExperimentConfig(function="g1", n_train=20)))


class TestCliContract:
    """Whatever the input, main exits 0, 1 or 2 with no traceback, and an exit 1
    comes before any training and leaves no file behind."""

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(sorted(_COMMANDS)), config=_config_files(),
           out_kind=st.sampled_from(["missing parent", "existing file", "directory"]),
           state_kind=st.sampled_from(["state", "garbage", "missing", "directory"]))
    @example(command="model", config=b"[experiment]\nfunction = g%1\n",
             out_kind="directory", state_kind="state")
    @example(command="model", config=b"[network]\np = %(x)s\n",
             out_kind="directory", state_kind="state")
    @example(command="model", config=b"[experiment]\nfunction = g1\xff\n",
             out_kind="directory", state_kind="state")
    def test_exit_codes_and_no_traceback(self, command, config, out_kind, state_kind):
        from neurofuzzy import experiments, network

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            out = {"missing parent": root / "missing" / "out", "existing file": root / "out",
                   "directory": root}[out_kind]
            if out_kind == "existing file":
                out.write_text("a file")
            argv = _COMMANDS[command] + ["--out-dir", str(out)]
            if command == "dump-state":     # dump-state takes no config, only its state file
                state = root / "net.state"
                if state_kind == "state":
                    state.write_bytes(_state_bytes())
                elif state_kind == "garbage":
                    state.write_bytes(b"not a state")
                elif state_kind == "directory":
                    state.mkdir()
                argv += ["--state", str(state)]
            else:
                (root / "run.ini").write_bytes(config)
                argv += ["--config", str(root / "run.ini")]
            trainings, real = [], network.train_matrix
            mp.setattr(network, "train_matrix",
                       lambda *a, **k: trainings.append(1) or real(*a, **k))
            mp.setattr(experiments, "SUITE", _TINY_SUITE)
            before = sorted(root.rglob("*"))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except SystemExit as e:     # argparse's usage error
                    rc = e.code
            assert rc in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if rc == 1:
                assert trainings == []
                assert sorted(root.rglob("*")) == before


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # a child process does not get pytest's pythonpath: hand it src/ itself
        paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        proc = subprocess.run(
            [sys.executable, "-m", "neurofuzzy.cli", "model", "--fn", "g1",
             "--n-train", "20", "--n-test", "50", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
        assert proc.returncode == 0
        assert "fvu_or_rate" in proc.stdout


def _csv_module_text(header, rows) -> str:
    """What csv.writer writes for a header (None: none) and rows: _write_csv's reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows.tolist() if isinstance(rows, np.ndarray) else rows)
    return buf.getvalue()


class TestCsvWriter:
    """_write_csv writes the bytes csv.writer writes on the same rows."""

    def test_every_table_the_commands_write(self, tmp_path, monkeypatch):
        from neurofuzzy import experiments, network

        written, real = [], cli._write_csv

        def checked(path, header, rows):
            text = real(path, header, rows)
            assert text == _csv_module_text(header, rows), path.name
            assert path.read_bytes() == text.encode()
            written.append((path.name, text))
            return text
        monkeypatch.setattr(cli, "_write_csv", checked)
        state, empty = tmp_path / "g1.state", tmp_path / "empty.state"
        empty.write_bytes(network.serialize(network.NetworkState(
            experiments.paper_modeling_config("g1").net)))
        for argv in (["model", "--fn", "g1", "--surface", "--save-state", str(state)],
                     ["model", "--fn", "g1", "--p", "3"] + FAST,
                     ["dump-state", "--state", str(state)],
                     ["dump-state", "--state", str(empty)],
                     ["crossbar-compare", "--fn", "g1", "--n-probes", "20"]):
            assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        dump = ["state_w_in_x.csv", "state_w_in_y.csv", "state_w_out.csv"]
        assert [name for name, _ in written] == (
            ["model_g1.csv", "surface_g1.csv", "model_g1.csv"] + dump * 2
            + ["device_weight_sweep.csv", "crossbar_compare_g1.csv"])
        texts = [text for _, text in written]
        assert len(texts[1].splitlines()) == 1 + 101 * 101
        # the 40-sample report has no paper reference, and --timing is off
        assert texts[2].endswith(",,\n") and not texts[0].endswith(",,\n")
        # the untrained state's w_in are (0, 100), its w_out (116, 0)
        assert texts[6:9] == ["", "", "\n" * 116]

    def test_a_float_table_keeps_every_bit_pattern_apart(self, tmp_path):
        nan_a, nan_b = np.array([0x7FF8000000000001, -0x8000000000000], np.int64).view(np.float64)
        rows = np.array([[0.0, nan_a, np.inf, 1e300],
                         [-0.0, nan_b, -np.inf, 5e-324],
                         [0.0, nan_a, 1e300, 0.1],
                         [-0.0, 1 / 3, 1 / 3, 0.1]])
        assert len(np.unique(rows[:, 1].view(np.int64))) == 3     # both NaN payloads kept
        header = ["a", "b", "c", "d"]
        text = cli._write_csv(tmp_path / "t.csv", header, rows)
        assert text == _csv_module_text(header, rows)
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["0.0", "-0.0"] * 2
        assert text.count("nan") == 3

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_an_empty_table(self, tmp_path, shape):
        rows = np.zeros(shape)
        assert cli._write_csv(tmp_path / "t.csv", None, rows) == _csv_module_text(None, rows)


class TestOneParser:
    """main builds its parser once, and no call's flags or defaults reach the next."""

    def test_the_parser_is_built_once(self, tmp_path, monkeypatch):
        built, real = [], argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli.build_parser.cache_clear()
        try:
            sweep = ["crossbar-compare", "--sweep-only", "--out-dir", str(tmp_path)]
            assert cli.main(sweep) == 0
            once = len(built)
            assert built.count("neurofuzzy") == 1     # the top-level parser and its subparsers
            assert cli.main(["model", "--fn", "g1", "--out-dir", str(tmp_path)] + FAST) == 0
            assert cli.main(sweep) == 0
            assert len(built) == once
        finally:
            cli.build_parser.cache_clear()

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path):
        def p_of(out):
            row = (out / "model_g1.csv").read_text().splitlines()[1].split(",")
            return row[cli.REPORT_COLUMNS.index("p")]
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["model", "--fn", "g1", "--p", "3", "--surface",
                         "--out-dir", str(first)] + FAST) == 0
        assert cli.main(["model", "--fn", "g1", "--out-dir", str(second)] + FAST) == 0
        assert p_of(first) == "3" and p_of(second) == "7"
        assert sorted(p.name for p in second.iterdir()) == ["model_g1.csv"]

    def test_each_study_gets_its_own_default(self, tmp_path, monkeypatch):
        from neurofuzzy import experiments

        seen, real = [], experiments.train_and_score
        monkeypatch.setattr(experiments, "train_and_score", lambda cfg: seen.append(cfg) or real(cfg))
        for command in ("noise", "fault", "noise"):
            assert cli.main([command, "--fn", "g1", "--out-dir", str(tmp_path)] + FAST) == 0
        assert [(c.noise_variance, c.fault_fraction) for c in seen] == [
            (0.01, 0.0), (0.0, 0.2), (0.01, 0.0)]
        assert cli.build_parser().parse_args(["noise"]).study_default == {"noise_variance": 0.01}

    def test_a_command_replaced_after_the_first_call_is_the_one_run(self, tmp_path, monkeypatch):
        assert cli.main(["model", "--fn", "g1", "--out-dir", str(tmp_path)] + FAST) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_model", lambda args, file_cfg: calls.append(args.command) or 0)
        assert cli.main(["classify", "--dataset", "1"]) == 0
        assert calls == ["classify"]

    def test_a_usage_error_leaves_the_next_call_working(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["model", "--fn", "g1", "--p", "three"])
        assert info.value.code == 2
        assert cli.main(["crossbar-compare", "--sweep-only", "--out-dir", str(tmp_path)]) == 0


def test_every_file_written_takes_the_umask(tmp_path, monkeypatch):
    from neurofuzzy import experiments

    monkeypatch.setattr(experiments, "SUITE", _TINY_SUITE)
    state, sweep = str(tmp_path / "g1.state"), str(tmp_path / "sweep")
    old = os.umask(0o027)
    try:
        for argv in (["model", "--fn", "g1", "--surface", "--save-state", state] + FAST,
                     ["dump-state", "--state", state],
                     ["crossbar-compare", "--fn", "g1", "--n-train", "40", "--n-probes", "10"],
                     ["suite", "--only", "tiny", "--jobs", "1"]):
            assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert cli.main(["crossbar-compare", "--sweep-only", "--out-dir", sweep]) == 0
    finally:
        os.umask(old)
    modes = {p.relative_to(tmp_path).as_posix(): p.stat().st_mode & 0o777
             for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 10 and "suite_tiny.csv" in modes
    assert modes == dict.fromkeys(modes, 0o666 & ~0o027)
