"""Tests of the benchmark's own references, checks and workloads.

    python3 -m pytest nfbench -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from neurofuzzy import crossbar, experiments, fuzzy, network
from neurofuzzy.fuzzy import universe_from_count
from neurofuzzy.network import InputGroup, NetworkConfig, NetworkState, train_one

HERE = Path(__file__).resolve().parent


def loop_forward(w_in, w_out, p, inputs):
    """Straight nested loops over the paper's definitions, one input at a time."""
    hidden = []
    for i in range(w_out.shape[1]):
        total = 0.0
        for w, x in zip(w_in, inputs):
            row = w[i]
            dot = sum(float(a) * float(b) for a, b in zip(row, x))
            nr = math.sqrt(sum(float(a) ** 2 for a in row))
            nx = math.sqrt(sum(float(b) ** 2 for b in x))
            total += dot / (nr * nx) if nr > 0 and nx > 0 else 0.0
        hidden.append((total / len(w_in)) ** p)
    return np.array([sum(float(w_out[k, j]) * hidden[j] for j in range(len(hidden)))
                     for k in range(w_out.shape[0])])


def small_state(rng):
    nx, ny, nz = (int(v) for v in rng.integers(2, 7, size=3))
    cfg = NetworkConfig(
        groups=(InputGroup("x", universe_from_count(0, 1, nx), 0.3),
                InputGroup("y", universe_from_count(0, 1, ny), 0.3)),
        output_universe=universe_from_count(0, 1, nz), p=int(rng.integers(1, 9)),
        alpha=5e-4, novelty_threshold=1e-9)
    state = NetworkState(cfg)
    for _ in range(int(rng.integers(1, 6))):
        sample = [fuzzy.MembershipVector(g.universe, rng.uniform(0.01, 1, g.universe.count))
                  for g in cfg.groups]
        train_one(state, sample, target_crisp=float(rng.uniform(0, 1)))
    return state


def test_reference_forward_matches_loop_oracle():
    for trial in range(60):
        rng = np.random.default_rng(trial)
        state = small_state(rng)
        mats = [rng.uniform(0.01, 1, (4, g.universe.count)) for g in state.config.groups]
        got = ref.state_forward(state, mats)
        w_in = [state.w_in(g) for g in range(2)]
        for b in range(4):
            want = loop_forward(w_in, state.w_out, state.config.p, [m[b] for m in mats])
            np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=0)


def test_closed_form_device_matches_fine_euler():
    params = crossbar.MemristorParams(dt=1e-7)
    volts = np.array([0.5, 1.0, 1.05, 1.2, 1.5, 1.9])
    duration = 0.01
    _, dw = crossbar.delta_weight_sweep(params, voltages=volts, duration=duration)
    x_euler = ref.x_from_delta_weight(params, params.r_off, dw)
    np.testing.assert_allclose(ref.ion_drift_x(params, volts, duration), x_euler, atol=1e-7)


def test_closed_form_device_saturates():
    params = crossbar.MemristorParams()
    # long enough at 2 V to pass x = 1
    assert ref.ion_drift_x(params, np.array([2.0]), 10.0)[0] == 1.0
    assert ref.ion_drift_x(params, np.array([1.0]), 10.0)[0] == 0.0


@pytest.fixture(scope="module")
def g1_state():
    cfg = experiments.paper_modeling_config("g1", n_train=120)
    return experiments.rebuild_trained_state(cfg), cfg


def test_check_ideal_rejects_wrong_power(g1_state):
    state, _ = g1_state
    pts = np.random.default_rng(3).uniform(0, 1, (50, 2))
    mats = [fuzzy.triangular_matrix(g.universe, pts[:, i], g.half_support)
            for i, g in enumerate(state.config.groups)]
    pred, _ = network.infer_crisp_batch(state, mats)
    labels = network.classify_batch(state, mats)
    grid = state.config.output_universe.grid()
    chk = ref.Checks()
    ref.check_ideal(chk, "ok", state, mats, pred, labels, grid)
    assert chk.correct, chk.failures
    w_in = [state.w_in(g) for g in range(2)]
    wrong = ref.centroid(ref.forward(w_in, state.w_out, state.config.p + 1, mats), grid)
    ref.check_ideal(chk, "p+1", state, mats, wrong, labels, grid)
    assert not chk.correct


def test_check_crossbar_rejects_missing_floor(g1_state):
    state, _ = g1_state
    pts = np.random.default_rng(4).uniform(0, 1, (50, 2))
    mats = [fuzzy.triangular_matrix(g.universe, pts[:, i], g.half_support)
            for i, g in enumerate(state.config.groups)]
    cb1, cb2, mapping = crossbar.map_network(state)
    ideal = ref.state_forward(state, mats)
    chk = ref.Checks()
    ref.check_crossbar_raw(chk, "ok", ideal, crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats))
    assert chk.correct, chk.failures
    mapping.floor = 0.0   # the read no longer subtracts the pristine conductance
    ref.check_crossbar_raw(chk, "no floor", ideal,
                           crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats))
    assert not chk.correct


def test_check_sweep_rejects_doubled_step():
    params = crossbar.MemristorParams()
    volts, dw = crossbar.delta_weight_sweep(params)
    chk = ref.Checks()
    ref.check_sweep(chk, "ok", params, params.r_off, volts, dw, crossbar.HEBBIAN_PULSE_SECONDS)
    assert chk.correct, chk.failures
    _, doubled = crossbar.delta_weight_sweep(params, duration=2 * crossbar.HEBBIAN_PULSE_SECONDS)
    ref.check_sweep(chk, "2 dt", params, params.r_off, volts, doubled,
                    crossbar.HEBBIAN_PULSE_SECONDS)
    assert not chk.correct


def test_check_training_rejects_skipped_update_and_foreign_row(g1_state):
    state, cfg = g1_state
    pts = np.random.default_rng(cfg.seed).uniform(0, 1, (cfg.n_train, 2))
    mats = [fuzzy.triangular_matrix(g.universe, pts[:, i], g.half_support)
            for i, g in enumerate(state.config.groups)]
    chk = ref.Checks()
    ref.check_training(chk, "ok", state, mats, cfg.n_train)
    assert chk.correct, chk.failures

    skipped = state.copy()
    skipped._w_out[:, 3] = 0.0
    ref.check_training(chk, "skipped update", skipped, mats, cfg.n_train)
    assert chk.failures == ["skipped update: a min-term column got no Hebbian update"]

    foreign = state.copy()
    foreign._w_in[0][0, :] = np.roll(foreign._w_in[0][0, :], 1)
    chk = ref.Checks()
    ref.check_training(chk, "foreign", foreign, mats, cfg.n_train)
    assert not chk.correct


def test_check_stuck_and_read_untouched():
    cb = crossbar.distort(crossbar.Crossbar(4, 5), 0.5, seed=1)
    before = cb.x.copy()
    chk = ref.Checks()
    ref.check_stuck_untouched(chk, "ok", [before], [cb])
    ref.check_read_untouched(chk, "ok", [before], [cb])
    assert chk.correct
    cb.x[cb.fault_mask] = 0.0
    ref.check_stuck_untouched(chk, "written", [before], [cb])
    ref.check_read_untouched(chk, "written", [before], [cb])
    assert len(chk.failures) == 2


@pytest.mark.parametrize("workload", ["train-familiar", "train-novel", "readout", "cli-session"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_to_its_end(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(names) == set(result["metrics"])
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_refuses_without_the_program(tmp_path):
    bench = tmp_path / "nfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "readout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
