"""score_batch's lanes: any lane count gives every bit of the one-lane result.

Tier-1 sets no BLAS thread variable, so score_batch runs one lane there; these
tests force the lane count by replacing fuzzy.score_lanes.  The pools they make
(L = 2 and L = 3) start at most 3 threads in all.
"""

import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from neurofuzzy import crossbar, experiments, fuzzy, network
from neurofuzzy.errors import (
    DegenerateFuzzification,
    OperandOutOfRange,
    ReadDisturbRisk,
    ZeroVector,
)
from neurofuzzy.fuzzy import SCORE_ROWS, triangular_matrix, universe_from_count
from oracles import triangular_matrix as broadcast_triangles
from suite_csv import run_suite

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def g1():
    """A trained g1 network and its crossbar mapping."""
    state = experiments.rebuild_trained_state(experiments.paper_modeling_config("g1"))
    return state, crossbar.map_network(state)


def fuzzified(state, n, seed=0):
    pts = np.random.default_rng(seed).uniform(0, 1, size=(n, 2))
    return [triangular_matrix(g.universe, pts[:, i], g.half_support)
            for i, g in enumerate(state.config.groups)]


def lanes(monkeypatch, count):
    monkeypatch.setattr(fuzzy, "score_lanes", lambda: count)


def readouts(state, cbs, mats):
    """Every scoring entry point of both backends on mats, hidden included."""
    hidden = np.empty((len(mats[0]), state.n_minterms))
    raw = network.output_batch(state, mats, hidden=hidden)
    return [raw, hidden, *network.infer_crisp_batch(state, mats),
            network.classify_batch(state, mats),
            crossbar.crossbar_forward_batch(*cbs, mats),
            *crossbar.crossbar_infer_crisp_batch(*cbs, mats)]


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("chunks", [1, 2, 4])
def test_lanes_give_the_one_lane_bits(monkeypatch, g1, count, chunks):
    state, cbs = g1
    mats = fuzzified(state, SCORE_ROWS * chunks + 1, seed=chunks)
    lanes(monkeypatch, 1)
    want = readouts(state, cbs, mats)
    lanes(monkeypatch, count)
    got = readouts(state, cbs, mats)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_queued_lane_runs_in_the_caller(monkeypatch, g1):
    # the pool's one thread is held, so lane 1 is still queued when the caller
    # gets to it, and the caller scores it in lane 0's buffers
    state, cbs = g1
    mats = fuzzified(state, 3 * SCORE_ROWS + 1)
    lanes(monkeypatch, 1)
    want = readouts(state, cbs, mats)
    lanes(monkeypatch, 2)
    readouts(state, cbs, mats)                  # makes the pool, if no test has
    release = threading.Event()
    held = fuzzy._POOLS[2].submit(release.wait, 10.0)
    try:
        got = readouts(state, cbs, mats)
        assert not held.done()
    finally:
        release.set()
    assert held.result()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("n", [k * SCORE_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1)])
def test_fuzzified_blocks_give_the_broadcast_bits(monkeypatch, count, n):
    u = universe_from_count(0.0, 1.0, 41)
    crisps = np.random.default_rng(n).uniform(0.0, 1.0, n)
    lanes(monkeypatch, count)
    got = triangular_matrix(u, crisps, 0.07)
    assert got.dtype == np.float64 and np.array_equal(got, broadcast_triangles(u, crisps, 0.07))


@pytest.mark.parametrize("count", [1, 2])
def test_a_degenerate_row_in_the_last_block_raises(monkeypatch, count):
    # half support 0.04 < half the spacing 0.1: a value midway between grid points
    # touches none, and the last of 3 * SCORE_ROWS + 1 rows is one
    u = universe_from_count(0.0, 1.0, 11)
    crisps = np.append(np.tile(u.grid(), 3 * SCORE_ROWS // 11 + 1)[:3 * SCORE_ROWS], 0.05)
    lanes(monkeypatch, count)
    assert triangular_matrix(u, crisps[:-1], 0.04).any(axis=1).all()
    with pytest.raises(DegenerateFuzzification, match="half_support 0.04 < half the grid"):
        triangular_matrix(u, crisps, 0.04)


@pytest.mark.parametrize("count", [1, 2])
def test_chunk_readouts_are_those_of_the_outputs(monkeypatch, g1, count):
    state, (cb1, cb2, mapping) = g1
    mats = fuzzified(state, 3 * SCORE_ROWS + 1)
    fold = fuzzy.centroid_matrix(state.config.output_universe.grid()).T
    lanes(monkeypatch, count)
    pairs = [(network.infer_crisp_batch(state, mats),
              fuzzy.centroid(network.output_batch(state, mats, fold=fold))),
             ((network.classify_batch(state, mats),),
              (fuzzy.argmax(network.output_batch(state, mats)),)),
             (crossbar.crossbar_infer_crisp_batch(cb1, cb2, mapping, mats),
              fuzzy.centroid(crossbar._score(cb1, cb2, mapping, mats, fold))),
             (crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats,
                                              readout=lambda out: (fuzzy.argmax(out),)),
              (fuzzy.argmax(crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats)),))]
    for got, want in pairs:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape == (3 * SCORE_ROWS + 1,)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


def test_classify_batch_makes_no_batch_of_outputs(g1):
    state, _ = g1
    mats = fuzzified(state, 20 * SCORE_ROWS)
    network.classify_batch(state, mats)     # warm: nothing first-call is counted
    tracemalloc.start()
    try:
        labels = network.classify_batch(state, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (20 * SCORE_ROWS,)
    assert peak < 20 * SCORE_ROWS * state.config.output_universe.count * 8


def test_fuzzifying_from_threads_at_once(monkeypatch):
    # three callers, more than the two lanes, each waiting on the one pool thread
    u = universe_from_count(0.0, 1.0, 101)
    batches = [np.random.default_rng(s).uniform(0.0, 1.0, 4 * SCORE_ROWS + 3) for s in (1, 2, 3)]
    want = [broadcast_triangles(u, c, 0.02) for c in batches]
    lanes(monkeypatch, 2)
    triangular_matrix(u, batches[0], 0.02)  # makes the pool, if no test has
    pools = dict(fuzzy._POOLS)
    start, got = threading.Barrier(3), [[] for _ in batches]

    def fuzzify(k):
        start.wait(10.0)
        for _ in range(5):
            got[k].append(triangular_matrix(u, batches[k], 0.02))
    threads = [threading.Thread(target=fuzzify, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(g) == 5 and all(np.array_equal(a, w) for a in g) for g, w in zip(got, want))
    assert fuzzy._POOLS == pools


def chunk_of(h, hidden):
    return (h.ctypes.data - hidden.ctypes.data) // hidden.strides[0] // SCORE_ROWS


def score(state, mats, hidden, check):
    return fuzzy.score_batch(mats, state.unit_rows(), state.w_out, state.config.p,
                             hidden, check)


def test_lanes_run_on_pool_threads(monkeypatch, g1):
    # chunk 0 waits until chunk 1, lane 1's first, has been checked elsewhere
    state, _ = g1
    mats = fuzzified(state, 3 * SCORE_ROWS)
    hidden = np.empty((3 * SCORE_ROWS, state.n_minterms))
    seen, chunk1 = {}, threading.Event()

    def check(h):
        k = chunk_of(h, hidden)
        seen[k] = threading.get_ident()
        if k == 1:
            chunk1.set()
        if k == 0:
            assert chunk1.wait(10.0)

    lanes(monkeypatch, 2)
    score(state, mats, hidden, check)
    assert sorted(seen) == [0, 1, 2]
    assert seen[0] == seen[2] == threading.get_ident() != seen[1]


@pytest.mark.parametrize("count", [2, 3])
def test_a_failed_check_leaves_no_lane_running(monkeypatch, g1, count):
    state, _ = g1
    mats = fuzzified(state, 5 * SCORE_ROWS)
    hidden = np.empty((5 * SCORE_ROWS, state.n_minterms))
    lock, running, calls = threading.Lock(), [0], []

    def check(h):
        k = chunk_of(h, hidden)
        with lock:
            running[0] += 1
            calls.append(k)
        try:
            if k == 2:
                raise ReadDisturbRisk("chunk 2")
            time.sleep(0.02)
        finally:
            with lock:
                running[0] -= 1

    lanes(monkeypatch, count)
    with pytest.raises(ReadDisturbRisk, match="chunk 2"):
        score(state, mats, hidden, check)
    assert running[0] == 0
    done = len(calls)
    time.sleep(0.1)
    assert len(calls) == done and 2 in calls


def test_a_hot_middle_chunk_raises_as_in_one_lane(monkeypatch, g1):
    # a copy of a stored row in chunk 2 fires its hidden neuron at 1, above the
    # threshold at this read voltage; every other input row is zero
    state, _ = g1
    cb1, cb2, mapping = crossbar.map_network(state)
    mapping.v_read = 1.5 * cb2.params.v_threshold
    mats = [np.zeros((5 * SCORE_ROWS, g.universe.count)) for g in state.config.groups]
    for g, X in enumerate(mats):
        X[2 * SCORE_ROWS + 7] = 0.6 * state.w_in(g)[0]
    errors = []
    for count in (1, 2, 3):
        lanes(monkeypatch, count)
        with pytest.raises(ReadDisturbRisk) as e:
            crossbar.crossbar_forward_batch(cb1, cb2, mapping, mats)
        errors.append(str(e.value))
    assert errors == errors[:1] * 3
    assert "hidden-layer" in errors[0]


def test_a_hot_input_in_the_last_chunk_raises_before_its_read(monkeypatch, g1):
    # 2.5 reads at 1.25 V, above the threshold, in the 1-row last chunk only; its lane
    # checks it before the chunk's first GEMM, which unit_concat feeds, so every other
    # chunk is read at any lane count, and the hot one is not
    state, cbs = g1
    mats = fuzzified(state, 3 * SCORE_ROWS + 1)
    mats[1][-1, 3] = 2.5
    lock, running, reads, real = threading.Lock(), [0], [], fuzzy.unit_concat

    def unit_concat(xs, out=None):
        with lock:
            running[0] += 1
            reads.append(len(xs[0]))
        try:
            time.sleep(0.01)
            return real(xs, out)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(fuzzy, "unit_concat", unit_concat)
    errors = []
    for count in (1, 2, 3):
        lanes(monkeypatch, count)
        reads.clear()
        with pytest.raises(ReadDisturbRisk) as e:
            crossbar.crossbar_forward_batch(*cbs, mats)
        errors.append(str(e.value))
        assert running[0] == 0
        done = len(reads)
        time.sleep(0.05)
        assert len(reads) == done and reads == [SCORE_ROWS] * 3
    assert errors == errors[:1] * 3 and "input read voltage" in errors[0]


@pytest.mark.parametrize("cols, value, error", [
    (4, np.nan, OperandOutOfRange),          # one NaN in an otherwise usable row
    (slice(None), 0.0, ZeroVector),
])
def test_a_bad_sample_in_the_last_block_raises_as_in_one_lane(monkeypatch, g1, cols, value,
                                                              error):
    state, _ = g1
    n = 3 * SCORE_ROWS + 1
    mats = fuzzified(state, n)
    mats[1][-1, cols] = value
    uz = state.config.output_universe
    targets = np.full(n, (uz.lo + uz.hi) / 2.0)
    before, errors = network.serialize(state), []
    for count in (1, 2):
        lanes(monkeypatch, count)
        trained = state.copy()
        with pytest.raises(error, match=f"^sample {n - 1}: ") as e:
            network.train_matrix(trained, mats, targets)
        errors.append(str(e.value))
        assert network.serialize(trained) == before
    assert errors[0] == errors[1]


@pytest.mark.parametrize("first, second, error", [
    ((0, slice(None), 0.0), (1, 2, np.nan), ZeroVector),
    ((1, 2, np.nan), (0, slice(None), 0.0), OperandOutOfRange),
    ((1, 0, -1.0), (0, 3, np.inf), OperandOutOfRange),
    ((0, slice(None), -0.0), (1, slice(None), 0.0), ZeroVector),
], ids=["zero-then-nan", "nan-then-zero", "negative-then-inf", "minus-zero-then-zero"])
def test_the_first_of_two_bad_rows_in_lane_1s_block_is_named(monkeypatch, g1, first, second,
                                                             error):
    # block 1 of three is lane 1's at L = 2; a (group, columns, value) spoils each row
    state, _ = g1
    n, k = 3 * SCORE_ROWS, SCORE_ROWS + 5
    mats = fuzzified(state, n)
    for row, (g, cols, value) in ((k, first), (k + 9, second)):
        mats[g][row, cols] = value
    uz = state.config.output_universe
    targets = np.full(n, (uz.lo + uz.hi) / 2.0)
    before, errors = network.serialize(state), []
    for count in (1, 2):
        lanes(monkeypatch, count)
        trained = state.copy()
        with pytest.raises(error, match=f"^sample {k}: ") as e:
            network.train_matrix(trained, mats, targets)
        errors.append(str(e.value))
        assert network.serialize(trained) == before
    assert errors[0] == errors[1]


@pytest.mark.parametrize("n", [0, 1, SCORE_ROWS])
def test_one_chunk_runs_in_the_caller(monkeypatch, g1, n):
    state, _ = g1
    mats = fuzzified(state, n)
    hidden = np.empty((n, state.n_minterms))
    threads = set()
    monkeypatch.setattr(fuzzy, "_POOLS", {})
    lanes(monkeypatch, 3)
    out = score(state, mats, hidden, lambda h: threads.add(threading.get_ident()))
    assert out.shape == (n, state.config.output_universe.count)
    assert fuzzy._POOLS == {}
    assert threads <= {threading.get_ident()}


def test_no_blas_variable_starts_no_thread(monkeypatch, g1):
    state, _ = g1
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(fuzzy, "score_lanes", fuzzy.score_lanes.__wrapped__)
    # a novel stream, with every w_out update at or over in_lane's cut
    monkeypatch.setattr(fuzzy, "LANE_WORK_MIN", 0)
    monkeypatch.setattr(fuzzy, "_POOLS", {})
    cfg = experiments.paper_modeling_config("g5", n_train=300, noise_variance=0.01)
    pts, targets = experiments._training_data(cfg)
    before = threading.active_count()
    network.output_batch(state, fuzzified(state, 4 * SCORE_ROWS))
    stats = network.train_matrix(network.NetworkState(cfg.net),
                                 network.NetworkState(cfg.net).fuzzify(pts), targets)
    assert stats.n_minterms_added > network.CHUNK_MAX
    assert fuzzy.score_lanes() == 1
    assert threading.active_count() == before and fuzzy._POOLS == {}


@pytest.mark.parametrize("env, want", [
    ({}, 1),                                                  # the BLAS takes every core
    ({"OPENBLAS_NUM_THREADS": "1"}, 8),
    ({"OMP_NUM_THREADS": "2"}, 4),
    ({"MKL_NUM_THREADS": " 3 "}, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 2),   # the largest rules
    ({"OMP_NUM_THREADS": "16"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4),
    ({"OPENBLAS_NUM_THREADS": "many"}, 1),
    ({"OPENBLAS_NUM_THREADS": "-2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "1.5"}, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 1),
])
def test_lane_rule(monkeypatch, env, want):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(fuzzy, "usable_cores", lambda: 8)
    pools = dict(fuzzy._POOLS)
    assert fuzzy.score_lanes.__wrapped__() == want
    assert fuzzy._POOLS == pools


def test_usable_cores_follows_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert fuzzy.usable_cores() == len(os.sched_getaffinity(0))
    assert 1 <= fuzzy.usable_cores() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("table", ["table1", "noise", "table3"])
def test_suite_csvs_do_not_depend_on_the_lanes(monkeypatch, tmp_path, table):
    # two lanes at in_lane's cut, then with every training update in a lane
    lanes(monkeypatch, 1)
    run_suite(tmp_path / "one", "--only", table, "--jobs", "1")
    lanes(monkeypatch, 2)
    run_suite(tmp_path / "two", "--only", table, "--jobs", "1")
    monkeypatch.setattr(fuzzy, "LANE_WORK_MIN", 0)
    run_suite(tmp_path / "all", "--only", table, "--jobs", "1")
    one, two, every = (tmp_path / d / f"suite_{table}.csv" for d in ("one", "two", "all"))
    assert one.read_bytes() == two.read_bytes() == every.read_bytes()
