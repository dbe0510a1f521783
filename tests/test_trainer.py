"""train_matrix against a per-sample oracle, and its validation contract."""

import dataclasses
import re
import sys
import threading

import numpy as np
import pytest

from neurofuzzy import experiments, fuzzy, network
from neurofuzzy.crossbar import draw_faults
from neurofuzzy.errors import (
    CapacityExceeded,
    DegenerateFuzzification,
    OperandOutOfRange,
    TargetOutOfRange,
    UniverseMismatch,
    ZeroVector,
)
from neurofuzzy.fuzzy import MembershipVector, universe_from_count
from neurofuzzy.network import (
    InputGroup,
    NetworkConfig,
    NetworkState,
    WeightFaults,
    train_dataset,
    train_matrix,
    train_one,
)
from oracles import chunked_train, forward_batch, states_equal

N_IN, N_OUT = 6, 5


def config(threshold=0.15):
    ux = universe_from_count(0.0, 1.0, N_IN)
    return NetworkConfig(
        groups=(InputGroup("x", ux, 0.3), InputGroup("y", ux, 0.3)),
        output_universe=universe_from_count(0.0, 1.0, N_OUT), p=7, alpha=5e-4,
        novelty_threshold=threshold, output_half_support=0.3)


def oracle_train(state, mats, targets):
    """The per-sample trainer: one forward pass to test novelty, then, for a
    novel sample, an append, a second forward pass and the Hebbian update
    w_ij += alpha * v_j * u_i of every output row.  Returns (stream positions
    added, novelty errors)."""
    cfg = state.config
    out_u = cfg.output_universe
    added, errors = [], []
    for k in range(len(targets)):
        xs = [X[k:k + 1] for X in mats]
        u = fuzzy.triangular_matrix(out_u, targets[k:k + 1], cfg.output_half_support)[0]
        err = np.inf
        if state.n_minterms > 0:
            out = forward_batch(state, xs)[1][0]
            total = out.sum()
            if total > 0.0:
                err = abs(float(out @ out_u.grid()) / total - targets[k])
        errors.append(err)
        if err < cfg.novelty_threshold:
            continue
        state._store_rows(xs)
        hidden = forward_batch(state, xs)[0][0]
        delta = cfg.alpha * (u[:, None] * hidden[None, :])
        if state.faults is not None:
            delta[state.faults.out_mask[:, : state.n_minterms]] = 0.0
        state._w_out[:, : state.n_minterms] += delta
        added.append(k)
    return added, np.array(errors)


def random_stream(cfg, seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    mats = [fuzzy.triangular_matrix(g.universe, pts[:, i], g.half_support)
            for i, g in enumerate(cfg.groups)]
    return mats, (pts[:, 0] + pts[:, 1]) / 2.0


def faults_for(cfg, n, seed=3):
    return draw_faults(seed, [N_IN, N_IN], N_OUT, capacity=n, fraction=0.2,
                       out_scale=cfg.alpha)


def assert_matches_oracle(cfg, mats, targets, faults=None, prefix=None):
    """train_matrix and the oracle on fresh states (after an optional prefix
    stream) add the same samples and end in the same weights."""
    fast, slow = NetworkState(cfg, faults=faults), NetworkState(cfg, faults=faults)
    if prefix is not None:
        train_matrix(fast, *prefix)
        oracle_train(slow, *prefix)
    n0 = fast.n_minterms
    stats = train_matrix(fast, mats, targets)
    added, errors = oracle_train(slow, mats, targets)
    assert stats.n_samples == len(targets)
    assert stats.n_minterms_added == len(added)
    assert stats.add_indices == list(range(n0, n0 + len(added)))
    assert fast.n_minterms == slow.n_minterms
    assert list(np.flatnonzero(~(stats.errors < cfg.novelty_threshold))) == added
    np.testing.assert_allclose(stats.errors, errors, rtol=1e-12, atol=1e-15)
    for g in range(len(cfg.groups)):
        assert np.array_equal(fast.w_in(g), slow.w_in(g))
    # the reused hidden row may differ from a recomputed one in the last bit
    np.testing.assert_allclose(fast.w_out, slow.w_out, rtol=1e-12, atol=0.0)
    return added


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
def test_random_streams_match_oracle(faulted, seed):
    cfg = config(threshold=0.1)
    n = 150
    mats, targets = random_stream(cfg, seed, n)
    added = assert_matches_oracle(cfg, mats, targets,
                                  faults_for(cfg, n) if faulted else None)
    assert 0 < len(added) < n      # the streams exercise both adds and skips


def block_stream(novel_at, n):
    """A stream of one familiar sample with novel ones at the given positions.

    The novel samples share one input that the familiar one does not fire on,
    and their targets alternate between 0.75 and 0.25, so each is novel
    against the min-terms the ones before it added."""
    cfg = config(threshold=0.05)
    xs = np.zeros((n, N_IN))
    xs[:, 0] = 1.0
    targets = np.full(n, 0.25)
    for j, pos in enumerate(novel_at):
        xs[pos] = np.eye(N_IN)[2]
        targets[pos] = 0.75 if j % 2 == 0 else 0.25
    return cfg, [xs, xs.copy()], targets


C = network.CHUNK_MAX


@pytest.mark.parametrize("novel_at, n", [
    # adds on the last row of chunk 0, the first and last rows of chunk 1
    ((C - 1, C, 2 * C - 1), 2 * C + 3),
    # a run of consecutive adds inside one chunk, familiar rows after it
    (tuple(range(C + 5, C + 25)), 2 * C + 10),
    # every row of chunk 1 adds a min-term
    (tuple(range(C, 2 * C)), 3 * C),
    # after a long familiar run: mid-chunk, then the last row of a short last chunk
    ((150, 299), 300),
], ids=["chunk-edges", "consecutive", "all-novel-chunk", "late-adds"])
def test_adds_at_chunk_edges(novel_at, n):
    cfg, mats, targets = block_stream(novel_at, n)
    assert assert_matches_oracle(cfg, mats, targets) == [0, *novel_at]


@pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
def test_all_novel_multi_chunk_stream(faulted):
    # every add folds its update into the rest of its chunk, takes its column
    # from the chunk's self-activations (pristine), and the state grows 16 -> 256 rows
    n = 3 * C + 1
    cfg, mats, targets = block_stream(range(1, n), n)
    added = assert_matches_oracle(cfg, mats, targets, faults_for(cfg, n) if faulted else None)
    if not faulted:
        assert added == list(range(n))


def mid_chunk_faults(cfg):
    """Stuck cells in min-term 2, which block_stream((5, 6, 7, 8), 20) adds at sample 6."""
    cap = 20
    in_masks = [np.zeros((cap, N_IN), dtype=bool) for _ in cfg.groups]
    in_stuck = [np.zeros((cap, N_IN)) for _ in cfg.groups]
    # the stored row differs from the input: its hot cell and one more are stuck
    in_masks[0][2, [2, 4]] = True
    in_stuck[0][2, [2, 4]] = (0.3, 0.5)
    out_mask = np.zeros((N_OUT, cap), dtype=bool)
    out_stuck = np.zeros((N_OUT, cap))
    # row 4 lies outside the support of both targets, so only its stuck weight moves it
    out_mask[[1, 4], 2] = True
    out_stuck[[1, 4], 2] = (2.0 * cfg.alpha, 3.0 * cfg.alpha)
    return WeightFaults(capacity=cap, in_masks=in_masks, in_stuck=in_stuck,
                        out_mask=out_mask, out_stuck=out_stuck)


def test_stuck_cells_in_a_column_added_mid_chunk():
    # min-term 2 is added at sample 6, mid-chunk; samples 7 and 8 fire on it
    cfg, mats, targets = block_stream((5, 6, 7, 8), 20)
    faults = mid_chunk_faults(cfg)
    assert assert_matches_oracle(cfg, mats, targets, faults) == [0, 5, 6, 7, 8]


def test_stuck_out_cells_keep_their_exact_bits():
    # each chunk writes its adds to w_out at once; the masked write must leave
    # every stuck cell bit-for-bit as the plan drew it, in every chunk's columns
    n = 3 * C + 1
    cfg, mats, targets = block_stream(range(1, n), n)
    faults = faults_for(cfg, n)
    state = NetworkState(cfg, faults=faults)
    stats = train_matrix(state, mats, targets)
    m = state.n_minterms
    mask = faults.out_mask[:, :m]
    add_chunks = np.flatnonzero(~(stats.errors < cfg.novelty_threshold)) // C
    assert len(set(add_chunks[mask.any(axis=0)])) >= 3
    assert np.all(state.w_out[mask] == faults.out_stuck[:, :m][mask])


def assert_same_bits_as_frozen_loop(cfg, mats, targets, faults=None, prefix=None):
    """train_matrix and oracles.chunked_train, on fresh states after an optional
    prefix stream, end in the same bits: weights, errors and add indices."""
    fast, frozen = NetworkState(cfg, faults=faults), NetworkState(cfg, faults=faults)
    if prefix is not None:
        train_matrix(fast, *prefix)
        chunked_train(frozen, *prefix)
        assert fast.n_minterms > 0 and states_equal(fast, frozen)
    stats = train_matrix(fast, mats, targets)
    want = chunked_train(frozen, mats, targets)
    assert states_equal(fast, frozen)
    assert np.array_equal(stats.errors, want.errors)
    assert stats.add_indices == want.add_indices
    assert stats.n_minterms_added == want.n_minterms_added
    return stats


class TestSameBitsAsTheFrozenChunkLoop:
    @pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
    def test_all_novel_stream(self, faulted):
        n = 3 * C + 1
        cfg, mats, targets = block_stream(range(1, n), n)
        stats = assert_same_bits_as_frozen_loop(cfg, mats, targets,
                                                faults_for(cfg, n) if faulted else None)
        assert faulted or stats.n_minterms_added == n

    @pytest.mark.parametrize("novel_at, n", [
        ((C - 1, C, 2 * C - 1), 2 * C + 3),
        (tuple(range(C + 5, C + 25)), 2 * C + 10),
        ((150, 299), 300),
    ], ids=["chunk-edges", "consecutive", "late-adds"])
    def test_adds_at_chunk_edges(self, novel_at, n):
        cfg, mats, targets = block_stream(novel_at, n)
        stats = assert_same_bits_as_frozen_loop(cfg, mats, targets)
        assert stats.add_indices == list(range(1 + len(novel_at)))

    def test_stuck_out_cells_in_a_column_added_mid_chunk(self):
        cfg, mats, targets = block_stream((5, 6, 7, 8), 20)
        stats = assert_same_bits_as_frozen_loop(cfg, mats, targets, mid_chunk_faults(cfg))
        assert list(np.flatnonzero(~(stats.errors < cfg.novelty_threshold))) == [0, 5, 6, 7, 8]

    @pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
    def test_stream_on_a_trained_state(self, faulted):
        cfg = config(threshold=0.1)
        mats, targets = random_stream(cfg, 11, 3 * C + 7)
        stats = assert_same_bits_as_frozen_loop(
            cfg, mats, targets, faults_for(cfg, 4 * C + 7) if faulted else None,
            prefix=random_stream(cfg, 12, C))
        assert 0 < stats.n_minterms_added < len(targets)

    def test_overflowed_centroid_is_novel_and_reads_inf(self):
        # alpha * (u @ grid) overflows at +-8e307, so a row that fires on one min-term
        # and reads 0 on another has a NaN numerator: 0 * inf
        ux = universe_from_count(0.0, 1.0, N_IN)
        cfg = NetworkConfig(groups=(InputGroup("x", ux, 0.3), InputGroup("y", ux, 0.3)),
                            output_universe=fuzzy.Universe(-8e307, 8e307, 8e307, 3),
                            alpha=4.0, novelty_threshold=0.1)
        rng = np.random.default_rng(0)
        mats, _ = random_stream(cfg, 0, 150)
        with np.errstate(invalid="ignore", over="ignore"):
            stats = assert_same_bits_as_frozen_loop(cfg, mats, rng.choice([-8e307, 8e307], 150))
        assert stats.n_minterms_added == 150 and np.isposinf(stats.errors).all()

    @pytest.mark.parametrize("cfg", [
        experiments.paper_classification_config(3, n_train=4000),
        experiments.paper_modeling_config("g5", n_train=1500, noise_variance=0.01),
    ], ids=["set3-4000", "noisy-g5-1500"])
    def test_experiment_stream(self, cfg):
        net = experiments._network_config(cfg)
        pts, targets = experiments._training_data(cfg)
        assert_same_bits_as_frozen_loop(net, NetworkState(net).fuzzify(pts), targets)


    # the row right after an add is checked alone, in scalar arithmetic
    def test_row_after_an_add_that_fires_on_nothing_is_novel(self):
        # one-hot inputs: a sample fires only on the min-terms stored from its own hot cell
        hots = np.zeros(2 * C, dtype=int)
        hots[[C + 3, C + 4]] = (2, 4)
        xs = np.eye(N_IN)[hots]
        targets = np.where(hots == 0, 0.25, 0.75)
        stats = assert_same_bits_as_frozen_loop(config(threshold=0.05), [xs, xs.copy()], targets)
        assert list(np.flatnonzero(np.isposinf(stats.errors))) == [0, C + 3, C + 4]
        assert stats.add_indices == [0, 1, 2]

    def test_row_after_an_add_whose_error_equals_the_threshold_is_novel(self):
        # singleton targets on the grid [0, 0.5, 1]: sample 1 reads the centroid 0 of the
        # min-term sample 0 added, an error of exactly the threshold
        ux = universe_from_count(0.0, 1.0, N_IN)
        cfg = NetworkConfig(groups=(InputGroup("x", ux, 0.3), InputGroup("y", ux, 0.3)),
                            output_universe=universe_from_count(0.0, 1.0, 3),
                            novelty_threshold=0.5, output_half_support=0.0)
        xs = np.tile(np.eye(N_IN)[1], (6, 1))
        targets = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        stats = assert_same_bits_as_frozen_loop(cfg, [xs, xs.copy()], targets)
        assert stats.errors[1] == 0.5 and stats.add_indices[:2] == [0, 1]

    def test_familiar_row_after_an_add_hands_over_to_the_tail_scan(self):
        # 6 and 10 follow adds and are familiar; the scan from 7 finds 9
        cfg, mats, targets = block_stream((5, 9), 20)
        stats = assert_same_bits_as_frozen_loop(cfg, mats, targets)
        novel = ~(stats.errors < cfg.novelty_threshold)
        assert list(np.flatnonzero(novel)) == [0, 5, 9]
        assert stats.errors[[6, 10]].max() < cfg.novelty_threshold

    def test_faulted_add_out_of_capacity_mid_chunk(self):
        # every sample is novel; the plan's rows run out at sample C + 5, right after an add
        n, cap = 2 * C, C + 5
        cfg, mats, targets = block_stream(range(1, n), n)
        faults = faults_for(cfg, cap)
        fast, frozen = NetworkState(cfg, faults=faults), NetworkState(cfg, faults=faults)
        with pytest.raises(CapacityExceeded, match=rf"^sample {cap}: .*all are in use$"):
            train_matrix(fast, mats, targets)
        chunked_train(frozen, [X[:cap] for X in mats], targets[:cap])
        assert fast.n_minterms == cap and states_equal(fast, frozen)


def lane_updates(monkeypatch, count, cut=None):
    """Run at score_lanes() = count, at in_lane's cut if given; returns the list that
    collects the arguments of each w_out update handed to the lanes' pool from here on."""
    monkeypatch.setattr(fuzzy, "score_lanes", lambda: count)
    if cut is not None:
        monkeypatch.setattr(fuzzy, "LANE_WORK_MIN", cut)
    handed, real = [], fuzzy._pool

    class Counted:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            if fn is network._hebbian:
                handed.append(args)
            return self.pool.submit(fn, *args)
    monkeypatch.setattr(fuzzy, "_pool", lambda lanes: Counted(real(lanes)))
    return handed


def noisy_g2_stream():
    cfg = experiments.paper_modeling_config("g2", n_train=2000, noise_variance=0.01)
    pts, targets = experiments._training_data(cfg)
    return cfg.net, NetworkState(cfg.net).fuzzify(pts), targets


def lane_cases():
    """(name, cfg, mats, targets, faults, prefix): streams whose every update is below
    the default cut, and the noisy g2 stream, most of whose updates reach it."""
    n = 3 * C + 1
    cfg, mats, targets = block_stream(range(1, n), n)
    yield "all-novel", cfg, mats, targets, None, None
    yield "all-novel-faulted", cfg, mats, targets, faults_for(cfg, n), None
    prefixed = config(threshold=0.1)
    yield ("prefix", prefixed, *random_stream(prefixed, 11, 3 * C + 7), None,
           random_stream(prefixed, 12, C))
    cfg, mats, targets = block_stream((5, 6, 7, 8), 20)
    yield "stuck-out-cells-mid-chunk", cfg, mats, targets, mid_chunk_faults(cfg), None
    yield "noisy-g2-2000", *noisy_g2_stream(), None, None


LANE_CASES = {case[0]: case[1:] for case in lane_cases()}


class TestTheUpdateInALane:
    @pytest.mark.parametrize("cut", [None, 0], ids=["default-cut", "every-update"])
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("case", LANE_CASES)
    def test_same_bits_as_the_frozen_loop(self, monkeypatch, case, count, cut):
        cfg, mats, targets, faults, prefix = LANE_CASES[case]
        handed = lane_updates(monkeypatch, count, cut)
        assert_same_bits_as_frozen_loop(cfg, mats, targets, faults, prefix)
        if count == 1:
            assert handed == []
        elif cut == 0 or case == "noisy-g2-2000":
            assert len(handed) >= 1
        else:
            assert handed == []     # every update of these streams is below the default cut

    @pytest.mark.parametrize("held", [False, True], ids=["free-lane", "held-lane"])
    def test_capacity_exceeded_mid_chunk_leaves_the_frozen_loops_state(self, monkeypatch,
                                                                       held):
        # chunk 0's update goes to a lane and is joined before chunk 1's outputs; chunk 1
        # raises at sample C + 5, after its update went to a lane, which the raise joins
        # (with the lane held, only that join runs it)
        n, cap = 2 * C, C + 5
        cfg, mats, targets = block_stream(range(1, n), n)
        faults = faults_for(cfg, cap)
        fast, frozen = NetworkState(cfg, faults=faults), NetworkState(cfg, faults=faults)
        chunked_train(frozen, [X[:cap] for X in mats], targets[:cap])
        handed = lane_updates(monkeypatch, 2, cut=0)
        fuzzy.in_lane(1, lambda: None)()               # makes the pool, if no test has
        release = threading.Event()
        if held:
            fuzzy._POOLS[2].submit(release.wait, 10.0)
        try:
            with pytest.raises(CapacityExceeded, match=rf"^sample {cap}: .*all are in use$"):
                train_matrix(fast, mats, targets)
            assert fast.n_minterms == cap and states_equal(fast, frozen)
        finally:
            release.set()
        assert len(handed) == 2

    def test_a_queued_update_runs_in_the_caller(self, monkeypatch):
        # the pool's one thread is held, so every update is still queued at its join
        cfg, mats, targets, _, _ = LANE_CASES["all-novel"]
        want = NetworkState(cfg)
        train_matrix(want, mats, targets)
        handed = lane_updates(monkeypatch, 2, cut=0)
        train_matrix(NetworkState(cfg), mats, targets)     # makes the pool, if no test has
        threads, real = [], network._hebbian
        monkeypatch.setattr(network, "_hebbian", lambda *a: threads.append(
            threading.get_ident()) or real(*a))
        release = threading.Event()
        held = fuzzy._POOLS[2].submit(release.wait, 10.0)
        handed.clear()
        try:
            got = NetworkState(cfg)
            train_matrix(got, mats, targets)
            assert not held.done()
        finally:
            release.set()
        assert held.result()
        # one update a chunk, each handed to the lane and run here
        assert len(handed) == 4 and threads == [threading.get_ident()] * 4
        assert states_equal(got, want)

    def test_threads_training_at_once(self, monkeypatch):
        # four callers share the one pool thread; each state is its serial result
        cfg = config(threshold=0.1)
        streams = [random_stream(cfg, s, 3 * C + 7) for s in range(4)]
        want = [NetworkState(cfg) for _ in streams]
        for state, stream in zip(want, streams):
            train_matrix(state, *stream)
        handed = lane_updates(monkeypatch, 2, cut=0)
        got = [NetworkState(cfg) for _ in streams]
        start, errors = threading.Barrier(4), []

        def train(k):
            try:
                start.wait(10.0)
                train_matrix(got[k], *streams[k])
            except BaseException as e:
                errors.append(e)
        threads = [threading.Thread(target=train, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(handed) >= 4
        assert all(states_equal(a, b) for a, b in zip(got, want))


def test_one_row_store_per_chunk_with_adds(monkeypatch):
    calls = []
    real = NetworkState._store_rows
    monkeypatch.setattr(NetworkState, "_store_rows",
                        lambda self, xs, units=None: calls.append(len(xs[0])) or
                        real(self, xs, units))
    # adds in chunks 0 and 2, none in chunk 1
    cfg, mats, targets = block_stream((5, 6, 7, 2 * C + 3), 3 * C)
    stats = train_matrix(NetworkState(cfg), mats, targets)
    assert stats.add_indices == list(range(5))
    assert calls == [4, 1]


def test_one_stored_row_gemm_per_chunk(monkeypatch):
    n = 3 * C + 1
    cfg, mats, targets = block_stream(range(1, n), n)
    calls = []
    real = network._hidden
    monkeypatch.setattr(network, "_hidden",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    stats = train_matrix(NetworkState(cfg), mats, targets)
    assert stats.n_minterms_added == n
    assert len(calls) == 4


@pytest.mark.parametrize("capacity, threshold, n, seed", [
    # the first three samples fill the plan's rows
    (3, 0.01, 10, 0),
    # skips before the failure, which comes in the stream's second chunk
    (12, 0.1, 150, 3),
])
def test_capacity_exceeded_leaves_the_samples_before_it_trained(capacity, threshold, n, seed):
    cfg = config(threshold=threshold)
    mats, targets = random_stream(cfg, seed, n)

    def fresh():
        return NetworkState(cfg, faults=draw_faults(
            3, [N_IN, N_IN], N_OUT, capacity=capacity, fraction=0.0, out_scale=cfg.alpha))

    state = fresh()
    with pytest.raises(CapacityExceeded, match=r"sample \d+: .*all are in use") as info:
        train_matrix(state, mats, targets)
    k = int(re.match(r"sample (\d+)", str(info.value)).group(1))
    assert state.n_minterms == capacity
    expected = fresh()
    train_matrix(expected, [X[:k] for X in mats], targets[:k])
    assert states_equal(state, expected)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stream_shorter_than_a_chunk(n):
    cfg = config(threshold=0.1)
    prefix = random_stream(cfg, 7, 40)
    mats, targets = random_stream(cfg, 8, n)
    assert_matches_oracle(cfg, mats, targets, prefix=prefix)


def test_empty_stream():
    cfg = config()
    state = NetworkState(cfg)
    train_matrix(state, *random_stream(cfg, 1, 10))
    before = state.copy()
    stats = train_matrix(state, [np.empty((0, N_IN))] * 2, np.empty(0))
    assert (stats.n_samples, stats.n_minterms_added, stats.add_indices) == (0, 0, [])
    assert states_equal(before, state)


class TestAtomicValidation:
    def _trained(self):
        cfg = config()
        state = NetworkState(cfg)
        train_matrix(state, *random_stream(cfg, 2, 20))
        return cfg, state, state.copy()

    @pytest.mark.parametrize("k", [0, 6, 11])
    def test_zero_input_row(self, k):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[1][k] = 0.0
        with pytest.raises(ZeroVector, match=rf"sample {k}\b"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    def test_earliest_invalid_sample_is_reported(self):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[0][9] = 0.0
        targets[4] = 1.5
        with pytest.raises(TargetOutOfRange, match=r"sample 4\b"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    @pytest.mark.parametrize("value", [-0.5, np.inf, np.nan])
    def test_bad_input_membership(self, value):
        # serialize would write it and deserialize reject it as malformed
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[1][7, 2] = value
        with pytest.raises(OperandOutOfRange, match=r"sample 7\b"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    def test_earliest_bad_operand_is_reported(self):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[0][2, 1] = -1.0
        mats[1][1] = 0.0
        targets[0] = 1.5
        mats[0][9, 0] = np.inf
        with pytest.raises(TargetOutOfRange, match=r"sample 0\b"):
            train_matrix(state, mats, targets)
        targets[0] = 0.5
        with pytest.raises(ZeroVector, match=r"sample 1\b"):
            train_matrix(state, mats, targets)
        mats[1][1] = 0.5
        with pytest.raises(OperandOutOfRange, match=r"sample 2\b"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    def test_negative_zero_row_is_a_zero_vector(self):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[0][5] = -0.0
        with pytest.raises(ZeroVector, match=r"^sample 5: all-zero input membership vector$"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    def test_smallest_subnormal_row_trains(self):
        cfg, state, _ = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[1][5] = 0.0
        mats[1][5, 3] = 5e-324
        stats = train_matrix(state, mats, targets)
        assert stats.n_samples == 12 and np.isfinite(state.w_out).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300, -5e-324])
    @pytest.mark.parametrize("group", [0, 1])
    def test_out_of_range_names_the_first_bad_sample(self, value, group):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[group][4, 1] = value
        mats[1 - group][9, 0] = value
        with pytest.raises(OperandOutOfRange, match=r"^sample 4: a membership value is "
                                                    r"negative or not finite$"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_out_of_range_before_a_zero_row_is_reported_first(self, value):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        mats[0][3] = 0.0          # a zero row in one group, out of range in the other
        mats[1][3, 2] = value
        mats[1][6] = 0.0
        with pytest.raises(OperandOutOfRange, match=r"^sample 3: "):
            train_matrix(state, mats, targets)
        mats[1][3, 2] = 0.5
        with pytest.raises(ZeroVector, match=r"^sample 3: "):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    def test_target_message(self):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        targets[2] = -0.5
        with pytest.raises(TargetOutOfRange, match=r"^sample 2: target -0\.5 outside output "
                                                   r"universe \[0\.0, 1\.0\]$"):
            train_matrix(state, mats, targets)
        assert states_equal(before, state)

    def test_degenerate_crisp_target(self):
        # on a 5-point output universe a 0.05 half support leaves 0.6 between
        # grid points; sample 1 is novel, so a late check would have added it
        state = NetworkState(dataclasses.replace(config(), output_half_support=0.05))
        before = state.copy()
        mats = [np.eye(N_IN)[[0, 5]]] * 2
        with pytest.raises(DegenerateFuzzification, match=r"sample 1\b"):
            train_matrix(state, mats, np.array([0.5, 0.6]))
        assert state.n_minterms == 0 and states_equal(before, state)

    def test_shape_mismatch(self):
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 3, 12)
        with pytest.raises(UniverseMismatch):
            train_matrix(state, [mats[0], mats[1][:, :4]], targets)
        with pytest.raises(UniverseMismatch):
            train_matrix(state, mats, np.ones((12, N_OUT + 1)))
        # targets are crisp, (B,): neither a (B, nz) membership matrix nor a scalar
        with pytest.raises(UniverseMismatch, match="crisp targets"):
            train_matrix(state, mats, fuzzy.triangular_matrix(cfg.output_universe, targets, 0.3))
        with pytest.raises(UniverseMismatch, match="crisp targets"):
            train_matrix(state, [X[:1] for X in mats], 0.5)
        assert states_equal(before, state)

    @pytest.mark.parametrize("k", [3, 8])
    def test_dataset_stream_untouched_by_late_bad_sample(self, k):
        # the per-sample trainer applied samples 0..k-1 before it failed on k
        cfg, state, before = self._trained()
        mats, targets = random_stream(cfg, 4, 10)
        samples = [([MembershipVector(g.universe, mats[i][s])
                     for i, g in enumerate(cfg.groups)], float(targets[s]))
                   for s in range(10)]
        samples[k] = (samples[k][0], 7.0)
        with pytest.raises(TargetOutOfRange, match=rf"sample {k}\b"):
            train_dataset(state, samples)
        assert states_equal(before, state)



@pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
def test_train_one_outcome_matches_oracle(faulted):
    cfg = config(threshold=0.1)
    mats, targets = random_stream(cfg, 5, 60)
    state = NetworkState(cfg, faults=faults_for(cfg, 60) if faulted else None)
    oracle = NetworkState(cfg, faults=faults_for(cfg, 60) if faulted else None)
    kinds = set()
    for k in range(60):
        inputs = [MembershipVector(g.universe, mats[i][k]) for i, g in enumerate(cfg.groups)]
        pre_hidden = forward_batch(state, [X[k:k + 1] for X in mats])[0][0] \
            if state.n_minterms else np.empty(0)
        stats = train_one(state, inputs, target_crisp=float(targets[k]))
        # the activations after the sample's own update
        hidden = forward_batch(state, [X[k:k + 1] for X in mats])[0][0]
        added, errors = oracle_train(oracle, [X[k:k + 1] for X in mats], targets[k:k + 1])
        kinds.add(bool(added))
        assert stats.errors[0] == pytest.approx(errors[0], rel=1e-12, abs=1e-15)
        if added:
            assert stats.add_indices == [state.n_minterms - 1]
            if not faulted:
                assert hidden[stats.add_indices[0]] == 1.0
        else:
            assert stats.add_indices == []
            assert np.array_equal(hidden, pre_hidden)
        assert hidden.shape == (state.n_minterms,)
    assert kinds == {True, False}
