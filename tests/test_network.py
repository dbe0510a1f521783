import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurofuzzy import fuzzy, network
from neurofuzzy.crossbar import draw_faults
from neurofuzzy.errors import (
    CapacityExceeded,
    MalformedPayload,
    TargetOutOfRange,
    UniverseMismatch,
    UntrainedNetwork,
    VersionMismatch,
)
from neurofuzzy.fuzzy import MembershipVector, universe_from_count
from neurofuzzy.network import (
    InputGroup,
    NetworkConfig,
    NetworkState,
    classify_batch,
    deserialize,
    infer_crisp_batch,
    serialize,
    train_dataset,
    train_one,
)
from oracles import forward_batch, states_equal


def mv(u, values):
    return MembershipVector(u, np.asarray(values, dtype=float))


def small_config(nx=4, ny=4, nz=5, p=7, alpha=5e-4, threshold=0.2, out_hs=0.0):
    ux = universe_from_count(0.0, 1.0, nx)
    uy = universe_from_count(0.0, 1.0, ny)
    uz = universe_from_count(0.0, 1.0, nz)
    return NetworkConfig(
        groups=(InputGroup("x", ux, 0.3), InputGroup("y", uy, 0.3)),
        output_universe=uz, p=p, alpha=alpha, novelty_threshold=threshold,
        output_half_support=out_hs,
    )


def fuzz_sample(cfg, x, y):
    return [mv(g.universe, fuzzy.triangular_matrix(g.universe, [c], g.half_support)[0])
            for g, c in zip(cfg.groups, (x, y))]


def one_row(inputs):
    """One sample's membership vectors as the 1-row batches the network scores."""
    return [m.values[None, :] for m in inputs]


# --- the independent oracle: straight-line loops, no shared code -------------


def oracle_forward(state, inputs):
    """Nested-loop reimplementation of the forward pass for small instances."""
    n_groups = len(state.config.groups)
    hidden = []
    for i in range(state.n_minterms):
        total = 0.0
        for g in range(n_groups):
            row = state.w_in(g)[i]
            x = inputs[g].values
            dot = sum(float(a) * float(b) for a, b in zip(row, x))
            nr = math.sqrt(sum(float(a) ** 2 for a in row))
            nx = math.sqrt(sum(float(b) ** 2 for b in x))
            total += (dot / (nr * nx)) if nr > 0 and nx > 0 else 0.0
        hidden.append((total / n_groups) ** state.config.p)
    out = []
    for i in range(state.config.output_universe.count):
        out.append(sum(float(state.w_out[i, j]) * hidden[j]
                       for j in range(state.n_minterms)))
    return np.array(hidden), np.array(out)


class TestForward:
    """One sample scored as a 1-row batch."""

    def test_exact_match_minterm(self):
        cfg = small_config()
        state = NetworkState(cfg)
        inputs = fuzz_sample(cfg, 0.4, 0.7)
        train_one(state, inputs, target_crisp=0.5)
        hidden, out = forward_batch(state, one_row(inputs))
        assert hidden.tolist() == [[1.0]]
        assert np.array_equal(out[0], state.w_out[:, 0])

    def test_orthogonal_inputs_give_zero(self):
        cfg = small_config(nx=6, ny=6)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        train_one(state, [mv(ux, [1, 1, 0, 0, 0, 0]), mv(uy, [1, 1, 0, 0, 0, 0])],
                  target_crisp=0.5)
        hidden, out = forward_batch(state, one_row([mv(ux, [0, 0, 0, 0, 1, 1]),
                                                    mv(uy, [0, 0, 0, 0, 1, 1])]))
        assert hidden.tolist() == [[0.0]]
        assert out.tolist() == [[0.0] * cfg.output_universe.count]

    def test_partial_similarity_power(self):
        # one group matches exactly (cos 1), the other at cos 0.5
        cfg = small_config(nx=4, ny=4, p=7)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        stored = [mv(ux, [1, 0, 0, 0]), mv(uy, [1, 0, 0, 0])]
        train_one(state, stored, target_crisp=0.5)
        probe = [mv(ux, [1, 0, 0, 0]), mv(uy, [0.5, math.sqrt(3) / 2, 0, 0])]
        hidden, _ = forward_batch(state, one_row(probe))
        assert hidden[0, 0] == pytest.approx(0.75 ** 7, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 3.8e-295])
    def test_tiny_scaled_copy_of_stored_row(self, scale):
        # an input proportional to the stored min-term matches it fully, even
        # when squaring its entries would underflow to zero
        cfg = small_config(nx=4, ny=4)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        row = np.array([0, 0, 0.5, 1])
        train_one(state, [mv(ux, row), mv(uy, row)], target_crisp=0.5)
        hidden, out = forward_batch(state, [row[None, :] * scale] * 2)
        assert hidden.tolist() == [[1.0]]
        assert np.array_equal(out[0], state.w_out[:, 0])

    def test_subnormal_stored_row(self):
        # the stored row's dot product with an input must not underflow
        u4 = universe_from_count(0.0, 1.0, 4)
        cfg = NetworkConfig(groups=(InputGroup("x", u4, 0.3),),
                            output_universe=universe_from_count(0.0, 1.0, 3), p=7)
        state = NetworkState(cfg)
        stored, probe = mv(u4, [0, 0, 0, 5e-324]), mv(u4, [0, 0, 0.5, 1])
        train_one(state, [stored], target_crisp=0.5)
        hidden, _ = forward_batch(state, one_row([probe]))
        units = [fuzzy.unit_rows(m.values[None, :]) for m in (stored, probe)]
        sim = fuzzy.power_activation(units[0] @ units[1].T, 1, 1)[0, 0]
        assert sim == pytest.approx(2 / math.sqrt(5), rel=1e-12)
        assert hidden[0, 0] == pytest.approx(sim ** 7, rel=1e-12)

    def test_untrained_raises(self):
        cfg = small_config()
        state = NetworkState(cfg)
        with pytest.raises(UntrainedNetwork):
            forward_batch(state, one_row(fuzz_sample(cfg, 0.5, 0.5)))

    def test_universe_mismatch(self):
        # the single-sample entry points check each membership vector's universe
        cfg = small_config()
        state = NetworkState(cfg)
        train_one(state, fuzz_sample(cfg, 0.5, 0.5), target_crisp=0.5)
        other = universe_from_count(0, 1, 11)
        with pytest.raises(UniverseMismatch):
            train_one(state, [mv(other, np.ones(11)), mv(other, np.ones(11))],
                      target_crisp=0.5)
        assert state.n_minterms == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_forward_matches_oracle(self, seed):
        # small random instances: N_v <= 4, universes <= 5 points
        rng = np.random.default_rng(seed)
        nx, ny, nz = rng.integers(2, 6, size=3)
        cfg = small_config(nx=int(nx), ny=int(ny), nz=int(nz),
                           p=int(rng.integers(1, 9)), threshold=1e-9)
        state = NetworkState(cfg)
        for _ in range(int(rng.integers(1, 5))):
            inputs = [mv(cfg.groups[0].universe, _nonzero(rng, nx)),
                      mv(cfg.groups[1].universe, _nonzero(rng, ny))]
            train_one(state, inputs, target_crisp=float(rng.uniform(0, 1)))
        probe = [mv(cfg.groups[0].universe, _nonzero(rng, nx)),
                 mv(cfg.groups[1].universe, _nonzero(rng, ny))]
        hidden, out = forward_batch(state, one_row(probe))
        o_hidden, o_out = oracle_forward(state, probe)
        np.testing.assert_allclose(hidden[0], o_hidden, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(out[0], o_out, rtol=1e-12, atol=1e-300)


def _nonzero(rng, n):
    v = rng.uniform(0, 1, int(n))
    if not v.any():
        v[0] = 1.0
    return v


def _unit(rows):
    # plain-numpy unit rows for rows of normal-range entries
    norms = np.sqrt((rows * rows).sum(axis=1))[:, None]
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)


class TestChunkedScoring:
    """Batches are scored fuzzy.SCORE_ROWS rows at a time."""

    def _trained(self, seed=0):
        cfg = small_config(nx=7, ny=5, nz=6, threshold=0.05)
        state = NetworkState(cfg)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            train_one(state, fuzz_sample(cfg, *rng.uniform(0, 1, 2)),
                      target_crisp=float(rng.uniform(0, 1)))
        return cfg, state

    def _mats(self, cfg, pts):
        return [fuzzy.triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(cfg.groups)]

    def test_chunk_plus_one_rows_match_single_row_calls(self):
        cfg, state = self._trained()
        n = fuzzy.SCORE_ROWS + 1
        mats = self._mats(cfg, np.random.default_rng(1).uniform(0, 1, (n, 2)))
        hidden, out = forward_batch(state, mats)
        rows = [forward_batch(state, [X[k:k + 1] for X in mats]) for k in range(n)]
        np.testing.assert_allclose(hidden, np.vstack([h for h, _ in rows]), rtol=1e-13, atol=0)
        np.testing.assert_allclose(out, np.vstack([o for _, o in rows]), rtol=1e-13, atol=0)
        assert np.array_equal(network.output_batch(state, mats), out)

    def test_stored_row_fires_at_one_on_both_sides_of_a_chunk_boundary(self):
        cfg, state = self._trained(seed=2)
        n = fuzzy.SCORE_ROWS + 2
        mats = self._mats(cfg, np.random.default_rng(3).uniform(0, 1, (n, 2)))
        k = state.n_minterms // 2
        for row in (fuzzy.SCORE_ROWS - 1, fuzzy.SCORE_ROWS):
            for g, X in enumerate(mats):
                X[row] = state.w_in(g)[k]
        hidden, _ = forward_batch(state, mats)
        assert hidden[fuzzy.SCORE_ROWS - 1, k] == 1.0
        assert hidden[fuzzy.SCORE_ROWS, k] == 1.0

    def test_empty_batch(self):
        cfg, state = self._trained()
        hidden, out = forward_batch(state, [np.zeros((0, 7)), np.zeros((0, 5))])
        assert hidden.shape == (0, state.n_minterms) and out.shape == (0, 6)


class TestUnitRows:
    def test_trained_rows_equal_rows_normalized_on_load(self):
        cfg = small_config(nx=6, ny=6, threshold=0.05)
        state = NetworkState(cfg)
        rng = np.random.default_rng(4)
        for _ in range(20):
            train_one(state, fuzz_sample(cfg, *rng.uniform(0, 1, 2)),
                      target_crisp=float(rng.uniform(0, 1)))
        # the trainer stores its own unit row; loading normalizes the stored rows
        assert np.array_equal(state.unit_rows(),
                              deserialize(serialize(state)).unit_rows())
        want = np.hstack([_unit(state.w_in(g)) for g in range(2)])
        np.testing.assert_allclose(state.unit_rows(), want, rtol=1e-15, atol=0)

    def test_faulted_rows_normalized_as_stored(self):
        faults = draw_faults(3, [4, 4], 5, capacity=6, fraction=0.5, out_scale=1e-3)
        cfg = small_config(threshold=1e-12)
        state = NetworkState(cfg, faults=faults)
        rng = np.random.default_rng(1)
        inputs = []
        for _ in range(6):
            inputs.append([_nonzero(rng, 4), _nonzero(rng, 4)])
            train_one(state, [mv(g.universe, x) for g, x in zip(cfg.groups, inputs[-1])],
                      target_crisp=float(rng.uniform(0, 1)))
        stored = np.hstack([_unit(state.w_in(g)) for g in range(2)])
        fed = np.hstack([_unit(np.array([x[g] for x in inputs])) for g in range(2)])
        np.testing.assert_allclose(state.unit_rows(), stored, rtol=1e-15, atol=0)
        assert not np.allclose(state.unit_rows(), fed)     # stuck cells changed the rows


class TestInferCrisp:
    def test_scale_free_singleton_column(self):
        cfg = small_config(nz=3, out_hs=0.0)
        state = NetworkState(cfg)
        inputs = fuzz_sample(cfg, 0.3, 0.3)
        train_one(state, inputs, target_crisp=0.5)   # singleton at grid 0.5
        assert infer_crisp_batch(state, one_row(inputs))[0][0] == pytest.approx(0.5)
        # scaling all output weights cannot move the centroid
        state._w_out *= 123.0
        assert infer_crisp_batch(state, one_row(inputs))[0][0] == pytest.approx(0.5, rel=1e-12)

    def test_two_equal_minterms_average(self):
        cfg = small_config(nx=6, ny=6, nz=3, threshold=1e-6)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        a = [mv(ux, [1, 0, 0, 0, 0, 0]), mv(uy, [1, 0, 0, 0, 0, 0])]
        b = [mv(ux, [0, 0, 0, 0, 0, 1]), mv(uy, [0, 0, 0, 0, 0, 1])]
        train_one(state, a, target_crisp=0.0)
        train_one(state, b, target_crisp=1.0)
        probe = [mv(ux, [1, 0, 0, 0, 0, 1]), mv(uy, [1, 0, 0, 0, 0, 1])]
        assert infer_crisp_batch(state, one_row(probe))[0][0] == pytest.approx(0.5, rel=1e-9)

    def test_weighted_centroid(self):
        # activations 0.1335 and 0.0001 against singleton columns at 0.2 / 0.8
        cfg = small_config(nz=6)
        state = NetworkState(cfg)
        uz = cfg.output_universe
        state.n_minterms = 2
        state._w_out[:, 0] = fuzzy.triangular_matrix(uz, np.array([0.2]), 0.0)[0]
        state._w_out[:, 1] = fuzzy.triangular_matrix(uz, np.array([0.8]), 0.0)[0]
        v = np.array([0.1335, 0.0001])
        out = state.w_out @ v
        total = out.sum()
        pred = float(out @ uz.grid()) / total
        assert pred == pytest.approx((0.1335 * 0.2 + 0.0001 * 0.8) / 0.1336, rel=1e-9)

    def test_nothing_fires_is_unactivated(self):
        cfg = small_config(nx=6, ny=6)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        train_one(state, [mv(ux, [1, 0, 0, 0, 0, 0]), mv(uy, [1, 0, 0, 0, 0, 0])],
                  target_crisp=0.5)
        pred, activated = infer_crisp_batch(
            state, one_row([mv(ux, [0, 0, 0, 0, 0, 1]), mv(uy, [0, 0, 0, 0, 0, 1])]))
        assert activated.tolist() == [False] and np.isnan(pred[0])


class TestTrainOne:
    def test_first_sample_always_added(self):
        cfg = small_config()
        state = NetworkState(cfg)
        inputs = fuzz_sample(cfg, 0.4, 0.6)
        stats = train_one(state, inputs, target_crisp=0.5)
        assert stats.add_indices == [0]
        assert stats.errors[0] == np.inf
        # rows are exact copies of the fuzzified inputs
        assert np.array_equal(state.w_in(0)[0], inputs[0].values)
        assert np.array_equal(state.w_in(1)[0], inputs[1].values)
        # new neuron fires at exactly 1, so its column is alpha * t(1, u)
        u = fuzzy.triangular_matrix(cfg.output_universe, np.array([0.5]),
                                    cfg.output_half_support)[0]
        np.testing.assert_allclose(state.w_out[:, 0], cfg.alpha * u, rtol=0, atol=0)

    def test_immediate_retrain_skipped_bit_identical(self):
        cfg = small_config(nz=5, threshold=0.2)
        state = NetworkState(cfg)
        inputs = fuzz_sample(cfg, 0.5, 0.5)
        train_one(state, inputs, target_crisp=0.5)   # exactly representable
        before = state.copy()
        stats = train_one(state, inputs, target_crisp=0.5)
        assert stats.add_indices == []
        assert stats.errors[0] < cfg.novelty_threshold
        assert states_equal(before, state)

    def test_zero_alpha_leaves_output_zero(self):
        cfg = small_config(alpha=0.0)
        state = NetworkState(cfg)
        stats = train_one(state, fuzz_sample(cfg, 0.2, 0.9), target_crisp=0.25)
        assert stats.add_indices == [0]
        assert not state.w_out.any()

    def test_target_out_of_range(self):
        cfg = small_config()
        state = NetworkState(cfg)
        with pytest.raises(TargetOutOfRange):
            train_one(state, fuzz_sample(cfg, 0.5, 0.5), target_crisp=2.0)

    def test_hebbian_updates_all_columns(self):
        cfg = small_config(nx=8, ny=8, nz=5, threshold=1e-9, out_hs=0.4)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        a = [mv(ux, np.eye(8)[0]), mv(uy, np.eye(8)[0])]
        b = [mv(ux, np.eye(8)[0] * 0.9 + np.eye(8)[1] * 0.1),
             mv(uy, np.eye(8)[0] * 0.9 + np.eye(8)[1] * 0.1)]
        train_one(state, a, target_crisp=0.25)
        col0_before = state.w_out[:, 0].copy()
        stats = train_one(state, b, target_crisp=0.75)
        assert stats.add_indices == [1]
        # the older column received mass too: full-matrix update
        assert (state.w_out[:, 0] - col0_before).max() > 0.0

    def test_new_neuron_dominates(self):
        cfg = small_config(nx=10, ny=10, threshold=1e-12)
        state = NetworkState(cfg)
        rng = np.random.default_rng(4)
        last = None
        for _ in range(6):
            inputs = [mv(cfg.groups[0].universe, _nonzero(rng, 10)),
                      mv(cfg.groups[1].universe, _nonzero(rng, 10))]
            stats = train_one(state, inputs, target_crisp=float(rng.uniform(0, 1)))
            if stats.add_indices:
                last = stats
                # the activations after the sample's own update
                hidden = forward_batch(state, one_row(inputs))[0][0]
                assert hidden[stats.add_indices[0]] == 1.0
                assert hidden[stats.add_indices[0]] >= hidden.max()
        assert last is not None


class TestTrainDataset:
    def test_duplicates_collapse_to_one(self):
        cfg = small_config(threshold=0.2)
        state = NetworkState(cfg)
        s = (fuzz_sample(cfg, 0.5, 0.5), 0.5)
        stats = train_dataset(state, [s, s, s])
        assert stats.n_samples == 3
        assert stats.n_minterms_added == 1
        assert state.n_minterms == 1

    def test_empty(self):
        cfg = small_config()
        state = NetworkState(cfg)
        stats = train_dataset(state, [])
        assert (stats.n_samples, stats.n_minterms_added, stats.add_indices) == (0, 0, [])

    def test_order_determinism(self):
        cfg = small_config(nx=10, ny=10, threshold=0.05)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, size=(40, 2))
        targets = rng.uniform(0, 1, size=40)

        def run():
            state = NetworkState(cfg)
            samples = [(fuzz_sample(cfg, x, y), t) for (x, y), t in zip(pts, targets)]
            train_dataset(state, samples)
            return state

        assert states_equal(run(), run())

    def test_error_carries_sample_index(self):
        cfg = small_config()
        state = NetworkState(cfg)
        samples = [(fuzz_sample(cfg, 0.5, 0.5), 0.5),
                   (fuzz_sample(cfg, 0.5, 0.5), 7.0)]
        with pytest.raises(TargetOutOfRange, match="sample 1"):
            train_dataset(state, samples)

    def test_paper_count_band_for_g1(self):
        # 225 uniform samples with the table settings land near 77 min-terms
        from neurofuzzy import experiments
        cfg = experiments.paper_modeling_config("g1")
        state = experiments.rebuild_trained_state(cfg)
        assert 77 * 0.7 <= state.n_minterms <= 77 * 1.3


class TestClassify:
    def _two_blob_state(self):
        cfg = small_config(nx=10, ny=10, nz=2, threshold=0.45)
        state = NetworkState(cfg)
        rng = np.random.default_rng(11)
        pts, labels = [], []
        for _ in range(30):
            c = rng.integers(0, 2)
            x = np.clip(rng.normal(0.25 + 0.5 * c, 0.05), 0, 1)
            y = np.clip(rng.normal(0.25 + 0.5 * c, 0.05), 0, 1)
            pts.append((x, y))
            labels.append(int(c))
        samples = [(fuzz_sample(cfg, x, y), float(c)) for (x, y), c in zip(pts, labels)]
        train_dataset(state, samples)
        return cfg, state, pts, labels

    def test_argmax_and_tie_break(self):
        cfg = small_config(nz=2)
        state = NetworkState(cfg)
        inputs = fuzz_sample(cfg, 0.5, 0.5)
        state._store_rows([mv.values[None] for mv in inputs])
        state._w_out[:, 0] = [0.9, 0.1]
        assert classify_batch(state, one_row(inputs)).tolist() == [0]
        state._w_out[:, 0] = [0.5, 0.5]
        # documented tie-break: lower index
        assert classify_batch(state, one_row(inputs)).tolist() == [0]
        state._w_out[:, 0] = [0.1, 0.9]
        assert classify_batch(state, one_row(inputs)).tolist() == [1]

    def test_unclassifiable(self):
        cfg = small_config(nx=6, ny=6, nz=2)
        state = NetworkState(cfg)
        ux, uy = cfg.groups[0].universe, cfg.groups[1].universe
        train_one(state, [mv(ux, [1, 0, 0, 0, 0, 0]), mv(uy, [1, 0, 0, 0, 0, 0])],
                  target_crisp=0.0)
        probe = [mv(ux, [0, 0, 0, 0, 0, 1]), mv(uy, [0, 0, 0, 0, 0, 1])]
        assert classify_batch(state, one_row(probe)).tolist() == [-1]

    def test_matches_nearest_centroid_oracle(self):
        cfg, state, pts, labels = self._two_blob_state()
        rng = np.random.default_rng(12)
        agree = 0
        for _ in range(40):
            c = rng.integers(0, 2)
            x = float(np.clip(rng.normal(0.25 + 0.5 * c, 0.05), 0, 1))
            y = float(np.clip(rng.normal(0.25 + 0.5 * c, 0.05), 0, 1))
            got = classify_batch(state, one_row(fuzz_sample(cfg, x, y)))[0]
            # oracle: nearest blob centre
            want = 0 if (x - 0.25) ** 2 + (y - 0.25) ** 2 <= (x - 0.75) ** 2 + (y - 0.75) ** 2 else 1
            agree += got == want
        assert agree >= 38   # the fuzzy classifier tracks the metric oracle


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negativity_and_growth_bound(self, seed):
        cfg = small_config(nx=5, ny=5, nz=4, threshold=0.15)
        state = NetworkState(cfg)
        rng = np.random.default_rng(seed)
        n = 50
        for _ in range(n):
            inputs = [mv(cfg.groups[0].universe, _nonzero(rng, 5)),
                      mv(cfg.groups[1].universe, _nonzero(rng, 5))]
            train_one(state, inputs, target_crisp=float(rng.uniform(0, 1)))
        assert state.n_minterms <= n
        assert (state.w_out >= 0).all()
        for g in range(2):
            assert (state.w_in(g) >= 0).all()
            assert (state.w_in(g) <= 1).all()


class TestFaults:
    def test_capacity_enforced(self):
        faults = draw_faults(0, [4, 4], 5, capacity=2, fraction=0.2, out_scale=1e-3)
        cfg = small_config(threshold=1e-12)
        state = NetworkState(cfg, faults=faults)
        rng = np.random.default_rng(0)
        for k in range(2):
            train_one(state, [mv(cfg.groups[0].universe, _nonzero(rng, 4)),
                              mv(cfg.groups[1].universe, _nonzero(rng, 4))],
                      target_crisp=0.5)
        with pytest.raises(CapacityExceeded):
            train_one(state, [mv(cfg.groups[0].universe, np.ones(4)),
                              mv(cfg.groups[1].universe, np.ones(4))], target_crisp=0.9)

    def test_masked_cells_never_written(self):
        faults = draw_faults(3, [4, 4], 5, capacity=4, fraction=0.5, out_scale=1e-3)
        cfg = small_config(threshold=1e-12)
        state = NetworkState(cfg, faults=faults)
        rng = np.random.default_rng(1)
        for _ in range(4):
            train_one(state, [mv(cfg.groups[0].universe, _nonzero(rng, 4)),
                              mv(cfg.groups[1].universe, _nonzero(rng, 4))],
                      target_crisp=float(rng.uniform(0, 1)))
        for g in range(2):
            mask = faults.in_masks[g][: state.n_minterms]
            assert np.array_equal(state.w_in(g)[mask],
                                  faults.in_stuck[g][: state.n_minterms][mask])
        mask = faults.out_mask[:, : state.n_minterms]
        assert np.array_equal(state.w_out[mask],
                              faults.out_stuck[:, : state.n_minterms][mask])

    def test_draw_deterministic(self):
        a = draw_faults(5, [10, 10], 8, capacity=20, fraction=0.2, out_scale=1e-3)
        b = draw_faults(5, [10, 10], 8, capacity=20, fraction=0.2, out_scale=1e-3)
        assert np.array_equal(a.out_mask, b.out_mask)
        assert np.array_equal(a.out_stuck, b.out_stuck)
        assert all(np.array_equal(x, y) for x, y in zip(a.in_masks, b.in_masks))


class TestSerialization:
    def test_empty_round_trip(self):
        cfg = small_config()
        state = NetworkState(cfg)
        assert states_equal(state, deserialize(serialize(state)))

    def test_trained_round_trip_preserves_outputs(self):
        from neurofuzzy import experiments
        cfg = experiments.paper_modeling_config("g1", n_test=500)
        state = experiments.rebuild_trained_state(cfg)
        back = deserialize(serialize(state))
        assert states_equal(state, back)
        # identical inference on a fixed probe set
        pts = np.random.default_rng(3).uniform(0, 1, size=(50, 2))
        mats = [fuzzy.triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(state.config.groups)]
        a, _ = network.infer_crisp_batch(state, mats)
        b, _ = network.infer_crisp_batch(back, mats)
        assert np.array_equal(a, b)

    def test_truncated_payload(self):
        cfg = small_config()
        payload = serialize(NetworkState(cfg))
        with pytest.raises(MalformedPayload):
            deserialize(payload[: len(payload) // 2])

    def test_version_mismatch(self, monkeypatch):
        cfg = small_config()
        monkeypatch.setattr(network, "_FORMAT", "neurofuzzy-state-v999")
        payload = serialize(NetworkState(cfg))
        monkeypatch.undo()
        with pytest.raises(VersionMismatch):
            deserialize(payload)

    def test_faulted_state_round_trips(self):
        faults = draw_faults(9, [4, 4], 5, capacity=4, fraction=0.3, out_scale=1e-3)
        cfg = small_config(threshold=1e-12)
        state = NetworkState(cfg, faults=faults)
        rng = np.random.default_rng(2)
        train_one(state, [mv(cfg.groups[0].universe, _nonzero(rng, 4)),
                          mv(cfg.groups[1].universe, _nonzero(rng, 4))], target_crisp=0.5)
        back = deserialize(serialize(state))
        assert states_equal(state, back)
        assert back.faults is not None
        assert np.array_equal(back.faults.out_mask, faults.out_mask)

    def test_v1_header_is_pinned(self):
        # a new NetworkConfig, InputGroup or Universe field would change the format
        meta = bytes(np.load(io.BytesIO(_faulted_payload()))["meta"]).decode()
        assert meta == (
            '{"format": "neurofuzzy-state-v1", "groups": ['
            '{"name": "x", "universe": {"lo": 0.0, "hi": 1.0, '
            '"resolution": 0.3333333333333333, "count": 4}, "half_support": 0.3}, '
            '{"name": "y", "universe": {"lo": 0.0, "hi": 1.0, '
            '"resolution": 0.3333333333333333, "count": 4}, "half_support": 0.3}], '
            '"output_universe": {"lo": 0.0, "hi": 1.0, "resolution": 0.25, "count": 5}, '
            '"p": 7, "alpha": 0.0005, "novelty_threshold": 1e-12, "output_half_support": 0.0, '
            '"hebbian_tnorm": {"kind": "product", "p": 1}, "n_minterms": 2, "has_faults": true}')


def _faulted_payload(capacity=4):
    faults = draw_faults(9, [4, 4], 5, capacity=capacity, fraction=0.3, out_scale=1e-3)
    cfg = small_config(threshold=1e-12)
    state = NetworkState(cfg, faults=faults)
    rng = np.random.default_rng(2)
    for _ in range(2):
        train_one(state, [mv(cfg.groups[0].universe, _nonzero(rng, 4)),
                          mv(cfg.groups[1].universe, _nonzero(rng, 4))], target_crisp=0.5)
    return serialize(state)


def _rewrite(payload, meta=None, **arrays):
    """The payload with some meta entries and arrays replaced."""
    data = dict(np.load(io.BytesIO(payload), allow_pickle=False))
    if meta:
        new_meta = {**json.loads(bytes(data["meta"]).decode()), **meta}
        data["meta"] = np.frombuffer(json.dumps(new_meta).encode(), dtype=np.uint8)
    data.update(arrays)
    buf = io.BytesIO()
    np.savez(buf, **data)
    return buf.getvalue()


class TestDeserializeValidation:
    def test_minterms_beyond_fault_capacity(self):
        # a consistent container, except that it holds 5 rows for a 4-row plan
        payload = _faulted_payload(capacity=4)
        rng = np.random.default_rng(0)
        bad = _rewrite(payload, meta={"n_minterms": 5},
                       w_in_0=rng.uniform(0, 1, (5, 4)), w_in_1=rng.uniform(0, 1, (5, 4)),
                       w_out=rng.uniform(0, 1e-3, (5, 5)))
        with pytest.raises(MalformedPayload, match="5 min-terms"):
            deserialize(bad)

    @pytest.mark.parametrize("key", ["w_in_0", "w_in_1", "w_out"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3])
    def test_weight_not_finite_or_negative(self, key, value):
        payload = _faulted_payload()
        weights = np.load(io.BytesIO(payload))[key].copy()
        weights[-1, -1] = value
        with pytest.raises(MalformedPayload, match=key):
            deserialize(_rewrite(payload, **{key: weights}))

    @pytest.mark.parametrize("key", ["fault_in_mask_0", "fault_in_stuck_1",
                                     "fault_out_mask", "fault_out_stuck"])
    def test_fault_array_of_wrong_shape(self, key):
        payload = _faulted_payload()
        arr = np.load(io.BytesIO(payload))[key]
        with pytest.raises(MalformedPayload, match=key):
            deserialize(_rewrite(payload, **{key: arr[:-1]}))

    def test_empty_fault_capacity(self):
        with pytest.raises(MalformedPayload):
            deserialize(_rewrite(_faulted_payload(), fault_capacity=np.array([], dtype=int)))

    def test_fault_mask_must_be_boolean(self):
        payload = _faulted_payload()
        mask = np.load(io.BytesIO(payload))["fault_out_mask"]
        with pytest.raises(MalformedPayload, match="fault_out_mask"):
            deserialize(_rewrite(payload, fault_out_mask=mask.astype(np.int64)))

    @pytest.mark.parametrize("rule", [{"kind": "min", "p": 1}, {"kind": "power_sum", "p": 3},
                                      {"kind": "tansig", "p": 1}, "product"])
    def test_hebbian_rule_is_the_product(self, rule):
        payload = _faulted_payload()
        meta = json.loads(bytes(np.load(io.BytesIO(payload))["meta"]).decode())
        assert meta["hebbian_tnorm"] == {"kind": "product", "p": 1}
        with pytest.raises(MalformedPayload):
            deserialize(_rewrite(payload, meta={"hebbian_tnorm": rule}))

    @pytest.mark.parametrize("key,value", [("alpha", np.inf), ("alpha", np.nan),
                                           ("novelty_threshold", np.nan)])
    def test_non_finite_learning_constants(self, key, value):
        with pytest.raises(MalformedPayload):
            deserialize(_rewrite(_faulted_payload(), meta={key: value}))


def with_meta_json(payload, meta):
    """The payload with its meta header replaced by the JSON text of meta."""
    data = dict(np.load(io.BytesIO(payload), allow_pickle=False))
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **data)
    return buf.getvalue()


@pytest.mark.parametrize("meta", [[1, 2], 3, None], ids=["list", "number", "null"])
def test_deserialize_rejects_a_meta_header_that_is_no_object(meta):
    with pytest.raises(MalformedPayload, match="state meta is not a JSON object"):
        deserialize(with_meta_json(_faulted_payload(), meta))


# the edits of a meta header that each leave a network no valid config describes
INVALID_META_EDITS = {
    "negative input resolution": lambda m: m["groups"][0]["universe"].update(resolution=-0.1),
    "input lo above hi": lambda m: m["groups"][0]["universe"].update(lo=5.0),
    "negative half support": lambda m: m["groups"][1].update(half_support=-1.0),
    "zero output resolution": lambda m: m["output_universe"].update(resolution=0.0),
}


def edited_meta(payload, edit):
    """The payload with its meta header changed in place by edit."""
    meta = json.loads(bytes(np.load(io.BytesIO(payload))["meta"]).decode())
    edit(meta)
    return _rewrite(payload, meta=meta)


@pytest.mark.parametrize("edit", INVALID_META_EDITS.values(), ids=INVALID_META_EDITS)
def test_deserialize_rejects_an_invalid_universe_or_group(edit):
    from neurofuzzy import experiments

    cfg = experiments.paper_modeling_config("g1", n_train=50, n_test=50)
    payload = serialize(experiments.rebuild_trained_state(cfg))
    with pytest.raises(MalformedPayload):
        deserialize(edited_meta(payload, edit))


class TestConfigValidation:
    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -1e-3])
    def test_alpha_must_be_finite_non_negative(self, alpha):
        with pytest.raises(ValueError, match="learning coefficient"):
            small_config(alpha=alpha)

    @pytest.mark.parametrize("threshold", [np.nan, 0.0, -0.1])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError, match="novelty threshold"):
            small_config(threshold=threshold)

    @pytest.mark.parametrize("out_hs", [np.nan, np.inf, -0.1])
    def test_output_half_support_must_be_finite_non_negative(self, out_hs):
        with pytest.raises(ValueError, match="output half support"):
            small_config(out_hs=out_hs)

    @pytest.mark.parametrize("hs", [np.nan, np.inf, -0.1])
    def test_input_half_support_must_be_finite_non_negative(self, hs):
        with pytest.raises(ValueError, match="half support"):
            InputGroup("x", universe_from_count(0.0, 1.0, 4), hs)

    def test_exponent_must_be_a_positive_integer(self):
        for p in (0, 2.5):
            with pytest.raises(ValueError, match="activation exponent"):
                small_config(p=p)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_exponent_must_be_finite(self, p):
        with pytest.raises(ValueError, match="activation exponent"):
            small_config(p=p)

    def test_whole_float_exponent_trains_to_the_int_state(self):
        # int_power counts its products in range(p - 1), which a float p cannot feed
        cfg = small_config(p=7.0)
        assert type(cfg.p) is int and cfg == small_config(p=7)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        states = [NetworkState(c) for c in (cfg, small_config(p=7))]
        for state in states:
            network.train_matrix(state, state.fuzzify(pts), pts.mean(axis=1))
        assert states[0].n_minterms > 0 and states_equal(*states)
