from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurofuzzy import crossbar, experiments, fuzzy, network
from neurofuzzy.crossbar import (
    Crossbar,
    MemristorParams,
    _pulse_array,
    crossbar_forward_batch,
    delta_weight_sweep,
    distort,
    map_network,
)
from neurofuzzy.errors import (
    CapacityExceeded,
    DimensionMismatch,
    ReadDisturbRisk,
    UntrainedNetwork,
    WeightOutOfRange,
)
from neurofuzzy.fuzzy import triangular_matrix
from oracles import (
    clamped_pulse_x,
    crossbar_forward,
    euler_pulse_x,
    forward_batch,
    ion_drift_x,
    vmm,
)

PARAMS = MemristorParams()

# frozen reference: pristine device, default constants, 2 V held for 0.05 s,
# integrated at dt = 1e-8 (fine-step oracle for the explicit-Euler integrator)
GOLDEN_X_2V_005S = 0.06457172362023814


def pulse(x, v, duration):
    """One device's state after a constant-voltage pulse."""
    return float(_pulse_array(np.array([x]), np.array([v]), PARAMS, duration)[0])


class TestDevice:
    def test_sub_threshold_unchanged(self):
        assert pulse(0.37, 0.5 * PARAMS.v_threshold, 0.01) == 0.37
        assert pulse(0.37, PARAMS.v_threshold, 0.01) == 0.37
        _, dw = delta_weight_sweep(PARAMS, voltages=[0.5, PARAMS.v_threshold])
        assert not dw.any()

    def test_saturation_clamp(self):
        assert pulse(1.0, 5.0, 0.01) == 1.0

    def test_golden_pulse_against_fine_step_oracle(self):
        assert abs(pulse(0.0, 2.0, 0.05) - GOLDEN_X_2V_005S) < 1e-5
        _, dw = delta_weight_sweep(PARAMS, voltages=[2.0], duration=0.05)
        assert abs(_x_from_dw(dw)[0] - GOLDEN_X_2V_005S) < 1e-5
        assert abs(ion_drift_x(PARAMS, 2.0, 0.05) - GOLDEN_X_2V_005S) < 1e-9

    def test_memristance_bounds(self):
        cb = Crossbar(1, 3)
        cb.x[0] = [0.0, 0.3, 1.0]
        m = cb.memristance()
        assert m[0, 0] == PARAMS.r_off and m[0, 2] == PARAMS.r_on
        assert (PARAMS.r_on <= m).all() and (m <= PARAMS.r_off).all()

    def test_negative_voltage_decreases_state(self):
        assert pulse(0.5, -2.0, 0.01) < 0.5

    @given(st.floats(0, 1), st.floats(1.01, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_state_stays_in_unit_interval(self, x0, v):
        assert 0.0 <= pulse(x0, v, 0.02) <= 1.0
        assert 0.0 <= pulse(x0, -v, 0.02) <= 1.0

    def test_integrator_convergence_halved_dt(self):
        volts = np.linspace(0.0, 2.0, 81)
        _, dw_a = delta_weight_sweep(PARAMS, voltages=volts)
        fine = MemristorParams(dt=PARAMS.dt / 2)
        _, dw_b = delta_weight_sweep(fine, voltages=volts)
        # compare underlying states via weights: reconstruct x from delta w
        x_a = _x_from_dw(dw_a)
        x_b = _x_from_dw(dw_b)
        assert np.abs(x_a - x_b).max() < 1e-3


def _x_from_dw(dw, params=PARAMS, r_f=PARAMS.r_off):
    w = dw + r_f / params.r_off
    m = r_f / w
    return (params.r_off - m) / (params.r_off - params.r_on)


SWEEP_VOLTS = np.linspace(0.0, 2.0 * PARAMS.v_threshold, 81)


class TestIntegratorAgainstOracle:
    """_pulse_array against the per-step Euler loop on x in tests/oracles.py."""

    @pytest.mark.parametrize("dt", [PARAMS.dt, PARAMS.dt / 2], ids=["dt", "dt/2"])
    def test_default_sweep(self, dt):
        params = MemristorParams(dt=dt)
        x0 = np.zeros(SWEEP_VOLTS.shape)
        got = _pulse_array(x0, SWEEP_VOLTS, params, crossbar.HEBBIAN_PULSE_SECONDS)
        want = euler_pulse_x(x0, SWEEP_VOLTS, params, crossbar.HEBBIAN_PULSE_SECONDS)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_negative_drives(self):
        x0 = np.linspace(1.0, 0.2, SWEEP_VOLTS.size)
        got = _pulse_array(x0, -SWEEP_VOLTS, PARAMS, crossbar.HEBBIAN_PULSE_SECONDS)
        want = euler_pulse_x(x0, -SWEEP_VOLTS, PARAMS, crossbar.HEBBIAN_PULSE_SECONDS)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        driven = SWEEP_VOLTS > PARAMS.v_threshold
        assert (got[driven] < x0[driven]).all()

    def test_saturating_drives_reach_the_bounds_exactly(self):
        x0, volts = np.array([0.999, 0.001]), np.array([5.0, -5.0])
        for pulse_fn in (_pulse_array, euler_pulse_x):
            got = pulse_fn(x0, volts, PARAMS, crossbar.HEBBIAN_PULSE_SECONDS)
            assert got.tolist() == [1.0, 0.0]

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 5.0, exclude_min=True),
                              st.booleans()), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_drawn_states_and_drives(self, draws):
        x0 = np.array([x for x, _, _ in draws])
        volts = np.array([-v if neg else v for _, v, neg in draws])
        duration = 0.01
        got = _pulse_array(x0, volts, PARAMS, duration)
        want = euler_pulse_x(x0, volts, PARAMS, duration)
        # near x = 0 the relative bound is too tight: M carries up to one ulp of
        # R_off of rounding per step, which is this much in x over the pulse
        steps = round(duration / PARAMS.dt)
        atol = steps * np.spacing(PARAMS.r_off) / (PARAMS.r_off - PARAMS.r_on)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)

    def test_sub_threshold_devices_and_the_input_are_untouched(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(0.0, 1.0, 40)
        volts = rng.uniform(-2.0, 2.0, 40) * PARAMS.v_threshold
        volts[:4] = [PARAMS.v_threshold, -PARAMS.v_threshold, 0.0, 3.0]
        before = x0.copy()
        got = _pulse_array(x0, volts, PARAMS, crossbar.HEBBIAN_PULSE_SECONDS)
        assert np.array_equal(x0, before)
        quiet = np.abs(volts) <= PARAMS.v_threshold
        assert quiet.sum() > 4 and (~quiet).sum() > 4
        assert np.array_equal(got[quiet], x0[quiet])
        assert not np.any(got[~quiet] == x0[~quiet])


def assert_bit_exact(x0, volts, duration, params=PARAMS):
    """_pulse_array gives the frozen clamped loop's states bit for bit, and leaves x0 alone."""
    x0, volts = np.array(x0, dtype=np.float64), np.array(volts, dtype=np.float64)
    before = x0.copy()
    got = _pulse_array(x0, volts, params, duration)
    assert np.array_equal(x0, before)
    want = clamped_pulse_x(before, volts, params, duration)
    assert np.array_equal(got, want), np.flatnonzero(got != want)
    return got


def one_step_volts(m0, target, params=PARAMS):
    """Per device, volts whose single Euler step takes M from m0 to about target, and the
    same volts a few ulps either side: M + a/M lands on or next to the bound."""
    a = (target - m0) * m0
    v = a / ((params.r_on - params.r_off) * params.drift_gain * params.dt)
    return (v[:, None] * (1.0 + np.arange(-4, 5) * 2.0 ** -52)).ravel()


class TestIntegratorBitExact:
    """_pulse_array against the clamped loop on M in tests/oracles.py, under array_equal."""

    @pytest.mark.parametrize("dt", [PARAMS.dt, PARAMS.dt / 2], ids=["dt", "dt/2"])
    def test_default_sweep(self, dt):
        assert_bit_exact(np.zeros(SWEEP_VOLTS.shape), SWEEP_VOLTS,
                         crossbar.HEBBIAN_PULSE_SECONDS, MemristorParams(dt=dt))

    def test_negative_drives_from_spread_states(self):
        x0 = np.linspace(1.0, 0.2, SWEEP_VOLTS.size)
        assert_bit_exact(x0, -SWEEP_VOLTS, crossbar.HEBBIAN_PULSE_SECONDS)

    @pytest.mark.parametrize("volts", [40.0, 1e6, np.inf])
    def test_saturating_drives(self, volts):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0.0, 1.0, 60)
        got = assert_bit_exact(x0, rng.choice([-volts, volts], 60), crossbar.HEBBIAN_PULSE_SECONDS)
        assert set(got.tolist()) == {0.0, 1.0}

    def test_devices_on_a_bound(self):
        # x = 1 is M = R_on, which a positive drive pushes toward; x = 0 is M = R_off.
        # The first two devices sit on the bound they drive toward, the next two leave theirs.
        x0, volts = [1.0, 0.0, 0.0, 1.0], [2.0, -2.0, 2.0, -2.0]
        assert_bit_exact(x0[:2], volts[:2], crossbar.HEBBIAN_PULSE_SECONDS)
        assert_bit_exact(x0[2:], volts[2:], crossbar.HEBBIAN_PULSE_SECONDS)
        got = assert_bit_exact(x0 + [0.5, 0.5], volts + [3.0, -3.0], crossbar.HEBBIAN_PULSE_SECONDS)
        assert got[:2].tolist() == [1.0, 0.0] and 0.0 < got[2] and got[3] < 1.0

    @pytest.mark.parametrize("steps", [1, 2, 3, 40])
    def test_drive_that_pins_in_one_step(self, steps):
        m0 = np.linspace(PARAMS.r_on, PARAMS.r_off, 41)[1:-1]
        x0 = (PARAMS.r_off - m0) / (PARAMS.r_off - PARAMS.r_on)
        volts = np.concatenate([one_step_volts(m0, PARAMS.r_on), one_step_volts(m0, PARAMS.r_off)])
        assert_bit_exact(np.repeat(np.tile(x0, 2), 9), volts, steps * PARAMS.dt)

    @pytest.mark.parametrize("steps", [16, 32, 64])
    def test_slow_drive_that_pins_as_the_pulse_ends(self, steps):
        # rising devices a few ulps of R_off per step, steps + 1/2 exact steps below R_off:
        # each step rounds up, so the clamped loop pins them within the pulse
        params = MemristorParams(v_threshold=0.0)
        t = np.array([0.6, 0.8, 1.6, 1.75, 1.9, 2.6, 2.9, 3.7, 10.6]) * np.spacing(params.r_off)
        x0 = (steps + 0.5) * t / (params.r_off - params.r_on)
        m0 = params.r_off + (params.r_on - params.r_off) * x0
        volts = t * m0 / ((params.r_on - params.r_off) * params.drift_gain * params.dt)
        got = assert_bit_exact(x0, volts, steps * params.dt, params)
        assert (got == 0.0).any()

    def test_pinned_devices_are_retired(self, monkeypatch):
        # every device pins within 0.05 s; a 0.5 s pulse steps none of them after that
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def divide(self, *args, **kwargs):
                calls.append(1)
                return np.divide(*args, **kwargs)
        monkeypatch.setattr(crossbar, "np", CountingNumpy())
        rng = np.random.default_rng(6)
        assert_bit_exact(rng.uniform(0.0, 1.0, 60), rng.choice([-40.0, 40.0], 60), 0.5)
        assert 0 < len(calls) < round(crossbar.HEBBIAN_PULSE_SECONDS / PARAMS.dt)

    def test_half_second_pulse(self):
        rng = np.random.default_rng(8)
        assert_bit_exact(rng.uniform(0.0, 1.0, 81), np.linspace(-3.0, 30.0, 81), 0.5)

    @given(st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                              st.floats(-60.0, 60.0)), min_size=1, max_size=12),
           st.integers(0, 3000))
    @settings(max_examples=40, deadline=None)
    def test_drawn_states_and_drives(self, draws, steps):
        assert_bit_exact([x for x, _ in draws], [v for _, v in draws], steps * PARAMS.dt)


class TestVmm:
    """The analog-read oracle of tests/oracles.py."""

    def test_zero_inputs(self):
        cb = Crossbar(3, 4)
        assert vmm(cb, np.zeros(4)).tolist() == [0.0, 0.0, 0.0]

    def test_unity_gain(self):
        cb = Crossbar(1, 1, MemristorParams(r_f=PARAMS.r_off))   # pristine M = R_off = R_f
        out = vmm(cb, np.array([0.4]))
        assert out[0] == pytest.approx(-0.4, rel=1e-12)

    def test_two_column_weighted_sum(self):
        cb = Crossbar(1, 2, MemristorParams(r_f=PARAMS.r_off))
        # weights 0.5 and 0.25 via M = 2 R_f and 4 R_f: encode through x
        for j, m_target in enumerate((2 * cb.params.r_f, 4 * cb.params.r_f)):
            cb.x[0, j] = (PARAMS.r_off - m_target) / (PARAMS.r_off - PARAMS.r_on)
        out = vmm(cb, np.array([0.4, 0.8]))
        assert out[0] == pytest.approx(-(0.5 * 0.4 + 0.25 * 0.8), rel=1e-9)

    def test_read_disturb_guard(self):
        cb = Crossbar(2, 2)
        with pytest.raises(ReadDisturbRisk):
            vmm(cb, np.array([0.2, PARAMS.v_threshold]))

    def test_dimension_mismatch(self):
        cb = Crossbar(2, 3)
        with pytest.raises(DimensionMismatch):
            vmm(cb, np.zeros(2))

    def test_non_destructive(self):
        cb = Crossbar(4, 5)
        distort(cb, 0.3, seed=3)
        before = cb.x.copy()
        vmm(cb, np.full(5, 0.3))
        assert np.array_equal(before, cb.x)

    def test_batch_rows_are_single_reads(self):
        cb = Crossbar(3, 6)
        rng = np.random.default_rng(2)
        cb.x = rng.uniform(0, 1, cb.x.shape)
        volts = rng.uniform(0, 0.9, (5, 6))
        np.testing.assert_allclose(vmm(cb, volts), [vmm(cb, v) for v in volts],
                                   rtol=1e-13, atol=0)

    def test_columns_outside_the_read_are_grounded(self):
        cb = Crossbar(3, 6)
        rng = np.random.default_rng(3)
        cb.x = rng.uniform(0, 1, cb.x.shape)
        volts = rng.uniform(0, 0.9, (4, 2))
        padded = np.zeros((4, 6))
        padded[:, 2:4] = volts
        np.testing.assert_allclose(vmm(cb, volts, slice(2, 4)), vmm(cb, padded),
                                   rtol=1e-13, atol=0)
        with pytest.raises(DimensionMismatch):
            vmm(cb, volts, slice(2, 5))

    def test_linearity(self):
        cb = Crossbar(3, 6)
        rng = np.random.default_rng(0)
        cb.x = rng.uniform(0, 1, cb.x.shape)
        i1 = rng.uniform(0, 0.3, 6)
        i2 = rng.uniform(0, 0.3, 6)
        a, b = 0.7, 1.3
        lhs = vmm(cb, a * i1 + b * i2)
        rhs = a * vmm(cb, i1) + b * vmm(cb, i2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestHebbianPulse:
    """The weight change one Hebbian write pulse gives a pristine device."""

    def test_sweep_zero_below_threshold_then_increasing(self):
        volts, dw = delta_weight_sweep(PARAMS)
        below = volts <= PARAMS.v_threshold
        assert np.all(dw[below] == 0.0)
        assert np.all(np.diff(dw[~below]) > 0.0)

    def test_hebbian_delta_monotone_in_each_drive(self):
        volts, dw = delta_weight_sweep(PARAMS, voltages=np.linspace(0, 2, 41))
        # u + v enters only through the sum, so monotone sweep covers both axes
        assert all(b >= a for a, b in zip(dw, dw[1:]))


class TestSweepInputs:
    """delta_weight_sweep rejects what no write pulse can be, naming the value."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voltage_is_rejected(self, bad):
        with pytest.raises(ValueError, match=f"voltage.*{bad}"):
            delta_weight_sweep(PARAMS, voltages=[0.5, 2.0, bad])

    @pytest.mark.parametrize("duration", [-0.01, np.nan, np.inf, -np.inf])
    def test_duration_must_be_finite_and_non_negative(self, duration):
        with pytest.raises(ValueError, match=f"duration.*{duration}"):
            delta_weight_sweep(PARAMS, voltages=[2.0], duration=duration)

    def test_duration_beyond_the_step_cap_is_rejected(self):
        steps = crossbar.MAX_PULSE_STEPS + 1
        with pytest.raises(ValueError, match=f"duration.*{steps * PARAMS.dt}.*{steps}"):
            delta_weight_sweep(PARAMS, voltages=[2.0], duration=steps * PARAMS.dt)

    @pytest.mark.parametrize("r_f", [np.nan, np.inf, 0.0, -5.0])
    def test_feedback_resistance_must_be_finite_and_positive(self, r_f):
        with pytest.raises(ValueError, match=f"feedback resistance.*{r_f}"):
            MemristorParams(r_f=r_f)
        with pytest.raises(ValueError, match=f"feedback resistance.*{r_f}"):
            replace(PARAMS, r_f=r_f)

    def test_zero_duration_and_the_cap_itself_are_accepted(self):
        _, dw = delta_weight_sweep(PARAMS, voltages=[2.0], duration=0.0)
        assert dw.tolist() == [0.0]
        # the cap's 1,000,000 steps at 2 V drive a pristine device onto R_on
        _, dw = delta_weight_sweep(PARAMS, voltages=[2.0, -2.0, 0.5],
                                   duration=crossbar.MAX_PULSE_STEPS * PARAMS.dt)
        assert dw.tolist() == [PARAMS.r_off / PARAMS.r_on - 1.0, 0.0, 0.0]


class TestMemristorParams:
    @pytest.mark.parametrize("key", ["r_on", "r_off", "d", "mu_v", "v_threshold", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_constants_rejected(self, key, value):
        with pytest.raises(ValueError, match="finite"):
            MemristorParams(**{key: value})

    @pytest.mark.parametrize("key", ["d", "mu_v", "dt"])
    def test_non_positive_constants_rejected(self, key):
        with pytest.raises(ValueError):
            MemristorParams(**{key: 0.0})

    def test_feedback_resistance_defaults_to_r_off(self):
        assert MemristorParams(r_off=8000).r_f == 8000
        assert PARAMS.r_f == PARAMS.r_off
        # set once, R_f stays when r_off changes
        assert replace(PARAMS, r_off=8000.0).r_f == PARAMS.r_off

    def test_a_crossbar_reads_through_its_feedback_resistance(self):
        cb = Crossbar(1, 2, MemristorParams(r_f=4000.0))    # pristine weights R_f / R_off
        assert cb.weights().tolist() == [[0.25, 0.25]]
        assert vmm(cb, np.array([0.4, 0.8]))[0] == pytest.approx(-0.25 * 1.2, rel=1e-12)

    def test_the_sweep_reads_through_its_feedback_resistance(self):
        _, dw = delta_weight_sweep(PARAMS, voltages=SWEEP_VOLTS)
        _, half = delta_weight_sweep(MemristorParams(r_f=PARAMS.r_off / 2), voltages=SWEEP_VOLTS)
        assert np.array_equal(half, dw / 2) and dw.max() > 0


class TestDistort:
    def test_fraction_zero_noop(self):
        cb = Crossbar(5, 5)
        distort(cb, 0.0, seed=1)
        assert not cb.fault_mask.any() and not cb.x.any()

    def test_fraction_one_masks_everything(self):
        cb = Crossbar(3, 3)
        distort(cb, 1.0, seed=1)
        assert cb.fault_mask.all()

    def test_exact_count(self):
        cb = Crossbar(10, 10)
        distort(cb, 0.2, seed=5)
        assert cb.fault_mask.sum() == 20

    def test_deterministic(self):
        a = distort(Crossbar(8, 8), 0.3, seed=9)
        b = distort(Crossbar(8, 8), 0.3, seed=9)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.fault_mask, b.fault_mask)


@pytest.fixture(scope="module")
def g1_state():
    return experiments.rebuild_trained_state(experiments.paper_modeling_config("g1"))


class TestMapNetwork:
    def test_zero_weight_network_reads_floor(self):
        cfg = experiments.paper_modeling_config("g1", n_train=1)
        state = experiments.rebuild_trained_state(cfg)
        state._w_out[:] = 0.0
        cb1, cb2, mapping = map_network(state)
        assert not cb2.x.any()                      # every device pristine
        floor = cb2.params.r_f / PARAMS.r_off
        np.testing.assert_allclose(cb2.weights(), floor, rtol=0, atol=0)

    def test_identity_pattern_read_back(self):
        cfg = experiments.paper_modeling_config("g1", n_train=2)
        state = experiments.rebuild_trained_state(cfg)
        cb1, cb2, mapping = map_network(state)
        for g in (0, 1):
            got = (cb1.weights()[:, mapping.group_slices[g]] - mapping.floor) / mapping.scale_in
            np.testing.assert_allclose(got, state.w_in(g), atol=1e-9)
        np.testing.assert_allclose((cb2.weights() - mapping.floor) / mapping.scale_out,
                                   state.w_out, atol=1e-12)

    def test_weight_out_of_range(self, g1_state):
        span = PARAMS.r_off / PARAMS.r_on - 1.0
        with pytest.raises(WeightOutOfRange):
            map_network(g1_state, scale_in=10.0 * span)

    def test_capacity_check(self, g1_state):
        small = Crossbar(2, 200)
        with pytest.raises(CapacityExceeded):
            map_network(g1_state, cb1=small)

    def test_shape_check(self, g1_state):
        wrong_cols = Crossbar(g1_state.n_minterms, 150)
        with pytest.raises(DimensionMismatch):
            map_network(g1_state, cb1=wrong_cols)

    @pytest.mark.parametrize("params", [MemristorParams(r_f=5000.0), MemristorParams(r_on=200.0)],
                             ids=["r_f", "params"])
    @pytest.mark.parametrize("which", ["cb1", "cb2"])
    def test_a_given_crossbar_of_another_setup_is_rejected(self, g1_state, which, params):
        # programmed with the mapping's device and R_f, it would read 0.5-0.7 relative error
        pristine = dict(zip(("cb1", "cb2"), distorted_pair(g1_state, fraction=0.0)))
        cb = Crossbar(pristine[which].rows, pristine[which].cols, params)
        with pytest.raises(ValueError, match="differ"):
            map_network(g1_state, **{which: cb})
        assert not cb.x.any()

    def test_given_crossbars_of_the_mapping_setup_read_as_the_network(self, g1_state):
        params = MemristorParams(r_on=200.0, r_f=5000.0)
        cb1, cb2 = (Crossbar(cb.rows, cb.cols, params)
                    for cb in distorted_pair(g1_state, fraction=0.0))
        mapped = map_network(g1_state, params, cb1=cb1, cb2=cb2)
        mats = g1_state.fuzzify(np.random.default_rng(8).uniform(0, 1, size=(100, 2)))
        ideal = network.output_batch(g1_state, mats)
        got = crossbar_forward_batch(*mapped, mats)
        assert np.abs(got - ideal).max() <= 1e-12 * np.abs(ideal).max()


class TestCrossbarForward:
    def test_zero_inputs_zero_outputs(self, g1_state):
        cb1, cb2, mapping = map_network(g1_state)
        nx = g1_state.config.groups[0].universe.count
        out = crossbar_forward_batch(cb1, cb2, mapping,
                                     [np.zeros((1, nx)), np.zeros((1, nx))])
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_single_minterm_hidden_ratio(self):
        cfg = experiments.paper_modeling_config("g1", n_train=1)
        state = experiments.rebuild_trained_state(cfg)
        cb1, cb2, mapping = map_network(state)
        pts = np.random.default_rng(8).uniform(0, 1, size=(20, 2))
        mats = [triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(state.config.groups)]
        _, out_ideal = forward_batch(state, mats)
        out_cb = crossbar_forward_batch(cb1, cb2, mapping, mats)
        scale = np.abs(out_ideal).max()
        assert np.allclose(out_cb, out_ideal, rtol=0.05, atol=1e-9 * scale)

    def test_end_to_end_match_on_training_sample(self, g1_state):
        cb1, cb2, mapping = map_network(g1_state)
        pts = np.random.default_rng(21).uniform(0, 1, size=(50, 2))
        mats = [triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(g1_state.config.groups)]
        _, ideal = forward_batch(g1_state, mats)
        got = crossbar_forward_batch(cb1, cb2, mapping, mats)
        scale = np.abs(ideal).max()
        assert np.allclose(got, ideal, rtol=0.05, atol=1e-9 * scale)

    def test_single_sample_wrapper(self, g1_state):
        cb1, cb2, mapping = map_network(g1_state)
        mats = g1_state.fuzzify(np.array([[0.3, 0.7]]))    # one sample is a 1-row batch
        out = crossbar_forward_batch(cb1, cb2, mapping, mats)[0]
        ideal = network.output_batch(g1_state, mats)[0]
        scale = np.abs(ideal).max()
        assert np.allclose(out, ideal, rtol=0.05, atol=1e-9 * scale)

    def test_tiny_scaled_input_matches_unit_scale(self):
        # one stored min-term; the same row at 3.8e-295 must read like at 1
        u4 = fuzzy.universe_from_count(0.0, 1.0, 4)
        cfg = network.NetworkConfig(
            groups=(network.InputGroup("x", u4, 0.3), network.InputGroup("y", u4, 0.3)),
            output_universe=fuzzy.universe_from_count(0.0, 1.0, 3))
        state = network.NetworkState(cfg)
        row = np.array([0, 0, 0.5, 1])
        network.train_one(state, [fuzzy.MembershipVector(u4, row)] * 2, target_crisp=0.5)
        cb1, cb2, mapping = map_network(state)
        unit = crossbar_forward_batch(cb1, cb2, mapping, [row[None, :]] * 2)
        tiny = crossbar_forward_batch(cb1, cb2, mapping, [3.8e-295 * row[None, :]] * 2)
        np.testing.assert_allclose(unit, state.w_out.T, rtol=0.05)
        atol = 1e-9 * np.abs(unit).max()
        assert np.isclose(tiny, unit, rtol=0.05, atol=atol).all()

    def test_read_disturb_on_hot_inputs(self, g1_state):
        cb1, cb2, mapping = map_network(g1_state)
        nx = g1_state.config.groups[0].universe.count
        hot = np.full((1, nx), 1.0)
        mapping.v_read = 1.5 * PARAMS.v_threshold
        with pytest.raises(ReadDisturbRisk):
            crossbar_forward_batch(cb1, cb2, mapping, [hot, hot])


    def test_read_disturb_on_the_output_read(self, g1_state):
        # inputs stay below the threshold, but a copy of a stored row fires its
        # hidden neuron at 1, which drives cb2 at the full read voltage
        cb1, cb2, mapping = map_network(g1_state)
        mapping.v_read = 1.5 * PARAMS.v_threshold
        rows = [0.6 * g1_state.w_in(g)[:1] for g in range(2)]
        assert max(r.max() for r in rows) * mapping.v_read < PARAMS.v_threshold
        with pytest.raises(ReadDisturbRisk):
            crossbar_forward_batch(cb1, cb2, mapping, rows)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("nan_row", [7, fuzzy.SCORE_ROWS + 7])
    def test_a_nan_hides_no_hot_input_voltage(self, monkeypatch, g1_state, lanes, nan_row):
        # 3.0 reads at 1.5 V, above the 1 V threshold; NaN > x is false for every x,
        # so a max that propagates NaN read the batch (or the chunk) as cool
        cb1, cb2, mapping = map_network(g1_state)
        mats = [np.full((2 * fuzzy.SCORE_ROWS, g.universe.count), 0.1)
                for g in g1_state.config.groups]
        mats[0][2, 5], mats[0][nan_row, 5] = 3.0, np.nan
        monkeypatch.setattr(fuzzy, "score_lanes", lambda: lanes)
        with pytest.raises(ReadDisturbRisk, match="input read voltage"):
            crossbar_forward_batch(cb1, cb2, mapping, mats)
        mats[0][2, 5] = 0.1
        out = crossbar_forward_batch(cb1, cb2, mapping, mats)   # the NaN alone reads NaN
        assert np.isnan(out[nan_row]).all() and np.isfinite(np.delete(out, nan_row, 0)).all()

    def test_a_nan_hides_no_hot_hidden_voltage(self, g1_state):
        # as test_read_disturb_on_the_output_read, with a NaN input row in the copy's chunk
        cb1, cb2, mapping = map_network(g1_state)
        mapping.v_read = 1.5 * PARAMS.v_threshold
        rows = [np.vstack([0.6 * g1_state.w_in(g)[:1], np.full((1, grp.universe.count), np.nan)])
                for g, grp in enumerate(g1_state.config.groups)]
        with pytest.raises(ReadDisturbRisk, match="hidden-layer read voltage"):
            crossbar_forward_batch(cb1, cb2, mapping, rows)

    def test_chunk_plus_one_rows_match_single_row_calls(self, g1_state):
        cb1, cb2, mapping = map_network(g1_state)
        n = fuzzy.SCORE_ROWS + 1
        pts = np.random.default_rng(8).uniform(0, 1, size=(n, 2))
        mats = [triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(g1_state.config.groups)]
        got = crossbar_forward_batch(cb1, cb2, mapping, mats)
        rows = [crossbar_forward_batch(cb1, cb2, mapping, [X[k:k + 1] for X in mats])
                for k in (0, n - 2, n - 1)]
        # the cb2 read subtracts the floor current, so near-zero outputs carry
        # rounding noise of the GEMM shape; it is far below the largest output
        np.testing.assert_allclose(got[[0, n - 2, n - 1]], np.vstack(rows), rtol=1e-13,
                                   atol=1e-15 * np.abs(got).max())


def distorted_pair(state, fraction=0.2, seed=12):
    """Fresh crossbars of the state's shape with a fraction of their cells stuck."""
    cols = sum(g.universe.count for g in state.config.groups)
    nz = state.config.output_universe.count
    return (distort(Crossbar(state.n_minterms, cols), fraction, seed),
            distort(Crossbar(nz, state.n_minterms), fraction, seed + 1))


def assert_matches_vmm_oracle(state, mapped, seed):
    """crossbar_forward_batch against the group-by-group vmm read of tests/oracles.py,
    on a batch one row longer than a scoring chunk."""
    cb1, cb2, mapping = mapped
    n = fuzzy.SCORE_ROWS + 1
    mats = state.fuzzify(np.random.default_rng(seed).uniform(0, 1, size=(n, 2)))
    got = crossbar_forward_batch(cb1, cb2, mapping, mats)
    want = crossbar_forward(cb1, cb2, mapping, mats)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15 * np.abs(want).max())


class TestReadAgainstOracle:
    def test_pristine(self, g1_state):
        assert_matches_vmm_oracle(g1_state, map_network(g1_state), seed=5)

    def test_distorted(self, g1_state):
        cb1, cb2 = distorted_pair(g1_state)
        assert_matches_vmm_oracle(g1_state, map_network(g1_state, cb1=cb1, cb2=cb2), seed=6)


def assert_folded_matches_raw(folded, raw, grid):
    """A folded centroid readout against fuzzy.centroid of the raw outputs."""
    pred, fired = folded
    want, want_fired = fuzzy.centroid(raw @ fuzzy.centroid_matrix(grid))
    assert np.array_equal(fired, want_fired)
    np.testing.assert_allclose(pred[fired], want[fired], rtol=1e-13, atol=0.0)
    assert np.isnan(pred[~fired]).all()


class TestFoldedReadout:
    """infer_crisp_batch and crossbar_infer_crisp_batch fold the centroid into the
    output weights; both must read out what the raw outputs give."""

    @staticmethod
    def check(state, mapped, mats):
        grid = state.config.output_universe.grid()
        assert_folded_matches_raw(network.infer_crisp_batch(state, mats),
                                  network.output_batch(state, mats), grid)
        assert_folded_matches_raw(crossbar.crossbar_infer_crisp_batch(*mapped, mats),
                                  crossbar_forward_batch(*mapped, mats), grid)

    @staticmethod
    def probes(state, seed):
        n = fuzzy.SCORE_ROWS + 1
        return state.fuzzify(np.random.default_rng(seed).uniform(0, 1, size=(n, 2)))

    def test_pristine(self, g1_state):
        self.check(g1_state, map_network(g1_state), self.probes(g1_state, 31))

    def test_faulted_state(self):
        cfg = experiments.paper_modeling_config("g1", fault_fraction=0.2)
        state = experiments.rebuild_trained_state(cfg)
        self.check(state, map_network(state, cfg.device), self.probes(state, 32))

    def test_distorted_pair(self, g1_state):
        cb1, cb2 = distorted_pair(g1_state)
        self.check(g1_state, map_network(g1_state, cb1=cb1, cb2=cb2), self.probes(g1_state, 33))

    def test_a_single_tiny_activation_fires(self):
        u3 = fuzzy.universe_from_count(0.0, 1.0, 3)
        cfg = network.NetworkConfig(groups=(network.InputGroup("x", u3, 0.5),),
                                    output_universe=fuzzy.universe_from_count(0.0, 1.0, 5))
        state = network.NetworkState(cfg)
        network.train_matrix(state, [np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])],
                             np.array([0.25, 0.75]))
        # row 0 has cosine ~1e-40 with min-term 0 and 0 with min-term 1, so it fires
        # through one activation near 1e-280; row 1 fires through none
        mats = [np.array([[1e-40, 1.0, 0.0], [0.0, 1.0, 0.0]])]
        hidden, _ = forward_batch(state, mats)
        assert 0.0 < hidden[0, 0] < 1e-270 and hidden[0, 1] == 0.0 and not hidden[1].any()
        self.check(state, map_network(state), mats)
        pred, fired = network.infer_crisp_batch(state, mats)
        assert fired.tolist() == [True, False] and pred[0] == pytest.approx(0.25, rel=1e-13)

    def test_untrained_state_raises(self, g1_state):
        state = network.NetworkState(g1_state.config)
        with pytest.raises(UntrainedNetwork):
            network.infer_crisp_batch(state, self.probes(g1_state, 34))


class TestReadPerCall:
    """Each call reads the crossbars as they stand and writes nothing to them."""

    def test_a_changed_cell_reaches_the_next_read(self, g1_state):
        cb1, cb2, mapping = map_network(g1_state)
        mats = [g1_state.w_in(g)[:1] for g in range(2)]    # fires min-term 0 at 1
        before = crossbar_forward_batch(cb1, cb2, mapping, mats)
        cb1.x[0, int(np.argmax(g1_state.w_in(0)[0]))] = 0.0
        after = crossbar_forward_batch(cb1, cb2, mapping, mats)
        assert not np.allclose(after, before, rtol=1e-6, atol=0.0)
        np.testing.assert_allclose(after, crossbar_forward(cb1, cb2, mapping, mats),
                                   rtol=1e-13, atol=1e-15 * np.abs(after).max())

    def test_a_read_leaves_states_and_masks_bit_identical(self, g1_state):
        cb1, cb2 = distorted_pair(g1_state)
        cb1, cb2, mapping = map_network(g1_state, cb1=cb1, cb2=cb2)
        def devices():
            return cb1.x, cb2.x, cb1.fault_mask, cb2.fault_mask

        before = [a.copy() for a in devices()]
        mats = g1_state.fuzzify(np.random.default_rng(9).uniform(0, 1, size=(50, 2)))
        crossbar_forward_batch(cb1, cb2, mapping, mats)
        assert all(np.array_equal(a, b) for a, b in zip(before, devices()))


class TestFaultedState:
    """A state trained under a fault plan, scored on the crossbars it maps to."""

    @pytest.fixture(scope="class")
    def mapped(self):
        cfg = experiments.paper_modeling_config("g1", fault_fraction=0.2)
        state = experiments.rebuild_trained_state(cfg)
        return state, map_network(state, cfg.device)

    def test_forward_matches_ideal(self, mapped):
        state, (cb1, cb2, mapping) = mapped
        pts = np.random.default_rng(4242).uniform(0, 1, size=(100, 2))
        mats = [triangular_matrix(g.universe, pts[:, i], g.half_support)
                for i, g in enumerate(state.config.groups)]
        ideal = network.output_batch(state, mats)
        got = crossbar_forward_batch(cb1, cb2, mapping, mats)
        # criterion 7's tolerances
        assert np.isclose(got, ideal, rtol=0.05, atol=1e-9 * np.abs(ideal).max()).all()

    def test_forward_matches_the_vmm_oracle(self, mapped):
        state, cbs = mapped
        assert_matches_vmm_oracle(state, cbs, seed=7)

    def test_crossbars_carry_the_plan_masks(self, mapped):
        state, (cb1, cb2, _) = mapped
        n, plan = state.n_minterms, state.faults
        assert plan.out_mask.any() and all(m[:n].any() for m in plan.in_masks)
        assert np.array_equal(cb1.fault_mask, np.hstack([m[:n] for m in plan.in_masks]))
        assert np.array_equal(cb2.fault_mask, plan.out_mask[:, :n])
