import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from neurofuzzy import fuzzy
from neurofuzzy.errors import (
    DegenerateFuzzification,
    EmptyRange,
    NegativeSupport,
    OutOfRange,
)
from neurofuzzy.fuzzy import (
    Universe,
    centroid,
    centroid_matrix,
    triangular_matrix,
    universe_from_count,
)


class TestUniverseFromCount:
    def test_neuron_per_value_example(self):
        u = universe_from_count(0, 10, 101)
        assert u.count == 101
        assert u.resolution == pytest.approx(0.1, rel=1e-12)

    def test_two_point_axis(self):
        u = universe_from_count(0, 1, 2)
        assert u.count == 2
        assert np.allclose(u.grid(), [0.0, 1.0])

    def test_percent_grid(self):
        u = universe_from_count(0, 1, 101)
        assert u.count == 101
        assert u.grid()[50] == pytest.approx(0.50, abs=1e-12)

    # empty or reversed bounds, bounds that are not finite, too few or fractional grid points
    @pytest.mark.parametrize("lo, hi, count", [
        (1, 1, 5), (1, 0, 5), (0, np.nan, 5), (0, np.inf, 5), (-np.inf, 0, 5),
        (0, 1, 1), (0, 1, 0), (0, 1, 2.5), (0, 1, np.nan),
        (-1e308, 1e308, 3), (0, 5e-324, 3),     # the spacing overflows, or underflows to 0
    ])
    def test_errors(self, lo, hi, count):
        with pytest.raises(EmptyRange):
            universe_from_count(lo, hi, count)

    # a Universe built directly, as a loaded state builds it, meets the same checks
    @pytest.mark.parametrize("lo, hi, resolution, count", [
        (0.0, 1.0, 0.0, 5), (0.0, 1.0, -0.25, 5), (0.0, 1.0, np.nextafter(0.25, 1.0), 5),
        (5.0, 1.0, -1.0, 5), (0.0, np.inf, np.inf, 5), (0.0, 1.0, 0.4, 3.5), (0.0, 1.0, 1.0, 1),
    ])
    def test_direct_construction_errors(self, lo, hi, resolution, count):
        with pytest.raises(EmptyRange):
            Universe(lo, hi, resolution, count)
        assert Universe(0.0, 1.0, 0.25, 5) == universe_from_count(0, 1, 5)

    def test_from_count_round_trips(self):
        u = universe_from_count(0.0, 6.2346, 116)
        assert u.count == 116
        assert u.grid()[-1] == pytest.approx(6.2346, rel=1e-12)
        # a NumPy count is stored as a Python int, which the state format can write
        assert type(universe_from_count(0.0, 1.0, np.int64(5)).count) is int

    def test_nearest_index_ties_break_low(self):
        # a singleton sits on the nearest grid point, ties to the lower one
        u = universe_from_count(0, 1, 3)   # grid 0, 0.5, 1
        peaks = np.argmax(triangular_matrix(u, [0.25, 0.75, 0.26], 0), axis=1)
        assert peaks.tolist() == [0, 1, 1]


class TestFuzzify:
    def test_singleton_at_grid_point(self):
        u = universe_from_count(0, 1, 3)
        assert triangular_matrix(u, [0.5], 0).tolist() == [[0, 1, 0]]

    def test_triangle_on_grid(self):
        u = universe_from_count(0, 1, 5)
        out = triangular_matrix(u, [0.5], 0.5)[0]
        assert out.tolist() == [0, 0.5, 1, 0.5, 0]

    def test_peak_between_grid_points(self):
        u = universe_from_count(0, 1, 5)
        out = triangular_matrix(u, [0.1], 0.2)[0]
        assert np.allclose(out, [0.5, 0.25, 0, 0, 0])

    def test_errors(self):
        u = universe_from_count(0, 1, 5)
        with pytest.raises(OutOfRange):
            triangular_matrix(u, [0.5, 1.5], 0.1)
        with pytest.raises(NegativeSupport):
            triangular_matrix(u, [0.5], -0.1)

    @pytest.mark.parametrize("half_support", [np.nan, np.inf, -np.inf, -0.1])
    def test_half_support_must_be_finite_non_negative(self, half_support):
        # NaN gave an all-NaN membership matrix and inf one of all ones
        u = universe_from_count(0, 1, 5)
        with pytest.raises(NegativeSupport, match=r"^half_support must be finite and >= 0, "
                                                  rf"got {half_support}$"):
            triangular_matrix(u, [0.5], half_support)

    @pytest.mark.parametrize("half_support", [0.0, 0.5], ids=["singleton", "triangle"])
    def test_nan_lies_outside_the_universe(self, half_support):
        u = universe_from_count(0, 1, 5)
        with pytest.raises(OutOfRange, match="crisp value nan outside"):
            triangular_matrix(u, [0.5, np.nan, 2.0], half_support)
        with pytest.raises(OutOfRange, match="crisp value 2.0 outside"):
            triangular_matrix(u, [0.5, 2.0, np.nan], half_support)

    def test_degenerate_support_rejected(self):
        u = universe_from_count(0, 1, 5)
        # crisp mid-cell with support narrower than half the spacing
        with pytest.raises(DegenerateFuzzification):
            triangular_matrix(u, [0.5, 0.125], 0.05)

    @given(crisp=st.floats(0, 1), hs_mult=st.floats(1.001, 20))
    @settings(max_examples=200)
    def test_peak_lower_bound(self, crisp, hs_mult):
        # triangle sampled at grid spacing: peak >= 1 - res/(2*hs)
        u = universe_from_count(0, 1, 101)
        hs = hs_mult * u.resolution
        out = triangular_matrix(u, [crisp], hs)[0]
        assert out.max() >= 1 - u.resolution / (2 * hs) - 1e-12

    @given(crisp=st.floats(0, 1))
    @settings(max_examples=100)
    def test_singleton_round_trip(self, crisp):
        u = universe_from_count(0, 1, 101)
        got, fired = centroid(triangular_matrix(u, [crisp], 0)[0] @ centroid_matrix(u.grid()))
        assert fired and got in u.grid()
        assert abs(got - crisp) <= np.abs(u.grid() - crisp).min() + 1e-12


class TestFuzzifyInPlace:
    @pytest.mark.parametrize("hs_mult", [0.5, 1.0, 2.5, 7.0])
    def test_bit_identical_to_the_closed_form(self, hs_mult):
        u = universe_from_count(-1.0, 3.0, 41)
        crisps = np.random.default_rng(3).uniform(-1.0, 3.0, 500)
        hs = hs_mult * u.resolution
        want = np.maximum(0.0, 1.0 - np.abs(u.grid()[None, :] - crisps[:, None]) / hs)
        assert np.array_equal(fuzzy.triangular_matrix(u, crisps, hs), want)


class TestIntPower:
    @pytest.mark.parametrize("p", range(1, 10))
    def test_within_4_ulp_of_pow(self, p):
        rng = np.random.default_rng(p)
        x = np.concatenate([np.zeros(50), np.ones(50), rng.uniform(0.0, 1.0, 100_000),
                            np.full(50, 1e-60),                   # x**p underflows for p >= 6
                            rng.uniform(1e-50, 1e-40, 1000)])     # subnormal or zero results
        want = x ** p
        got = fuzzy.int_power(x.copy(), p)
        np.testing.assert_array_max_ulp(got, want, maxulp=4)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_exact_at_zero_and_one(self, p):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        work = np.empty_like(x)
        got = fuzzy.int_power(x, p, work)
        assert got is x
        assert x.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def row_centroid(u, values):
    """The centroid of one membership vector, as the batch readout gives it."""
    pred, fired = centroid(np.asarray(values, dtype=float) @ centroid_matrix(u.grid()))
    assert fired
    return float(pred)


class TestDefuzzify:
    def test_singleton_centroid(self):
        u = universe_from_count(0, 1, 3)
        assert row_centroid(u, [0, 1, 0]) == pytest.approx(0.5)

    def test_symmetry(self):
        u = universe_from_count(0, 1, 3)
        assert row_centroid(u, [1, 1, 1]) == pytest.approx(0.5)

    def test_weighted_mean(self):
        u = universe_from_count(0, 1, 5)
        got = row_centroid(u, [0.25, 0.5, 0.25, 0, 0])
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_all_zero_does_not_fire(self):
        u = universe_from_count(0, 1, 3)
        pred, fired = centroid(np.zeros((2, 3)) @ centroid_matrix(u.grid()))
        assert not fired.any() and np.isnan(pred).all()

    def test_out_keeps_its_value_where_no_row_fires(self):
        folded = np.array([[1.0, 2.0], [3.0, 0.0], [-1.0, -4.0], [5e-324, 2e-323]])
        out = np.full(4, 7.0)
        pred, fired = centroid(folded, out=out)
        assert pred is out
        assert fired.tolist() == [True, False, False, True]
        assert out.tolist() == [0.5, 7.0, 7.0, 0.25]
        default, _ = centroid(folded)
        assert np.array_equal(default, [0.5, np.nan, np.nan, 0.25], equal_nan=True)

    @given(arrays(np.float64, st.tuples(st.integers(0, 8), st.just(2)),
                  elements=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                                     st.floats(-1e6, 1e6))))
    @settings(max_examples=200)
    def test_same_bits_as_a_division_by_nan_where_none_fires(self, folded):
        fired = folded[:, 1] > 0.0
        with np.errstate(over="ignore"):   # 1e6 / 5e-324
            want = folded[:, 0] / np.where(fired, folded[:, 1], np.nan)
            got, got_fired = centroid(folded)
        assert np.array_equal(got_fired, fired)
        assert got.tobytes() == want.tobytes()

    def test_subnormal_weights(self):
        # exact in units of the smallest subnormal: 0 and (2 * 1.0) / 3
        u = universe_from_count(0, 1, 5)
        assert row_centroid(u, [5e-324, 0, 0, 0, 0]) == 0.0
        got = row_centroid(u, [5e-324, 0, 0, 0, 1e-323])
        assert got == pytest.approx(2 / 3, rel=1e-12)

    # nonzero values start far enough above the smallest normal float that
    # v, c * v and their products with the grid all stay normal; subnormal
    # inputs round too coarsely for exact scaling (see test_subnormal_weights)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-280, 1)), min_size=5, max_size=5),
           st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_scale_invariance(self, values, c):
        # centroid is computed on raw (possibly unbounded) activations, so
        # scale the weighted sum directly
        u = universe_from_count(0, 1, 5)
        vals = np.asarray(values)
        if vals.sum() == 0:
            return
        base = float(vals @ u.grid()) / float(vals.sum())
        scaled = float((c * vals) @ u.grid()) / float((c * vals).sum())
        assert scaled == pytest.approx(base, rel=1e-12)
        assert row_centroid(u, vals) == pytest.approx(base, rel=1e-12)


def row_cosine(a, b) -> float:
    """The scoring kernel's cosine of two membership vectors, each a 1-row batch:
    one group, p = 1."""
    a, b = (fuzzy.unit_rows(np.array([r], dtype=float)) for r in (a, b))
    return float(fuzzy.power_activation(a @ b.T, 1, 1)[0, 0])


def pow2_route(rows):
    """Unit rows through pow2_scale: the scaled rows times their reciprocal norms."""
    scaled, inv, _ = fuzzy.pow2_scale(rows)
    return scaled * inv[..., None]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# zero, or a magnitude in [2**-250, 2**250]: a row of at most 64 such entries has
# its sum of squares in [2**-500, 2**506], inside the two-pass range, or is zero
ENTRY = st.one_of(st.just(0.0), st.floats(2.0 ** -250, 2.0 ** 250),
                  st.floats(-(2.0 ** 250), -(2.0 ** -250)))


class TestUnitRowsTwoPass:
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 64)), elements=ENTRY))
    @settings(max_examples=300)
    def test_in_range_rows_have_the_bits_of_the_pow2_route(self, rows):
        assert np.array_equal(bits(fuzzy.unit_rows(rows)), bits(pow2_route(rows)))

    @pytest.mark.parametrize("row,norm", [([1e-310, -3e-310, 2e-310], 1.0),
                                          ([1e200, -3e200, 2e200], 1.0),
                                          ([0.0, 0.0, 0.0], 0.0)],
                             ids=["subnormal", "huge", "zero"])
    def test_out_of_range_rows_take_the_pow2_route(self, row, norm):
        # next to an in-range row, written into a column slice as unit_concat does
        rows = np.array([row, [0.25, -0.5, 1.0]])
        assert not 2.0 ** -900 <= float(np.einsum("j,j->", rows[0], rows[0])) <= 2.0 ** 900
        buf = np.full((2, 5), 7.0)
        got = fuzzy.unit_rows(rows, buf[:, 1:4])
        assert np.array_equal(bits(got), bits(pow2_route(rows)))
        assert math.hypot(*got[0]) == pytest.approx(norm, abs=1e-15)
        assert (buf[:, [0, 4]] == 7.0).all()


class TestSimilarity:
    def test_self_similarity(self):
        a = [0.2, 0.9, 0.1, 0, 0]
        assert row_cosine(a, a) == 1.0

    def test_disjoint_supports(self):
        assert row_cosine([1, 0, 0], [0, 0, 1]) == 0.0

    def test_half_overlap(self):
        got = row_cosine([1, 1, 0], [0, 1, 1])
        assert got == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("scale", [3.8e-295, 3.1063110723741964e-287, 5e-324])
    def test_tiny_proportional_vectors(self, scale):
        # squares of these entries underflow; the cosine must not
        one, tiny = [0, 0, 0, 1], [0, 0, 0, scale]
        assert row_cosine(one, tiny) == 1.0
        assert row_cosine(tiny, tiny) == 1.0
        row = np.array([0, 0.25, 0.5, 1])
        assert row_cosine(row, row * 3.8e-295) == 1.0

    def test_tiny_disjoint_and_partial(self):
        assert row_cosine([5e-324, 0, 0], [0, 0, 1e-300]) == 0.0
        got = row_cosine([1e-300, 1e-300, 0], [0, 1e-300, 1e-300])
        assert got == pytest.approx(0.5, rel=1e-12)

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4),
           st.lists(st.floats(0, 1), min_size=4, max_size=4))
    @example([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 3.8e-295])
    @example([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 3.1063110723741964e-287])
    @settings(max_examples=200)
    def test_bounds_and_symmetry(self, a_vals, b_vals):
        a, b = np.asarray(a_vals), np.asarray(b_vals)
        if a.sum() == 0 or b.sum() == 0:
            return
        s_ab = row_cosine(a, b)
        s_ba = row_cosine(b, a)
        assert 0.0 <= s_ab <= 1.0
        assert s_ab == s_ba
