import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurofuzzy import fuzzy
from neurofuzzy.errors import (
    AllZeroMembership,
    DegenerateFuzzification,
    EmptyRange,
    MisalignedRange,
    NegativeSupport,
    NonPositiveResolution,
    OutOfRange,
    UniverseMismatch,
    ZeroVector,
)
from neurofuzzy.fuzzy import (
    MembershipVector,
    TNorm,
    build_universe,
    defuzzify_centroid,
    fuzzify_triangular,
    similarity,
    universe_from_count,
)
from oracles import scalar_tnorm


def mv(u, values):
    return MembershipVector(u, np.asarray(values, dtype=float))


class TestBuildUniverse:
    def test_neuron_per_value_example(self):
        u = build_universe(0, 10, 0.1)
        assert u.count == 101

    def test_two_point_axis(self):
        u = build_universe(0, 1, 1)
        assert u.count == 2
        assert np.allclose(u.grid(), [0.0, 1.0])

    def test_percent_grid(self):
        u = build_universe(0, 1, 0.01)
        assert u.count == 101
        assert u.grid()[50] == pytest.approx(0.50, abs=1e-12)

    def test_errors(self):
        with pytest.raises(NonPositiveResolution):
            build_universe(0, 1, 0)
        with pytest.raises(EmptyRange):
            build_universe(1, 1, 0.1)
        with pytest.raises(MisalignedRange):
            build_universe(0, 1, 0.3)

    def test_from_count_round_trips(self):
        u = universe_from_count(0.0, 6.2346, 116)
        assert u.count == 116
        assert u.grid()[-1] == pytest.approx(6.2346, rel=1e-12)

    def test_nearest_index_ties_break_low(self):
        # a singleton sits on the nearest grid point, ties to the lower one
        u = build_universe(0, 1, 0.5)   # grid 0, 0.5, 1
        peaks = [int(np.argmax(fuzzify_triangular(u, c, 0).values)) for c in (0.25, 0.75, 0.26)]
        assert peaks == [0, 1, 1]


class TestFuzzify:
    def test_singleton_at_grid_point(self):
        u = build_universe(0, 1, 0.5)
        assert fuzzify_triangular(u, 0.5, 0).values.tolist() == [0, 1, 0]

    def test_triangle_on_grid(self):
        u = build_universe(0, 1, 0.25)
        out = fuzzify_triangular(u, 0.5, 0.5).values
        assert out.tolist() == [0, 0.5, 1, 0.5, 0]

    def test_peak_between_grid_points(self):
        u = build_universe(0, 1, 0.25)
        out = fuzzify_triangular(u, 0.1, 0.2).values
        assert np.allclose(out, [0.5, 0.25, 0, 0, 0])

    def test_errors(self):
        u = build_universe(0, 1, 0.25)
        with pytest.raises(OutOfRange):
            fuzzify_triangular(u, 1.5, 0.1)
        with pytest.raises(NegativeSupport):
            fuzzify_triangular(u, 0.5, -0.1)

    def test_degenerate_support_rejected(self):
        u = build_universe(0, 1, 0.25)
        # crisp mid-cell with support narrower than half the spacing
        with pytest.raises(DegenerateFuzzification):
            fuzzify_triangular(u, 0.125, 0.05)

    @given(crisp=st.floats(0, 1), hs_mult=st.floats(1.001, 20))
    @settings(max_examples=200)
    def test_peak_lower_bound(self, crisp, hs_mult):
        # triangle sampled at grid spacing: peak >= 1 - res/(2*hs)
        u = build_universe(0, 1, 0.01)
        hs = hs_mult * u.resolution
        out = fuzzify_triangular(u, crisp, hs).values
        assert out.max() >= 1 - u.resolution / (2 * hs) - 1e-12

    @given(crisp=st.floats(0, 1))
    @settings(max_examples=100)
    def test_singleton_round_trip(self, crisp):
        u = build_universe(0, 1, 0.01)
        got = defuzzify_centroid(fuzzify_triangular(u, crisp, 0))
        assert got in u.grid()
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


class TestDefuzzify:
    def test_singleton_centroid(self):
        u = build_universe(0, 1, 0.5)
        assert defuzzify_centroid(mv(u, [0, 1, 0])) == pytest.approx(0.5)

    def test_symmetry(self):
        u = build_universe(0, 1, 0.5)
        assert defuzzify_centroid(mv(u, [1, 1, 1])) == pytest.approx(0.5)

    def test_weighted_mean(self):
        u = build_universe(0, 1, 0.25)
        got = defuzzify_centroid(mv(u, [0.25, 0.5, 0.25, 0, 0]))
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_all_zero_raises(self):
        u = build_universe(0, 1, 0.5)
        with pytest.raises(AllZeroMembership):
            defuzzify_centroid(mv(u, [0, 0, 0]))

    def test_subnormal_weights(self):
        # exact in units of the smallest subnormal: 0 and (2 * 1.0) / 3
        u = build_universe(0, 1, 0.25)
        assert defuzzify_centroid(mv(u, [5e-324, 0, 0, 0, 0])) == 0.0
        got = defuzzify_centroid(mv(u, [5e-324, 0, 0, 0, 1e-323]))
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
        u = build_universe(0, 1, 0.25)
        vals = np.asarray(values)
        if vals.sum() == 0:
            return
        base = float(vals @ u.grid()) / float(vals.sum())
        scaled = float((c * vals) @ u.grid()) / float((c * vals).sum())
        assert scaled == pytest.approx(base, rel=1e-12)
        assert defuzzify_centroid(mv(u, vals)) == pytest.approx(base, rel=1e-12)


class TestSimilarity:
    def test_self_similarity(self):
        u = build_universe(0, 1, 0.25)
        a = mv(u, [0.2, 0.9, 0.1, 0, 0])
        assert similarity(a, a) == 1.0

    def test_disjoint_supports(self):
        u = build_universe(0, 1, 0.5)
        assert similarity(mv(u, [1, 0, 0]), mv(u, [0, 0, 1])) == 0.0

    def test_half_overlap(self):
        u = build_universe(0, 1, 0.5)
        got = similarity(mv(u, [1, 1, 0]), mv(u, [0, 1, 1]))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_errors(self):
        ua = build_universe(0, 1, 0.5)
        ub = build_universe(0, 1, 0.25)
        with pytest.raises(UniverseMismatch):
            similarity(mv(ua, [1, 0, 0]), mv(ub, [1, 0, 0, 0, 0]))
        with pytest.raises(ZeroVector):
            similarity(mv(ua, [0, 0, 0]), mv(ua, [1, 0, 0]))

    @pytest.mark.parametrize("scale", [3.8e-295, 3.1063110723741964e-287, 5e-324])
    def test_tiny_proportional_vectors(self, scale):
        # squares of these entries underflow; the cosine must not
        u = build_universe(0, 1, 1 / 3)
        one = mv(u, [0, 0, 0, 1])
        tiny = mv(u, [0, 0, 0, scale])
        assert similarity(one, tiny) == 1.0
        assert similarity(tiny, tiny) == 1.0
        row = np.array([0, 0.25, 0.5, 1])
        assert similarity(mv(u, row), mv(u, row * 3.8e-295)) == 1.0

    def test_tiny_disjoint_and_partial(self):
        u = build_universe(0, 1, 0.5)
        assert similarity(mv(u, [5e-324, 0, 0]), mv(u, [0, 0, 1e-300])) == 0.0
        got = similarity(mv(u, [1e-300, 1e-300, 0]), mv(u, [0, 1e-300, 1e-300]))
        assert got == pytest.approx(0.5, rel=1e-12)

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4),
           st.lists(st.floats(0, 1), min_size=4, max_size=4))
    @example([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 3.8e-295])
    @example([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 3.1063110723741964e-287])
    @settings(max_examples=200)
    def test_bounds_and_symmetry(self, a_vals, b_vals):
        u = build_universe(0, 1, 1 / 3)
        a, b = np.asarray(a_vals), np.asarray(b_vals)
        if a.sum() == 0 or b.sum() == 0:
            return
        s_ab = similarity(mv(u, a), mv(u, b))
        s_ba = similarity(mv(u, b), mv(u, a))
        assert 0.0 <= s_ab <= 1.0
        assert s_ab == s_ba


def tnorm(op, a, b) -> float:
    """pairwise_tnorm on one pair."""
    return float(fuzzy.pairwise_tnorm(op, [a], [b])[0, 0])


OPS = {"min": fuzzy.MIN, "product": fuzzy.PRODUCT, "tansig": fuzzy.TANSIG,
       "ps3": TNorm.power_sum(3), "ps9": TNorm.power_sum(9)}


class TestTNorms:
    def test_power_sum_all_ones_normalized(self):
        assert tnorm(TNorm.power_sum(7), 1, 1) == pytest.approx(1.0)

    def test_power_sum_example(self):
        assert tnorm(TNorm.power_sum(3), 0.5, 0.5) == pytest.approx(0.125)

    def test_min(self):
        assert tnorm(fuzzy.MIN, 0.3, 0.8) == pytest.approx(0.3)

    def test_product(self):
        assert tnorm(fuzzy.PRODUCT, 0.5, 0.25) == pytest.approx(0.125)

    def test_tansig_endpoints(self):
        assert tnorm(fuzzy.TANSIG, 0, 0) == pytest.approx(0.0, abs=1e-12)
        assert tnorm(fuzzy.TANSIG, 1, 1) == pytest.approx(1.0)
        # hand formula for two operands: rescaled tanh(a + b - 3)
        a, b = 0.3, 0.9
        raw = np.tanh(a + b - 3.0)
        expect = (raw - np.tanh(-3.0)) / (np.tanh(-1.0) - np.tanh(-3.0))
        assert tnorm(fuzzy.TANSIG, a, b) == pytest.approx(expect, rel=1e-12)

    @given(st.sampled_from(sorted(OPS)), st.floats(0, 1), st.floats(0, 1),
           st.booleans(), st.floats(0.001, 1))
    @settings(max_examples=300)
    def test_monotone_in_each_operand(self, kind, a, b, first, bump):
        op = OPS[kind]
        lo = tnorm(op, a, b)
        a, b = (min(1.0, a + bump), b) if first else (a, min(1.0, b + bump))
        assert tnorm(op, a, b) >= lo - 1e-12

    @given(st.sampled_from(sorted(OPS)))
    def test_unit_at_all_ones(self, kind):
        assert tnorm(OPS[kind], 1.0, 1.0) == pytest.approx(1.0)

    @given(a=st.floats(0.26, 0.99), frac=st.floats(0.01, 0.99))
    @settings(max_examples=200)
    def test_min_product_decrease_under_unequal_split(self, a, frac):
        # fixed sum 2a split unevenly: both operators strictly prefer balance
        delta = frac * min(a, 1.0 - a)
        if delta < 1e-9:
            return
        hi, lo = a + delta, a - delta
        assert tnorm(fuzzy.MIN, hi, lo) < tnorm(fuzzy.MIN, a, a)
        assert tnorm(fuzzy.PRODUCT, hi, lo) < tnorm(fuzzy.PRODUCT, a, a)

    def test_power_sum_9_does_not_over_fire(self):
        # AND-gate behaviour of the ninth power on the 0.1-spaced grid: it may
        # undershoot min badly but never exceeds it by more than 0.25 (it
        # actually stays within 2e-3 above min everywhere on the grid)
        grid = np.arange(0, 11) / 10.0
        worst = (fuzzy.pairwise_tnorm(TNorm.power_sum(9), grid, grid)
                 - np.minimum.outer(grid, grid)).max()
        assert worst <= 0.25

    def test_pairwise_matches_scalar(self):
        u = np.array([0.0, 0.4, 1.0])
        v = np.array([0.3, 0.9])
        for op in (fuzzy.MIN, fuzzy.PRODUCT, fuzzy.TANSIG, TNorm.power_sum(7)):
            mat = fuzzy.pairwise_tnorm(op, u, v)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    assert mat[i, j] == pytest.approx(scalar_tnorm(op, [a, b]), abs=1e-12)
