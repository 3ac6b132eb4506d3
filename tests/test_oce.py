import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from riskmdp.errors import DistributionError, ParameterError, UnsupportedUtilityError
from riskmdp.oce import (
    DiscreteDistribution,
    UtilitySpec,
    certainty_equivalent,
    cvar,
    entropic,
    logsumexp,
    oce,
    oce_cost,
    oce_generic,
)

from oracles import cvar_inf_formula, oce_grid

# frozen expected values, each computed from the closed form and confirmed
# against the dense eta-grid oracle below
ENTROPIC_04_G1 = 0.6749972526421355       # -ln(.5 + .5 e^-4)
ENTROPIC_COST_04_G1 = 3.3250027473578645  # ln(.5 + .5 e^4)


def two_point():
    return DiscreteDistribution([0.0, 4.0], [0.5, 0.5])


def skewed():
    return DiscreteDistribution([-100.0, 50.0], [0.1, 0.9])


class TestDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([0.0, 1.0], [0.5, 0.4])

    def test_negative_prob_rejected(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([0.0, 1.0], [1.5, -0.5])

    def test_empty_support_rejected(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([], [])

    def test_nonfinite_value_rejected(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution([np.inf], [1.0])

    def test_zero_atoms_ignored(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert d.values.tolist() == [1.0, 3.0]
        assert d.support_max == 3.0

    def test_merged_combines_equal_values(self):
        d = DiscreteDistribution([2.0, 1.0, 2.0], [0.25, 0.5, 0.25]).merged()
        assert d.values.tolist() == [1.0, 2.0]
        assert d.probs.tolist() == [0.5, 0.5]


class TestUtilitySpec:
    def test_entropic_needs_positive_gamma(self):
        with pytest.raises(ParameterError):
            UtilitySpec.entropic(0.0)

    def test_cvar_level_range(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                UtilitySpec.cvar(bad)

    def test_piecewise_must_be_concave(self):
        with pytest.raises(ParameterError):
            UtilitySpec.piecewise_linear([(-1.0, -1.0), (0.0, 0.0), (1.0, 2.0)])

    def test_piecewise_must_be_nondecreasing(self):
        with pytest.raises(ParameterError):
            UtilitySpec.piecewise_linear([(-1.0, -2.0), (0.0, 0.0), (1.0, -0.5)])

    def test_piecewise_zero_at_zero(self):
        with pytest.raises(ParameterError):
            UtilitySpec.piecewise_linear([(-1.0, -1.5), (1.0, 0.9)])

    def test_piecewise_slope_bracket_at_zero(self):
        # both slopes below 1 violates u'_-(0) >= 1
        with pytest.raises(ParameterError):
            UtilitySpec.piecewise_linear([(-1.0, -0.5), (0.0, 0.0), (1.0, 0.25)])

    def test_json_round_trip(self):
        for spec in (UtilitySpec.entropic(1.5), UtilitySpec.cvar(0.05),
                     UtilitySpec.mean_variance(),
                     UtilitySpec.piecewise_linear([(-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)])):
            assert UtilitySpec.from_json(spec.to_json()) == spec

    def test_unknown_json_type(self):
        with pytest.raises(ParameterError):
            UtilitySpec.from_json({"type": "quadratic"})


class TestEntropic:
    def test_constant(self):
        for gamma in (0.1, 1.0, 7.0):
            assert entropic(DiscreteDistribution.point_mass(3.25), gamma) == pytest.approx(3.25, abs=1e-12)

    def test_two_point_closed_form(self):
        assert entropic(two_point(), 1.0) == pytest.approx(ENTROPIC_04_G1, abs=1e-14)
        assert entropic(two_point(), 1.0) == pytest.approx(
            -math.log(0.5 + 0.5 * math.exp(-4.0)), abs=1e-14)

    def test_two_point_against_grid_oracle(self):
        spec = UtilitySpec.entropic(1.0)
        grid = oce_grid([0.0, 4.0], [0.5, 0.5], spec.u, n=10**6)
        assert entropic(two_point(), 1.0) == pytest.approx(grid, abs=1e-10)

    def test_small_gamma_taylor(self):
        # EX - (gamma/2) Var = 2 - 0.002 at gamma = 1e-3
        d = two_point()
        assert entropic(d, 1e-3) == pytest.approx(2.0 - 0.002, abs=1e-5)

    def test_taylor_coefficient_scales_quadratically(self):
        # err(gamma) = C gamma^2 + O(gamma^3); the 0.05 ratio slack covers the
        # cubic remainder on supports within [-5, 5] when the third cumulant
        # almost cancels and C alone underestimates
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.uniform(-5.0, 5.0, 5)
            probs = rng.random(5)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            approx = lambda g: d.mean() - 0.5 * g * d.variance()
            c_fit = abs(entropic(d, 1e-2) - approx(1e-2)) / 1e-4
            err = abs(entropic(d, 1e-3) - approx(1e-3))
            assert err <= (1.25 * c_fit + 0.05) * 1e-6

    def test_gamma_must_be_positive(self):
        with pytest.raises(ParameterError):
            entropic(two_point(), -1.0)


class TestCvar:
    def test_tail_examples(self):
        assert cvar(skewed(), 0.1) == pytest.approx(100.0, abs=1e-12)
        assert cvar(skewed(), 0.5) == pytest.approx(-20.0, abs=1e-12)

    def test_constant_reward_is_negated(self):
        for alpha in (0.05, 0.5, 0.95):
            assert cvar(DiscreteDistribution.point_mass(7.5), alpha) == pytest.approx(-7.5, abs=1e-12)

    def test_matches_inf_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 7)
            vals = rng.uniform(-20, 20, n)
            probs = rng.random(n)
            probs /= probs.sum()
            alpha = float(rng.uniform(0.02, 0.98))
            assert cvar(DiscreteDistribution(vals, probs), alpha) == pytest.approx(
                cvar_inf_formula(vals, probs, alpha), abs=1e-10)

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            cvar(two_point(), 1.0)


class TestCertaintyEquivalent:
    def test_constant(self):
        assert certainty_equivalent(DiscreteDistribution.point_mass(-2.0),
                                    UtilitySpec.entropic(2.0)) == -2.0

    def test_coincides_with_entropic_exactly(self):
        d = skewed()
        spec = UtilitySpec.entropic(0.3)
        assert certainty_equivalent(d, spec) == entropic(d, 0.3)

    def test_two_point(self):
        assert certainty_equivalent(two_point(), UtilitySpec.entropic(1.0)) == pytest.approx(
            ENTROPIC_04_G1, abs=1e-14)

    def test_noninvertible_kinds_rejected(self):
        for spec in (UtilitySpec.cvar(0.1), UtilitySpec.mean_variance()):
            with pytest.raises(UnsupportedUtilityError):
                certainty_equivalent(two_point(), spec)


ALL_SPECS = [
    UtilitySpec.entropic(0.1),
    UtilitySpec.entropic(1.0),
    UtilitySpec.entropic(5.0),
    UtilitySpec.cvar(0.05),
    UtilitySpec.cvar(0.5),
    UtilitySpec.mean_variance(),
    UtilitySpec.piecewise_linear([(-2.0, -5.0), (0.0, 0.0), (1.0, 0.5), (3.0, 1.0)]),
]


class TestOce:
    def test_consistency_all_kinds(self):
        for spec in ALL_SPECS:
            res = oce(DiscreteDistribution.point_mass(1.75), spec)
            assert res.value == pytest.approx(1.75, abs=1e-12)
            assert res.eta_star == pytest.approx(1.75, abs=1e-12)

    def test_entropic_example(self):
        res = oce(two_point(), UtilitySpec.entropic(1.0))
        assert res.value == pytest.approx(ENTROPIC_04_G1, abs=1e-12)

    def test_cvar_example(self):
        res = oce(skewed(), UtilitySpec.cvar(0.1))
        assert res.value == pytest.approx(-100.0, abs=1e-12)
        assert skewed().support_min <= res.eta_star <= skewed().support_max

    def test_eta_star_in_support_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            vals = rng.uniform(-10, 10, 5)
            probs = rng.random(5)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            for spec in ALL_SPECS:
                res = oce(d, spec)
                assert d.support_min - 1e-12 <= res.eta_star <= d.support_max + 1e-12

    def test_eta_star_attains_value(self):
        # the reported eta* is a maximizer: eta* + E u(X - eta*) is the value
        rng = np.random.default_rng(11)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(20):
                n = int(rng.integers(1, 7))
                vals = rng.uniform(-1.0, 1.0, n) * scale
                probs = rng.random(n)
                probs /= probs.sum()
                d = DiscreteDistribution(vals, probs)
                for spec in ALL_SPECS:
                    res = oce(d, spec)
                    attained = res.eta_star + probs @ spec.u(vals - res.eta_star)
                    assert attained == pytest.approx(res.value, abs=1e-12 * (1.0 + scale)), spec

    def test_closed_forms_match_generic_search(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            vals = rng.uniform(-8, 8, 4)
            probs = rng.random(4)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            for spec in ALL_SPECS:
                assert oce(d, spec).value == pytest.approx(
                    oce_generic(d, spec).value, abs=1e-8)

    def test_dispatched_kinds_match_search_tightly(self):
        # the closed-form kinds agree with the direct search to 1e-10: the
        # objective is flat to second order at an interior optimum and the
        # kink-candidate sweep is exact at boundary ones
        rng = np.random.default_rng(8)
        for _ in range(15):
            vals = rng.uniform(-5, 5, 5)
            probs = rng.random(5)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            for spec in (UtilitySpec.entropic(0.7), UtilitySpec.cvar(0.35)):
                assert oce(d, spec).value == pytest.approx(
                    oce_generic(d, spec).value, abs=1e-10)

    def test_restricting_eta_to_support_loses_nothing(self):
        # the search interval can stay inside [min X, max X]: wider grids
        # never find a better objective value
        rng = np.random.default_rng(9)
        for _ in range(10):
            vals = rng.uniform(-5, 5, 4)
            probs = rng.random(4)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            for spec in ALL_SPECS[1:4]:
                inside = oce(d, spec).value
                wide = oce_grid(vals, probs, spec.u,
                                lo=vals.min() - 15, hi=vals.max() + 15, n=200001)
                assert wide <= inside + 1e-6

    def test_mean_variance_closed_form_when_support_allows(self):
        # EX - Var/2 applies when max X <= 1 + EX
        d = DiscreteDistribution([0.1, 0.4, 0.9], [0.25, 0.5, 0.25])
        assert d.support_max <= 1.0 + d.mean()
        expected = d.mean() - 0.5 * d.variance()
        assert oce(d, UtilitySpec.mean_variance()).value == pytest.approx(expected, abs=1e-9)


class TestOceCost:
    def test_constant(self):
        for spec in ALL_SPECS:
            assert oce_cost(DiscreteDistribution.point_mass(2.5), spec).value == pytest.approx(
                2.5, abs=1e-12)

    def test_entropic_cost_closed_form(self):
        res = oce_cost(two_point(), UtilitySpec.entropic(1.0))
        assert res.value == pytest.approx(ENTROPIC_COST_04_G1, abs=1e-12)
        assert res.value == pytest.approx(math.log(0.5 + 0.5 * math.exp(4.0)), abs=1e-12)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            vals = rng.uniform(-6, 6, 5)
            probs = rng.random(5)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            for spec in ALL_SPECS:
                assert oce_cost(d, spec).value == pytest.approx(
                    -oce(d.negated(), spec).value, abs=1e-12)

    def test_dominates_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = rng.uniform(-6, 6, 4)
            probs = rng.random(4)
            probs /= probs.sum()
            d = DiscreteDistribution(vals, probs)
            for spec in ALL_SPECS:
                assert oce_cost(d, spec).value >= d.mean() - 1e-10


finite_dists = st.lists(
    st.tuples(st.floats(-50, 50), st.floats(0.01, 1.0)),
    min_size=1, max_size=6,
).map(lambda pairs: DiscreteDistribution(
    [v for v, _ in pairs], np.array([w for _, w in pairs]) / sum(w for _, w in pairs)))

spec_strategy = st.sampled_from(ALL_SPECS)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(finite_dists, spec_strategy)
    def test_jensen(self, d, spec):
        assert oce(d, spec).value <= d.mean() + 1e-10

    @settings(max_examples=150, deadline=None)
    @given(finite_dists, spec_strategy, st.floats(-10, 10))
    def test_shift_additivity(self, d, spec, c):
        assert oce(d.shifted(c), spec).value == pytest.approx(
            oce(d, spec).value + c, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(finite_dists, spec_strategy, st.lists(st.floats(0, 5), min_size=1, max_size=6))
    def test_monotonicity(self, d, spec, bumps):
        bumps = np.resize(np.asarray(bumps), d.values.size)
        larger = DiscreteDistribution(d.values + bumps, d.probs)
        assert oce(d, spec).value <= oce(larger, spec).value + 1e-10

    @settings(max_examples=80, deadline=None)
    @given(finite_dists)
    def test_risk_neutral_limit_entropic(self, d):
        delta = 1e-4
        scaled = oce(d.scaled(delta), UtilitySpec.entropic(1.0)).value / delta
        assert abs(scaled - d.mean()) <= 1e-3 * (1.0 + d.variance())

    @settings(max_examples=60, deadline=None)
    @given(finite_dists, st.sampled_from([0.05, 0.5]))
    def test_cvar_is_positively_homogeneous(self, d, alpha):
        # the exact identity replacing the risk-neutral limit, which requires
        # a utility differentiable at 0 and so does not hold for this kind
        delta = 1e-4
        spec = UtilitySpec.cvar(alpha)
        assert oce(d.scaled(delta), spec).value / delta == pytest.approx(
            oce(d, spec).value, abs=1e-6)


# entries from 1e-300 to 1e3 in magnitude, either sign, 0 (a maximum whose
# ln sum exp needs log1p of the other terms) or -inf
lse_entries = st.one_of(
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-300, 3)),
    st.just(0.0), st.just(-math.inf))


@st.composite
def lse_arrays(draw):
    """3-d arrays whose entries repeat from a small pool, so maxima tie, and
    whose first row along the last axis is sometimes all -inf."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6)))
    pool = draw(st.lists(lse_entries, min_size=1, max_size=3))
    n = shape[0] * shape[1] * shape[2]
    flat = draw(st.lists(st.one_of(st.sampled_from(pool), lse_entries), min_size=n, max_size=n))
    a = np.array(flat).reshape(shape)
    if draw(st.booleans()):
        a[0, 0, :] = -math.inf
    return a


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(lse_arrays(), st.sampled_from([None, -1, 2]))
    def test_matches_scipy_within_two_ulp(self, a, axis):
        ref = scipy_logsumexp(a, axis=axis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(ref)
        with np.errstate(invalid="ignore"):  # -inf - -inf where both are -inf
            close = np.abs(got - ref) <= 2 * np.spacing(np.abs(ref))
        assert np.all((got == ref) | close)

    def test_small_tail_kept_by_log1p(self):
        # ln(1 + e^-40) rounds to 0; acceptance criterion 07 (gamma = 1e-6)
        # needs the digits log1p keeps
        assert logsumexp(np.array([0.0, -40.0])) == math.log1p(math.exp(-40.0))
