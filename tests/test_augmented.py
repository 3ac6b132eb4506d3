import math

import numpy as np
import pytest

from riskmdp import augmented, fixtures
from riskmdp.augmented import (
    augmented_T,
    backward_pass,
    bound_lower,
    bound_upper,
    default_grid,
    entropic_total,
    reconstruct_policy_action,
    solve_inner,
    solve_sandwich,
    solve_total_oce,
)
from riskmdp.errors import ParameterError
from riskmdp.mdp import FiniteMdp
from riskmdp.neutral import value_iteration
from riskmdp.oce import UtilitySpec
from riskmdp.simulate import estimate, rollout

from conftest import random_mdp
from oracles import augmented_level_loop, jaquette_mgf_value, jaquette_switch_threshold

MGF_VALUE = 1.641566679441988  # frozen from jaquette_mgf_value(40)


def one_state_machine(beta=0.5, reward=1.0):
    return FiniteMdp(
        states=["s"], actions=["a"], admissible={"s": ["a"]},
        transitions={"s": {"a": {"s": 1.0}}},
        rewards={"s": {"a": reward}}, discount=beta)


class TestGrid:
    def test_levels_cover_tail(self, jaquette):
        g = default_grid(jaquette, tail_eps=1e-8)
        d_over = jaquette.reward_bound / (1 - jaquette.discount)
        assert jaquette.discount ** g.n_trunc * d_over <= 1e-8
        assert jaquette.discount ** (g.n_trunc - 1) * d_over > 1e-8

    def test_beta_zero(self):
        g = default_grid(one_state_machine(beta=0.0))
        assert g.n_trunc == 1

    def test_reachable_accumulations_stay_on_grid(self, jaquette):
        g = default_grid(jaquette)
        # any accumulated sum of discounted rewards minus eta lies in range
        top = jaquette.reward_bound / (1 - jaquette.discount)
        assert g.y[0] <= -top + 1e-12
        assert g.y[-1] >= top - 1e-12


class TestOperatorBounds:
    @pytest.mark.parametrize("spec", [UtilitySpec.entropic(0.5), UtilitySpec.cvar(0.3)])
    def test_upper_decreases_lower_increases(self, spec):
        rng = np.random.default_rng(31)
        m = random_mdp(rng, n_states=3, n_actions=2, beta=0.5, reward_scale=1.0)
        grid = default_grid(m)
        hi = bound_upper(m, spec, grid)
        lo = bound_lower(m, spec, grid)
        hi1, _ = augmented_T(m, spec, grid, hi)
        lo1, _ = augmented_T(m, spec, grid, lo)
        assert np.all(hi1 <= hi + 1e-12)
        assert np.all(lo1 >= lo - 1e-12)
        assert np.all(lo1 <= hi1 + 1e-12)

    def test_single_state_geometric(self):
        # near-linear utility: V(s, y, z) is y plus z times the annuity value;
        # checked on the y range whose future accumulation stays on the grid
        # (above it the deliberate top clamp flattens unreachable entries)
        m = one_state_machine()
        spec = UtilitySpec.entropic(1e-8)
        grid = default_grid(m)
        sol = solve_sandwich(m, spec, grid)
        for n in (0, 1, 3):
            z = grid.z(n)
            # keep a few cells clear of the top clamp: its contamination
            # decays about one decade per cell inward
            reachable = grid.y <= grid.y[-1] - 2.0 * z - 8 * grid.y_step
            vals = sol.table[n, 0, reachable]
            want = grid.y[reachable] + z * 2.0
            assert np.max(np.abs(vals - want)) <= 1e-6


class TestSandwich:
    @pytest.mark.parametrize("spec", [UtilitySpec.entropic(0.5), UtilitySpec.cvar(0.3)])
    def test_monotone_and_exact_merge(self, spec):
        rng = np.random.default_rng(32)
        m = random_mdp(rng, n_states=3, n_actions=2, beta=0.5, reward_scale=1.0)
        grid = default_grid(m)
        sol = solve_sandwich(m, spec, grid)
        assert sol.monotone_ok
        assert sol.converged
        assert sol.widths[-1] == 0.0
        assert all(w2 <= w1 + 1e-12 for w1, w2 in zip(sol.widths, sol.widths[1:]))

    def test_inner_single_step_when_beta_zero(self):
        m = one_state_machine(beta=0.0, reward=0.75)
        spec = UtilitySpec.cvar(0.4)
        grid = default_grid(m)
        inner = solve_inner(m, spec, grid, eta=0.5)
        assert inner.value == pytest.approx(float(spec.u(0.75 - 0.5)), abs=1e-9)

    def test_width_cap_reports_hint(self, jaquette):
        grid = default_grid(jaquette)
        sol = solve_sandwich(jaquette, UtilitySpec.entropic(1.0), grid, max_sweeps=3)
        assert not sol.converged
        assert sol.hint is not None

    @pytest.mark.parametrize("spec", [UtilitySpec.entropic(0.5), UtilitySpec.cvar(0.3)])
    def test_value_monotone_in_y_and_z(self, spec):
        rng = np.random.default_rng(35)
        m = random_mdp(rng, n_states=3, n_actions=2, beta=0.5, reward_scale=1.0)
        grid = default_grid(m)
        table = solve_sandwich(m, spec, grid).table
        # nondecreasing in y at every (level, state)
        assert np.min(np.diff(table, axis=2)) >= -1e-10
        # nondecreasing in z (nonincreasing in the level index), away from the
        # top clamp whose flattening affects only unreachable corner entries
        top = m.reward_bound / (1.0 - m.discount)
        z = np.array([grid.z(n) for n in range(grid.n_levels)])
        interior = grid.y[None, None, :] <= grid.y[-1] - z[:-1, None, None] * top - 8 * grid.y_step
        drop = table[:-1] - table[1:]
        assert np.min(np.where(interior, drop, 0.0)) >= -1e-10

    def test_inner_value_equals_fast_path_transform(self, jaquette):
        # for the entropic utility, V(x, y, 1) = u(y + V_total(x)), so the
        # grid inner solve at -eta must match the y-free recursion
        gamma = 1.0
        spec = UtilitySpec.entropic(gamma)
        grid = default_grid(jaquette)
        total = entropic_total(jaquette, gamma).value_dict()["1"]
        for eta in (0.5, 1.6, 3.0):
            inner = solve_inner(jaquette, spec, grid, eta=eta)
            assert inner.value == pytest.approx(float(spec.u(total - eta)), abs=5e-3)
            assert inner.width == 0.0
            assert inner.monotone_ok


def _past_envelope(rel, upper):
    """``augmented_T`` whose sweeps of the upper (``upper``) or lower
    sequence move cell (0, 0, 0) ``rel`` * max(1, |cell|) past the
    envelope they read, the wrong way."""
    original = augmented.augmented_T

    def pushed(m, spec, grid, V, want_argmax=False, rows=None):
        out, argmax = original(m, spec, grid, V, want_argmax, rows)
        if want_argmax != upper:  # the lower sequence asks for the argmax
            step = rel * max(1.0, abs(V[0, 0, 0]))
            out[0, 0, 0] = V[0, 0, 0] + (step if upper else -step)
        return out, argmax

    return pushed


class TestMonotoneCheck:
    # solve_sandwich allows each cell a slack relative to its magnitude
    def test_rounding_at_huge_cells_passes(self, invariant_model):
        # under entropic gamma = 50, u reaches about -1e31 at the bottom of
        # the grid, where an absolute 1e-9 is below one ulp
        m = invariant_model
        grid = default_grid(m)
        sol = solve_sandwich(m, UtilitySpec.entropic(50.0), grid)
        assert sol.table.min() < -1e30
        assert sol.monotone_ok and sol.converged
        assert backward_pass(m, UtilitySpec.entropic(50.0), grid)[2]

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
    @pytest.mark.parametrize("build,spec", [
        (fixtures.invariant_model, UtilitySpec.entropic(50.0)),
        (fixtures.jaquette, UtilitySpec.cvar(0.2)),
    ], ids=["invariant_entropic50", "jaquette_cvar"])
    def test_a_sweep_past_its_envelope_fails(self, monkeypatch, build, spec, upper):
        m = build()
        monkeypatch.setattr(augmented, "augmented_T", _past_envelope(1e-6, upper))
        assert not solve_sandwich(m, spec, default_grid(m)).monotone_ok

    def test_slack_is_relative_to_the_cell(self):
        old = np.array([-np.inf, -1e31, 0.0, 2.0])
        assert augmented._monotone(old, old.copy(), 1e-9)
        assert augmented._monotone(old, old + [0.0, -1e21, -1e-9, -2e-9], 1e-9)
        assert not augmented._monotone(old, old + [0.0, -1e23, 0.0, 0.0], 1e-9)
        assert not augmented._monotone(old, old + [0.0, 0.0, -2e-9, 0.0], 1e-9)
        # -inf only ever equals itself
        assert not augmented._monotone(old, np.array([-np.inf, -np.inf, 0.0, 2.0]), 1e-9)
        assert not augmented._monotone(np.array([np.nan]), np.array([np.nan]), 1e-9)


PASS_SPECS = [
    UtilitySpec.entropic(0.5),
    UtilitySpec.cvar(0.3),
    UtilitySpec.mean_variance(),
    UtilitySpec.piecewise_linear([(-1.0, -2.5), (0.0, 0.0), (0.5, 0.5), (2.0, 1.1)]),
]


class TestBackwardPass:
    @pytest.mark.parametrize("spec", PASS_SPECS, ids=lambda spec: spec.kind)
    def test_equals_converged_sandwich(self, spec, jaquette):
        # both paths run the same level kernel in the same order, so the
        # table and the argmax agree bitwise, not just within a tolerance
        rng = np.random.default_rng(37)
        models = [jaquette,
                  random_mdp(rng, n_states=3, n_actions=2, beta=0.5, reward_scale=1.0),
                  random_mdp(rng, n_states=4, n_actions=3, beta=0.3, reward_scale=1.0,
                             full_admissible=False)]
        for m in models:
            grid = default_grid(m)
            sand = solve_sandwich(m, spec, grid)
            table, argmax, within_bounds = backward_pass(m, spec, grid)
            assert sand.converged and sand.sweeps == grid.n_levels
            assert np.array_equal(table, sand.table)
            assert np.array_equal(argmax, sand.argmax)
            assert within_bounds and sand.monotone_ok

    def test_beta_zero_reports_every_level(self):
        # the sandwich stops after one sweep because its envelopes already
        # agree on the deepest level; the pass still computes both levels
        m = one_state_machine(beta=0.0, reward=0.75)
        spec = UtilitySpec.cvar(0.4)
        sol = solve_total_oce(m, spec)
        sand = solve_sandwich(m, spec, sol.grid)
        assert sand.sweeps == 1
        assert sol.sweeps == 2
        assert sol.report().iterations == 2
        assert np.array_equal(sol.table, sand.table)
        assert np.array_equal(sol.argmax, sand.argmax)


def _with(m, discount=None, reward_scale=1.0):
    """A fresh copy of ``m`` with another discount and/or scaled rewards."""
    d = m.to_dict()
    if discount is not None:
        d["discount"] = discount
    d["rewards"] = {s: {a: reward_scale * r for a, r in row.items()}
                    for s, row in d["rewards"].items()}
    return FiniteMdp.from_dict(d)


def _push_cell(level, delta, bound):
    """``augmented_level`` with cell (0, 0) of level ``level`` ("deepest":
    n_trunc) set to ``bound(spec, grid, n)[0] + delta``."""
    original = augmented.augmented_level

    def pushed(m, spec, grid, n, next_level, rows=None):
        values, argmax = original(m, spec, grid, n, next_level, rows)
        if n == (grid.n_trunc if level == "deepest" else level):
            values[0, 0] = bound(spec, grid, n)[0] + delta
        return values, argmax

    return pushed


def _upper(spec, grid, n, top=16.0):  # jaquette: d / (1 - beta) = 8 / 0.5
    return spec.u(grid.z(n) * top + grid.y)


def _lower(spec, grid, n):
    return spec.u(grid.y)


class TestBoundCheck:
    # the pass checks lower <= table <= upper once, on the finished table
    def test_fixtures_within_bounds(self):
        spec = UtilitySpec.cvar(0.2)
        for name, build in fixtures.FIXTURES.items():
            m = build()
            _, _, within_bounds = backward_pass(m, spec, default_grid(m))
            assert within_bounds, name
            assert solve_total_oce(m, spec).monotone_ok, name

    @pytest.mark.parametrize("level, delta, bound", [
        ("deepest", 1e-6, _upper),
        (0, -1e-6, _lower),
        (0, 1e-6, _upper),
        ("deepest", -1e-6, _lower),
    ], ids=["deepest_above_upper", "level0_below_lower", "level0_above_upper",
            "deepest_below_lower"])
    def test_one_cell_out_of_bounds(self, monkeypatch, jaquette, level, delta, bound):
        spec = UtilitySpec.cvar(0.2)
        grid = default_grid(jaquette)
        assert jaquette.reward_bound / (1 - jaquette.discount) == 16.0
        monkeypatch.setattr(augmented, "augmented_level", _push_cell(level, delta, bound))
        _, _, within_bounds = backward_pass(jaquette, spec, grid)
        assert not within_bounds
        assert not solve_total_oce(jaquette, spec, grid=grid).monotone_ok

    def test_rewards_read_per_pass(self, jaquette):
        # nothing of a pass stays behind on the model: a solve after the
        # rewards change equals one of a freshly loaded model
        spec = UtilitySpec.cvar(0.2)
        solve_total_oce(jaquette, spec)
        jaquette.reward *= 0.5
        sol = solve_total_oce(jaquette, spec)
        fresh = solve_total_oce(_with(jaquette), spec)
        assert np.array_equal(sol.table, fresh.table)
        assert np.array_equal(sol.argmax, fresh.argmax)
        assert sol.report().to_json() == fresh.report().to_json()


class TestGridRefusal:
    # a grid of another model reads the clamped top of the table and still
    # passes the bound check, so it is refused up front
    SPEC = UtilitySpec.cvar(0.2)

    def _refused(self, m, grid, match):
        for solve in (backward_pass, solve_sandwich):
            with pytest.raises(ParameterError, match=match):
                solve(m, self.SPEC, grid)
        with pytest.raises(ParameterError, match=match):
            solve_total_oce(m, self.SPEC, grid=grid)

    def test_other_discount_refused(self, jaquette):
        self._refused(jaquette, default_grid(_with(jaquette, discount=0.9)), "beta = 0.9")

    def test_too_narrow_y_refused(self, jaquette):
        self._refused(_with(jaquette, reward_scale=10.0), default_grid(jaquette),
                      "not the accumulation range")

    def test_wider_y_accepted(self, jaquette):
        # a grid over a wider range, or with a step that does not divide
        # d/(1-beta), covers the model
        for grid in (default_grid(_with(jaquette, reward_scale=2.0)),
                     default_grid(jaquette, y_step=0.037)):
            _, _, within_bounds = backward_pass(jaquette, self.SPEC, grid)
            assert within_bounds


def _level_models():
    rng = np.random.default_rng(38)
    return [fixtures.jaquette(), fixtures.invariant_model(), fixtures.inventory_toy(),
            random_mdp(rng, n_states=5, n_actions=3, beta=0.5),
            random_mdp(rng, n_states=6, n_actions=3, beta=0.6, full_admissible=False),
            random_mdp(rng, n_states=6, n_actions=3, beta=0.5, successors=2),
            random_mdp(rng, n_states=8, n_actions=2, beta=0.6, successors=3,
                       full_admissible=False)]


def _solve_both(monkeypatch, m, spec):
    """solve_total_oce with the mixed level kernel, then with the
    per-successor reference loop in its place."""
    sol = solve_total_oce(m, spec)
    with monkeypatch.context() as patch:
        patch.setattr(augmented, "augmented_level", augmented_level_loop)
        ref = solve_total_oce(m, spec)
    return sol, ref


def _rules(sol):
    """Every stage rule as (state, action) pairs in report order."""
    return [list(rule.choice.items()) for rule in sol.stage_policy.stages]


class TestLevelKernel:
    # no piece of slope 1: there eta + E u(R - eta) is flat in eta, and its
    # first maximizer would turn on the last bit of the level-0 values
    @pytest.mark.parametrize("spec", [
        UtilitySpec.cvar(0.2), UtilitySpec.mean_variance(),
        UtilitySpec.piecewise_linear([(-1.0, -3.0), (0.0, 0.0), (1.0, 0.4)]),
    ], ids=lambda spec: spec.kind)
    def test_mixture_equals_per_successor_loop(self, monkeypatch, spec):
        # interpolation is linear in the table, so mixing the successor rows
        # first and reading the mixture once changes only rounding
        for m in _level_models():
            sol, ref = _solve_both(monkeypatch, m, spec)
            assert np.all(np.abs(sol.table - ref.table)
                          <= 1e-12 * np.maximum(1.0, np.abs(ref.table)))
            for s in m.states:
                assert abs(sol.values_by_state[s] - ref.values_by_state[s]) <= 1e-12, s
            assert sol.eta_star == ref.eta_star
            assert _rules(sol) == _rules(ref)

    @pytest.mark.filterwarnings("ignore:overflow encountered in expm1")
    def test_minus_infinity_in_the_table(self, monkeypatch, jaquette):
        # at gamma = 50 the entropic u(y) overflows to -inf at the bottom of
        # the grid; a successor of probability 0 must not turn it into NaN
        sol, ref = _solve_both(monkeypatch, jaquette, UtilitySpec.entropic(50.0))
        assert np.isneginf(ref.table).any()
        assert ref.value == pytest.approx(1.3217960763973227, abs=1e-12)
        assert abs(sol.value - ref.value) <= 1e-12
        assert np.array_equal(np.isneginf(sol.table), np.isneginf(ref.table))
        assert _rules(sol) == _rules(ref)


class TestEntropicTotal:
    def test_jaquette_value_matches_mgf_product(self, jaquette):
        assert jaquette_mgf_value(40) == pytest.approx(MGF_VALUE, abs=1e-12)
        sol = entropic_total(jaquette, 1.0, tail_eps=1e-9)
        assert sol.value_dict()["1"] == pytest.approx(MGF_VALUE, abs=1e-6)

    def test_switch_threshold(self):
        assert jaquette_switch_threshold() == pytest.approx(0.455904, abs=1e-5)

    def test_realized_policy_ultimately_stationary(self, jaquette):
        sol = entropic_total(jaquette, 1.0)
        acts = [r.choice["1"] for r in sol.stage_policy.stages]
        # the choice state is visited at even stages: safe branch first, the
        # fair gamble from the second visit on
        assert acts[0] == "b2"
        assert all(a == "b1" for a in acts[2::2])
        # stationary from stage 2 onward (every level, visited or not)
        assert all(a == "b1" for a in acts[2:])
        # the level-1 rule also picks b2 (z = 0.5 is above the switch
        # threshold) but state 1 cannot be reached at odd stages from 1
        assert acts[1] == "b2"
        assert sol.stage_policy.tail.choice["1"] == "b1"

    def test_switch_level_matches_threshold(self, jaquette):
        sol = entropic_total(jaquette, 1.0)
        s_star = jaquette_switch_threshold()
        for n, rule in enumerate(sol.stage_policy.stages):
            want = "b2" if 0.5 ** n > s_star else "b1"
            assert rule.choice["1"] == want

    def test_tiny_gamma_matches_risk_neutral(self, jaquette):
        sol = entropic_total(jaquette, 1e-6)
        neutral = value_iteration(jaquette, tol=1e-11)
        for s in jaquette.states:
            assert sol.value_dict()[s] == pytest.approx(neutral.value[s], abs=1e-4)

    def test_constant_rewards_any_gamma(self):
        m = one_state_machine(beta=0.5, reward=1.0)
        for gamma in (0.1, 1.0, 5.0):
            sol = entropic_total(m, gamma)
            assert sol.value_dict()["s"] == pytest.approx(2.0, abs=1e-7)


def eta_pick_oracle(sol, eta_max):
    """Largest eta + V(x, -eta, 1) per state over every kink in [0, eta_max]
    and 10^4 evenly spaced eta, read off the solution's level-0 table."""
    y = sol.grid.y
    etas = np.concatenate((-y[(y <= 0.0) & (y >= -eta_max)], np.linspace(0.0, eta_max, 10_000)))
    return {s: float(np.max(etas + np.interp(-etas, y, sol.table[0, si])))
            for si, s in enumerate(sol.model.states)}


GRID_SPECS = [UtilitySpec.mean_variance(), UtilitySpec.cvar(0.2)]


class TestSolveTotalOce:
    @pytest.mark.parametrize("y_step", [0.3, 0.07])
    @pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda spec: spec.kind)
    def test_eta_pick_stays_below_the_total(self, spec, y_step):
        # the total reward is 2 on every path, so no OCE exceeds 2; an eta
        # read past d/(1-beta) would see the clamped top of the table
        m = one_state_machine(beta=0.5, reward=1.0)
        sol = solve_total_oce(m, spec, grid=default_grid(m, y_step=y_step))
        assert sol.value <= 2.0 + 1e-12
        assert 0.0 <= sol.eta_star <= 2.0
        assert abs(sol.value - eta_pick_oracle(sol, 2.0)["s"]) <= 1e-12

    @pytest.mark.parametrize("y_step", [0.03, 0.037])
    @pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda spec: spec.kind)
    def test_eta_pick_is_the_objective_maximum(self, jaquette, spec, y_step):
        # neither step divides d/(1-beta) = 16, so the kinks eta = -y_j
        # are not multiples of the step
        sol = solve_total_oce(jaquette, spec, grid=default_grid(jaquette, y_step=y_step))
        want = eta_pick_oracle(sol, jaquette.reward_bound / (1 - jaquette.discount))
        for s in jaquette.states:
            assert abs(sol.values_by_state[s] - want[s]) <= 1e-12, s

    def test_jaquette_generic_within_budget(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0),
                              estimate_interp_error=True)
        budget = sol.sandwich_width + sol.tail_error + sol.interp_error_estimate
        assert abs(sol.value - MGF_VALUE) <= budget
        assert sol.monotone_ok
        assert 0.0 <= sol.eta_star <= jaquette.reward_bound / (1 - jaquette.discount)

    def test_jaquette_stage_policy(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        assert sol.stage_policy.stages[0].choice["1"] == "b2"
        assert sol.stage_policy.stages[2].choice["1"] == "b1"
        assert sol.stage_policy.stages[4].choice["1"] == "b1"

    def test_constant_reward_model_any_utility(self):
        # deterministic total 1.6 -> value 1.6 for every utility; the smooth
        # kinds resolve to ~1e-4, while a kink sitting exactly at the read
        # point smears about Lipschitz * y_step across the level cascade
        m = one_state_machine(beta=0.5, reward=0.8)
        for spec, tol in ((UtilitySpec.entropic(1.0), 1e-3),
                          (UtilitySpec.cvar(0.2), 0.02),
                          (UtilitySpec.mean_variance(), 1e-3)):
            sol = solve_total_oce(m, spec)
            assert sol.value == pytest.approx(1.6, abs=tol)
            assert sol.value <= 1.6 + 1e-9  # interpolation never overestimates

    def test_grid_path_close_to_fast_path(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            m = random_mdp(rng, n_states=3, n_actions=2, beta=0.5, reward_scale=1.0)
            gamma = 0.5
            fast = entropic_total(m, gamma).value_dict()[m.states[0]]
            grid = solve_total_oce(m, UtilitySpec.entropic(gamma)).value
            assert abs(grid - fast) <= 1e-3

    def test_piecewise_utility_on_grid_path(self):
        rng = np.random.default_rng(36)
        spec = UtilitySpec.piecewise_linear([(-1.0, -2.5), (0.0, 0.0), (0.5, 0.5), (2.0, 1.1)])
        for _ in range(2):
            m = random_mdp(rng, n_states=2, n_actions=2, beta=0.5, reward_scale=1.0)
            sol = solve_total_oce(m, spec)
            neutral = value_iteration(m, tol=1e-10)
            # the criterion value never beats the risk-neutral total (Jensen)
            assert sol.value <= neutral.value[m.states[0]] + 1e-6
            assert sol.value >= 0.0 - 1e-9  # rewards are nonnegative
            assert sol.monotone_ok and sol.sandwich_width == 0.0

    def test_entropic_eta_star_near_value(self, jaquette):
        # for the entropic utility the optimal consumption level equals the
        # criterion value itself
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        assert abs(sol.eta_star - sol.value) <= 2 * sol.grid.y_step + 1e-6

    def test_time_inconsistency_witness(self, jaquette):
        # same model, same utility: the nested criterion admits a stationary
        # optimum while the total-reward optimum is stage-dependent (only
        # ultimately stationary)
        from riskmdp.recursive import solve_recursive

        nested = solve_recursive(jaquette, UtilitySpec.entropic(1.0), tol=1e-9)
        assert isinstance(nested.policy, dict)  # one rule for all stages
        total = entropic_total(jaquette, 1.0)
        stage_rules = [r.choice for r in total.stage_policy.stages]
        assert stage_rules[0] != stage_rules[2]
        assert all(r == stage_rules[2] for r in stage_rules[2:])


class TestReconstruction:
    def test_empty_history(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        res = reconstruct_policy_action(sol, [], "1")
        assert res.action == "b2"
        assert not res.truncated

    def test_two_step_history(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        res = reconstruct_policy_action(sol, [("1", "b2"), ("2", "a")], "1")
        assert res.action == "b1"
        assert res.rounding_distance <= sol.grid.y_step

    def test_beyond_truncation_flagged(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        past = []
        s = "1"
        for k in range(sol.grid.n_trunc + 2):
            a = {"1": "b1", "2": "a", "3": "a"}[s]
            past.append((s, a))
            s = "2" if s == "1" else "1"
        res = reconstruct_policy_action(sol, past, s)
        assert res.truncated
        assert res.action in jaquette.admissible[s]

    def test_deterministic_model_agrees_with_stage_policy(self):
        rng = np.random.default_rng(34)
        states = ["s0", "s1"]
        m = FiniteMdp(
            states=states, actions=["x", "y"],
            admissible={s: ["x", "y"] for s in states},
            transitions={
                "s0": {"x": {"s1": 1.0}, "y": {"s0": 1.0}},
                "s1": {"x": {"s0": 1.0}, "y": {"s1": 1.0}},
            },
            rewards={"s0": {"x": 1.0, "y": 0.2}, "s1": {"x": 0.0, "y": 0.9}},
            discount=0.5)
        sol = solve_total_oce(m, UtilitySpec.entropic(0.7))
        past = []
        s = "s0"
        for n in range(8):
            res = reconstruct_policy_action(sol, past, s)
            assert res.action == sol.stage_policy.stages[n].choice[s]
            past.append((s, res.action))
            si, ai = m.state_index[s], m.action_index[res.action]
            s = m.states[int(np.argmax(m.kernel[si, ai]))]

    def test_inadmissible_history_rejected(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        with pytest.raises(ParameterError):
            reconstruct_policy_action(sol, [("2", "b1")], "1")

    def test_unknown_current_state_rejected(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        with pytest.raises(ParameterError, match="unknown current state 'nope'"):
            reconstruct_policy_action(sol, [], "nope")
        # also past the truncation level, where the tail rule would be read
        past = [("1", "b1"), ("2", "a")] * sol.grid.n_trunc
        with pytest.raises(ParameterError, match="unknown current state"):
            reconstruct_policy_action(sol, past, "nope")

    def test_unknown_history_state_rejected(self, jaquette):
        sol = solve_total_oce(jaquette, UtilitySpec.entropic(1.0))
        with pytest.raises(ParameterError, match="history step 1: unknown state 'nope'"):
            reconstruct_policy_action(sol, [("1", "b2"), ("nope", "a")], "1")


class TestReportLayout:
    def test_one_line_per_stage_rule(self, jaquette):
        import json
        rep = entropic_total(jaquette, 1.0).report()
        text = rep.to_json()
        assert json.loads(text) == json.loads(json.dumps(rep.to_dict()))
        assert list(json.loads(text)) == list(rep.to_dict())
        rules = rep.extras["stage_policy"]
        lines = text.splitlines()
        start = lines.index('  "stage_policy": [')
        assert lines[start + 1:start + 2 + len(rules)] == (
            [f"    {json.dumps(r)}," for r in rules[:-1]] + [f"    {json.dumps(rules[-1])}", "  ]"])

    def test_other_reports_keep_the_indented_layout(self, jaquette):
        import json
        total = solve_total_oce(jaquette, UtilitySpec.cvar(0.2)).report()
        for rep in (value_iteration(jaquette), total):
            rep.extras.pop("stage_policy", None)
            assert rep.to_json() == json.dumps(rep.to_dict(), indent=2) + "\n"


def history_hook(sol):
    """The exact history-dependent policy of a grid solve, as a rollout hook.

    A rollout hands the hook one growing list of past pairs per replication,
    so the hook carries the accumulated y forward: at stage n it adds
    beta^(n-1) r of the last pair, the term :func:`reconstruct_policy_action`
    adds last, and reads the argmax at (n, x, y).  Stage 0 starts a new
    replication at y = -eta*.
    """
    m, grid = sol.model, sol.grid
    acc = {"y": 0.0}

    def hook(past, s):
        n = len(past)
        if n == 0:
            acc["y"] = -sol.eta_star
        else:
            ps, pa = past[-1]
            acc["y"] += (m.discount ** (n - 1)) * m.reward[m.state_index[ps], m.action_index[pa]]
        return m.actions[int(sol.argmax[n, m.state_index[s], grid.y_index(acc["y"])[0]])]

    return hook


# None: jaquette; an integer: the seed of a random_mdp(., 4, 2, beta=0.5)
MC_SEEDS = [None, 0, 1, 2]


class TestMonteCarloTotalOce:
    """Grid total-OCE values against seeded rollouts of the policy they
    describe.  The tolerance is the solve's own error budget, tail plus
    interpolation estimate, plus four standard errors of the estimate."""

    @staticmethod
    def solve(seed):
        m = (fixtures.jaquette() if seed is None
             else random_mdp(np.random.default_rng(seed), 4, 2, beta=0.5))
        return solve_total_oce(m, UtilitySpec.cvar(0.2), estimate_interp_error=True)

    @pytest.mark.parametrize("seed", MC_SEEDS)
    def test_hook_agrees_with_reconstruction(self, seed):
        sol = self.solve(seed)
        m = sol.model
        rng = np.random.default_rng(3)
        for _ in range(5):
            hook = history_hook(sol)
            past, s = [], m.states[0]
            for _ in range(sol.grid.n_trunc):
                act = hook(past, s)
                assert act == reconstruct_policy_action(sol, list(past), s).action
                past.append((s, act))
                row = m.kernel[m.state_index[s], m.action_index[act]]
                s = m.states[int(rng.choice(m.n_states, p=row / row.sum()))]

    @pytest.mark.parametrize("seed", MC_SEEDS)
    def test_value_within_budget_of_rollouts(self, seed):
        sol = self.solve(seed)
        m = sol.model
        batch = rollout(m, history_hook(sol), m.states[0], sol.grid.n_trunc, 7, 5000)
        est = estimate(batch, "cvar", alpha=0.2)
        # -CVaR of the sampled rewards is the OCE the solve reports
        tol = sol.tail_error + sol.interp_error_estimate + 4.0 * est.std_error
        assert abs(sol.value - (-est.point)) <= tol


@pytest.mark.parametrize("share", [0.51, 0.75, 1.0])
def test_interp_estimate_refuses_a_coarse_step_past_the_range(jaquette, share):
    # the step fits d/(1-beta) = 16, but the estimate's twice-as-coarse
    # grid does not
    grid = default_grid(jaquette, y_step=share * 16.0)
    with pytest.raises(ParameterError, match="interpolation estimate at twice the step"):
        solve_total_oce(jaquette, UtilitySpec.cvar(0.2), grid=grid, estimate_interp_error=True)
