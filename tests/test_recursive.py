import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskmdp import fixtures
from riskmdp.errors import IterationLimitError, ParameterError
from riskmdp.mdp import FiniteMdp, StagePolicy, StationaryPolicy
from riskmdp.neutral import bellman_T, value_iteration
from riskmdp.oce import UtilitySpec, oce_generic
from riskmdp.recursive import (
    _dual_kernel,
    _iterate,
    _successor_layer,
    entropic_fast_path,
    n_stage_value,
    oce,
    policy_evaluation_recursive,
    policy_iteration_recursive,
    push_forward,
    recursive_bellman_L,
    solve_recursive,
    successor_risk,
)

from conftest import random_mdp

# fixed point under the safe-branch policy, solved by hand:
# V1 = 1 + V1/4 - ln(0.9 + 0.1 e^-8)/2
JAQUETTE_NESTED_V1 = (4.0 / 3.0) * (1.0 + math.log(math.sqrt(10.0 / (9.0 + math.exp(-8.0)))))

KINDS = [
    UtilitySpec.entropic(1.0),
    UtilitySpec.cvar(0.25),
    UtilitySpec.mean_variance(),
    UtilitySpec.piecewise_linear([(-2.0, -4.0), (0.0, 0.0), (2.0, 1.0)]),
]


class TestOperator:
    def test_matches_risk_neutral_at_tiny_gamma(self, jaquette):
        v = np.array([1.0, 2.0, 3.0])
        lv, _ = recursive_bellman_L(jaquette, UtilitySpec.entropic(1e-8), v)
        tv, _ = bellman_T(jaquette, v)
        assert np.max(np.abs(lv - tv)) <= 1e-6

    def test_point_mass_pushforwards(self, jaquette):
        # states 2, 3 jump deterministically, so L0 equals the reward row
        lv, idx = recursive_bellman_L(jaquette, UtilitySpec.entropic(1.0), np.zeros(3))
        assert lv.tolist() == [1.0, 0.0, 8.0]
        assert jaquette.actions[idx[0]] == "b2"

    def test_deterministic_kernel_reduces_to_T(self):
        rng = np.random.default_rng(21)
        from riskmdp.mdp import FiniteMdp
        states = ["s0", "s1", "s2"]
        trans = {s: {"a": {states[(i + 1) % 3]: 1.0}} for i, s in enumerate(states)}
        m = FiniteMdp(states=states, actions=["a"],
                      admissible={s: ["a"] for s in states},
                      transitions=trans,
                      rewards={s: {"a": float(rng.random())} for s in states},
                      discount=0.7)
        v = rng.uniform(0, 5, 3)
        tv, _ = bellman_T(m, v)
        for spec in KINDS:
            lv, _ = recursive_bellman_L(m, spec, v)
            assert np.max(np.abs(lv - tv)) <= 1e-12

    def test_bound_preserved(self, jaquette):
        d = jaquette.reward_bound
        v = np.full(3, d / (1 - jaquette.discount))
        for spec in KINDS:
            lv, _ = recursive_bellman_L(jaquette, spec, v)
            assert np.all(lv >= -1e-12)
            assert np.all(lv <= d + jaquette.discount * np.max(v) + 1e-12)

    def test_contraction_all_kinds(self):
        rng = np.random.default_rng(22)
        for trial in range(8):
            m = random_mdp(rng, n_states=4, n_actions=2, beta=float(rng.uniform(0.3, 0.9)))
            spec = KINDS[trial % len(KINDS)]
            for _ in range(5):
                v1 = rng.uniform(0, 8, 4)
                v2 = rng.uniform(0, 8, 4)
                lhs = np.max(np.abs(recursive_bellman_L(m, spec, v1)[0]
                                    - recursive_bellman_L(m, spec, v2)[0]))
                assert lhs <= m.discount * np.max(np.abs(v1 - v2)) + 1e-12

    def test_monotone(self):
        rng = np.random.default_rng(23)
        m = random_mdp(rng, n_states=4, n_actions=2, beta=0.8)
        for spec in KINDS:
            v = rng.uniform(0, 5, 4)
            w = v + rng.uniform(0, 3, 4)
            assert np.all(recursive_bellman_L(m, spec, v)[0]
                          <= recursive_bellman_L(m, spec, w)[0] + 1e-12)


class TestSolve:
    def test_jaquette_entropic_closed_form(self, jaquette):
        rep = solve_recursive(jaquette, UtilitySpec.entropic(1.0), tol=1e-10)
        assert rep.value["1"] == pytest.approx(JAQUETTE_NESTED_V1, abs=1e-9)
        assert rep.value["2"] == pytest.approx(rep.value["1"] / 2.0, abs=1e-9)
        assert rep.value["3"] == pytest.approx(8.0 + rep.value["1"] / 2.0, abs=1e-9)
        assert rep.policy == {"1": "b2", "2": "a", "3": "a"}

    def test_tiny_gamma_meets_risk_neutral(self, jaquette):
        rep = solve_recursive(jaquette, UtilitySpec.entropic(1e-6), tol=1e-10)
        assert rep.value["1"] == pytest.approx(8.0 / 3.0, abs=1e-4)

    def test_values_in_bounds(self):
        rng = np.random.default_rng(24)
        for trial in range(6):
            m = random_mdp(rng, n_states=4, n_actions=2, beta=0.8)
            spec = KINDS[trial % len(KINDS)]
            rep = solve_recursive(m, spec, tol=1e-9)
            top = m.reward_bound / (1 - m.discount)
            for v in rep.value.values():
                assert -1e-9 <= v <= top + 1e-9

    def test_fixed_point_residual(self, jaquette):
        rep = solve_recursive(jaquette, UtilitySpec.cvar(0.3), tol=1e-9)
        assert rep.residual <= 1e-9 * (1 - jaquette.discount) * 2

    def test_never_beats_risk_neutral(self):
        # S_u <= E pointwise, so the nested fixed point sits below the
        # risk-neutral one for every utility kind
        rng = np.random.default_rng(27)
        for trial in range(4):
            m = random_mdp(rng, n_states=4, n_actions=2, beta=0.8)
            neutral = value_iteration(m, tol=1e-10)
            spec = KINDS[trial % len(KINDS)]
            rep = solve_recursive(m, spec, tol=1e-9)
            for s in m.states:
                assert rep.value[s] <= neutral.value[s] + 1e-8


class TestFastPath:
    def test_identical_to_generic(self, jaquette):
        gen = solve_recursive(jaquette, UtilitySpec.entropic(1.0), tol=1e-10)
        fast = entropic_fast_path(jaquette, 1.0, tol=1e-10)
        for s in jaquette.states:
            assert fast.value[s] == pytest.approx(gen.value[s], abs=1e-8)
        assert fast.policy == gen.policy

    def test_identical_on_random_models(self):
        rng = np.random.default_rng(25)
        for _ in range(6):
            m = random_mdp(rng, n_states=4, n_actions=3, beta=0.8,
                           full_admissible=False)
            gamma = float(rng.uniform(0.2, 2.0))
            gen = solve_recursive(m, UtilitySpec.entropic(gamma), tol=1e-10)
            fast = entropic_fast_path(m, gamma, tol=1e-10)
            for s in m.states:
                assert fast.value[s] == pytest.approx(gen.value[s], abs=1e-8)
            assert fast.policy == gen.policy

    def test_tie_break_consistent_across_paths(self):
        # two identical actions, admissible list declared in reverse order:
        # every path must settle on the first action in declared action order
        from riskmdp.mdp import FiniteMdp
        from riskmdp.neutral import value_iteration
        m = FiniteMdp(
            states=["s0", "s1"], actions=["x", "y"],
            admissible={"s0": ["y", "x"], "s1": ["x"]},
            transitions={"s0": {"x": {"s1": 1.0}, "y": {"s1": 1.0}},
                         "s1": {"x": {"s0": 1.0}}},
            rewards={"s0": {"x": 1.0, "y": 1.0}, "s1": {"x": 0.0}},
            discount=0.5)
        assert m.admissible["s0"] == ["x", "y"]
        spec = UtilitySpec.entropic(1.0)
        gen = solve_recursive(m, spec, tol=1e-10)
        fast = entropic_fast_path(m, 1.0, tol=1e-10)
        assert gen.policy["s0"] == "x"
        assert fast.policy["s0"] == "x"
        assert value_iteration(m, tol=1e-10).policy["s0"] == "x"

    def test_deterministic_chain_gamma_irrelevant(self):
        from riskmdp.mdp import FiniteMdp
        states = ["s0", "s1"]
        m = FiniteMdp(states=states, actions=["a"],
                      admissible={s: ["a"] for s in states},
                      transitions={"s0": {"a": {"s1": 1.0}}, "s1": {"a": {"s0": 1.0}}},
                      rewards={"s0": {"a": 1.0}, "s1": {"a": 3.0}},
                      discount=0.5)
        neutral = value_iteration(m, tol=1e-11)
        fast = entropic_fast_path(m, 1.0, tol=1e-11)
        for s in states:
            assert fast.value[s] == pytest.approx(neutral.value[s], abs=1e-9)

    def test_stochastic_dominance_ordering(self):
        # shifting mass toward the better successor can only help
        from riskmdp.mdp import FiniteMdp

        def chain(p_good):
            return FiniteMdp(
                states=["root", "good", "bad"], actions=["a"],
                admissible={s: ["a"] for s in ["root", "good", "bad"]},
                transitions={
                    "root": {"a": {"good": p_good, "bad": 1.0 - p_good}},
                    "good": {"a": {"root": 1.0}},
                    "bad": {"a": {"root": 1.0}},
                },
                rewards={"root": {"a": 0.0}, "good": {"a": 5.0}, "bad": {"a": 1.0}},
                discount=0.5)

        lo = entropic_fast_path(chain(0.3), 1.0, tol=1e-10)
        hi = entropic_fast_path(chain(0.7), 1.0, tol=1e-10)
        assert hi.value["root"] > lo.value["root"]

    def test_risk_aversion_monotone_in_gamma(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            m = random_mdp(rng, n_states=4, n_actions=2, beta=0.8)
            vals = [entropic_fast_path(m, g, tol=1e-10).value for g in (0.01, 0.1, 1.0, 2.0)]
            for lo, hi in zip(vals, vals[1:]):
                for s in m.states:
                    assert hi[s] <= lo[s] + 1e-9


class TestStagewise:
    def test_zero_stages(self, jaquette):
        sp = StagePolicy(stages=(), tail=fixtures.jaquette_policy("g"))
        assert n_stage_value(jaquette, UtilitySpec.entropic(1.0), sp, 0) == {
            "1": 0.0, "2": 0.0, "3": 0.0}

    def test_two_stage_composition_by_hand(self, jaquette):
        sp = StagePolicy(stages=(), tail=fixtures.jaquette_policy("g"))
        j2 = n_stage_value(jaquette, UtilitySpec.entropic(1.0), sp, 2)
        expected = 1.0 + 0.5 * (-math.log(0.9 + 0.1 * math.exp(-8.0)))
        assert j2["1"] == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_horizon_and_bounded(self, jaquette):
        sp = StagePolicy(stages=(), tail=fixtures.jaquette_policy("f"))
        spec = UtilitySpec.entropic(1.0)
        top = jaquette.reward_bound / (1 - jaquette.discount)
        prev = {s: 0.0 for s in jaquette.states}
        for n in range(1, 12):
            cur = n_stage_value(jaquette, spec, sp, n)
            for s in jaquette.states:
                assert cur[s] >= prev[s] - 1e-12
                assert cur[s] <= top + 1e-12
            prev = cur

    def test_converges_to_policy_value(self, jaquette):
        spec = UtilitySpec.entropic(1.0)
        g = fixtures.jaquette_policy("g")
        sp = StagePolicy(stages=(), tail=g)
        fixed = policy_evaluation_recursive(jaquette, spec, g, tol=1e-11)
        beta, d = jaquette.discount, jaquette.reward_bound
        n = 40
        jn = n_stage_value(jaquette, spec, sp, n)
        for s in jaquette.states:
            assert abs(jn[s] - fixed[s]) <= beta**n * d / (1 - beta) + 1e-9

    def test_optimal_policy_evaluation_matches_solve(self, jaquette):
        spec = UtilitySpec.entropic(1.0)
        rep = solve_recursive(jaquette, spec, tol=1e-10)
        val = policy_evaluation_recursive(jaquette, spec, fixtures.jaquette_policy("g"),
                                          tol=1e-10)
        for s in jaquette.states:
            assert val[s] == pytest.approx(rep.value[s], abs=1e-8)


def per_row_sweep(m, spec, v):
    """The nested-risk sweep one (state, action) row at a time through oce()."""
    out = np.empty(m.n_states)
    choice = {}
    for si, s in enumerate(m.states):
        vals = [m.reward[si, m.action_index[a]]
                + m.discount * oce(push_forward(m, si, m.action_index[a], v), spec).value
                for a in m.admissible[s]]
        k = int(np.argmax(vals))
        out[si] = vals[k]
        choice[s] = m.admissible[s][k]
    return out, choice


def concave_pwl(draw, scale):
    """Concave piecewise-linear utility with kinks at +-scale-sized offsets.

    Slopes a >= b >= 1 >= c >= d >= 0 around 0 keep u'_-(0) >= 1 >= u'_+(0).
    Each offset pair lies in [0.05, 1] and is at least 0.01 apart, so no two
    breakpoints coincide after rounding.
    """
    t1 = draw(st.floats(0.05, 0.99))
    t2 = t1 + draw(st.floats(0.01, 1.0 - t1))
    r1 = draw(st.floats(0.05, 0.99))
    r2 = r1 + draw(st.floats(0.01, 1.0 - r1))
    b = draw(st.floats(1.0, 3.0))
    a = b + draw(st.floats(0.0, 2.0))
    c = draw(st.floats(0.0, 1.0))
    d = c * draw(st.floats(0.0, 1.0))
    tl1, tl2, tr1, tr2 = -t1 * scale, -t2 * scale, r1 * scale, r2 * scale
    return UtilitySpec.piecewise_linear([
        (tl2, b * tl1 + a * (tl2 - tl1)), (tl1, b * tl1), (0.0, 0.0),
        (tr1, c * tr1), (tr2, c * tr1 + d * (tr2 - tr1))])


@st.composite
def layer_cases(draw):
    """A small model, a value vector with ties, and a utility of any kind.

    Rows mix point masses (one positive weight), explicit zeros and
    inadmissible actions; v is a coarse grid at one of several scales, so
    mean-variance sees max X both below and above 1 + E X.
    """
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 3))
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"a{j}" for j in range(n_actions)]
    admissible, transitions = {}, {}
    for s in states:
        acts = [a for j, a in enumerate(actions) if j == 0 or draw(st.booleans())]
        admissible[s] = acts
        transitions[s] = {}
        for a in acts:
            w = draw(st.lists(st.integers(0, 3), min_size=n_states, max_size=n_states))
            if not any(w):
                w[draw(st.integers(0, n_states - 1))] = 1
            transitions[s][a] = {y: wi / sum(w) for y, wi in zip(states, w) if wi}
    m = FiniteMdp(states=states, actions=actions, admissible=admissible,
                  transitions=transitions,
                  rewards={s: {a: 0.0 for a in admissible[s]} for s in states},
                  discount=0.9)
    scale = draw(st.sampled_from([0.2, 1.0, 4.0, 20.0]))
    v = scale / 4.0 * np.array(draw(st.lists(st.integers(0, 4), min_size=n_states,
                                             max_size=n_states)), dtype=float)
    kind = draw(st.sampled_from(["entropic", "cvar", "mean_variance", "piecewise_linear"]))
    if kind == "entropic":
        spec = UtilitySpec.entropic(draw(st.floats(0.05, 3.0)))
    elif kind == "cvar":
        spec = UtilitySpec.cvar(draw(st.floats(0.01, 0.99)))
    elif kind == "mean_variance":
        spec = UtilitySpec.mean_variance()
    else:
        spec = concave_pwl(draw, scale)
    return m, v, spec


class TestSuccessorRisk:
    @settings(max_examples=300, deadline=None)
    @given(layer_cases())
    def test_matches_per_row_oce(self, case):
        m, v, spec = case
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            risk = successor_risk(m, spec, v)
        assert risk.shape == (m.n_states, m.n_actions)
        tol = 1e-12 * (1.0 + np.max(np.abs(v)))
        for si, s in enumerate(m.states):
            for ai, a in enumerate(m.actions):
                if a in m.admissible[s]:
                    want = oce(push_forward(m, si, ai, v), spec).value
                    assert abs(risk[si, ai] - want) <= tol, (s, a, risk[si, ai], want)
                else:
                    assert risk[si, ai] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(layer_cases())
    def test_matches_independent_search(self, case):
        # oce() runs the layer's own closed forms; oce_generic is a
        # golden-section search plus a kink sweep that shares none of them
        m, v, spec = case
        risk = successor_risk(m, spec, v)
        tol = 1e-8 * (1.0 + np.max(np.abs(v)))
        for si, s in enumerate(m.states):
            for a in m.admissible[s]:
                ai = m.action_index[a]
                want = oce_generic(push_forward(m, si, ai, v), spec).value
                assert abs(risk[si, ai] - want) <= tol, (s, a, risk[si, ai], want)

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_bellman_argmax_matches_per_row_loop_on_fixtures(self, name):
        m = fixtures.FIXTURES[name]()
        for spec in KINDS:
            v = np.zeros(m.n_states)
            for _ in range(25):
                want_v, want_choice = per_row_sweep(m, spec, v)
                got_v, got_idx = recursive_bellman_L(m, spec, v)
                assert StationaryPolicy.from_indices(m, got_idx).choice == want_choice
                assert np.max(np.abs(got_v - want_v)) <= 1e-12 * (1.0 + np.max(np.abs(v)))
                v = want_v


class TestSweepBudget:
    def test_non_contracting_sweep_raises_within_budget(self, jaquette):
        # beta = 0.5 and a first change of 1 reach the stop level 1e-9 within
        # 1 + ceil(log2(1e9)) = 31 sweeps if the sweep contracts; this one
        # doubles its change every sweep
        calls = []

        def sweep(v):
            calls.append(1)
            return 2.0 * v + 1.0, None

        with pytest.raises(IterationLimitError):
            _iterate(jaquette, sweep, 1e-9)
        assert 31 < len(calls) <= 31 + 10

    def test_non_finite_sweep_raises_at_once(self, jaquette):
        calls = []

        def sweep(v):
            calls.append(1)
            return v + np.nan, None

        with pytest.raises(IterationLimitError):
            _iterate(jaquette, sweep, 1e-9)
        assert len(calls) == 1

    def test_non_finite_sweep_raises_at_any_sweep(self, jaquette):
        calls = []

        def sweep(v):
            calls.append(1)
            tv, idx = bellman_T(jaquette, v)
            return (tv + np.nan if len(calls) == 3 else tv), idx

        with pytest.raises(IterationLimitError):
            _iterate(jaquette, sweep, 1e-9)
        assert len(calls) == 3

    def test_shifted_iterate_takes_few_sweeps(self):
        # plain sweeps at beta = 0.95 took 456 here
        m = random_mdp(np.random.default_rng(0), 60, 4, beta=0.95)
        assert solve_recursive(m, UtilitySpec.cvar(0.2)).iterations <= 25

    def test_tolerance_must_be_positive(self, jaquette):
        with pytest.raises(ParameterError):
            solve_recursive(jaquette, UtilitySpec.cvar(0.3), tol=0.0)


def column_choices(m):
    """One action index per state for each action column: the column where
    it is admissible, else the state's first admissible action."""
    first = np.argmax(m.admissible_mask, axis=1)
    return [np.where(m.admissible_mask[:, j], j, first) for j in range(m.n_actions)]


@st.composite
def smooth_cases(draw):
    """A random dense model, a value vector with no ties, a direction and a
    utility of any kind: with continuous values no atom sits on a kink of u
    other than the one eta* puts there, so S_u is differentiable at v."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = int(rng.integers(1, 7))
    m = random_mdp(rng, n_states=n_states, n_actions=int(rng.integers(1, 4)),
                   full_admissible=False)
    scale = draw(st.sampled_from([0.2, 1.0, 4.0, 20.0]))
    v = scale * rng.random(n_states)
    d = rng.uniform(-1.0, 1.0, n_states)
    kind = draw(st.sampled_from(["entropic", "cvar", "mean_variance", "piecewise_linear"]))
    if kind == "entropic":
        spec = UtilitySpec.entropic(float(rng.uniform(0.05, 3.0)))
    elif kind == "cvar":
        spec = UtilitySpec.cvar(float(rng.uniform(0.01, 0.99)))
    elif kind == "mean_variance":
        spec = UtilitySpec.mean_variance()
    else:  # the shape of concave_pwl, with breakpoints that never nearly meet
        t1, t2, r1, r2 = scale * np.concatenate([np.sort(rng.uniform(0.05, 1.0, 2))
                                                 for _ in range(2)])
        s2 = rng.uniform(1.0, 3.0)
        s1, s3 = s2 + rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
        s4 = s3 * rng.random()
        spec = UtilitySpec.piecewise_linear([
            (-t2, -s2 * t1 - s1 * (t2 - t1)), (-t1, -s2 * t1), (0.0, 0.0),
            (r1, s3 * r1), (r2, s3 * r1 + s4 * (r2 - r1))])
    return m, v, d, spec


class TestDualKernel:
    @settings(max_examples=300, deadline=None)
    @given(layer_cases())
    def test_rows_are_distributions(self, case):
        m, v, spec = case
        for idx in column_choices(m):
            dual = _dual_kernel(m, spec, v, idx, _successor_layer(m, spec, v, idx)[1])
            assert dual.shape == (m.n_states, m.n_states)
            assert np.all(dual >= 0.0)
            assert np.all(dual[m.kernel[np.arange(m.n_states), idx] == 0.0] == 0.0)
            assert np.max(np.abs(dual.sum(axis=1) - 1.0)) <= 1e-12, (spec, v, dual)

    @settings(max_examples=300, deadline=None)
    @given(smooth_cases())
    def test_is_the_gradient_of_the_successor_risk(self, case):
        # (S_u(v + eps d) - S_u(v)) / eps -> Q d: the error is O(eps) for the
        # smooth kinds and 0 for the piecewise-linear ones once eps |d| stays
        # inside the gaps between atoms and kinks
        m, v, d, spec = case
        for idx in column_choices(m):
            risk, eta = _successor_layer(m, spec, v, idx)
            want = _dual_kernel(m, spec, v, idx, eta) @ d
            errs = []
            for eps in (1e-4, 1e-5, 1e-6):
                moved, _ = _successor_layer(m, spec, v + eps * d, idx)
                errs.append(np.max(np.abs((moved - risk) / eps - want)))
            assert errs[-1] <= 1e-6 * (1.0 + np.max(np.abs(v))), (spec, errs)
            assert errs[-1] <= errs[0] + 1e-8


class TestPolicyIteration:
    def test_matches_value_iteration(self):
        rng = np.random.default_rng(31)
        for trial in range(12):
            m = random_mdp(rng, n_states=int(rng.integers(2, 12)),
                           n_actions=int(rng.integers(1, 4)),
                           beta=float(rng.uniform(0.3, 0.97)),
                           reward_scale=float(rng.choice([0.5, 1.0, 4.0])),
                           full_admissible=False)
            for spec in KINDS:
                vi = solve_recursive(m, spec, tol=1e-9)
                pi = policy_iteration_recursive(m, spec, tol=1e-9)
                assert pi.policy == vi.policy, (trial, spec)
                # the step past the Newton stop leaves rounding only, so
                # value iteration's own bound covers the difference
                for s in m.states:
                    assert abs(pi.value[s] - vi.value[s]) <= vi.error_bound + 1e-12
                assert pi.residual <= 1e-9 * (1.0 - m.discount)
                assert pi.error_bound <= 1e-9
                assert pi.extras["method"] == "policy_iteration"
                assert pi.iterations < vi.iterations

    def test_fast_path_reports_newton_steps(self, jaquette):
        rep = entropic_fast_path(jaquette, 1.0, tol=1e-10)
        assert rep.extras == {"utility": {"type": "entropic", "gamma": 1.0},
                              "method": "policy_iteration", "safeguarded": 0,
                              "fast_path": True}
        assert rep.value["1"] == pytest.approx(JAQUETTE_NESTED_V1, abs=1e-12)
        assert 1 <= rep.iterations <= 5

    @pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind)
    def test_bad_step_is_safeguarded(self, monkeypatch, spec):
        # Q = I makes the step v + (Lv - v) / (1 - beta), an overshoot the
        # residual test must refuse; the plain sweeps then still converge
        import riskmdp.recursive as rec
        m = random_mdp(np.random.default_rng(32), n_states=5, n_actions=2, beta=0.8)
        want = solve_recursive(m, spec, tol=1e-10)
        monkeypatch.setattr(rec, "_dual_kernel", lambda m, *args: np.eye(m.n_states))
        rep = policy_iteration_recursive(m, spec, tol=1e-10)
        assert rep.extras["safeguarded"] >= 1
        assert rep.policy == want.policy
        for s in m.states:
            assert rep.value[s] == pytest.approx(want.value[s], abs=1e-9)

    def test_beta_zero_takes_one_sweep(self, monkeypatch):
        import riskmdp.recursive as rec
        calls = []
        real = rec._successor_layer
        monkeypatch.setattr(rec, "_successor_layer",
                            lambda *a: calls.append(1) or real(*a))
        m = FiniteMdp.from_dict({**fixtures.jaquette().to_dict(), "discount": 0.0})
        rep = policy_iteration_recursive(m, UtilitySpec.cvar(0.2))
        assert len(calls) == 1
        assert rep.value == {"1": 1.0, "2": 0.0, "3": 8.0}
        assert rep.policy == {"1": "b2", "2": "a", "3": "a"}
        assert (rep.iterations, rep.residual, rep.error_bound) == (0, 0.0, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_tolerance_must_be_positive(self, jaquette, tol):
        with pytest.raises(ParameterError):
            policy_iteration_recursive(jaquette, UtilitySpec.cvar(0.3), tol=tol)
        with pytest.raises(ParameterError):
            policy_evaluation_recursive(jaquette, UtilitySpec.cvar(0.3),
                                        fixtures.jaquette_policy("g"), tol=tol)

    def test_non_finite_sweep_raises_at_once(self, monkeypatch, jaquette):
        import riskmdp.recursive as rec
        calls = []
        nan = np.full(jaquette.kernel.shape[:2], np.nan)
        monkeypatch.setattr(rec, "_successor_layer",
                            lambda *a: calls.append(1) or (nan, nan))
        with pytest.raises(IterationLimitError):
            policy_iteration_recursive(jaquette, UtilitySpec.cvar(0.3))
        assert len(calls) == 1


class TestPolicyEvaluation:
    def test_reads_only_the_policy_rows(self, monkeypatch):
        import riskmdp.recursive as rec

        real = rec._successor_layer

        def rows_only(m, spec, v, idx=None, memo=None):
            assert idx is not None, "evaluated the whole (state, action) table"
            return real(m, spec, v, idx, memo)

        rng = np.random.default_rng(34)
        m = random_mdp(rng, n_states=6, n_actions=3, beta=0.9, full_admissible=False)
        first = np.argmax(m.admissible_mask, axis=1)
        policy = StationaryPolicy.from_indices(m, first)
        for spec in KINDS:
            want, _, _, _, _ = _iterate(
                m, lambda v: (rec._policy_sweep(m, spec, first, v)[0], None), 1e-12)
            monkeypatch.setattr(rec, "_successor_layer", rows_only)
            got = policy_evaluation_recursive(m, spec, policy, tol=1e-12)
            monkeypatch.undo()
            for si, s in enumerate(m.states):
                assert got[s] == pytest.approx(want[si], abs=1e-11)


def _memo_models():
    """The fixtures and seeded models: dense, 3 successors per row, and
    both with partial admissible sets."""
    models = [(name, build()) for name, build in sorted(fixtures.FIXTURES.items())]
    rng = np.random.default_rng(61)
    models.append(("dense", random_mdp(rng, n_states=7, n_actions=3, beta=0.9)))
    models.append(("dense_partial", random_mdp(rng, n_states=6, n_actions=3, beta=0.8,
                                               full_admissible=False)))
    models.append(("sparse", random_mdp(rng, n_states=9, n_actions=2, beta=0.9, successors=3)))
    models.append(("sparse_partial", random_mdp(rng, n_states=8, n_actions=3, beta=0.85,
                                                successors=3, full_admissible=False)))
    return models


_MEMO_MODELS = _memo_models()
_MEMO_SPECS = [UtilitySpec.cvar(0.05), UtilitySpec.cvar(0.2), UtilitySpec.cvar(0.7),
               UtilitySpec.mean_variance(),
               UtilitySpec.piecewise_linear([(-2.0, -3.0), (-0.5, -0.5), (0.0, 0.0),
                                             (1.0, 0.6), (3.0, 1.0)])]


def _memo_outputs(m, spec):
    """The bytes of the four sorted-layer solvers' results on m."""
    rng = np.random.default_rng(62)

    def rule():
        return StationaryPolicy({s: m.admissible[s][int(rng.integers(len(m.admissible[s])))]
                                 for s in m.states})

    stages = StagePolicy(stages=tuple(rule() for _ in range(12)), tail=rule())
    return [solve_recursive(m, spec, tol=1e-10).to_json(),
            policy_iteration_recursive(m, spec, tol=1e-10).to_json(),
            repr(policy_evaluation_recursive(m, spec, rule(), tol=1e-10)),
            repr(n_stage_value(m, spec, stages, 16))]


class TestSortedRowsMemo:
    @pytest.mark.parametrize("spec", _MEMO_SPECS, ids=lambda s: repr(s.alpha or s.kind))
    @pytest.mark.parametrize("name,m", _MEMO_MODELS, ids=[name for name, _ in _MEMO_MODELS])
    def test_is_bitwise_neutral(self, monkeypatch, name, m, spec):
        # a key that equals no other makes the memo rebuild on every call
        import riskmdp.recursive as rec
        want = _memo_outputs(m, spec)
        monkeypatch.setattr(rec, "_rows_key", lambda idx, order: object())
        assert _memo_outputs(m, spec) == want

    def test_rebuilds_only_when_the_order_changes(self, monkeypatch):
        # value iteration from 0 starts in the identity order and changes it
        # a few times; every other sweep reuses the permuted rows
        import riskmdp.recursive as rec
        builds, sweeps = [], []
        real_weights, real_sweep = rec._oce_weights, rec.recursive_bellman_L
        monkeypatch.setattr(rec, "_oce_weights",
                            lambda p, spec: builds.append(1) or real_weights(p, spec))
        monkeypatch.setattr(rec, "recursive_bellman_L",
                            lambda *a: sweeps.append(1) or real_sweep(*a))
        sparse = random_mdp(np.random.default_rng(0), n_states=6, n_actions=2, beta=0.9,
                            successors=3)
        for m in (fixtures.jaquette(), sparse):
            for spec in (UtilitySpec.cvar(0.2), UtilitySpec.mean_variance()):
                builds.clear()
                sweeps.clear()
                solve_recursive(m, spec, tol=1e-10)
                assert 2 <= len(builds) <= len(sweeps) // 4, (len(builds), len(sweeps))


def _sweep_rows_models():
    full = random_mdp(np.random.default_rng(71), n_states=5, n_actions=3, beta=0.8)
    partial = random_mdp(np.random.default_rng(72), n_states=5, n_actions=3, beta=0.9,
                         full_admissible=False)
    return [fixtures.jaquette(), full, partial,
            random_mdp(np.random.default_rng(73), n_states=3, n_actions=2, beta=0.0)]


def _discounted_reports(m):
    """The JSON reports of every discounted solve that sets up its sweeps once."""
    from riskmdp.augmented import entropic_total
    from riskmdp.neutral import policy_iteration

    cvar = UtilitySpec.cvar(0.2)
    return [value_iteration(m, tol=1e-10).to_json(), policy_iteration(m).to_json(),
            solve_recursive(m, cvar, tol=1e-10).to_json(),
            policy_iteration_recursive(m, cvar, tol=1e-10).to_json(),
            entropic_fast_path(m, 1.0, tol=1e-10).to_json(),
            entropic_total(m, 1.0).report().to_json()]


class TestSweepRows:
    # a solve sets its sweeps up once (SweepRows); the sweeps still go
    # through the module names a tracer wraps, and nothing stays on the model
    @pytest.mark.parametrize("m", _sweep_rows_models(), ids=["jaquette", "full", "partial",
                                                               "beta0"])
    def test_every_sweep_is_a_call_by_name(self, monkeypatch, m):
        import riskmdp.neutral as neu
        import riskmdp.recursive as rec
        calls = []
        for module, name in ((neu, "bellman_T"), (rec, "recursive_bellman_L")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        rep = value_iteration(m, tol=1e-10)
        assert len(calls) == rep.iterations + 1
        for spec in (UtilitySpec.cvar(0.2), UtilitySpec.entropic(1.0)):
            calls.clear()
            rep = solve_recursive(m, spec, tol=1e-10)
            assert len(calls) == rep.iterations + 1

    def test_the_model_caches_nothing(self):
        from riskmdp.augmented import entropic_total
        from riskmdp.ergodic import ergodic_rvi

        m = fixtures.invariant_model()
        before = set(vars(m))
        entropic_fast_path(m, 1.0)
        entropic_total(m, 1.0)
        ergodic_rvi(m, 1.0)
        solve_recursive(m, UtilitySpec.cvar(0.2))
        value_iteration(m)
        assert set(vars(m)) == before

    @pytest.mark.parametrize("m", _sweep_rows_models(), ids=["jaquette", "full", "partial",
                                                               "beta0"])
    def test_a_new_reward_table_is_read(self, m):
        _discounted_reports(m)
        m.reward = m.reward * np.linspace(0.2, 1.0, m.n_actions)
        assert _discounted_reports(m) == _discounted_reports(FiniteMdp.from_dict(m.to_dict()))

    def test_a_narrowed_copy_masks_its_own_actions(self):
        # the copy of ergodic_policy_value: one admissible action per state,
        # solved after the full model, reads its own mask
        import copy

        from riskmdp.recursive import SweepRows
        m = random_mdp(np.random.default_rng(74), n_states=5, n_actions=3, beta=0.9)
        assert SweepRows(m).inadmissible is None
        full = _discounted_reports(m)
        shadow = copy.copy(m)
        shadow.admissible = {s: [m.actions[i % 3]] for i, s in enumerate(m.states)}
        shadow.admissible_mask = np.zeros_like(m.admissible_mask)
        shadow.admissible_mask[np.arange(5), np.arange(5) % 3] = True
        assert SweepRows(shadow).inadmissible is not None
        narrowed = _discounted_reports(shadow)
        assert narrowed != full
        assert narrowed == _discounted_reports(FiniteMdp.from_dict(shadow.to_dict()))
        assert value_iteration(shadow).policy == {s: a[0] for s, a in shadow.admissible.items()}
