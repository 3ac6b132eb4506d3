import numpy as np
import pytest

from riskmdp import fixtures
from riskmdp.errors import ChainStructureError, IterationLimitError, ParameterError
from riskmdp.mdp import FiniteMdp, enumerate_policies
from riskmdp.neutral import (
    average_cost_rvi,
    average_reward_rvi,
    bellman_T,
    policy_evaluation,
    policy_gain,
    policy_iteration,
    q_learning,
    value_iteration,
    vanishing_discount,
)

from conftest import random_mdp
from oracles import chain_average, discounted_policy_value

# exact Jaquette quantities from the 3x3 linear systems
V_F = {"1": 8.0 / 3.0, "2": 4.0 / 3.0, "3": 28.0 / 3.0}
V_G1 = 28.0 / 15.0  # = E[safe gamble] / (1 - beta^2) = 1.4 / 0.75
QSTAR = {("1", "b1"): 8.0 / 3.0, ("1", "b2"): 31.0 / 15.0,
         ("2", "a"): 4.0 / 3.0, ("3", "a"): 28.0 / 3.0}


class TestBellman:
    def test_one_step_from_zero(self, jaquette):
        tv, policy = bellman_T(jaquette, np.zeros(3))
        assert tv.tolist() == [1.0, 0.0, 8.0]
        assert policy.choice == {"1": "b2", "2": "a", "3": "a"}

    def test_zero_reward_scales(self, jaquette):
        m = FiniteMdp(
            states=jaquette.states, actions=jaquette.actions,
            admissible=jaquette.admissible,
            transitions=fixtures.jaquette().to_dict()["transitions"],
            rewards={s: {a: 0.0 for a in jaquette.admissible[s]} for s in jaquette.states},
            discount=0.5)
        v = np.array([2.0, 4.0, 6.0])
        tv, _ = bellman_T(m, v)
        assert tv[1] == pytest.approx(0.5 * 2.0)
        assert value_iteration(m, tol=1e-12).value == {"1": 0.0, "2": 0.0, "3": 0.0}

    def test_contraction(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_mdp(rng, n_states=5, n_actions=3, beta=float(rng.uniform(0.2, 0.95)))
            for _ in range(5):
                v1 = rng.uniform(0, 10, 5)
                v2 = rng.uniform(0, 10, 5)
                lhs = np.max(np.abs(bellman_T(m, v1)[0] - bellman_T(m, v2)[0]))
                assert lhs <= m.discount * np.max(np.abs(v1 - v2)) + 1e-12


class TestValueIteration:
    def test_jaquette(self, jaquette):
        rep = value_iteration(jaquette, tol=1e-10)
        assert rep.value["1"] == pytest.approx(V_F["1"], abs=1e-9)
        assert rep.value["3"] == pytest.approx(V_F["3"], abs=1e-9)
        assert rep.policy["1"] == "b1"
        assert rep.error_bound <= 1e-10

    def test_constant_reward_geometric_series(self):
        rng = np.random.default_rng(3)
        m = random_mdp(rng, n_states=4, n_actions=2, beta=0.9)
        m.reward[m.admissible_mask] = 1.0
        rep = value_iteration(m, tol=1e-9)
        for v in rep.value.values():
            assert v == pytest.approx(10.0, abs=1e-8)

    def test_beta_zero_single_sweep(self):
        rng = np.random.default_rng(4)
        m = random_mdp(rng, n_states=3, n_actions=2, beta=0.0)
        rep = value_iteration(m)
        assert rep.iterations == 1
        for s in m.states:
            si = m.state_index[s]
            best = max(m.reward[si, m.action_index[a]] for a in m.admissible[s])
            assert rep.value[s] == pytest.approx(best, abs=1e-15)

    def test_zero_tolerance_refused(self, jaquette):
        # no finite sweep budget reaches a zero stop level
        with pytest.raises(ParameterError):
            value_iteration(jaquette, tol=0.0)


class TestPolicyEvaluationIteration:
    def test_jaquette_f(self, jaquette):
        v = policy_evaluation(jaquette, fixtures.jaquette_policy("f"))
        for s, want in V_F.items():
            assert v[s] == pytest.approx(want, abs=1e-12)

    def test_jaquette_g(self, jaquette):
        v = policy_evaluation(jaquette, fixtures.jaquette_policy("g"))
        assert v["1"] == pytest.approx(V_G1, abs=1e-12)

    def test_policy_iteration_two_rounds(self, jaquette):
        rep = policy_iteration(jaquette)
        assert rep.policy["1"] == "b1"
        assert rep.iterations <= 2
        assert rep.value["1"] == pytest.approx(V_F["1"], abs=1e-10)

    def test_three_solvers_and_enumeration_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_mdp(rng, n_states=4, n_actions=2, beta=0.85,
                           full_admissible=False)
            vi = value_iteration(m, tol=1e-10)
            pi = policy_iteration(m)
            best = None
            for f in enumerate_policies(m):
                v = discounted_policy_value(m, f.choice)
                best = v if best is None else np.maximum(best, v)
            for i, s in enumerate(m.states):
                assert vi.value[s] == pytest.approx(pi.value[s], abs=1e-8)
                assert vi.value[s] == pytest.approx(best[i], abs=1e-8)

    def test_greedy_policy_attains_value(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = random_mdp(rng, n_states=5, n_actions=3, beta=0.9)
            rep = value_iteration(m, tol=1e-10)
            from riskmdp.mdp import StationaryPolicy
            v_greedy = policy_evaluation(m, StationaryPolicy(rep.policy))
            for s in m.states:
                assert v_greedy[s] == pytest.approx(rep.value[s], abs=1e-8)


class TestQLearning:
    def test_scalar_fixed_point(self):
        m = FiniteMdp(
            states=["s"], actions=["a"], admissible={"s": ["a"]},
            transitions={"s": {"a": {"s": 1.0}}},
            rewards={"s": {"a": 1.0}}, discount=0.5)
        res = q_learning(m, n_updates=20000, omega=0.8, seed=0)
        assert res.q.table[("s", "a")] == pytest.approx(2.0, abs=1e-6)

    def test_jaquette_converges_to_qstar(self, jaquette):
        res = q_learning(jaquette, n_updates=10**6, omega=1.0, seed=0)
        assert res.q.sup_distance(QSTAR) <= 0.01
        assert res.q.greedy(jaquette).choice["1"] == "b1"

    def test_two_seeds_differ_but_both_converge(self, jaquette):
        r1 = q_learning(jaquette, n_updates=10**6, omega=1.0, seed=0)
        r2 = q_learning(jaquette, n_updates=10**6, omega=1.0, seed=1)
        assert r1.q.table != r2.q.table
        assert r1.q.sup_distance(QSTAR) <= 0.01
        assert r2.q.sup_distance(QSTAR) <= 0.01

    def test_max_over_actions_matches_vstar(self, jaquette):
        res = q_learning(jaquette, n_updates=10**6, omega=1.0, seed=0)
        assert res.q.value("1", jaquette) == pytest.approx(8.0 / 3.0, abs=0.01)

    def test_omega_range(self, jaquette):
        for bad in (0.5, 0.0, 1.2):
            with pytest.raises(ParameterError):
                q_learning(jaquette, n_updates=10, omega=bad)

    def test_reference_tracking(self, jaquette):
        from riskmdp.neutral import QTable
        res = q_learning(jaquette, n_updates=4000, omega=1.0, seed=0,
                         reference=QTable(QSTAR))
        assert len(res.sweep_distances) == 1000
        assert res.sweep_distances[-1] < res.sweep_distances[0]


class TestAverageReward:
    def test_jaquette_gain(self, jaquette):
        sol = average_reward_rvi(jaquette, tol=1e-10)
        assert sol.gain == pytest.approx(2.0, abs=1e-9)
        assert sol.policy.choice["1"] == "b1"
        assert sol.bias[jaquette.states[0]] == 0.0

    def test_cycle_mean_enumeration(self, jaquette):
        gains = {f.choice["1"]: chain_average(jaquette, f.choice)
                 for f in enumerate_policies(jaquette)}
        assert gains["b1"] == pytest.approx(2.0, abs=1e-12)
        assert gains["b2"] == pytest.approx(0.9, abs=1e-12)

    def test_constant_reward(self):
        rng = np.random.default_rng(13)
        m = random_mdp(rng, n_states=4, n_actions=2)
        m.reward[m.admissible_mask] = 3.0
        sol = average_reward_rvi(m, tol=1e-10)
        assert sol.gain == pytest.approx(3.0, abs=1e-9)
        for h in sol.bias.values():
            assert abs(h) <= 1e-8

    def test_residual_at_every_state(self):
        rng = np.random.default_rng(14)
        m = random_mdp(rng, n_states=5, n_actions=3)
        sol = average_reward_rvi(m, tol=1e-10)
        q = m.reward + np.einsum("say,y->sa", m.kernel,
                                 np.array([sol.bias[s] for s in m.states]))
        q[~m.admissible_mask] = -np.inf
        resid = q.max(axis=1) - sol.gain - np.array([sol.bias[s] for s in m.states])
        assert np.max(np.abs(resid)) <= 1e-10

    def test_matches_enumeration(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            m = random_mdp(rng, n_states=4, n_actions=2)
            sol = average_reward_rvi(m, tol=1e-11)
            best = max(chain_average(m, f.choice) for f in enumerate_policies(m))
            assert sol.gain == pytest.approx(best, abs=1e-8)

    def test_reducible_model_rejected(self):
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"1": 1.0}}, "2": {"a": {"2": 1.0}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}}, discount=0.5)
        with pytest.raises(ChainStructureError):
            average_reward_rvi(m)

    def test_overflow_stops_at_first_non_finite_iterate(self):
        # rewards near the double range: the relative values overflow to NaN
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"1": 0.99, "2": 0.01}}, "2": {"a": {"1": 0.01, "2": 0.99}}},
            rewards={"1": {"a": 1.7e308}, "2": {"a": 0.0}}, discount=0.5)
        with np.errstate(over="ignore"), pytest.raises(IterationLimitError) as exc:
            average_reward_rvi(m)
        assert exc.value.iterations <= 3

    def test_average_cost_side(self, invariant_model):
        sol = average_cost_rvi(invariant_model, tol=1e-10)
        assert sol.gain == pytest.approx(0.5, abs=1e-9)


class TestVanishingDiscount:
    def test_jaquette_limit(self, jaquette):
        table = vanishing_discount(jaquette, [0.9, 0.99, 0.999])
        assert [round(r.normalized_value, 5) for r in table.rows] == [1.89474, 1.98995, 1.999]
        assert abs(table.rows[-1].normalized_value - 2.0) < 0.01

    def test_constant_rewards_flat_bias(self):
        rng = np.random.default_rng(16)
        m = random_mdp(rng, n_states=3, n_actions=2)
        m.reward[m.admissible_mask] = 2.0
        table = vanishing_discount(m, [0.9, 0.99])
        for row in table.rows:
            for h in row.h_beta.values():
                assert abs(h) <= 1e-7

    def test_per_policy_inequality_near_one(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            m = random_mdp(rng, n_states=4, n_actions=2)
            table = vanishing_discount(m, [0.999])
            for f, gain, per_beta in table.policy_diagnostics:
                assert gain <= per_beta[0.999] + 0.01
                assert gain == pytest.approx(policy_gain(m, f), abs=1e-10)
