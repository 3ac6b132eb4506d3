import math

import numpy as np
import pytest

from riskmdp import ergodic, fixtures
from riskmdp.ergodic import ergodic_policy_value, ergodic_rvi
from riskmdp.errors import ChainStructureError, IterationLimitError, ParameterError
from riskmdp.mdp import (
    FiniteMdp,
    StationaryPolicy,
    enumerate_policies,
    first_admissible_policy,
    induced_chain,
)
from riskmdp.neutral import average_cost_rvi

from conftest import random_mdp
from oracles import perron_value

INVARIANT_XI = math.log(0.5 * (1.0 + math.e))  # growth factor (1 + e)/2


def cost_mdp(rng, n_states=5, n_actions=2):
    return random_mdp(rng, n_states=n_states, n_actions=n_actions,
                      with_costs=True, min_prob=0.05)


class TestInvariantModel:
    def test_optimal_cost_by_hand(self, invariant_model):
        sol = ergodic_rvi(invariant_model, 1.0, tol=1e-12)
        assert sol.xi == pytest.approx(INVARIANT_XI, abs=1e-11)
        assert sol.rho == pytest.approx(0.5 * (1.0 + math.e), abs=1e-10)
        # the eigenvector is proportional to e^{gamma c(x)}
        assert sol.W["s0"] == pytest.approx(1.0, abs=1e-10)
        assert sol.W["s1"] == pytest.approx(math.e, abs=1e-9)
        assert sol.h["s0"] == 0.0

    def test_matches_dense_eigensolver(self, invariant_model):
        f = enumerate_policies(invariant_model)[0]
        P, _, c = induced_chain(invariant_model, f)
        rho = perron_value(np.diag(np.exp(c)) @ P)
        xi_f, _ = ergodic_policy_value(invariant_model, f, 1.0)
        assert xi_f == pytest.approx(math.log(rho), abs=1e-11)

    def test_one_sweep_per_iteration(self, monkeypatch):
        # the residual sweep of iteration k is the update sweep of k + 1, and
        # the last one gives the policy
        calls = []
        sweep = ergodic._log_min_sweep

        def counted(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(ergodic, "_log_min_sweep", counted)
        sol = ergodic_rvi(cost_mdp(np.random.default_rng(11), n_states=6, n_actions=3),
                          1.0, tol=1e-12)
        assert sol.iterations > 1
        assert len(calls) == sol.iterations + 1

    def test_residual_contract(self, invariant_model):
        sol = ergodic_rvi(invariant_model, 1.0, tol=1e-12)
        assert sol.residual <= 1e-12


class TestConstantCost:
    def test_any_gamma(self):
        rng = np.random.default_rng(41)
        m = cost_mdp(rng)
        m.cost[m.admissible_mask] = 2.5
        for gamma in (0.3, 1.0, 10.0):
            sol = ergodic_rvi(m, gamma, tol=1e-11)
            assert sol.xi == pytest.approx(2.5, abs=1e-9)
            for w in sol.W.values():
                assert w == pytest.approx(1.0, abs=1e-8)


class TestOptimality:
    def test_min_over_enumerated_policies(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            m = cost_mdp(rng, n_states=4)
            sol = ergodic_rvi(m, 1.0, tol=1e-12)
            best = min(ergodic_policy_value(m, f, 1.0)[0] for f in enumerate_policies(m))
            assert sol.xi <= best + 1e-10
            assert sol.xi == pytest.approx(best, abs=1e-8)

    def test_policy_value_against_dense_eig(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            m = cost_mdp(rng, n_states=4)
            gamma = float(rng.uniform(0.3, 2.0))
            for f in enumerate_policies(m)[:4]:
                P, _, c = induced_chain(m, f)
                rho = perron_value(np.diag(np.exp(gamma * c)) @ P)
                xi_f, W = ergodic_policy_value(m, f, gamma)
                assert xi_f == pytest.approx(math.log(rho) / gamma, abs=1e-9)
                assert all(w > 0 for w in W.values())

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            m = cost_mdp(rng, n_states=4)
            values = [ergodic_rvi(m, g, tol=1e-11).xi for g in (0.1, 0.5, 1.0, 3.0)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-10

    def test_tiny_gamma_matches_average_cost(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            m = cost_mdp(rng, n_states=4)
            xi = ergodic_rvi(m, 1e-6, tol=1e-10).xi
            avg = average_cost_rvi(m, tol=1e-11).gain
            assert xi == pytest.approx(avg, abs=1e-4)

    def test_optimal_equation_residual_everywhere(self):
        rng = np.random.default_rng(46)
        m = cost_mdp(rng, n_states=5)
        gamma = 0.8
        sol = ergodic_rvi(m, gamma, tol=1e-12)
        h = np.array([sol.h[s] for s in m.states])
        inner = gamma * m.cost + np.log(np.einsum(
            "say,y->sa", m.kernel, np.exp(gamma * h)))
        inner[~m.admissible_mask] = np.inf
        lhs = inner.min(axis=1) / gamma
        assert np.max(np.abs(lhs - sol.xi - h)) <= 1e-10


class TestPreconditions:
    def test_needs_cost_table(self, jaquette):
        with pytest.raises(ParameterError):
            ergodic_rvi(jaquette, 1.0)

    def test_gamma_positive(self, invariant_model):
        with pytest.raises(ParameterError):
            ergodic_rvi(invariant_model, 0.0)

    def test_overflow_stops_at_first_non_finite_iterate(self, invariant_model):
        # gamma * cost stays finite at 1e308, but the second sweep overflows
        with pytest.raises(IterationLimitError) as exc:
            ergodic_rvi(invariant_model, 1e308)
        assert exc.value.iterations <= 3
        with pytest.raises(IterationLimitError) as exc:
            ergodic_policy_value(invariant_model, first_admissible_policy(invariant_model), 1e308)
        assert exc.value.iterations <= 3

    def test_reducible_chain_rejected(self):
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"1": 1.0}}, "2": {"a": {"2": 1.0}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}},
            costs={"1": {"a": 0.0}, "2": {"a": 1.0}},
            discount=0.5)
        with pytest.raises(ChainStructureError):
            ergodic_rvi(m, 1.0)
        with pytest.raises(ChainStructureError):
            ergodic_policy_value(m, enumerate_policies(m)[0], 1.0)

    def test_long_ring_chain_accepted(self):
        # every policy's chain is one 12-cycle with self-loops: irreducible
        # and aperiodic, with a diameter longer than log2 of the state count
        rng = np.random.default_rng(43)
        n = 12
        states = [f"s{i}" for i in range(n)]
        transitions, rewards, costs = {}, {}, {}
        for i, s in enumerate(states):
            transitions[s], rewards[s], costs[s] = {}, {}, {}
            for a in ("a", "b"):
                stay = float(rng.uniform(0.2, 0.8))
                transitions[s][a] = {s: stay, states[(i + 1) % n]: 1.0 - stay}
                rewards[s][a] = 0.0
                costs[s][a] = float(rng.random())
        m = FiniteMdp(states=states, actions=["a", "b"],
                      admissible={s: ["a", "b"] for s in states},
                      transitions=transitions, rewards=rewards, costs=costs,
                      discount=0.5)
        sol = ergodic_rvi(m, 1.0, tol=1e-10)
        assert m.cost.min() <= sol.xi <= m.cost.max()

    def test_rare_trap_policies_rejected(self):
        # 4^7 policies; only the 1 in 256 that pick trap at each of s0..s3
        # keep that cycle closed, so a sample of 64 policies can miss them all
        states = [f"s{i}" for i in range(7)]
        actions = ["a", "b", "c", "trap"]
        transitions = {s: {a: {y: 1.0 / 7 for y in states} for a in actions} for s in states}
        for i in range(4):
            transitions[states[i]]["trap"] = {states[(i + 1) % 4]: 1.0}
        m = FiniteMdp(
            states=states, actions=actions,
            admissible={s: list(actions) for s in states},
            transitions=transitions,
            rewards={s: {a: 0.0 for a in actions} for s in states},
            costs={s: {a: 1.0 if a == "trap" else 0.1 * j for j, a in enumerate(actions)}
                   for s in states},
            discount=0.5)
        with pytest.raises(ChainStructureError, match="trap"):
            ergodic_rvi(m, 1.0)

    def test_periodic_chain_still_solved(self):
        # two-cycle: damping makes the power iteration settle
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"2": 1.0}}, "2": {"a": {"1": 1.0}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}},
            costs={"1": {"a": 0.0}, "2": {"a": 1.0}},
            discount=0.5)
        sol = ergodic_rvi(m, 1.0, tol=1e-11)
        # alternating costs 0, 1: growth per two steps e^{1}, so xi = 1/2
        assert sol.xi == pytest.approx(0.5, abs=1e-9)

    def test_large_gamma_no_overflow(self, invariant_model):
        sol = ergodic_rvi(invariant_model, 200.0, tol=1e-10)
        # for huge risk aversion the worst-case cost dominates: xi -> max c
        assert 0.9 <= sol.xi <= 1.0 + 1e-9
