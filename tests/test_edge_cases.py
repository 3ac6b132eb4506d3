"""Degenerate-model behavior: beta = 0, single states, bad start states."""

import numpy as np
import pytest

from riskmdp import mdp
from riskmdp.augmented import entropic_total, solve_total_oce
from riskmdp.errors import ParameterError
from riskmdp.mdp import FiniteMdp, enumerate_policies
from riskmdp.neutral import average_reward_rvi, policy_iteration, value_iteration, vanishing_discount
from riskmdp.oce import UtilitySpec
from riskmdp.recursive import entropic_fast_path, solve_recursive
from riskmdp.simulate import rollout

from conftest import random_mdp


def myopic_model():
    return FiniteMdp(
        states=["s0", "s1"], actions=["x", "y"],
        admissible={"s0": ["x", "y"], "s1": ["x"]},
        transitions={"s0": {"x": {"s1": 1.0}, "y": {"s0": 0.25, "s1": 0.75}},
                     "s1": {"x": {"s0": 1.0}}},
        rewards={"s0": {"x": 0.4, "y": 0.9}, "s1": {"x": 0.1}},
        discount=0.0)


class TestBetaZero:
    def test_all_discounted_solvers_are_myopic(self):
        m = myopic_model()
        want = {"s0": 0.9, "s1": 0.1}
        for rep in (value_iteration(m), policy_iteration(m),
                    solve_recursive(m, UtilitySpec.cvar(0.2)),
                    entropic_fast_path(m, 1.0)):
            assert rep.value == pytest.approx(want)
            assert rep.policy["s0"] == "y"

    def test_total_criterion_single_step(self):
        m = myopic_model()
        sol = entropic_total(m, 2.0)
        assert sol.value_dict() == pytest.approx({"s0": 0.9, "s1": 0.1})
        gen = solve_total_oce(m, UtilitySpec.cvar(0.3))
        assert gen.value == pytest.approx(0.9, abs=1e-6)
        assert gen.eta_star == pytest.approx(0.9, abs=1e-6)

    def test_rollout_single_step_rewards(self):
        m = myopic_model()
        f = enumerate_policies(m)[1]  # s0 -> y
        batch = rollout(m, f, "s0", horizon=4, seed=0, reps=16)
        assert np.all(batch.discounted_rewards == 0.9)
        assert batch.truncation_error == 0.0


class TestSingleState:
    def test_every_criterion_degenerates_to_annuity(self):
        m = FiniteMdp(
            states=["s"], actions=["a"], admissible={"s": ["a"]},
            transitions={"s": {"a": {"s": 1.0}}},
            rewards={"s": {"a": 0.3}}, costs={"s": {"a": 0.3}}, discount=0.75)
        annuity = 0.3 / 0.25
        assert value_iteration(m, tol=1e-11).value["s"] == pytest.approx(annuity, abs=1e-9)
        assert solve_recursive(m, UtilitySpec.entropic(3.0), tol=1e-11).value["s"] == \
            pytest.approx(annuity, abs=1e-9)
        assert entropic_total(m, 3.0, tail_eps=1e-10).value_dict()["s"] == \
            pytest.approx(annuity, abs=1e-7)
        from riskmdp.ergodic import ergodic_rvi
        assert ergodic_rvi(m, 2.0, tol=1e-12).xi == pytest.approx(0.3, abs=1e-10)


class TestBadInputs:
    def test_unknown_start_state(self):
        m = myopic_model()
        with pytest.raises(ParameterError):
            rollout(m, enumerate_policies(m)[0], "nope", 3, seed=0, reps=4)
        with pytest.raises(ParameterError):
            solve_total_oce(m, UtilitySpec.cvar(0.5), x0="nope")

    def test_total_criterion_rejects_undiscounted(self):
        m = FiniteMdp(
            states=["s"], actions=["a"], admissible={"s": ["a"]},
            transitions={"s": {"a": {"s": 1.0}}},
            rewards={"s": {"a": 1.0}}, discount=1.0)
        from riskmdp.augmented import default_grid
        with pytest.raises(ParameterError):
            default_grid(m)

    def test_gamma_overflow_guard(self):
        m = myopic_model()
        with pytest.raises(ParameterError):
            entropic_fast_path(m, 1e305)
        with pytest.raises(ParameterError):
            entropic_total(m, 1e305)


@pytest.mark.parametrize("target, solve", [
    ("riskmdp.neutral.check_unichain_aperiodic", average_reward_rvi),
    ("riskmdp.neutral.enumerate_policies", lambda m: vanishing_discount(m, [0.9])),
])
def test_only_a_cap_overflow_falls_back(monkeypatch, target, solve):
    # the exhaustive precheck / enumeration fails with an error that is not
    # EnumerationCapError; the sampled fallback must not hide it
    def exhaustive_fails(m, cap=None, sample=None, seed=0):
        if sample is None:
            raise RuntimeError("not a cap overflow")
        return mdp.check_unichain_aperiodic(m, sample=sample, seed=seed)

    monkeypatch.setattr(target, exhaustive_fails)
    m = random_mdp(np.random.default_rng(5), n_states=3, with_costs=True)
    with pytest.raises(RuntimeError, match="not a cap overflow"):
        solve(m)
