import math
import warnings

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
from oracles import damped_rvi_policy, perron_value

INVARIANT_XI = math.log(0.5 * (1.0 + math.e))  # growth factor (1 + e)/2


def cost_mdp(rng, n_states=5, n_actions=2):
    return random_mdp(rng, n_states=n_states, n_actions=n_actions,
                      with_costs=True, min_prob=0.05)


def ring_mdp(rng, n_states=6, n_actions=5):
    """Sparse ring: each row has a self-loop, a ring edge and an edge to the
    opposite state, weighted in [0.5, 1]; costs uniform in [0, 1]."""
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"a{j}" for j in range(n_actions)]
    transitions, costs = {}, {}
    for i, s in enumerate(states):
        transitions[s], costs[s] = {}, {}
        for a in actions:
            row = {}
            for k, w in zip((i, i + 1, i + n_states // 2), rng.uniform(0.5, 1.0, 3)):
                y = states[k % n_states]
                row[y] = row.get(y, 0.0) + w
            total = sum(row.values())
            transitions[s][a] = {y: w / total for y, w in row.items()}
            costs[s][a] = float(rng.random())
    return FiniteMdp(states=states, actions=actions,
                     admissible={s: list(actions) for s in states},
                     transitions=transitions,
                     rewards={s: {a: 0.0 for a in actions} for s in states},
                     costs=costs, discount=0.5)


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


class TestNewtonSteps:
    @pytest.mark.parametrize("seed", range(5))
    def test_few_steps_on_sparse_rings(self, seed):
        # damped RVI takes 60-odd sweeps on these rings at gamma = 1
        sol = ergodic_rvi(ring_mdp(np.random.default_rng(seed)), 1.0, tol=1e-10)
        assert sol.iterations <= 8
        assert sol.safeguarded == 0

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 10.0])
    def test_policy_equals_damped_rvi(self, gamma):
        rng = np.random.default_rng(47)
        for _ in range(6):
            m = cost_mdp(rng, n_states=6, n_actions=3)
            sol = ergodic_rvi(m, gamma, tol=1e-12)
            choice, xi = damped_rvi_policy(m, gamma, tol=1e-12)
            assert sol.policy.choice == choice
            assert sol.xi == pytest.approx(xi, abs=1e-9 / gamma)

    # the identity makes the bordered system singular, twice the identity
    # reverses the RVI step (a larger residual), NaN gives a non-finite trial;
    # only the finite trial is swept before it is refused
    @pytest.mark.parametrize("scale, swept", [(1.0, False), (2.0, True), (float("nan"), False)])
    def test_bad_step_is_safeguarded(self, monkeypatch, scale, swept):
        m = cost_mdp(np.random.default_rng(11), n_states=6, n_actions=3)
        ref = ergodic_rvi(m, 1.0, tol=1e-12)
        monkeypatch.setattr(ergodic, "_tilted_kernel",
                            lambda m, lw, idx, eta, rows: scale * np.eye(m.n_states))
        sweeps = []
        sweep = ergodic._log_min_sweep
        monkeypatch.setattr(ergodic, "_log_min_sweep",
                            lambda *args: sweeps.append(1) or sweep(*args))
        sol = ergodic_rvi(m, 1.0, tol=1e-12)
        assert sol.safeguarded >= sol.iterations - 1 > 0
        assert len(sweeps) == sol.iterations + 1 + swept * sol.safeguarded
        assert sol.xi == pytest.approx(ref.xi, abs=1e-11)
        assert sol.policy.choice == ref.policy.choice

    # a Newton step evaluates one entropic layer, its trial's sweep: the
    # tilted kernel reads eta* of the greedy rows from the layer of the sweep
    # at the same lw, so every layer call is a sweep's
    @pytest.mark.parametrize("case", ["dense", "cost_mdp", "ring", "stand_in"])
    def test_one_layer_per_sweep(self, monkeypatch, case):
        gamma = 1.0
        if case == "dense":
            m = random_mdp(np.random.default_rng(3), n_states=30, n_actions=4, beta=0.95,
                           with_costs=True)
        elif case == "ring":  # refuses some Newton steps at this gamma
            m, gamma = ring_mdp(np.random.default_rng(1)), 50.0
        else:
            m = cost_mdp(np.random.default_rng(11), n_states=6, n_actions=3)
        if case == "stand_in":  # the refused trials are swept
            monkeypatch.setattr(ergodic, "_tilted_kernel",
                                lambda m, lw, idx, eta, rows: 2.0 * np.eye(m.n_states))
        calls = {"_successor_layer": 0, "_log_min_sweep": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(ergodic, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(ergodic, name, counted)
        sol = ergodic_rvi(m, gamma, tol=1e-10)
        assert sol.iterations > 1
        assert (sol.safeguarded > 0) == (case in ("ring", "stand_in"))
        assert calls["_successor_layer"] == calls["_log_min_sweep"] > sol.iterations

    def test_one_greedy_step_per_sweep(self, monkeypatch):
        # a sweep's minima and minimizing actions come from one masked greedy
        # step, and the Newton step, the residual, the damped fallback and
        # the policy read them without reducing a table again
        calls = {"_greedy": 0, "_log_min_sweep": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(ergodic, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(ergodic, name, counted)
        # the ring at gamma = 50 refuses some Newton steps
        for m, gamma in ((cost_mdp(np.random.default_rng(11), n_states=6, n_actions=3), 1.0),
                         (ring_mdp(np.random.default_rng(1)), 50.0)):
            assert ergodic_rvi(m, gamma, tol=1e-10).iterations > 1
        assert calls["_greedy"] == calls["_log_min_sweep"] > 0

    @pytest.mark.parametrize("case", ["tie", "masked"])
    def test_first_admissible_minimizer(self, case):
        # at s0, a2 is a copy of a1; a0 is a1 at a higher cost ("tie") or
        # inadmissible ("masked"), where its empty kernel row reads a layer
        # of +inf, which unmasked would be the minimum
        d = cost_mdp(np.random.default_rng(5), n_states=4, n_actions=3).to_dict()
        for table in ("transitions", "rewards", "costs"):
            d[table]["s0"]["a2"] = d[table]["s0"]["a1"]
        d["costs"]["s0"]["a0"] = d["costs"]["s0"]["a1"] + 1.0
        d["transitions"]["s0"]["a0"] = d["transitions"]["s0"]["a1"]
        if case == "masked":
            d["admissible"]["s0"] = ["a1", "a2"]
            for table in ("transitions", "rewards", "costs"):
                del d[table]["s0"]["a0"]
        m = FiniteMdp.from_dict(d)
        if case == "masked":
            layer = ergodic._successor_layer(m, ergodic._TILT, np.zeros(m.n_states), None,
                                             ergodic.SweepRows(m))[0]
            assert layer[0, 0] == np.inf
        for gamma in (0.5, 1.0, 20.0):
            assert ergodic_rvi(m, gamma, tol=1e-10).policy.choice["s0"] == "a1"

    def test_singular_solve_falls_back_to_damped_steps(self, monkeypatch):
        m = cost_mdp(np.random.default_rng(12), n_states=6, n_actions=3)
        ref = ergodic_rvi(m, 1.0, tol=1e-12)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        sol = ergodic_rvi(m, 1.0, tol=1e-12)
        assert sol.safeguarded == sol.iterations > 1
        assert sol.xi == pytest.approx(ref.xi, abs=1e-11)
        assert sol.policy.choice == ref.policy.choice

    def test_report_counts_safeguarded_steps(self, invariant_model):
        rep = ergodic_rvi(invariant_model, 1.0, tol=1e-12).report(1.0)
        assert rep.extras["safeguarded"] == 0


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

    @pytest.mark.parametrize("gamma", [200.0, 1000.0, 1e5])
    def test_policy_value_at_large_gamma(self, invariant_model, gamma):
        # rounding of gamma * c floors the relative residual above 1e-13 here;
        # the closed form is (1/gamma) ln((1 + e^gamma) / 2)
        f = enumerate_policies(invariant_model)[0]
        xi_f, _ = ergodic_policy_value(invariant_model, f, gamma)
        exact = 1.0 + math.log1p(math.exp(-gamma)) / gamma - math.log(2.0) / gamma
        assert xi_f == pytest.approx(exact, abs=1e-14)

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive(self, invariant_model, tol):
        with pytest.raises(ParameterError):
            ergodic_rvi(invariant_model, 1.0, tol=tol)

    def test_rounding_floor_overflow_names_gamma(self):
        # gamma times the largest cost overflows: the floor refuses gamma,
        # with no overflow warning and no tolerance the caller never gave
        m = random_mdp(np.random.default_rng(9), n_states=4, with_costs=True,
                       reward_scale=10.0)
        policy = first_admissible_policy(m)
        assert m.cost[np.arange(m.n_states), policy.indices(m)].max() > 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: ergodic.rounding_floor(1e308, m.cost),
                         lambda: ergodic_policy_value(m, policy, 1e308)):
                with pytest.raises(ParameterError, match=r"gamma=1e\+308 times the largest cost"):
                    call()
        assert ergodic.rounding_floor(1e300, m.cost) == 16 * math.ulp(1.0) * (1e300 * m.cost.max())

    def test_unknown_reference_state(self, invariant_model):
        with pytest.raises(ParameterError, match="reference state"):
            ergodic_rvi(invariant_model, 1.0, reference_state="nope")

    def test_rounding_cycle_stops_at_once(self):
        # at gamma = 1e5 the iterates alternate between two float vectors whose
        # residuals stay above 1e-10: the repeat stops the run, not 10^6 sweeps
        m = random_mdp(np.random.default_rng(9), n_states=4, with_costs=True,
                       reward_scale=10.0)
        with pytest.raises(IterationLimitError, match="stalled") as exc:
            ergodic_rvi(m, 1e5, tol=1e-10)
        assert exc.value.iterations <= 100

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


class TestAveragePrecheck:
    def test_samples_past_the_policy_cap(self, monkeypatch):
        # 5^6 = 15625 stationary policies: the enumeration stops at its cap of
        # 4096 and the unichain precheck samples 64 policies instead
        import itertools

        from riskmdp import neutral

        calls = []
        check = neutral.check_unichain_aperiodic
        monkeypatch.setattr(neutral, "check_unichain_aperiodic",
                            lambda m, **kw: calls.append(kw) or check(m, **kw))
        m = ring_mdp(np.random.default_rng(3))
        sol = average_cost_rvi(m, tol=1e-11)
        assert calls == [{"cap": 4096}, {"sample": 64}]
        # the gain against every policy's, from its stationary law
        rows = np.arange(m.n_states)
        idx = np.array(list(itertools.product(range(m.n_actions), repeat=m.n_states)))
        a = np.swapaxes(m.kernel[rows, idx], 1, 2) - np.eye(m.n_states)
        a[:, -1, :] = 1.0
        pi = np.linalg.solve(a, np.eye(m.n_states)[-1])
        assert sol.gain == pytest.approx((pi * m.cost[rows, idx]).sum(axis=1).min(), abs=1e-9)
