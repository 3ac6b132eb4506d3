import math
import warnings

import numpy as np
import pytest

from riskmdp import fixtures, simulate
from riskmdp.augmented import entropic_total
from riskmdp.ergodic import ergodic_rvi
from riskmdp.errors import ModelValidationError, ParameterError, PolicyError
from riskmdp.mdp import FiniteMdp, StagePolicy, StationaryPolicy, enumerate_policies
from riskmdp.oce import DiscreteDistribution, UtilitySpec, _oce_sorted, cvar, logsumexp
from riskmdp.simulate import (
    estimate,
    estimate_ergodic_entropic,
    required_horizon,
    rollout,
)

from oracles import jaquette_mgf_value


class TestRollout:
    def test_deterministic_model_identical_replications(self):
        m = FiniteMdp(
            states=["s0", "s1"], actions=["a"],
            admissible={s: ["a"] for s in ("s0", "s1")},
            transitions={"s0": {"a": {"s1": 1.0}}, "s1": {"a": {"s0": 1.0}}},
            rewards={"s0": {"a": 1.0}, "s1": {"a": 0.0}}, discount=0.5)
        batch = rollout(m, enumerate_policies(m)[0], "s0", 20, seed=0, reps=64)
        assert np.all(batch.discounted_rewards == batch.discounted_rewards[0])

    def test_bit_identical_for_same_seed(self, jaquette):
        f = fixtures.jaquette_policy("f")
        b1 = rollout(jaquette, f, "1", 30, seed=5, reps=500)
        b2 = rollout(jaquette, f, "1", 30, seed=5, reps=500)
        assert np.array_equal(b1.discounted_rewards, b2.discounted_rewards)

    def test_different_seeds_differ(self, jaquette):
        f = fixtures.jaquette_policy("f")
        b1 = rollout(jaquette, f, "1", 30, seed=5, reps=500)
        b2 = rollout(jaquette, f, "1", 30, seed=6, reps=500)
        assert not np.array_equal(b1.discounted_rewards, b2.discounted_rewards)

    def test_two_period_gamble_support_and_frequencies(self, jaquette):
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1", 2,
                        seed=7, reps=100000)
        values, counts = np.unique(batch.discounted_rewards, return_counts=True)
        assert values.tolist() == [0.0, 4.0]
        freq = counts / counts.sum()
        se = math.sqrt(0.25 / 100000)
        assert abs(freq[0] - 0.5) <= 3 * se

    def test_rewards_within_horizonless_bound(self, jaquette):
        batch = rollout(jaquette, fixtures.jaquette_policy("g"), "1", 40,
                        seed=1, reps=200)
        top = jaquette.reward_bound / (1 - jaquette.discount)
        assert np.all(batch.discounted_rewards >= 0.0)
        assert np.all(batch.discounted_rewards <= top)

    def test_stage_policy_and_hook_agree(self, jaquette, monkeypatch):
        sol = entropic_total(jaquette, 1.0)
        for m, policy in ((jaquette, sol.stage_policy), (gappy_model(), gappy_stage_policy())):
            def hook(past, state):
                return policy.rule_at(len(past)).action(state)

            b_hook = rollout(m, hook, m.states[0], 12, seed=9, reps=50)
            for by_column in (False, True):
                monkeypatch.setattr(simulate, "_by_column", lambda columns, rows, states: by_column)
                b_vec = rollout(m, policy, m.states[0], 12, seed=9, reps=50)
                assert np.array_equal(b_vec.discounted_rewards, b_hook.discounted_rewards)

    def test_blocks_do_not_change_a_replication(self, jaquette, monkeypatch):
        # replication i draws from its own stream, so cutting the batch into
        # blocks of any size leaves every trajectory as it is, on both paths
        # and stepping by successor table or by whole cumulative rows; all
        # equal a loop that inverts each row's mass over its positive entries
        U = simulate._replication_uniforms(3, 0, 600, 12)
        for m, policy in ((jaquette, fixtures.jaquette_policy("f")),
                          (gappy_model(), gappy_stage_policy().tail),
                          (gappy_model(), gappy_stage_policy())):
            x0 = m.states[0]
            whole = rollout(m, policy, x0, 12, seed=3, reps=600)
            assert np.array_equal(whole.discounted_rewards, reference_rollout(m, policy, x0, U))

            def hook(past, state, policy=policy):
                return _rule(policy, len(past)).action(state)

            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_BLOCK_ELEMENTS", 0)
                for block in (1, 7, 256, 600):
                    patch.setattr(simulate, "_MIN_BLOCK", block)
                    for by_column in (False, True):
                        patch.setattr(simulate, "_by_column", lambda columns, rows, states: by_column)
                        for pol in (policy, hook):
                            batch = rollout(m, pol, x0, 12, seed=3, reps=600)
                            assert np.array_equal(batch.discounted_rewards,
                                                  whole.discounted_rewards)

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_never_enters_a_state_of_probability_zero(self, monkeypatch, u):
        # the rows of states 1 and 2 sum to 1 - 4e-13, which validates, and
        # give states 0 and 3 no mass: a uniform of 0 or one above the total
        # stays on the row's positive entries, and no reward is collected
        tail = {"1": 0.5, "2": 0.5 - 4e-13}
        m = FiniteMdp(
            states=["0", "1", "2", "3"], actions=["a"],
            admissible={s: ["a"] for s in "0123"},
            transitions={"0": {"a": {"0": 1.0}}, "1": {"a": tail}, "2": {"a": tail},
                         "3": {"a": {"3": 1.0}}},
            rewards={"0": {"a": 1.0}, "1": {"a": 0.0}, "2": {"a": 0.0}, "3": {"a": 1.0}},
            discount=0.5)
        assert m.validate() == []
        monkeypatch.setattr(simulate, "_replication_uniforms",
                            lambda seed, lo, hi, horizon: np.full((horizon, hi - lo), u))
        f = enumerate_policies(m)[0]
        for by_column in (False, True):
            monkeypatch.setattr(simulate, "_by_column", lambda columns, rows, states: by_column)
            for policy in (f, lambda past, state: "a"):
                batch = rollout(m, policy, "1", 6, seed=0, reps=20)
                assert np.all(batch.discounted_rewards == 0.0)

    @pytest.mark.parametrize("name, seed, horizon, reps", [
        ("seed", -1, 5, 10), ("seed", -2**70, 5, 10), ("seed", 1.5, 5, 10),
        ("horizon", 0, -3, 10), ("horizon", 0, 2.0, 10),
        ("replications", 0, 5, -1), ("replications", 0, 5, 2.5)])
    def test_bad_argument_is_a_parameter_error(self, jaquette, name, seed, horizon, reps):
        with pytest.raises(ParameterError, match=name):
            rollout(jaquette, fixtures.jaquette_policy("f"), "1", horizon, seed=seed, reps=reps)

    def test_hook_must_return_admissible(self, jaquette):
        with pytest.raises(PolicyError):
            rollout(jaquette, lambda past, s: "a", "1", 3, seed=0, reps=2)

    def test_required_horizon(self, jaquette):
        h = required_horizon(jaquette, 1e-8)
        top = jaquette.reward_bound / (1 - jaquette.discount)
        assert jaquette.discount ** h * top <= 1e-8
        assert jaquette.discount ** (h - 1) * top > 1e-8

    @pytest.mark.parametrize("functional,gamma,alpha", [("mean", None, None),
                                                        ("entropic", 1.0, None),
                                                        ("cvar", None, 0.2)])
    def test_an_overflowing_estimate_is_refused(self, jaquette, functional, gamma, alpha):
        # rewards near 1e300 square to inf in the variance: no JSON number
        # can carry the standard error
        jaquette.reward[jaquette.state_index["2"], jaquette.action_index["a"]] = 1e300
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1",
                        required_horizon(jaquette, 1e-8), seed=0, reps=200)
        with pytest.raises(ParameterError, match="overflows double range"), \
                np.errstate(over="ignore"):
            estimate(batch, functional, gamma=gamma, alpha=alpha)

    @pytest.mark.parametrize("functional,gamma,alpha", [("mean", None, None),
                                                        ("entropic", 1.0, None),
                                                        ("cvar", None, 0.2)])
    def test_an_overflowing_estimate_warns_nothing(self, jaquette, functional, gamma, alpha):
        # the overflow reaches the caller only as the ParameterError, with no
        # RuntimeWarning before it
        jaquette.reward[jaquette.state_index["2"], jaquette.action_index["a"]] = 1e300
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1",
                        required_horizon(jaquette, 1e-8), seed=0, reps=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="overflows double range"):
                estimate(batch, functional, gamma=gamma, alpha=alpha)

    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.5])
    def test_required_horizon_needs_a_discount_below_one(self, jaquette, beta):
        # no horizon meets a truncation budget there: refused as a discounted
        # solve refuses the model, not a math domain error
        jaquette.discount = beta
        with pytest.raises(ModelValidationError, match=r"discount: must lie in \[0, 1\)"):
            required_horizon(jaquette, 1e-8)


def gappy_model():
    """Rows with a zero first column, zero gaps between successors, 2 to 5
    successors per row and an inadmissible action at state s5."""
    states = [f"s{i}" for i in range(6)]
    rows = {"a": [{1: .2, 3: .5, 5: .3}, {2: .4, 5: .6}, {1: .1, 2: .2, 4: .3, 5: .4},
                  {3: .25, 4: .75}, {1: .3, 2: .1, 3: .2, 4: .1, 5: .3}, {1: .5, 4: .5}],
            "b": [{4: 1.0}, {1: .7, 3: .3}, {1: .5, 5: .5}, {2: .9, 4: .1},
                  {3: .6, 5: .4}, None]}
    return FiniteMdp(
        states=states, actions=["a", "b"],
        admissible={s: ["a", "b"] if i < 5 else ["a"] for i, s in enumerate(states)},
        transitions={s: {a: {states[j]: p for j, p in rows[a][i].items()}
                         for a in ("a", "b") if rows[a][i]} for i, s in enumerate(states)},
        rewards={s: {a: 1.0 + i + (a == "b") / 3 for a in ("a", "b") if rows[a][i]}
                 for i, s in enumerate(states)},
        discount=0.9)


def gappy_stage_policy():
    first = StationaryPolicy({f"s{i}": "ab"[i % 2] if i < 5 else "a" for i in range(6)})
    second = StationaryPolicy({f"s{i}": "ba"[i % 2] if i < 5 else "a" for i in range(6)})
    return StagePolicy(stages=(first, second, first), tail=second)


def _rule(policy, t):
    return policy.rule_at(t) if isinstance(policy, StagePolicy) else policy


def reference_rollout(m, policy, x0, U):
    """Discounted rewards of one loop per replication: each step goes to the
    first positive entry of the row whose cumulative mass reaches u, or to
    the last positive entry if none does."""
    out = np.zeros(U.shape[1])
    for i in range(U.shape[1]):
        s, disc = m.state_index[x0], 1.0
        for t in range(U.shape[0]):
            a = m.action_index[_rule(policy, t).action(m.states[s])]
            out[i] += disc * m.reward[s, a]
            cum = np.cumsum(m.kernel[s, a])
            positive = np.flatnonzero(m.kernel[s, a] > 0.0)
            reached = positive[cum[positive] >= U[t, i]]
            s = reached[0] if reached.size else positive[-1]
            disc *= m.discount
    return out


class TestStreams:
    # one-word, multi-word and longer-than-pool (more than 4 words) entropy;
    # 40 rows step in lockstep up to horizon 6 and row by row from 7 on, and
    # a block of _BLOCK_ELEMENTS on a few states switches near 140
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5,
                                      2**64 + 3, 2**100 + 17])
    @pytest.mark.parametrize("horizon", [1, 6, 7, 140, 141, 418])
    def test_rows_are_numpy_streams(self, monkeypatch, seed, horizon):
        # NumPy's SeedSequence and PCG64 are the reference the batched
        # seeding must reproduce bit for bit, in blocks starting anywhere,
        # on the lockstep path, the chosen one and the per-row one; a block
        # is step-major, one contiguous row per step
        for lo, hi in ((0, 40), (37, 70), (2**32 - 3, 2**32)):
            want = np.array([
                np.random.default_rng(np.random.SeedSequence((seed, i))).random(horizon)
                for i in range(lo, hi)]).T
            for rows_per_step in (0, simulate._LOCKSTEP_ROWS_PER_STEP, math.inf):
                monkeypatch.setattr(simulate, "_LOCKSTEP_ROWS_PER_STEP", rows_per_step)
                got = simulate._replication_uniforms(seed, lo, hi, horizon)
                assert got.shape == (horizon, hi - lo) and got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_bootstrap_se(stat, n, seed):
    """The per-resample loop the chunked bootstrap must equal bit for bit."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, simulate._BOOT_TAG)))
    stats = np.empty(simulate._BOOT_RESAMPLES)
    for b in range(simulate._BOOT_RESAMPLES):
        stats[b] = stat(rng.integers(0, n, n))
    return float(stats.std(ddof=1))


def reference_stat(samples, functional, param):
    """One resample's statistic on its own row, as the per-resample loop took it."""
    n = samples.size
    if functional == "entropic":
        return lambda idx: float(-(logsumexp(-param * samples[idx]) - math.log(n)) / param)
    order = np.argsort(samples, kind="stable")
    rank, lo, spec = np.argsort(order), samples[order[0]], UtilitySpec.cvar(param)
    x = samples[order] - lo
    return lambda idx: 0.0 - lo - float(
        _oce_sorted(np.bincount(rank[idx], minlength=n) / n, x, spec)[0])


class TestChunkedBootstrap:
    # the chunk holds 163 and 162 resamples at n = 100 and 101 (200 is no
    # multiple of either), 8 at n = 2000, and one above the budget
    SIZES = [100, 101, 2000, simulate._BOOT_CHUNK + 1]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("functional, param", [("entropic", 1.0), ("entropic", 7.5),
                                                   ("cvar", 0.2)])
    def test_equals_per_resample_loop(self, jaquette, n, functional, param):
        # the discounted rewards of jaquette take few values: many ties
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1", 31, seed=n, reps=n)
        rep = estimate(batch, functional, **{"gamma" if functional == "entropic" else "alpha": param})
        stat = reference_stat(batch.discounted_rewards, functional, param)
        assert rep.point.hex() == stat(np.arange(n)).hex()
        assert rep.std_error.hex() == reference_bootstrap_se(stat, n, n).hex()

    @pytest.mark.parametrize("reps", SIZES)
    def test_ergodic_equals_per_resample_loop(self, invariant_model, reps):
        gamma, steps = 0.5, 20
        f = enumerate_policies(invariant_model)[0]
        rep = estimate_ergodic_entropic(invariant_model, f, gamma, steps, reps, seed=4)
        C = rollout(invariant_model, f, invariant_model.states[0], steps, 4, reps).cumulative_costs

        def stat(idx):
            return float((logsumexp(gamma * C[idx]) - math.log(reps)) / (gamma * steps))

        assert rep.point.hex() == stat(np.arange(reps)).hex()
        assert rep.std_error.hex() == reference_bootstrap_se(stat, reps, 4).hex()


class TestEstimate:
    def test_constant_batch_all_functionals(self):
        m = FiniteMdp(
            states=["s"], actions=["a"], admissible={"s": ["a"]},
            transitions={"s": {"a": {"s": 1.0}}},
            rewards={"s": {"a": 1.0}}, discount=0.5)
        batch = rollout(m, enumerate_policies(m)[0], "s", 60, seed=0, reps=200)
        for kwargs in ({"functional": "mean"},
                       {"functional": "entropic", "gamma": 1.0},
                       {"functional": "cvar", "alpha": 0.2}):
            rep = estimate(batch, **kwargs)
            want = 2.0 * (1 - 0.5 ** 60)
            if kwargs["functional"] == "cvar":
                want = -want
            assert rep.point == pytest.approx(want, abs=1e-12)
            assert rep.std_error <= 1e-12

    def test_entropic_estimate_hits_mgf_oracle(self, jaquette):
        sol = entropic_total(jaquette, 1.0)
        horizon = required_horizon(jaquette, 1e-6)
        batch = rollout(jaquette, sol.stage_policy, "1", horizon, seed=13, reps=60000)
        rep = estimate(batch, "entropic", gamma=1.0)
        assert abs(rep.point - jaquette_mgf_value()) <= 3 * rep.std_error
        assert rep.std_error < 0.05

    def test_cvar_estimate_matches_sorted_tail(self):
        rng = np.random.default_rng(50)
        samples = rng.normal(3.0, 1.0, 5000)
        m = FiniteMdp(
            states=["s"], actions=["a"], admissible={"s": ["a"]},
            transitions={"s": {"a": {"s": 1.0}}},
            rewards={"s": {"a": 0.0}}, discount=0.5)
        batch = rollout(m, enumerate_policies(m)[0], "s", 1, seed=0, reps=5000)
        batch.discounted_rewards[:] = samples
        rep = estimate(batch, "cvar", alpha=0.1)
        emp = cvar(DiscreteDistribution(samples, np.full(5000, 1 / 5000)), 0.1)
        assert rep.point == pytest.approx(emp, abs=1e-12)
        # worst 10% of a N(3,1) reward: mean of the lower tail, as a loss
        k = int(0.1 * 5000)
        manual = -np.sort(samples)[:k].mean()
        assert rep.point == pytest.approx(manual, rel=1e-3)

    def test_needs_parameters(self, jaquette):
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1", 5, seed=0, reps=100)
        with pytest.raises(ParameterError):
            estimate(batch, "entropic")
        with pytest.raises(ParameterError):
            estimate(batch, "cvar", alpha=1.5)
        small = rollout(jaquette, fixtures.jaquette_policy("f"), "1", 5, seed=0, reps=50)
        with pytest.raises(ParameterError):
            estimate(small, "mean")

    def test_lse_estimator_finite_at_large_gamma(self, jaquette):
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1", 30, seed=4, reps=500)
        rep = estimate(batch, "entropic", gamma=50.0)
        assert math.isfinite(rep.point) and math.isfinite(rep.std_error)

    def test_neighbor_seeds_estimate_the_same_law(self, jaquette):
        f = fixtures.jaquette_policy("f")
        r1 = estimate(rollout(jaquette, f, "1", 30, seed=20, reps=20000), "mean")
        r2 = estimate(rollout(jaquette, f, "1", 30, seed=21, reps=20000), "mean")
        combined = math.hypot(r1.std_error, r2.std_error)
        assert abs(r1.point - r2.point) <= 6 * combined

    def test_bootstrap_deterministic(self, jaquette):
        batch = rollout(jaquette, fixtures.jaquette_policy("f"), "1", 20, seed=3, reps=400)
        r1 = estimate(batch, "entropic", gamma=0.5)
        r2 = estimate(batch, "entropic", gamma=0.5)
        assert r1.std_error == r2.std_error


class TestErgodicEstimate:
    def test_constant_cost_exact(self):
        m = FiniteMdp(
            states=["s"], actions=["a"], admissible={"s": ["a"]},
            transitions={"s": {"a": {"s": 1.0}}},
            rewards={"s": {"a": 0.0}}, costs={"s": {"a": 2.0}}, discount=0.5)
        rep = estimate_ergodic_entropic(m, enumerate_policies(m)[0], 1.0, 500, 32, seed=0)
        assert rep.point == pytest.approx(2.0, abs=1e-12)
        assert rep.std_error == 0.0

    def test_invariant_model_small_gamma(self, invariant_model):
        # gamma sized so gamma * std(C_n) stays O(1): the log-mean-exp
        # estimator concentrates and the analytic cost is inside 3 s.e.
        gamma, n = 0.01, 100000
        xi = ergodic_rvi(invariant_model, gamma, tol=1e-12).xi
        f = enumerate_policies(invariant_model)[0]
        rep = estimate_ergodic_entropic(invariant_model, f, gamma, n, 64, seed=11)
        assert abs(rep.point - xi) <= 3 * rep.std_error

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_bad_gamma_refused(self, invariant_model, gamma):
        # an infinite gamma gave a NaN estimate
        f = enumerate_policies(invariant_model)[0]
        with pytest.raises(ParameterError, match="risk aversion"):
            estimate_ergodic_entropic(invariant_model, f, gamma, 20, 100, seed=2)

    def test_tiny_gamma_near_mean_cost(self, invariant_model):
        f = enumerate_policies(invariant_model)[0]
        rep = estimate_ergodic_entropic(invariant_model, f, 1e-6, 20000, 32, seed=2)
        assert rep.point == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("call, words", [
    (lambda m: estimate(rollout(m, fixtures.jaquette_policy("f"), "1", 10, seed=0, reps=100),
                        "median"), "unknown functional 'median'"),
    (lambda m: estimate_ergodic_entropic(m, fixtures.jaquette_policy("f"), 1.0, 10, 100, 0),
     "needs a cost table"),
], ids=["unknown functional", "no cost table"])
def test_estimator_refusals(call, words):
    with pytest.raises(ParameterError, match=words):
        call(fixtures.jaquette())
