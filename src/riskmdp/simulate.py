"""Seeded Monte-Carlo rollouts and risk-functional estimators.

This is the independent verification side of every analytic solver: rollouts
realize the controlled chain, estimators evaluate mean / entropic / tail-mean
functionals of the discounted reward (or the ergodic entropic growth rate of
the cumulative cost) with bootstrap standard errors.

Determinism contract: replication i draws its uniforms from the generator
seeded with SeedSequence((seed, i)), so a batch is bit-identical for a fixed
(seed, model, policy, horizon, replications) regardless of execution order,
and replications can run in parallel without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PolicyError
from .mdp import StagePolicy, StationaryPolicy
from .oce import DiscreteDistribution, cvar as _cvar_tail, logsumexp

_BOOT_TAG = 0xB005E  # appended to the seed for the bootstrap stream


def required_horizon(m, truncation_error):
    """Smallest h with beta^h d/(1-beta) <= truncation_error."""
    beta, d = m.discount, m.reward_bound
    if beta == 0.0 or d == 0.0:
        return 1
    h = math.ceil(math.log(truncation_error * (1.0 - beta) / d) / math.log(beta))
    return max(1, h)


@dataclass
class RolloutBatch:
    seed: int
    replications: int
    horizon: int
    discounted_rewards: np.ndarray
    cumulative_costs: np.ndarray | None
    beta: float
    truncation_error: float

    def to_rows(self):
        for i in range(self.replications):
            c = float(self.cumulative_costs[i]) if self.cumulative_costs is not None else ""
            yield i, float(self.discounted_rewards[i]), c


# replications run in blocks whose uniforms and gathered successor rows hold
# about _BLOCK_ELEMENTS numbers, so memory does not grow with reps; a block
# keeps at least _MIN_BLOCK replications so that each step stays vectorized
_BLOCK_ELEMENTS = 2**17
_MIN_BLOCK = 256


def _replication_uniforms(seed, lo, hi, horizon):
    """Rows lo..hi-1 of the (reps, horizon) uniforms, one stream per replication."""
    U = np.empty((hi - lo, horizon))
    for i in range(lo, hi):
        U[i - lo] = np.random.default_rng(np.random.SeedSequence((seed, i))).random(horizon)
    return U


def _rule_indices(m, policy, horizon):
    """Per-step action-index arrays for stationary or stage policies."""
    if isinstance(policy, StationaryPolicy):
        idx = policy.indices(m)
        return [idx] * horizon
    if isinstance(policy, StagePolicy):
        return [policy.rule_at(t).indices(m) for t in range(horizon)]
    return None


def rollout(m, policy, x0, horizon, seed, reps):
    """Simulate ``reps`` independent trajectories of length ``horizon``.

    ``policy`` is a StationaryPolicy, a StagePolicy, or a callable
    ``(past_pairs, current_state) -> action`` (e.g. the reconstruction hook of
    the total-reward criterion; this path loops per replication).
    """
    m.require_valid(for_discounted=False)
    if x0 not in m.state_index:
        raise ParameterError(f"unknown initial state {x0!r}")
    beta, d = m.discount, m.reward_bound
    trunc = (beta ** horizon) * d / (1.0 - beta) if 0.0 < beta < 1.0 else 0.0
    cum = np.cumsum(m.kernel, axis=2)
    R = np.zeros(reps)
    C = np.zeros(reps) if m.cost is not None else None

    rules = _rule_indices(m, policy, horizon)
    block = max(_MIN_BLOCK, _BLOCK_ELEMENTS // (horizon + m.n_states))
    for lo in range(0, reps, block):
        hi = min(lo + block, reps)
        U = _replication_uniforms(seed, lo, hi, horizon)
        if rules is not None:
            x = np.full(hi - lo, m.state_index[x0], dtype=int)
            disc = 1.0
            for t in range(horizon):
                a = rules[t][x]
                R[lo:hi] += disc * m.reward[x, a]
                if C is not None:
                    C[lo:hi] += m.cost[x, a]
                rows = cum[x, a, :]
                x = np.minimum((rows < U[:, t][:, None]).sum(axis=1), m.n_states - 1)
                disc *= beta
            continue
        for i in range(lo, hi):
            s = x0
            past = []
            disc = 1.0
            for t in range(horizon):
                act = policy(past, s)
                if act not in m.admissible[s]:
                    raise PolicyError(f"hook returned {act!r}, inadmissible at state {s!r}")
                si, ai = m.state_index[s], m.action_index[act]
                R[i] += disc * m.reward[si, ai]
                if C is not None:
                    C[i] += m.cost[si, ai]
                y = int(np.minimum((cum[si, ai] < U[i - lo, t]).sum(), m.n_states - 1))
                past.append((s, act))
                s = m.states[y]
                disc *= beta
    return RolloutBatch(seed, reps, horizon, R, C, beta, trunc)


@dataclass
class EstimateReport:
    functional: str
    point: float
    std_error: float
    replications: int
    horizon: int
    truncation_error: float


def _functional_value(samples, functional, gamma, alpha):
    if functional == "mean":
        return float(samples.mean())
    if functional == "entropic":
        n = samples.size
        return float(-(logsumexp(-gamma * samples) - math.log(n)) / gamma)
    if functional == "cvar":
        n = samples.size
        dist = DiscreteDistribution(samples, np.full(n, 1.0 / n))
        return _cvar_tail(dist, alpha)
    raise ParameterError(f"unknown functional {functional!r}")


def _bootstrap_se(samples, functional, gamma, alpha, seed, resamples=200):
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOT_TAG)))
    n = samples.size
    stats = np.empty(resamples)
    for b in range(resamples):
        stats[b] = _functional_value(samples[rng.integers(0, n, n)], functional, gamma, alpha)
    return float(stats.std(ddof=1))


def estimate(batch, functional, gamma=None, alpha=None, resamples=200):
    """Point estimate and standard error of a risk functional of the batch.

    Entropic and tail-mean functionals are nonlinear in the empirical law, so
    standard errors come from a seeded nonparametric bootstrap; the mean uses
    the classical formula.
    """
    if batch.replications < 100:
        raise ParameterError("need at least 100 replications to estimate")
    samples = batch.discounted_rewards
    if functional == "entropic" and not (gamma and 0.0 < gamma < math.inf):
        raise ParameterError("entropic functional needs a finite gamma > 0")
    if functional == "cvar" and not (alpha and 0.0 < alpha < 1.0):
        raise ParameterError("cvar functional needs alpha in (0, 1)")
    point = _functional_value(samples, functional, gamma, alpha)
    if functional == "mean":
        se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    else:
        se = _bootstrap_se(samples, functional, gamma, alpha, batch.seed, resamples)
    return EstimateReport(functional, point, se, batch.replications,
                          batch.horizon, batch.truncation_error)


def estimate_ergodic_entropic(m, policy, gamma, n, reps, seed, x0=None, resamples=200):
    """(1/(gamma n)) ln (1/m) sum_i exp(gamma C_i) over seeded rollouts.

    Consistent for the per-policy ergodic entropic cost as n grows, provided
    gamma * std(C_n) stays moderate (otherwise the log-mean-exp is dominated
    by the sample maximum and exponentially many replications are needed).
    """
    if m.cost is None:
        raise ParameterError("ergodic estimator needs a cost table")
    if not (gamma > 0.0):
        raise ParameterError("gamma must be > 0")
    batch = rollout(m, policy, x0 if x0 is not None else m.states[0], n, seed, reps)
    C = batch.cumulative_costs

    def stat(samples):
        return float((logsumexp(gamma * samples) - math.log(samples.size)) / (gamma * n))

    point = stat(C)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOT_TAG)))
    stats = np.empty(resamples)
    for b in range(resamples):
        stats[b] = stat(C[rng.integers(0, reps, reps)])
    return EstimateReport("ergodic_entropic", point, float(stats.std(ddof=1)),
                          reps, n, 0.0)
