"""Risk-neutral baseline solvers: discounted and average reward, Q-learning.

Discounted criterion: V(x) = max_a { r(x,a) + beta * sum_y q(y|x,a) V(y) },
solved by value iteration (contraction with modulus beta), policy iteration,
or tabular Q-learning.  Average criterion: the unichain optimality equation
xi + h(x) = max_a { r(x,a) + sum_y q(y|x,a) h(y) }, solved by relative value
iteration on a self-loop-damped kernel (damping enforces aperiodicity without
changing the gain), plus the vanishing-discount quantities connecting the two.

Ties are always broken by the first admissible action in declared order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChainStructureError,
    EnumerationCapError,
    IterationLimitError,
    ParameterError,
)
from .mdp import (
    StationaryPolicy,
    check_unichain_aperiodic,
    enumerate_policies,
    first_admissible_policy,
    induced_chain,
    value_dict,
)
from .recursive import _iterate
from .report import SolveReport

MAX_ITERS = 10**6


def _q_values(m, v):
    """Action values r + beta * (kernel @ v), -inf at inadmissible pairs."""
    q = m.reward + m.discount * (m.kernel @ v)
    return np.where(m.admissible_mask, q, -np.inf)


def _greedy(m, q):
    """Greedy policy from an action-value table (first argmax in declared order)."""
    idx = np.argmax(q, axis=1)
    return StationaryPolicy({s: m.actions[idx[i]] for i, s in enumerate(m.states)}), idx


def bellman_T(m, v):
    """One Bellman sweep.  Returns (Tv, greedy StationaryPolicy)."""
    q = _q_values(m, np.asarray(v, dtype=float))
    policy, _ = _greedy(m, q)
    return q.max(axis=1), policy


def value_iteration(m, tol=1e-9, max_iters=None, v0=None):
    """Iterate T to a sup-norm guarantee ||V - V*|| <= tol.

    Runs the contraction loop of the recursive criterion at tol / 2: it stops
    once ||V_{k+1} - V_k|| <= (tol / 2) (1 - beta) / beta, which by the
    standard one-step contraction bound leaves ||V - V*|| <= tol / 2 (for
    beta = 0 a single sweep is exact), and shares its sweep budget.
    """
    m.require_valid()
    if not tol > 0.0:  # checked here so the message names tol, not tol / 2
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    v, policy, it, residual, bound = _iterate(
        m, lambda v: bellman_T(m, v), tol / 2.0, max_iters, v0)
    return SolveReport(
        criterion="risk_neutral",
        value=value_dict(m, v),
        policy=dict(policy.choice),
        iterations=it,
        residual=residual,
        error_bound=bound,
    )


def policy_evaluation(m, policy):
    """Exact discounted value of a stationary policy via (I - beta P_f) V = r_f."""
    m.require_valid()
    P, r, _ = induced_chain(m, policy)
    v = np.linalg.solve(np.eye(m.n_states) - m.discount * P, r)
    return value_dict(m, v)


def policy_iteration(m, max_rounds=10**4, tie_tol=1e-12):
    """Howard policy iteration; terminates when the policy repeats.

    Improvement keeps the incumbent action unless a competitor is better by
    more than ``tie_tol``; evaluating ties through float noise would
    otherwise cycle between equally optimal policies.
    """
    m.require_valid()
    policy = first_admissible_policy(m)
    for it in range(1, max_rounds + 1):
        idx = policy.indices(m)
        P, r, _ = induced_chain(m, policy)
        v = np.linalg.solve(np.eye(m.n_states) - m.discount * P, r)
        q = _q_values(m, v)
        best = np.argmax(q, axis=1)
        rows = np.arange(m.n_states)
        keep = q[rows, best] <= q[rows, idx] + tie_tol
        new_idx = np.where(keep, idx, best)
        improved = StationaryPolicy({s: m.actions[new_idx[i]] for i, s in enumerate(m.states)})
        if improved.choice == policy.choice:
            residual = float(np.max(np.abs(bellman_T(m, v)[0] - v)))
            return SolveReport(
                criterion="risk_neutral",
                value=value_dict(m, v),
                policy=dict(policy.choice),
                iterations=it,
                residual=residual,
                error_bound=residual / max(1.0 - m.discount, 1e-300),
            )
        policy = improved
    raise IterationLimitError("policy iteration did not settle", iterations=max_rounds)


@dataclass
class QTable:
    """Learned action values on admissible pairs."""

    table: dict  # (state, action) -> value

    def value(self, state, m):
        return max(self.table[(state, a)] for a in m.admissible[state])

    def greedy(self, m):
        choice = {}
        for s in m.states:
            acts = m.admissible[s]
            choice[s] = acts[int(np.argmax([self.table[(s, a)] for a in acts]))]
        return StationaryPolicy(choice)

    def sup_distance(self, reference):
        """Sup-norm distance to a reference {(state, action): value} mapping."""
        return max(abs(v - reference[k]) for k, v in self.table.items())


@dataclass
class QLearningResult:
    q: QTable
    updates: int
    sweep_distances: list  # per-sweep sup distance to the reference, if given


def q_learning(m, n_updates, omega=0.8, seed=0, reference=None):
    """Tabular Q-learning with deterministic exploration.

    Admissible pairs are visited in exhaustive cyclic sweeps (every pair is
    visited infinitely often, and budgets are deterministic); only the
    successor draw y ~ q(.|x,a) consumes randomness.  The learning rate of a
    pair at its n-th visit is (1 + n)^(-omega), omega in (0.5, 1].

    The hot loop runs on plain Python floats with uniforms pre-drawn in
    blocks from the seeded generator, which keeps a million updates well
    under a second.
    """
    if not (0.5 < omega <= 1.0):
        raise ParameterError(f"learning-rate exponent must lie in (0.5, 1], got {omega}")
    m.require_valid()
    from bisect import bisect_right

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs = m.admissible_pairs()
    beta = m.discount
    cum_rows = {(si, ai): np.cumsum(m.kernel[si, ai]).tolist() for si, ai in pairs}
    rewards = {(si, ai): float(m.reward[si, ai]) for si, ai in pairs}
    adm = [[m.action_index[a] for a in m.admissible[s]] for s in m.states]
    ns = m.n_states
    q = [[0.0] * m.n_actions for _ in range(ns)]
    visits = {(si, ai): 0 for si, ai in pairs}
    ref = None
    if reference is not None:
        ref = {(m.state_index[s], m.action_index[a]): val
               for (s, a), val in reference.table.items()}
    distances = []
    done = 0
    buf = []
    buf_pos = 0
    while done < n_updates:
        for (si, ai) in pairs:
            if done == n_updates:
                break
            if buf_pos == len(buf):
                buf = rng.random(min(1 << 18, max(n_updates - done, 1024))).tolist()
                buf_pos = 0
            u = buf[buf_pos]
            buf_pos += 1
            y = bisect_right(cum_rows[(si, ai)], u)
            if y >= ns:
                y = ns - 1
            qy = q[y]
            target = rewards[(si, ai)] + beta * max(qy[a] for a in adm[y])
            n = visits[(si, ai)]
            alpha = (1.0 + n) ** (-omega)
            q[si][ai] += alpha * (target - q[si][ai])
            visits[(si, ai)] = n + 1
            done += 1
        if ref is not None:
            distances.append(max(abs(q[si][ai] - v) for (si, ai), v in ref.items()))
    table = {(s, a): q[m.state_index[s]][m.action_index[a]]
             for s in m.states for a in m.admissible[s]}
    return QLearningResult(QTable(table), done, distances)


@dataclass
class AverageSolution:
    gain: float
    bias: dict  # h with h(reference) = 0
    policy: StationaryPolicy
    iterations: int
    residual: float


def _average_rvi(m, table, minimize, tol, reference_state, damping, max_iters,
                 check_unichain, unichain_cap):
    """Relative value iteration for the average criterion.

    Works on the damped kernel q~ = (1-lambda) I + lambda q, which is
    aperiodic and has the same gain and argmax structure; the returned bias is
    rescaled back (h = lambda * h~) so the undamped optimality equation holds.
    """
    if check_unichain:
        try:
            chk = check_unichain_aperiodic(m, cap=unichain_cap)
        except EnumerationCapError:
            chk = check_unichain_aperiodic(m, sample=64)
        bad = chk.first_reducible()
        if bad is not None:
            raise ChainStructureError(
                f"policy {bad.policy.choice} induces {bad.n_recurrent_classes} recurrent classes; "
                "the average criterion needs unichain models"
            )
    z = m.state_index[reference_state if reference_state is not None else m.states[0]]
    lam = damping
    sign = -1.0 if minimize else 1.0
    vals = np.where(m.admissible_mask, table, sign * -np.inf)
    h = np.zeros(m.n_states)

    def damped_sweep(h):
        q = vals + lam * (m.kernel @ h) + (1.0 - lam) * h[:, None]
        q = np.where(m.admissible_mask, q, sign * -np.inf)
        return (q.min(axis=1) if minimize else q.max(axis=1))

    def undamped_q(h):
        q = vals + m.kernel @ h
        return np.where(m.admissible_mask, q, sign * -np.inf)

    for it in range(1, max_iters + 1):
        w = damped_sweep(h)
        gain = w[z]
        h = w - gain
        if not np.all(np.isfinite(h)):
            raise IterationLimitError(
                "relative value iteration produced a non-finite iterate", np.nan, it)
        # residual of the *undamped* optimality equation with bias lambda * h
        hb = lam * h
        q = undamped_q(hb)
        opt = q.min(axis=1) if minimize else q.max(axis=1)
        residual = float(np.max(np.abs(opt - gain - hb)))
        if residual <= tol:
            idx = np.argmin(q, axis=1) if minimize else np.argmax(q, axis=1)
            policy = StationaryPolicy({s: m.actions[idx[i]] for i, s in enumerate(m.states)})
            return AverageSolution(float(gain), value_dict(m, hb), policy, it, residual)
    raise IterationLimitError("relative value iteration did not converge", residual, max_iters)


def average_reward_rvi(m, tol=1e-9, reference_state=None, damping=0.5,
                       max_iters=MAX_ITERS, check_unichain=True, unichain_cap=4096):
    """Maximal average reward of a unichain model (gain, bias, policy)."""
    m.require_valid(for_discounted=False)
    return _average_rvi(m, m.reward, False, tol, reference_state, damping,
                        max_iters, check_unichain, unichain_cap)


def average_cost_rvi(m, tol=1e-9, reference_state=None, damping=0.5,
                     max_iters=MAX_ITERS, check_unichain=True, unichain_cap=4096):
    """Minimal average cost; the model must carry a cost table."""
    m.require_valid(for_discounted=False)
    if m.cost is None:
        raise ParameterError("model has no cost table")
    return _average_rvi(m, m.cost, True, tol, reference_state, damping,
                        max_iters, check_unichain, unichain_cap)


def stationary_distribution(P):
    """Stationary law of a unichain row-stochastic matrix (linear solve)."""
    n = P.shape[0]
    A = (P.T - np.eye(n))
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def policy_gain(m, policy, use_cost=False):
    """Long-run average reward (or cost) of one stationary unichain policy."""
    P, r, c = induced_chain(m, policy)
    vec = c if use_cost else r
    if vec is None:
        raise ParameterError("model has no cost table")
    return float(stationary_distribution(P) @ vec)


@dataclass
class VanishingDiscountRow:
    beta: float
    normalized_value: float  # (1 - beta) V_beta(z)
    h_beta: dict             # V_beta(x) - V_beta(z)


@dataclass
class VanishingDiscountTable:
    reference_state: str
    rows: list
    policy_diagnostics: list  # (policy, gain, {beta: (1-beta) J_beta(z, f)})


def vanishing_discount(m, betas, reference_state=None, policy_cap=4096):
    """Normalized discounted values along beta -> 1 plus per-policy bounds.

    V*_beta comes from policy iteration (exact linear solves), which stays
    well-conditioned at beta close to 1 where value iteration would have to
    chase increments below float resolution.  For each stationary policy f
    the long-run average gain never exceeds liminf (1-beta) J_beta(z, f); the
    diagnostics tabulate both sides at the requested betas so the gap is
    visible.
    """
    m.require_valid(for_discounted=False)
    z_id = reference_state if reference_state is not None else m.states[0]
    z = m.state_index[z_id]
    rows = []
    for beta in betas:
        if not (0.0 <= beta < 1.0):
            raise ParameterError(f"every beta must lie in [0, 1), got {beta}")
        shadow = copy.copy(m)
        shadow.discount = float(beta)
        rep = policy_iteration(shadow)
        v = np.array([rep.value[s] for s in m.states])
        rows.append(VanishingDiscountRow(
            beta=beta,
            normalized_value=float((1.0 - beta) * v[z]),
            h_beta=value_dict(m, v - v[z]),
        ))
    diagnostics = []
    try:
        policies = enumerate_policies(m, cap=policy_cap)
    except EnumerationCapError:
        policies = []
    for f in policies:
        gain = policy_gain(m, f)
        per_beta = {}
        for beta in betas:
            P, r, _ = induced_chain(m, f)
            v = np.linalg.solve(np.eye(m.n_states) - beta * P, r)
            per_beta[beta] = float((1.0 - beta) * v[z])
        diagnostics.append((f, gain, per_beta))
    return VanishingDiscountTable(z_id, rows, diagnostics)
