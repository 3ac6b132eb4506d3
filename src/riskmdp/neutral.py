"""Risk-neutral baseline solvers: discounted and average reward, Q-learning.

Discounted criterion: V(x) = max_a { r(x,a) + beta * sum_y q(y|x,a) V(y) },
solved by value iteration (contraction with modulus beta, each iterate
shifted by the midpoint of its span bounds), policy iteration, or tabular
Q-learning; every policy value is one linear solve (I - beta P_f) V = r_f.
Average criterion: the unichain optimality equation
xi + h(x) = max_a { r(x,a) + sum_y q(y|x,a) h(y) }, solved by relative value
iteration on the kernel damped by the self-loop mix (1/2) I + (1/2) q, which
is aperiodic and has the same gain; plus the vanishing-discount quantities
connecting the two.

Relative value iteration here and in :mod:`riskmdp.ergodic` shares one
stopping contract, with one implementation: a tolerance that is not finite
and > 0 is refused (:func:`~riskmdp.recursive._check_tol`), and the loop
stops at the tolerance, at the first non-finite iterate, at an iterate equal
to an earlier one (:func:`_rvi_stop`: the float iteration has entered a
cycle, so no later residual is new; it raises if the residual is still above
the tolerance there) or, as a backstop, after ``MAX_ITERS`` iterations.  The
damped operators are only nonexpansive in the span seminorm, so no
contraction modulus gives a tighter budget.

Ties are always broken by the first admissible action in declared order
(:func:`~riskmdp.recursive._greedy`, the greedy step of the discounted
solvers; the average-criterion iteration takes the first argmax or argmin of
a table that reads -inf or +inf at inadmissible pairs).
Value iteration and policy iteration set their sweeps up once per solve
(:class:`~riskmdp.recursive.SweepRows`), hand it to every sweep, and report
through :func:`~riskmdp.recursive._report`, as the recursive solvers do.
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
from .recursive import SweepRows, _check_tol, _greedy, _iterate, _report

MAX_ITERS = 10**6   # backstop of both relative value iterations
DAMPING = 0.5       # their self-loop mix; halving is exact in floating point
_POLICY_CAP = 4096  # policies enumerated by the unichain check and the diagnostics
_TIE_TOL = 1e-12    # margin a policy-iteration competitor must win by
_MAX_ROUNDS = 10**4


def bellman_T(m, v, rows=None):
    """One Bellman sweep.  Returns (Tv, the greedy action index per state).
    ``rows`` is the solve's :class:`~riskmdp.recursive.SweepRows` (built
    here when not given).  The product stays (S, A, S) @ v: the flattened
    (S*A, S) one rounds differently on some models."""
    rows = SweepRows(m) if rows is None else rows
    return _greedy(m.reward + m.discount * (m.kernel @ np.asarray(v, dtype=float)), rows)


def value_iteration(m, tol=1e-9):
    """Iterate T to a sup-norm guarantee ||V - V*|| <= tol.

    Runs the contraction loop of the recursive criterion at tol / 2: it stops
    once ||TV - V|| <= (tol / 2) (1 - beta) / beta and returns TV, which by
    the standard one-step contraction bound leaves ||TV - V*|| <= tol / 2
    (for beta = 0 a single sweep is exact), and shares its sweep budget.
    T(V + c) = TV + beta c, so the loop continues from TV shifted by the
    midpoint of its span bounds (:func:`~riskmdp.recursive._iterate`): about
    10 sweeps at beta = 0.95 on dense models, where plain sweeps take about
    470.  It stays sweeps only, an independent check on
    :func:`policy_iteration`.
    """
    m.require_valid()
    _check_tol(tol)  # checked here so the message names tol, not tol / 2
    rows = SweepRows(m)
    return _report(m, "risk_neutral", *_iterate(m, lambda v: bellman_T(m, v, rows), tol / 2.0))


def _chain_value(P, r, beta):
    """Discounted value of a chain with rewards r: the solution of (I - beta P) V = r."""
    return np.linalg.solve(np.eye(P.shape[0]) - beta * P, r)


def policy_evaluation(m, policy):
    """Exact discounted value of a stationary policy via (I - beta P_f) V = r_f."""
    m.require_valid()
    P, r, _ = induced_chain(m, policy)
    return value_dict(m, _chain_value(P, r, m.discount))


def policy_iteration(m):
    """Howard policy iteration; terminates when the policy repeats.

    Improvement keeps the incumbent action unless a competitor is better by
    more than 1e-12; evaluating ties through float noise would otherwise
    cycle between equally optimal policies.  The improvement step's greedy
    table is the Bellman sweep of the policy's value, Tv, so the residual
    ||Tv - v|| of the last round is read from it with no further sweep.
    """
    m.require_valid()
    rows = SweepRows(m)
    states = rows.states
    idx = first_admissible_policy(m).indices(m)
    for it in range(1, _MAX_ROUNDS + 1):
        v = _chain_value(m.kernel[states, idx], m.reward[states, idx], m.discount)
        q = m.reward + m.discount * (m.kernel @ v)
        top, best = _greedy(q, rows)
        improved = np.where(top <= q[states, idx] + _TIE_TOL, idx, best)
        if np.array_equal(improved, idx):
            residual = float(abs(top - v).max())
            return _report(m, "risk_neutral", v, idx, it, residual,
                           residual / max(1.0 - m.discount, 1e-300))
        idx = improved
    raise IterationLimitError("policy iteration did not settle", iterations=_MAX_ROUNDS)


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
    sis, ais = np.nonzero(m.admissible_mask)  # the admissible pairs in declared order
    pairs = list(zip(sis.tolist(), ais.tolist()))
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


def _reference_index(m, reference_state):
    """Index of the reference state (the first for None) of both relative
    value iterations; an unknown id is refused with :class:`ParameterError`."""
    if reference_state is None:
        return 0
    if reference_state not in m.state_index:
        raise ParameterError(f"unknown reference state {reference_state!r}")
    return m.state_index[reference_state]


def _rvi_stop(name, it, x, anchor, residual, tol):
    """(whether a relative value iteration stops at its iterate x, the next
    anchor).  An x equal to the anchor, an earlier iterate, means the float
    iteration cycles and no later residual is new (Brent's check, the anchor
    moved at powers of 2): it stops, and raises above tol."""
    stalled = np.array_equal(x, anchor)
    if stalled and residual > tol:
        raise IterationLimitError(
            f"{name} stalled at machine precision above tol={tol:g}", residual, it)
    return residual <= tol or stalled, (x if it & (it - 1) == 0 else anchor)


def _average_rvi(m, table, minimize, tol, reference_state):
    """Relative value iteration for the average criterion.

    Works on the damped kernel q~ = (1-lambda) I + lambda q, which is
    aperiodic and has the same gain and argmax structure; the returned bias is
    rescaled back (h = lambda * h~) so the undamped optimality equation holds.
    One kernel product per iteration: the undamped table vals + q(lambda h~)
    that gives the residual, plus (1-lambda) h~, is the next damped sweep.
    """
    _check_tol(tol)
    try:
        chk = check_unichain_aperiodic(m, cap=_POLICY_CAP)
    except EnumerationCapError:
        chk = check_unichain_aperiodic(m, sample=64)
    bad = chk.first_reducible()
    if bad is not None:
        raise ChainStructureError(
            f"policy {bad.policy.choice} induces {bad.n_recurrent_classes} recurrent classes; "
            "the average criterion needs unichain models"
        )
    z = _reference_index(m, reference_state)
    lam = DAMPING
    best, arg = (np.min, np.argmin) if minimize else (np.max, np.argmax)
    # +-inf at inadmissible pairs, which every table below inherits
    vals = np.where(m.admissible_mask, table, np.inf if minimize else -np.inf)
    h = anchor = np.zeros(m.n_states)
    q = vals + m.kernel @ h
    for it in range(1, MAX_ITERS + 1):
        w = best(q + (1.0 - lam) * h[:, None], axis=1)
        gain = w[z]
        h_new = w - gain
        if not np.all(np.isfinite(h_new)):
            raise IterationLimitError(
                "relative value iteration produced a non-finite iterate", np.nan, it)
        h = h_new
        # residual of the *undamped* optimality equation with bias lambda * h
        hb = lam * h
        q = vals + m.kernel @ hb
        residual = float(np.max(np.abs(best(q, axis=1) - gain - hb)))
        done, anchor = _rvi_stop("relative value iteration", it, h, anchor, residual, tol)
        if done:
            policy = StationaryPolicy.from_indices(m, arg(q, axis=1))
            return AverageSolution(float(gain), value_dict(m, hb), policy, it, residual)
    raise IterationLimitError("relative value iteration did not converge", residual, MAX_ITERS)


def average_reward_rvi(m, tol=1e-9, reference_state=None):
    """Maximal average reward of a unichain model (gain, bias, policy)."""
    m.require_valid(for_discounted=False)
    return _average_rvi(m, m.reward, False, tol, reference_state)


def average_cost_rvi(m, tol=1e-9, reference_state=None):
    """Minimal average cost; the model must carry a cost table."""
    m.require_valid(for_discounted=False)
    if m.cost is None:
        raise ParameterError("model has no cost table")
    return _average_rvi(m, m.cost, True, tol, reference_state)


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


def vanishing_discount(m, betas, reference_state=None):
    """Normalized discounted values along beta -> 1 plus per-policy bounds.

    V*_beta comes from policy iteration (exact linear solves), which stays
    well-conditioned at beta close to 1 where value iteration would have to
    chase increments below float resolution.  For each stationary policy f
    the long-run average gain never exceeds liminf (1-beta) J_beta(z, f); the
    diagnostics tabulate both sides at the requested betas so the gap is
    visible; they stay empty beyond 4096 policies.
    """
    m.require_valid(for_discounted=False)
    z = _reference_index(m, reference_state)
    z_id = m.states[z]
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
        policies = enumerate_policies(m, cap=_POLICY_CAP)
    except EnumerationCapError:
        policies = []
    for f in policies:
        P, r, _ = induced_chain(m, f)
        per_beta = {beta: float((1.0 - beta) * _chain_value(P, r, beta)[z]) for beta in betas}
        diagnostics.append((f, float(stationary_distribution(P) @ r), per_beta))
    return VanishingDiscountTable(z_id, rows, diagnostics)
