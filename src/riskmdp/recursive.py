"""Discounted reward with the certainty equivalent applied stage by stage.

The solved equation is the nested-risk Bellman fixed point

    V(x) = max_a { r(x,a) + beta * S_u( V(X') ) },   X' ~ q(.|x,a),

whose operator L is a beta-contraction in the sup norm (shift additivity plus
monotonicity of S_u), so value iteration from the zero function converges and
the maximizer defines an optimal stationary policy.

Every row (x, a) of one sweep takes S_u over the same atom values V(y) and
differs only in the weights q(y|x,a).  :func:`successor_risk` uses that shared
structure and returns the whole (state, action) table of S_u(V(X')) at once,
for every utility kind:

* entropic: -(1/gamma) ln sum_y q(y|x,a) exp(-gamma V(y)), by log-sum-exp over
  the model's log kernel, which never under- or overflows;
* cvar, mean_variance, piecewise_linear: V is sorted once per sweep, and each
  row's value is array arithmetic on cumulative sums of q in that order (the
  cvar tail, the exact mean-variance maximizer, an exact kink search).

The per-row path, :func:`push_forward` followed by :func:`~riskmdp.oce.oce`,
stays as the reference the layer is tested against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import IterationLimitError, ParameterError
from .mdp import StationaryPolicy, value_dict
from .oce import DiscreteDistribution, UtilitySpec, logsumexp, oce  # noqa: F401  (oce: per-row reference)
from .report import SolveReport

# sweeps allowed past the contraction bound, for rounding near the stop level
_BUDGET_MARGIN = 10


def _check_gamma_range(m, gamma):
    """Log-space evaluation needs gamma * d / (1 - beta) itself to be finite."""
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ParameterError(f"risk aversion must be > 0, got {gamma}")
    top = gamma * max(m.reward_bound, 1.0) / max(1.0 - m.discount, 1e-16)
    if not np.isfinite(top) or top > 1e300:
        raise ParameterError(
            f"gamma={gamma} overflows double range even in log space for this model")


def push_forward(m, state_idx, action_idx, v):
    """Law of v(X') under q(.|state, action), equal values merged.

    Merging is exact because the certainty equivalent is law-invariant, and it
    keeps the eta search on as few atoms as possible.
    """
    row = m.kernel[state_idx, action_idx]
    support = row > 0.0
    vals = np.asarray(v, dtype=float)[support]
    mass = row[support]
    uniq, inverse = np.unique(vals, return_inverse=True)
    merged = np.bincount(inverse, weights=mass, minlength=uniq.size)
    return DiscreteDistribution(uniq, merged / merged.sum())


def _cvar_sorted(p, x, spec):
    """-CVaR_alpha per row: the mean of the worst alpha-share of the atoms x."""
    before = np.cumsum(p, axis=-1) - p
    take = np.minimum(p, np.maximum(spec.alpha - before, 0.0))
    return (take * x).sum(axis=-1) / spec.alpha


def _support_ends(p, x):
    """Smallest and largest atom with positive mass, per row."""
    pos = p > 0.0
    lo = x[np.argmax(pos, axis=-1)]
    hi = x[x.size - 1 - np.argmax(pos[..., ::-1], axis=-1)]
    return lo, hi


def _mean_variance_sorted(p, x, spec):
    """Exact sup_eta { eta + E u(X - eta) } per row, u(t) = t - t^2/2 capped at 1/2.

    The first-order condition sum_{x_i < eta+1} p_i (1 + eta - x_i) = 1 is
    linear in eta while the set of atoms below eta + 1 stays fixed: with the
    first k sorted atoms below, eta = (1 + M_k) / P_k - 1 for their mass P_k
    and mass-weighted sum M_k.  The left side at eta = x_j - 1 is
    x_j P_{<j} - M_{<j}, nondecreasing in j, so k counts the atoms where it is
    below 1.
    """
    P = np.cumsum(p, axis=-1)
    M = np.cumsum(p * x, axis=-1)
    k = np.count_nonzero(x * (P - p) - (M - p * x) < 1.0, axis=-1)[..., None] - 1
    Pk = np.take_along_axis(P, k, axis=-1)[..., 0]
    Mk = np.take_along_axis(M, k, axis=-1)[..., 0]
    # all-zero (inadmissible) rows get a finite placeholder
    eta = (1.0 + Mk) / np.where(Pk > 0.0, Pk, 1.0) - 1.0
    eta = np.clip(eta, *_support_ends(p, x))
    return eta + (p * spec.u(x - eta[..., None])).sum(axis=-1)


def _piecewise_linear_sorted(p, x, spec):
    """Exact sup_eta { eta + E u(X - eta) } per row for a concave piecewise-linear u.

    Written as u(t) = c + s t + sum_j d_j min(t - k_j, 0) over the interior
    kinks k_j (slope drops d_j > 0, last slope s), the objective is

        eta + c + s (E X - eta) + sum_j d_j (M(eta + k_j) - (eta + k_j) F(eta + k_j)),

    with F(y), M(y) the mass and mass-weighted sum of the atoms below y, read
    off the cumulative sums.  It is concave and piecewise linear, so its
    maximum over the support sits at a kink x_i - k_j or at an end; the
    candidates are clipped to each row's support.  Memory is rows * S * J.
    """
    ts = np.array([t for t, _ in spec.points])
    us = np.array([u for _, u in spec.points])
    slopes = np.diff(us) / np.diff(ts)
    kinks, drops, s = ts[1:-1], slopes[:-1] - slopes[1:], slopes[-1]
    c = us[-1] - s * ts[-1]
    zero = np.zeros(p.shape[:-1] + (1,))
    F = np.concatenate((zero, np.cumsum(p, axis=-1)), axis=-1)
    M = np.concatenate((zero, np.cumsum(p * x, axis=-1)), axis=-1)
    cands = np.concatenate(((x[:, None] - kinks).ravel(), x[:1]))
    lo, hi = _support_ends(p, x)
    eta = np.clip(cands, lo[..., None], hi[..., None])
    obj = eta + c + s * (M[..., -1:] - eta)
    for k, d in zip(kinks, drops):
        y = eta + k
        i = np.searchsorted(x, y)
        obj += d * (np.take_along_axis(M, i, axis=-1) - y * np.take_along_axis(F, i, axis=-1))
    return obj.max(axis=-1)


# S_u per row from the rows p and the atoms x, both in ascending order of x
_SORTED_RISK = {
    "cvar": _cvar_sorted,
    "mean_variance": _mean_variance_sorted,
    "piecewise_linear": _piecewise_linear_sorted,
}


def successor_risk(m, spec, v):
    """S_u(v(X')), X' ~ q(.|x,a), for every (x, a) at once: an (S, A) table.

    Equals ``oce(push_forward(m, x, a, v), spec).value`` at every admissible
    (x, a) up to rounding; inadmissible rows read 0.  Kernel rows are used as
    given, which validation holds to a mass of 1 within 1e-12.
    """
    v = np.asarray(v, dtype=float)
    if spec.kind == "entropic":
        risk = -logsumexp(m.log_kernel - spec.gamma * v, axis=-1) / spec.gamma
    else:
        order = np.argsort(v, kind="stable")
        risk = _SORTED_RISK[spec.kind](m.kernel[..., order], v[order], spec)
    return np.where(m.admissible_mask, risk, 0.0)


def recursive_bellman_L(m, spec, v):
    """One sweep of the nested-risk operator.  Returns (Lv, argmax policy).

    Ties go to the first action in declared order; inadmissible actions are
    masked out.
    """
    risk = successor_risk(m, spec, v)
    q = np.where(m.admissible_mask, m.reward + m.discount * risk, -np.inf)
    idx = np.argmax(q, axis=1)
    policy = StationaryPolicy({s: m.actions[idx[i]] for i, s in enumerate(m.states)})
    return q[np.arange(m.n_states), idx], policy


def _sweep_budget(beta, stop, delta_1, max_iters):
    """Sweeps a contraction needs to bring its change from delta_1 to stop.

    Sweep k changes v by at most beta^(k-1) * delta_1.  A non-finite first
    change gives a budget of one sweep, so a broken sweep raises at once.
    """
    if not math.isfinite(delta_1):
        return 1
    budget = 1 + math.ceil(math.log(stop / delta_1) / math.log(beta)) + _BUDGET_MARGIN
    return budget if max_iters is None else min(budget, max_iters)


def _iterate(m, sweep, tol, max_iters=None, v0=None):
    """Contraction iteration with the a-posteriori bound beta*||dv||/(1-beta).

    The sweep budget follows from the first sweep's change (see
    :func:`_sweep_budget`); an explicit ``max_iters`` caps it.  Past the
    budget the iteration raises :class:`IterationLimitError`.
    """
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    beta = m.discount
    v = np.zeros(m.n_states) if v0 is None else np.asarray(v0, dtype=float)
    stop = tol if beta == 0.0 else tol * (1.0 - beta) / beta
    for it in itertools.count(1):
        w, policy = sweep(v)
        delta = float(np.max(np.abs(w - v)))
        v = w
        if delta <= stop or beta == 0.0:
            bound = 0.0 if beta == 0.0 else beta * delta / (1.0 - beta)
            residual = float(np.max(np.abs(sweep(v)[0] - v)))
            return v, policy, it, residual, bound
        if it == 1:
            budget = _sweep_budget(beta, stop, delta, max_iters)
        if it >= budget:
            raise IterationLimitError(
                "value iteration did not converge", delta, it)


def solve_recursive(m, spec, tol=1e-9, max_iters=None):
    """Fixed point of L with a stationary argmax policy attached."""
    m.require_valid()
    v, policy, it, residual, bound = _iterate(
        m, lambda v: recursive_bellman_L(m, spec, v), tol, max_iters)
    return SolveReport(
        criterion="recursive_oce",
        value=value_dict(m, v),
        policy=dict(policy.choice),
        iterations=it,
        residual=residual,
        error_bound=bound,
        extras={"utility": spec.to_json()},
    )


def entropic_fast_path(m, gamma, tol=1e-9, max_iters=None):
    """:func:`solve_recursive` with the entropic utility, after checking that
    gamma * d / (1 - beta) stays in double range; the report says
    ``fast_path``."""
    m.require_valid()
    _check_gamma_range(m, gamma)
    rep = solve_recursive(m, UtilitySpec.entropic(gamma), tol, max_iters)
    rep.extras = {"utility": {"type": "entropic", "gamma": gamma}, "fast_path": True}
    return rep


def _policy_sweep(m, spec, idx, v):
    """L_f v for the action index per state ``idx``."""
    rows = np.arange(m.n_states)
    return m.reward[rows, idx] + m.discount * successor_risk(m, spec, v)[rows, idx]


def policy_evaluation_recursive(m, spec, policy, tol=1e-9, max_iters=None):
    """Fixed point of L_f (no maximization) for a stationary policy."""
    m.require_valid()
    idx = policy.indices(m)
    v, _, _, _, _ = _iterate(
        m, lambda v: (_policy_sweep(m, spec, idx, v), policy), tol, max_iters)
    return value_dict(m, v)


def n_stage_value(m, spec, stage_policy, n_stages):
    """J_N under a stage policy: the N-fold composition of the per-stage
    operators applied to the zero function (stage N-1 innermost)."""
    m.require_valid()
    v = np.zeros(m.n_states)
    for k in reversed(range(n_stages)):
        v = _policy_sweep(m, spec, stage_policy.rule_at(k).indices(m), v)
    return value_dict(m, v)
