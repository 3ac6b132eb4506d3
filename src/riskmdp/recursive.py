"""Discounted reward with the certainty equivalent applied stage by stage.

The solved equation is the nested-risk Bellman fixed point

    V(x) = max_a { r(x,a) + beta * S_u( V(X') ) },   X' ~ q(.|x,a),

whose operator L is a beta-contraction in the sup norm (shift additivity plus
monotonicity of S_u), so value iteration from the zero function converges and
the maximizer defines an optimal stationary policy.

Every row (x, a) of one sweep takes S_u over the same atom values V(y) and
differs only in the weights q(y|x,a).  :func:`successor_risk` uses that shared
structure and returns the whole (state, action) table of S_u(V(X')) with one
call of the sorted OCE layer in :mod:`riskmdp.oce`, the same code that
:func:`~riskmdp.oce.oce` runs on a single law:

* entropic: a log-sum-exp over the model's cached log kernel, which never
  under- or overflows and needs no order;
* cvar, mean_variance, piecewise_linear: V is sorted once per sweep, and the
  kernel rows, permuted to that order, are the layer's rows.

The per-row path, :func:`push_forward` followed by :func:`~riskmdp.oce.oce`,
stays as a reference for tests.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import IterationLimitError, ParameterError
from .mdp import StationaryPolicy, value_dict
# oce: the per-row reference of the tests, wrapped by name in bench/tracing.py
from .oce import DiscreteDistribution, UtilitySpec, _oce_sorted, oce  # noqa: F401
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


def successor_risk(m, spec, v):
    """S_u(v(X')), X' ~ q(.|x,a), for every (x, a) at once: an (S, A) table.

    Equals ``oce(push_forward(m, x, a, v), spec).value`` at every admissible
    (x, a) up to rounding; inadmissible rows read 0.  Kernel rows are used as
    given, which validation holds to a mass of 1 within 1e-12.
    """
    v = np.asarray(v, dtype=float)
    if spec.kind == "entropic":  # log-sum-exp needs no atom order
        risk, _ = _oce_sorted(None, v, spec, log_p=m.log_kernel)
    else:
        order = np.argsort(v, kind="stable")
        risk, _ = _oce_sorted(m.kernel[..., order], v[order], spec)
    return np.where(m.admissible_mask, risk, 0.0)


def recursive_bellman_L(m, spec, v):
    """One sweep of the nested-risk operator.  Returns (Lv, argmax policy).

    Ties go to the first action in declared order; inadmissible actions are
    masked out.
    """
    risk = successor_risk(m, spec, v)
    q = np.where(m.admissible_mask, m.reward + m.discount * risk, -np.inf)
    idx = np.argmax(q, axis=1)
    policy = StationaryPolicy.from_indices(m, idx)
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


def _iterate(m, sweep, tol, max_iters=None):
    """Contraction iteration from the zero function with the a-posteriori
    bound beta*||dv||/(1-beta).

    The sweep budget follows from the first sweep's change (see
    :func:`_sweep_budget`); an explicit ``max_iters`` caps it.  Past the
    budget the iteration raises :class:`IterationLimitError`.
    """
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    beta = m.discount
    v = np.zeros(m.n_states)
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
