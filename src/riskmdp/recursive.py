"""Discounted reward with the certainty equivalent applied stage by stage.

The solved equation is the nested-risk Bellman fixed point

    V(x) = max_a { r(x,a) + beta * S_u( V(X') ) },   X' ~ q(.|x,a),

whose operator L is a beta-contraction in the sup norm (shift additivity plus
monotonicity of S_u), so value iteration from the zero function converges and
the maximizer defines an optimal stationary policy.

Every row (x, a) of one sweep takes S_u over the same atom values V(y) and
differs only in the weights q(y|x,a).  :func:`_successor_layer` uses that
shared structure and returns S_u(V(X')) and its eta* for the whole (state,
action) table, or for one row per state, with one call of the sorted OCE
layer in :mod:`riskmdp.oce`, the same code that :func:`~riskmdp.oce.oce`
runs on a single law:

* entropic: a log-sum-exp over the model's cached log kernel, which never
  under- or overflows and needs no order;
* cvar, mean_variance, piecewise_linear: V is sorted once per sweep, and the
  kernel rows, permuted to that order, are the layer's rows.

The solver, :func:`policy_iteration_recursive`, is Newton's method on the
same layer: the gradient of S_u at V is a row of risk-adjusted ("dual")
weights Q[x, y] = q(y|x,a) u'(V(y) - eta*) (:func:`_dual_kernel`, built
from the sweep's eta* for the greedy rows only), and each step solves
(I - beta Q_f) dV = LV - V for the greedy f.  It takes a few steps where
value iteration (:func:`solve_recursive`, its verification path) takes
hundreds of sweeps at beta near 1.  :func:`policy_evaluation_recursive` is
the same loop with f held fixed and reads the policy's kernel rows only.

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
from .oce import DiscreteDistribution, UtilitySpec, _oce_gradient, _oce_sorted, oce  # noqa: F401
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


def _successor_layer(m, spec, v, idx=None):
    """(S_u(v(X')), eta*) over every kernel row (x, a), as two (S, A) tables,
    or over the rows (x, idx[x]) only when an action index per state is given.

    One call of the sorted OCE layer: a log-sum-exp over the cached log kernel
    for the entropic kind, which needs no atom order; otherwise v is sorted
    once and the kernel rows, permuted to that order, are the layer's rows.
    """
    v = np.asarray(v, dtype=float)
    rows = Ellipsis if idx is None else (np.arange(m.n_states), idx)
    if spec.kind == "entropic":
        return _oce_sorted(None, v, spec, log_p=m.log_kernel[rows])
    order = np.argsort(v, kind="stable")
    return _oce_sorted(m.kernel[rows][..., order], v[order], spec)


def successor_risk(m, spec, v):
    """S_u(v(X')), X' ~ q(.|x,a), for every (x, a) at once: an (S, A) table.

    Equals ``oce(push_forward(m, x, a, v), spec).value`` at every admissible
    (x, a) up to rounding; inadmissible rows read 0.  Kernel rows are used as
    given, which validation holds to a mass of 1 within 1e-12.
    """
    return np.where(m.admissible_mask, _successor_layer(m, spec, v)[0], 0.0)


def _dual_kernel(m, spec, v, idx, eta):
    """Q[x, y] = dS_u/dv(y) over the kernel rows (x, idx[x]), at the eta* that
    :func:`_successor_layer` returned for them: the gradient of the layer,
    from :func:`~riskmdp.oce._oce_gradient`.  Each row sums to 1."""
    v = np.asarray(v, dtype=float)
    rows = np.arange(m.n_states)
    if spec.kind == "entropic":
        return _oce_gradient(None, v, spec, eta, log_p=m.log_kernel[rows, idx])
    order = np.argsort(v, kind="stable")
    dual = np.empty((m.n_states, m.n_states))
    dual[:, order] = _oce_gradient(m.kernel[rows, idx][:, order], v[order], spec, eta)
    return dual


def _greedy(m, risk):
    """max_a { r(x,a) + beta * risk(x,a) } per state, and the first maximizing
    action index in declared order; inadmissible actions are masked out."""
    q = np.where(m.admissible_mask, m.reward + m.discount * risk, -np.inf)
    idx = np.argmax(q, axis=1)
    return q[np.arange(m.n_states), idx], idx


def recursive_bellman_L(m, spec, v):
    """One sweep of the nested-risk operator.  Returns (Lv, argmax policy).

    Ties go to the first action in declared order; inadmissible actions are
    masked out.
    """
    lv, idx = _greedy(m, successor_risk(m, spec, v))
    return lv, StationaryPolicy.from_indices(m, idx)


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
    """Fixed point of L with a stationary argmax policy attached, by value
    iteration: the verification path of :func:`policy_iteration_recursive`."""
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


def _newton(m, spec, sweep, tol):
    """Safeguarded Newton iteration for the fixed point of a sweep T, from 0.

    ``sweep(v)`` returns Tv, the action index per state of the kernel rows
    it chose and their eta*; the :func:`_dual_kernel` of those rows is the
    gradient of T / beta at v.  A step tries w = v + (I - beta Q)^-1 (Tv - v)
    and keeps it if ||Tw - w|| <= beta ||Tv - v||, the most a plain sweep can
    leave; otherwise it takes Tv and counts as safeguarded.  Tw is the next
    step's sweep, so only a safeguarded step costs a sweep more.  The
    residual shrinks by beta per step at least, which gives the step budget
    of :func:`_sweep_budget`.

    The loop takes one more step once ||Tv - v|| <= tol (1 - beta) / beta:
    from there a Newton step leaves little more than rounding, for one
    linear solve.  That step is kept only if it passes the same test; a
    refused one is dropped, with no sweep and no count.  It returns (Tv, idx, steps, residual, bound, safeguarded):
    the bound beta ||Tv - v|| / (1 - beta) holds for Tv, and the residual of
    Tv is that of one more, real sweep.  beta = 0 takes one sweep.
    """
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    beta = m.discount

    def visit(v):
        tv, idx, eta = sweep(v)
        return v, tv, idx, eta, float(np.max(np.abs(tv - v)))

    v, tv, idx, eta, res = visit(np.zeros(m.n_states))
    stop = tol * (1.0 - beta) / beta if beta > 0.0 else math.inf
    steps = safeguarded = 0
    last = beta == 0.0  # then Tv is the fixed point
    while True:
        if not math.isfinite(res):
            raise IterationLimitError("policy iteration produced a non-finite iterate",
                                      res, steps)
        if last:
            break
        if steps == 0:
            budget = _sweep_budget(beta, stop, max(res, stop), None)
        if steps >= budget:
            raise IterationLimitError("policy iteration did not converge", res, steps)
        last = res <= stop
        steps += 1
        dual = _dual_kernel(m, spec, v, idx, eta)
        trial = visit(v + np.linalg.solve(np.eye(m.n_states) - beta * dual, tv - v))
        if trial[-1] <= beta * res:  # NaN fails
            v, tv, idx, eta, res = trial
        elif not last:
            safeguarded += 1
            v, tv, idx, eta, res = visit(tv)
    if beta == 0.0:
        return tv, idx, 0, 0.0, 0.0, 0
    residual = float(np.max(np.abs(sweep(tv)[0] - tv)))
    return tv, idx, steps, residual, beta * res / (1.0 - beta), safeguarded


def _greedy_sweep(m, spec, v):
    """Lv, its argmax actions and their eta*."""
    risk, eta = _successor_layer(m, spec, v)
    lv, idx = _greedy(m, np.where(m.admissible_mask, risk, 0.0))
    return lv, idx, eta[np.arange(m.n_states), idx]


def policy_iteration_recursive(m, spec, tol=1e-9):
    """Fixed point of L by policy iteration whose evaluation step is one
    Newton step on the dual kernel of the greedy policy (see :func:`_newton`).

    Puterman & Brumelle (Math. Oper. Res. 1979) show that policy iteration
    is Newton's method; with u(t) = t this is Howard's.  Ruszczynski
    (Math. Program. 2010) gives the risk-averse form.  ``iterations`` counts
    Newton steps, and the report says how many were safeguarded.
    """
    m.require_valid()
    v, idx, steps, residual, bound, safeguarded = _newton(
        m, spec, lambda v: _greedy_sweep(m, spec, v), tol)
    return SolveReport(
        criterion="recursive_oce",
        value=value_dict(m, v),
        policy=dict(StationaryPolicy.from_indices(m, idx).choice),
        iterations=steps,
        residual=residual,
        error_bound=bound,
        extras={"utility": spec.to_json(), "method": "policy_iteration",
                "safeguarded": safeguarded},
    )


def entropic_fast_path(m, gamma, tol=1e-9):
    """:func:`policy_iteration_recursive` with the entropic utility, after
    checking that gamma * d / (1 - beta) stays in double range; the report
    says ``fast_path``."""
    m.require_valid()
    _check_gamma_range(m, gamma)
    rep = policy_iteration_recursive(m, UtilitySpec.entropic(gamma), tol)
    rep.extras["utility"] = {"type": "entropic", "gamma": gamma}
    rep.extras["fast_path"] = True
    return rep


def _policy_sweep(m, spec, idx, v):
    """L_f v for the action index per state ``idx``, with idx and the eta* of
    f's rows: the sweep of :func:`_newton` with f held fixed."""
    risk, eta = _successor_layer(m, spec, v, idx)
    return m.reward[np.arange(m.n_states), idx] + m.discount * risk, idx, eta


def policy_evaluation_recursive(m, spec, policy, tol=1e-9):
    """Fixed point of L_f (no maximization) for a stationary policy: the
    Newton loop of :func:`policy_iteration_recursive` with f held fixed."""
    m.require_valid()
    idx = policy.indices(m)
    v = _newton(m, spec, lambda v: _policy_sweep(m, spec, idx, v), tol)[0]
    return value_dict(m, v)


def n_stage_value(m, spec, stage_policy, n_stages):
    """J_N under a stage policy: the N-fold composition of the per-stage
    operators applied to the zero function (stage N-1 innermost)."""
    m.require_valid()
    v = np.zeros(m.n_states)
    for k in reversed(range(n_stages)):
        v = _policy_sweep(m, spec, stage_policy.rule_at(k).indices(m), v)[0]
    return value_dict(m, v)
