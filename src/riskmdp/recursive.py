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

* entropic: a log-sum-exp over the log kernel ln q, which never under- or
  overflows and needs no order (the ergodic log sweep is this layer too);
* cvar, mean_variance, piecewise_linear: V is sorted once per sweep, and the
  kernel rows, permuted to that order, are the layer's rows.

Each solve sets itself up once, in one :class:`SweepRows` that every sweep,
layer, dual kernel and greedy step of the solve reads: the state index and
the inadmissible mask; ln q, taken on the first entropic read; and the last
(row selection, stable argsort of V) with its permuted rows and their p-part
(:func:`~riskmdp.oce._oce_weights`).  Those rows are rebuilt only when the
key changes, which in a value iteration happens a few times in all, and a
sweep from them gives the same bits as one that rebuilds them.  Nothing is
kept on the model.  The sweeps still go through their module names
(:func:`recursive_bellman_L`, :func:`~riskmdp.neutral.bellman_T`), so a
wrapper put there sees each one.  Every discounted solver, the entropic
total recursion and the ergodic log sweep (on the negated table) take their
greedy step, the masked max and first argmax of an (S, A) action-value
table, from :func:`_greedy`; the four discounted solvers, value and policy
iteration of both criteria, build their report from its values and actions
through :func:`_report`; and every solver takes its stopping tolerance
through :func:`_check_tol`: one <= 0 or not finite is refused.

The solver, :func:`policy_iteration_recursive`, is Newton's method on the
same layer: the gradient of S_u at V is a row of risk-adjusted ("dual")
weights Q[x, y] = q(y|x,a) u'(V(y) - eta*) (:func:`_dual_kernel`, built
from the sweep's eta* for the greedy rows only, and for CVaR the tail
take / alpha of those rows held in the solve's set-up), and each step solves
(I - beta Q_f) dV = LV - V for the greedy f.  It takes a few steps.
:func:`policy_evaluation_recursive` is the same loop with f held fixed and
reads the policy's kernel rows only.

Value iteration (:func:`solve_recursive`, the verification path, and
:func:`~riskmdp.neutral.value_iteration`) runs the sweeps only, in one loop,
:func:`_iterate`.  S_u is cash-invariant, so every sweep is monotone with
T(v + c) = Tv + beta c, and the loop shifts each iterate by the midpoint of
its span bounds on the fixed point (MacQueen 1966; Porteus 1971).  That
takes out the constant part of the error exactly, leaves every greedy action
as it is, and cuts the sweeps at beta = 0.95 from hundreds to about ten on
dense models.

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
from .oce import (  # noqa: F401
    DiscreteDistribution,
    UtilitySpec,
    _oce_gradient,
    _oce_sorted,
    _oce_weights,
    oce,
)
from .report import SolveReport

# sweeps allowed past the contraction bound, for rounding near the stop level
_BUDGET_MARGIN = 10


def _check_tol(tol):
    """Refuse a stopping tolerance that no loop can use: one <= 0 can never
    be met, and an infinite one would stop any loop at once."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParameterError(f"tolerance must be finite and > 0, got {tol}")


def _check_gamma_range(m, gamma):
    """Log-space evaluation needs gamma * d / (1 - beta) itself to be finite."""
    UtilitySpec.entropic(gamma)  # a finite gamma > 0
    top = gamma * max(m.reward_bound, 1.0) / max(1.0 - m.discount, 1e-16)
    if not np.isfinite(top) or top > 1e300:
        raise ParameterError(
            f"gamma={gamma} overflows double range even in log space for this model")


def push_forward(m, state_idx, action_idx, v):
    """Law of v(X') under q(.|state, action), equal values merged
    (:meth:`~riskmdp.oce.DiscreteDistribution.merged`).

    Merging is exact because the certainty equivalent is law-invariant, and it
    keeps the eta search on as few atoms as possible.  The row is taken as
    given: a validated kernel holds it to a mass of 1 within 1e-12, as
    :class:`~riskmdp.oce.DiscreteDistribution` requires.
    """
    row = m.kernel[state_idx, action_idx]
    support = row > 0.0
    return DiscreteDistribution(np.asarray(v, dtype=float)[support], row[support]).merged()


def _rows_key(idx, order):
    """The key of the sorted rows a :class:`SweepRows` holds: the bytes of
    the row selection (None for the whole table) and of the order, both
    integer index arrays."""
    return None if idx is None else idx.tobytes(), order.tobytes()


def _successor_layer(m, spec, v, idx=None, rows=None):
    """(S_u(v(X')), eta*) over every kernel row (x, a), as two (S, A) tables,
    or over the rows (x, idx[x]) only when an action index per state is given.

    One call of the sorted OCE layer: a log-sum-exp over ln q for the
    entropic kind, which needs no atom order; otherwise v is sorted and the
    kernel rows, permuted to that order, are the layer's rows.  Both come
    from ``rows``, the solve's :class:`SweepRows` (built here when not
    given).
    """
    v = np.asarray(v, dtype=float)
    rows = SweepRows(m) if rows is None else rows
    if spec.kind == "entropic":
        sel = Ellipsis if idx is None else (rows.states, idx)
        return _oce_sorted(None, v, spec, log_p=rows.log_kernel(m)[sel])
    order = np.argsort(v, kind="stable")
    p, weights = rows.sorted(m, spec, idx, order)
    return _oce_sorted(p, v[order], spec, weights=weights)


def successor_risk(m, spec, v, rows=None):
    """S_u(v(X')), X' ~ q(.|x,a), for every (x, a) at once: an (S, A) table.

    Equals ``oce(push_forward(m, x, a, v), spec).value`` at every admissible
    (x, a) up to rounding; inadmissible rows read 0.  Kernel rows are used as
    given, which validation holds to a mass of 1 within 1e-12.  ``rows`` is
    the solve's :class:`SweepRows` (built here when not given).
    """
    rows = SweepRows(m) if rows is None else rows
    return _zero_inadmissible(_successor_layer(m, spec, v, None, rows)[0], rows)


def _zero_inadmissible(risk, rows):
    """``risk`` with its inadmissible rows set to 0, so that reward + beta
    risk stays finite there before the greedy step masks them."""
    return risk if rows.inadmissible is None else np.where(rows.inadmissible, 0.0, risk)


def _dual_kernel(m, spec, v, idx, eta, rows=None):
    """Q[x, y] = dS_u/dv(y) over the kernel rows (x, idx[x]), at the eta* that
    :func:`_successor_layer` returned for them: the gradient of the layer,
    from :func:`~riskmdp.oce._oce_gradient`.  Each row sums to 1.

    ``rows`` is the solve's :class:`SweepRows` (built here when not given).
    After a whole-table layer at the same v it holds every row in v's
    order, and the rows (x, idx[x]) and their p-part are read there.
    """
    v = np.asarray(v, dtype=float)
    rows = SweepRows(m) if rows is None else rows
    if spec.kind == "entropic":
        return _oce_gradient(None, v, spec, eta, log_p=rows.log_kernel(m)[rows.states, idx])
    order = np.argsort(v, kind="stable")
    p, weights = rows.sorted(m, spec, idx, order)
    dual = np.empty((m.n_states, m.n_states))
    dual[:, order] = _oce_gradient(p, v[order], spec, eta, weights=weights)
    return dual


class SweepRows:
    """The set-up of one solve, made once and read by each of its sweeps,
    layers and greedy steps:

    * ``states``, the state index, and ``inadmissible``, the mask of
      inadmissible actions (None when every action is admissible, and then
      no sweep masks at all);
    * ln q, the entropic layer's log kernel, taken on its first read, so a
      solve that never reads it never pays for it;
    * for the sorted kinds, the kernel rows the solve last read, permuted
      to the sort order of v, with their p-part
      (:func:`~riskmdp.oce._oce_weights`), held under the key
      :func:`_rows_key` of (row selection, order).  A value iteration
      changes the stable argsort of v a few times in all, so most sweeps
      reuse both, and a sweep from them gives the same bits as one that
      rebuilds them.

    The sweeps read rewards, beta and the kernel from the model.  Nothing
    is kept on the model: a solve after a change of ``m.reward``, or on a
    copy whose ``admissible_mask`` is narrowed, sets up its own.  A plain
    class, like :class:`~riskmdp.augmented.LevelRows`.
    """

    __slots__ = ("states", "inadmissible", "_log_q", "_key", "_p", "_weights")

    def __init__(self, m):
        self.states = np.arange(m.n_states)
        inadmissible = ~m.admissible_mask
        self.inadmissible = inadmissible if inadmissible.any() else None
        self._log_q = self._key = self._p = self._weights = None

    def log_kernel(self, m):
        """ln q(y|x,a) of the model, -inf where q = 0."""
        if self._log_q is None:
            with np.errstate(divide="ignore"):
                self._log_q = np.log(m.kernel)
        return self._log_q

    def sorted(self, m, spec, idx, order):
        """(kernel rows, their p-part) of the rows ``idx`` (None: the whole
        table), permuted to the atom order ``order``.  Rows of a whole
        table held in that order are read from it; other rows replace the
        held ones."""
        key = _rows_key(idx, order)
        if key != self._key:
            if idx is not None and self._key == _rows_key(None, order):
                return (self._p[self.states, idx],
                        tuple(w[self.states, idx] for w in self._weights))
            self._p = m.kernel[Ellipsis if idx is None else (self.states, idx)][..., order]
            self._weights = _oce_weights(self._p, spec)
            self._key = key
        return self._p, self._weights


def _greedy(q, rows):
    """max_a q(x, a) per state and the first maximizing action index in
    declared order, over an (S, A) action-value table; inadmissible actions
    are masked out with -inf.  The greedy step of the discounted solvers,
    the entropic total recursion and, on the negated table, the ergodic log
    sweep; ``rows`` is the solve's :class:`SweepRows`."""
    if rows.inadmissible is not None:
        q = np.where(rows.inadmissible, -np.inf, q)
    idx = q.argmax(axis=1)
    return q[rows.states, idx], idx


def _report(m, criterion, v, idx, iterations, residual, error_bound, **extras):
    """The :class:`~riskmdp.report.SolveReport` of a solve that ends in the
    values v and the greedy action index per state idx: the report of every
    discounted solver, with its criterion's ``extras`` in the order given."""
    return SolveReport(criterion=criterion, value=value_dict(m, v),
                       policy=dict(StationaryPolicy.from_indices(m, idx).choice),
                       iterations=iterations, residual=residual,
                       error_bound=error_bound, extras=extras)


def recursive_bellman_L(m, spec, v, rows=None):
    """One sweep of the nested-risk operator.  Returns (Lv, the argmax action
    index per state); see :func:`_greedy` for ties.  ``rows`` is the solve's
    :class:`SweepRows` (built here when not given)."""
    return _greedy_sweep(m, spec, v, rows)[:2]


def _sweep_budget(beta, stop, delta_1):
    """Sweeps a contraction needs to bring its change from delta_1 to stop.

    Sweep k changes v by at most beta^(k-1) * delta_1.  That holds for the
    shifted iterate of :func:`_iterate` too: there the change obeys
    ||d_{k+1}|| <= beta (max d_k - min d_k) / 2 <= beta ||d_k||.  Both callers
    refuse a non-finite change before they ask for a budget.
    """
    return 1 + math.ceil(math.log(stop / delta_1) / math.log(beta)) + _BUDGET_MARGIN


def _iterate(m, sweep, tol):
    """Contraction iteration from the zero function with the a-posteriori
    bound beta*||dv||/(1-beta).  ``sweep(v)`` returns (Tv, the argmax action
    index per state); the loop returns (v, idx, sweeps, residual, bound).

    Every sweep here is monotone with T(v + c) = Tv + beta c for a constant
    c, the cash invariance of S_u.  So each iterate continues from
    w + beta / (1 - beta) * (min d + max d) / 2, with w = Tv and d = w - v:
    the midpoint of the span bounds on the fixed point (MacQueen 1966;
    Porteus 1971), which takes out the constant part of the error exactly.
    A constant shift changes no sweep's greedy action.  The stop test and
    the returned w with its bound beta ||d|| / (1 - beta) are those of the
    plain iteration, since contraction makes the bound hold for any v.

    The sweep budget follows from the first sweep's change (see
    :func:`_sweep_budget`).  Past the budget, or at the first non-finite
    change, the iteration raises :class:`IterationLimitError`.
    """
    _check_tol(tol)
    beta = m.discount
    v = np.zeros(m.n_states)
    stop = tol if beta == 0.0 else tol * (1.0 - beta) / beta
    for it in itertools.count(1):
        w, idx = sweep(v)
        d = w - v
        delta = float(abs(d).max())
        if not math.isfinite(delta):
            raise IterationLimitError(
                "value iteration produced a non-finite iterate", delta, it)
        if delta <= stop or beta == 0.0:
            bound = 0.0 if beta == 0.0 else beta * delta / (1.0 - beta)
            residual = float(abs(sweep(w)[0] - w).max())
            return w, idx, it, residual, bound
        if it == 1:
            budget = _sweep_budget(beta, stop, delta)
        if it >= budget:
            raise IterationLimitError(
                "value iteration did not converge", delta, it)
        v = w + beta / (1.0 - beta) * (d.min() + d.max()) / 2.0


def solve_recursive(m, spec, tol=1e-9):
    """Fixed point of L with a stationary argmax policy attached, by value
    iteration: the verification path of :func:`policy_iteration_recursive`."""
    m.require_valid()
    rows = SweepRows(m)
    return _report(m, "recursive_oce", *_iterate(
        m, lambda v: recursive_bellman_L(m, spec, v, rows), tol), utility=spec.to_json())


def _newton(m, spec, sweep, tol):
    """Safeguarded Newton iteration for the fixed point of a sweep T, from 0.

    ``sweep(v, rows)`` returns Tv, the action index per state of the kernel
    rows it chose and their eta*; the :func:`_dual_kernel` of those rows is
    the gradient of T / beta at v.  The loop's one :class:`SweepRows`
    serves every sweep and dual kernel.  A step tries
    w = v + (I - beta Q)^-1 (Tv - v) and keeps it if
    ||Tw - w|| <= beta ||Tv - v||, the most a plain sweep can leave;
    otherwise it takes Tv and counts as safeguarded.  Tw is the next
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
    _check_tol(tol)
    beta = m.discount
    rows = SweepRows(m)

    def visit(v):
        tv, idx, eta = sweep(v, rows)
        return v, tv, idx, eta, float(abs(tv - v).max())

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
            budget = _sweep_budget(beta, stop, max(res, stop))
        if steps >= budget:
            raise IterationLimitError("policy iteration did not converge", res, steps)
        last = res <= stop
        steps += 1
        dual = _dual_kernel(m, spec, v, idx, eta, rows)
        trial = visit(v + np.linalg.solve(np.eye(m.n_states) - beta * dual, tv - v))
        if trial[-1] <= beta * res:  # NaN fails
            v, tv, idx, eta, res = trial
        elif not last:
            safeguarded += 1
            v, tv, idx, eta, res = visit(tv)
    if beta == 0.0:
        return tv, idx, 0, 0.0, 0.0, 0
    residual = float(abs(sweep(tv, rows)[0] - tv).max())
    return tv, idx, steps, residual, beta * res / (1.0 - beta), safeguarded


def _greedy_sweep(m, spec, v, rows=None):
    """Lv, its argmax actions and their eta*: the sweep of value iteration
    and of policy iteration.  Inadmissible rows read 0 before the greedy
    step masks them, as in :func:`successor_risk`."""
    rows = SweepRows(m) if rows is None else rows
    risk, eta = _successor_layer(m, spec, v, None, rows)
    lv, idx = _greedy(m.reward + m.discount * _zero_inadmissible(risk, rows), rows)
    return lv, idx, eta[rows.states, idx]


def policy_iteration_recursive(m, spec, tol=1e-9):
    """Fixed point of L by policy iteration whose evaluation step is one
    Newton step on the dual kernel of the greedy policy (see :func:`_newton`).

    Puterman & Brumelle (Math. Oper. Res. 1979) show that policy iteration
    is Newton's method; with u(t) = t this is Howard's.  Ruszczynski
    (Math. Program. 2010) gives the risk-averse form.  ``iterations`` counts
    Newton steps, and the report says how many were safeguarded.
    """
    m.require_valid()
    *solved, safeguarded = _newton(m, spec, lambda v, rows: _greedy_sweep(m, spec, v, rows), tol)
    return _report(m, "recursive_oce", *solved, utility=spec.to_json(),
                   method="policy_iteration", safeguarded=safeguarded)


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


def _policy_sweep(m, spec, idx, v, rows=None):
    """L_f v for the action index per state ``idx``, with idx and the eta* of
    f's rows: the sweep of :func:`_newton` with f held fixed."""
    rows = SweepRows(m) if rows is None else rows
    risk, eta = _successor_layer(m, spec, v, idx, rows)
    return m.reward[rows.states, idx] + m.discount * risk, idx, eta


def policy_evaluation_recursive(m, spec, policy, tol=1e-9):
    """Fixed point of L_f (no maximization) for a stationary policy: the
    Newton loop of :func:`policy_iteration_recursive` with f held fixed."""
    m.require_valid()
    idx = policy.indices(m)
    v = _newton(m, spec, lambda v, rows: _policy_sweep(m, spec, idx, v, rows), tol)[0]
    return value_dict(m, v)


def n_stage_value(m, spec, stage_policy, n_stages):
    """J_N under a stage policy: the N-fold composition of the per-stage
    operators applied to the zero function (stage N-1 innermost)."""
    m.require_valid()
    v = np.zeros(m.n_states)
    rows = SweepRows(m)
    for k in reversed(range(n_stages)):
        v = _policy_sweep(m, spec, stage_policy.rule_at(k).indices(m), v, rows)[0]
    return value_dict(m, v)
