"""Ergodic entropic cost: the multiplicative Poisson equation on finite chains.

Minimized criterion: limsup (1/(gamma n)) ln E exp(gamma * cumulative cost).
On a finite model whose stationary policies all induce communicating chains,
the optimal constant cost xi and relative value h solve

    xi + h(x) = min_a { c(x,a) + (1/gamma) ln sum_y q(y|x,a) e^{gamma h(y)} },

equivalently, with W = e^{gamma h} and rho = e^{gamma xi},

    rho W(x) = min_a e^{gamma c(x,a)} sum_y q(y|x,a) W(y),

a nonlinear eigenproblem for the positive-matrix family; rho is the Perron
value of the optimal policy's matrix diag(e^{gamma c_f}) P_f.

:func:`ergodic_rvi` solves it in log space, lw = log W with lw = 0 at a
reference state z, by Newton's method on the log sweep T, the entropic
successor layer of :mod:`riskmdp.recursive` at gamma = 1 over the atoms -lw.
The gradient of T at lw along the greedy rows f is that layer's dual kernel,
Q(x, y) = q(y|x,f) e^{lw(y)} / sum_y q e^{lw} (:func:`_tilted_kernel`), and
one step solves (I - Q) delta + l 1 = T(lw) - lw with delta(z) = 0 for the
step delta and the new log rho l.  This is policy iteration for the
criterion (Howard & Matheson, Management Science 1972), which Puterman &
Brumelle (Math. Oper. Res. 1979) identify with Newton's method.  A step
that fails (a singular system, a non-finite trial or a larger residual) is
replaced by one step of relative value iteration damped with the self-loop
mix lam = 1/2 (periodic chains otherwise cycle); the damping shifts the
eigenvalue affinely, rho_damped = (1 - lam) + lam * rho, and keeps the
eigenvector and the minimizing actions, so the reported xi is undamped.  The
value of a single policy is the same iteration on a copy of the model
restricted to that policy's actions.

Every sweep runs in log space (log W), so no gamma causes overflow.  One
call of :func:`ergodic_rvi` sets itself up once, in one
:class:`~riskmdp.recursive.SweepRows` that holds ln q for every sweep and
tilted kernel of the call.  Each sweep (:func:`_log_min_sweep`) takes its
minimum and minimizing actions from one greedy step,
:func:`~riskmdp.recursive._greedy` on the negated table, the mask and tie
rule of every discounted solver, and returns them with the entropic layer
it was built from.  That layer is also its eta*: the tilted kernel of the
greedy rows reads eta* there, so a Newton step evaluates one layer, the one
of its trial's sweep.  The Newton step, the residual, the damped fallback
and the final policy all read that one sweep and reduce no table again.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChainStructureError,
    IterationLimitError,
    ParameterError,
)
# check_unichain_aperiodic is not called here: bench/tracing.py wraps it by
# name in this module, and its traced run fails if the attribute is missing
from .mdp import (
    StationaryPolicy,
    check_unichain_aperiodic,
    reducible_policy,
    value_dict,
)
from .neutral import DAMPING, MAX_ITERS, _reference_index, _rvi_stop
from .oce import UtilitySpec
from .recursive import SweepRows, _check_tol, _dual_kernel, _greedy, _successor_layer
from .report import SolveReport


@dataclass
class ErgodicSolution:
    xi: float
    h: dict                 # relative value, h(reference) = 0
    W: dict                 # e^{gamma h}; may overflow to inf for extreme gamma*span
    policy: StationaryPolicy
    rho: float              # e^{gamma xi}; inf where it overflows, null in the report
    iterations: int
    residual: float
    safeguarded: int        # damped RVI steps taken in place of a refused Newton step

    def report(self, gamma):
        return SolveReport(
            criterion="ergodic_entropic",
            value={s: self.xi for s in self.h},
            policy=dict(self.policy.choice),
            iterations=self.iterations,
            residual=self.residual,
            error_bound=self.residual,
            extras={"gain": self.xi, "bias": self.h,
                    "rho": self.rho if np.isfinite(self.rho) else None, "gamma": gamma,
                    "safeguarded": self.safeguarded},
        )


# the tilt of the log sweep: ln sum_y q e^{lw} = -S(-lw) for the entropic OCE S
# with gamma = 1, the successor layer of the recursive criterion
_TILT = UtilitySpec.entropic(1.0)


def _log_min_sweep(m, gamma, lw, rows):
    """(mins, idx, layer) of the log sweep at lw: mins[x] is the least, over
    the admissible a, log of e^{gamma c(x,a)} sum_y q W, and idx[x] the
    first such a in declared order; layer is the entropic successor layer
    -ln sum_y q e^{lw} they were built from, which is also that layer's eta*
    (:func:`_tilted_kernel` reads it for the greedy rows).  One
    :func:`~riskmdp.recursive._greedy` step on the negated table
    layer - gamma c gives both, negated back: negation maps the max and the
    first maximizer onto the min and the first minimizer exactly, and
    ``_greedy`` masks the inadmissible actions.  ``rows`` is the solve's
    :class:`~riskmdp.recursive.SweepRows`, which holds ln q."""
    with np.errstate(over="ignore"):  # an overflow is caught as a non-finite iterate
        layer = _successor_layer(m, _TILT, -lw, None, rows)[0]
        top, idx = _greedy(layer - gamma * m.cost, rows)
    # not -top: where gamma c equals the layer, gamma c - layer reads +0.0
    return 0.0 - top, idx, layer


def _tilted_kernel(m, lw, idx, eta, rows):
    """Q(x, y) = q(y|x,a) e^{lw(y)} / sum_y q e^{lw} over the kernel rows
    (x, idx[x]): the gradient of the log sweep at lw, the
    :func:`~riskmdp.recursive._dual_kernel` of the tilt.  ``eta`` is the
    layer's eta* on those rows, read from the layer of the
    :func:`_log_min_sweep` at the same lw, so no layer is evaluated here.
    Each row sums to 1."""
    return _dual_kernel(m, _TILT, -lw, idx, eta, rows)


def _residual(mins, lrho, lw):
    """max_x |M W(x) / (rho W(x)) - 1|, the relative residual in logs."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(np.expm1(mins - lrho - lw))))


def _newton_trial(m, gamma, z, lw, sweep, rows):
    """(lw + delta, l, its sweep, its residual) from one solve of
    (I - Q) delta + l 1 = T(lw) - lw with delta(z) = 0, Q the tilted kernel
    of the greedy rows; None for a singular system or a non-finite trial.
    ``sweep`` is the (mins, idx, layer) of the :func:`_log_min_sweep` at
    lw: T(lw) is mins, the greedy rows are idx, and their eta* is read from
    layer, so a Newton step evaluates one entropic layer, the trial's
    sweep, and reduces no table of its own."""
    mins, idx, layer = sweep
    a = np.eye(m.n_states) - _tilted_kernel(m, lw, idx, layer[rows.states, idx], rows)
    a[:, z] = 1.0  # delta(z) = 0 frees column z for l
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            step = np.linalg.solve(a, mins - lw)
        except np.linalg.LinAlgError:
            return None
        lrho = step[z]
        step[z] = 0.0
        trial = lw + step
    if not (np.isfinite(lrho) and np.all(np.isfinite(trial))):
        return None
    tsweep = _log_min_sweep(m, gamma, trial, rows)
    return trial, lrho, tsweep, _residual(tsweep[0], lrho, trial)


def ergodic_rvi(m, gamma, tol=1e-11, reference_state=None):
    """Optimal ergodic entropic cost (xi, h, W, policy, rho) by safeguarded
    Newton steps on the tilted kernel, with damped RVI as the fallback.

    Each iteration tries the Newton step of :func:`_newton_trial` and keeps
    it if its relative residual is no larger than the current one (which
    counts as +inf at lw = 0, where it can overflow); otherwise it takes one
    damped RVI step and counts it in ``safeguarded``.  A kept trial's sweep
    is the next iteration's sweep, so a Newton step costs one sweep and one
    S x S linear solve.

    Stopping uses the relative residual of the undamped multiplicative
    equation, max_x |M W(x) / (rho W(x)) - 1| <= tol, which is scale-free in
    gamma (the additive xi/h residual divides float noise by gamma and cannot
    reach tight tolerances for small gamma).  The stopping contract and its
    code are those of :mod:`riskmdp.neutral`: a tolerance that is not finite
    and > 0 is refused, and a non-finite iterate, a recurring iterate above
    tol or ``MAX_ITERS`` iterations raise :class:`IterationLimitError`.  A
    model in which some stationary policy induces a reducible chain is
    refused with :class:`ChainStructureError` naming that policy (the exact
    test of :func:`reducible_policy`).
    """
    UtilitySpec.entropic(gamma)  # a finite gamma > 0
    _check_tol(tol)
    if m.cost is None:
        raise ParameterError("ergodic solver needs a cost table")
    m.require_valid(for_discounted=False)
    witness = reducible_policy(m)
    if witness is not None:
        raise ChainStructureError(
            f"policy {witness.choice} does not induce a communicating chain; "
            "the ergodic criterion needs one communicating class per policy"
        )

    z = _reference_index(m, reference_state)
    lam = DAMPING
    rows = SweepRows(m)
    lw = anchor = np.zeros(m.n_states)
    # the sweep at the new lw gives both this iteration's residual and the
    # next iteration's update
    sweep = _log_min_sweep(m, gamma, lw, rows)
    residual = np.inf
    safeguarded = 0
    for it in range(1, MAX_ITERS + 1):
        trial = _newton_trial(m, gamma, z, lw, sweep, rows)
        if trial is not None and trial[3] <= residual:  # a NaN residual fails
            lw, lrho, sweep, residual = trial
        else:
            safeguarded += 1
            ly = np.logaddexp(np.log1p(-lam) + lw, np.log(lam) + sweep[0])
            lrho_t = ly[z] - lw[z]
            lw = ly - ly[z]
            if not np.all(np.isfinite(lw)):  # a NaN residual would never stop the loop
                raise IterationLimitError(
                    "ergodic RVI produced a non-finite iterate", np.nan, it)
            # undamped eigenvalue: rho = (rho_tilde - (1 - lam)) / lam, in logs
            lrho = lrho_t + np.log1p(-(1.0 - lam) * np.exp(-lrho_t)) - np.log(lam)
            sweep = _log_min_sweep(m, gamma, lw, rows)
            residual = _residual(sweep[0], lrho, lw)
        done, anchor = _rvi_stop("ergodic RVI", it, lw, anchor, residual, tol)
        if done:
            h = lw / gamma
            with np.errstate(over="ignore"):
                W, rho = np.exp(lw), float(np.exp(lrho))
            return ErgodicSolution(
                xi=float(lrho / gamma), h=value_dict(m, h), W=value_dict(m, W),
                policy=StationaryPolicy.from_indices(m, sweep[1]), rho=rho,
                iterations=it, residual=residual, safeguarded=safeguarded,
            )
    raise IterationLimitError(
        f"ergodic RVI did not converge (last residual {residual:.3e})",
        residual, MAX_ITERS)


def rounding_floor(gamma, cost):
    """16 ulps of the largest exponent gamma * c over ``cost``: the sweep's
    log terms carry gamma * c, and their rounding floors the relative
    residual, so no smaller tolerance can be met.

    Computed in Python floats.  A gamma that is not finite and > 0, or one
    whose product with the largest cost overflows, is refused with
    :class:`ParameterError` naming gamma, so the floor is always a finite
    tolerance."""
    UtilitySpec.entropic(gamma)  # a finite gamma > 0
    top = float(gamma) * float(np.max(cost))
    if not math.isfinite(top):
        raise ParameterError(f"gamma={gamma} times the largest cost overflows double range")
    return 16 * math.ulp(1.0) * top


def ergodic_policy_value(m, policy, gamma):
    """Growth rate (xi_f, W_f) of one stationary policy.

    xi_f = (1/gamma) ln rho_f with rho_f the Perron value of
    diag(e^{gamma c_f}) P_f, and W_f its strictly positive eigenvector: the
    result of :func:`ergodic_rvi` on a copy of the model in which every state
    admits only the policy's action.  On that copy the precheck is exactly
    the irreducibility test of the policy's chain.  The tolerance is 1e-13,
    or the :func:`rounding_floor` of the policy's costs where that is larger.
    """
    idx = policy.indices(m)
    shadow = copy.copy(m)
    shadow.admissible = {s: [policy.choice[s]] for s in m.states}
    shadow.admissible_mask = np.zeros_like(m.admissible_mask)
    shadow.admissible_mask[np.arange(m.n_states), idx] = True
    tol = 1e-13
    if m.cost is not None:
        tol = max(tol, rounding_floor(gamma, m.cost[np.arange(m.n_states), idx]))
    sol = ergodic_rvi(shadow, gamma, tol=tol)
    return sol.xi, sol.W
