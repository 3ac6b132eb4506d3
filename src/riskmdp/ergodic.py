"""Ergodic entropic cost: the multiplicative Poisson equation on finite chains.

Minimized criterion: limsup (1/(gamma n)) ln E exp(gamma * cumulative cost).
On a finite model whose stationary policies all induce communicating chains,
the optimal constant cost xi and relative value h solve

    xi + h(x) = min_a { c(x,a) + (1/gamma) ln sum_y q(y|x,a) e^{gamma h(y)} },

equivalently, with W = e^{gamma h} and rho = e^{gamma xi},

    rho W(x) = min_a e^{gamma c(x,a)} sum_y q(y|x,a) W(y),

a nonlinear eigenproblem for the positive-matrix family; rho is the Perron
value of the optimal policy's matrix diag(e^{gamma c_f}) P_f.  Relative value
iteration with normalization at a reference state converges once the operator
is damped with the self-loop mix lam = 1/2 (periodic chains otherwise cycle);
the damping shifts the eigenvalue affinely, rho_damped = (1 - lam) + lam * rho,
and keeps the eigenvector and the argmin, so the reported xi is undamped.
:func:`ergodic_rvi` is the one iteration: the value of a single policy is the
same iteration on a copy of the model restricted to that policy's actions.

Every sweep runs in log space (log W), so no gamma causes overflow.
"""

from __future__ import annotations

import copy
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
from .neutral import DAMPING, MAX_ITERS
from .oce import logsumexp
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
    ratio_spread: float     # span of the per-state growth logs at the last sweep

    def report(self, gamma):
        return SolveReport(
            criterion="ergodic_entropic",
            value={s: self.xi for s in self.h},
            policy=dict(self.policy.choice),
            iterations=self.iterations,
            residual=self.residual,
            error_bound=self.residual,
            extras={"gain": self.xi, "bias": self.h,
                    "rho": self.rho if np.isfinite(self.rho) else None, "gamma": gamma},
        )


def _log_min_sweep(m, gamma, lw):
    """log of min_a e^{gamma c(x,a)} sum_y q W, batched; +inf at inadmissible."""
    inner = logsumexp(m.log_kernel + lw, axis=2)
    with np.errstate(over="ignore"):  # an overflow is caught as a non-finite iterate
        return np.where(m.admissible_mask, gamma * m.cost + inner, np.inf)


def ergodic_rvi(m, gamma, tol=1e-11, reference_state=None):
    """Optimal ergodic entropic cost (xi, h, W, policy, rho) by damped RVI.

    Stopping uses the relative residual of the undamped multiplicative
    equation, max_x |M W(x) / (rho W(x)) - 1| <= tol, which is scale-free in
    gamma (the additive xi/h residual divides float noise by gamma and cannot
    reach tight tolerances for small gamma).  The stopping contract is that of
    :mod:`riskmdp.neutral`: a tolerance <= 0 is refused, and a non-finite
    iterate, a recurring iterate above tol or ``MAX_ITERS`` iterations raise
    :class:`IterationLimitError`.  A model in which some
    stationary policy induces a reducible chain is refused with
    :class:`ChainStructureError` naming that policy (the exact test of
    :func:`reducible_policy`).
    """
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ParameterError(f"risk aversion must be > 0, got {gamma}")
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    if m.cost is None:
        raise ParameterError("ergodic solver needs a cost table")
    m.require_valid(for_discounted=False)
    witness = reducible_policy(m)
    if witness is not None:
        raise ChainStructureError(
            f"policy {witness.choice} does not induce a communicating chain; "
            "the ergodic criterion needs one communicating class per policy"
        )

    z = m.state_index[reference_state if reference_state is not None else m.states[0]]
    lam = DAMPING
    lw = anchor = np.zeros(m.n_states)
    spread = np.inf
    # the sweep at the new lw gives both this iteration's residual and the
    # next iteration's update
    vals = _log_min_sweep(m, gamma, lw)
    for it in range(1, MAX_ITERS + 1):
        ly = np.logaddexp(np.log1p(-lam) + lw, np.log(lam) + vals.min(axis=1))
        growth = ly - lw
        spread = float(growth.max() - growth.min())
        lrho_t = ly[z] - lw[z]
        lw_new = ly - ly[z]
        if not np.all(np.isfinite(lw_new)):  # a NaN residual would never stop the loop
            raise IterationLimitError(
                "ergodic RVI produced a non-finite iterate", np.nan, it)
        # an earlier iterate recurs: the float iteration cycles and no later
        # residual is new (Brent's check, with the anchor moved at powers of 2)
        stalled = np.array_equal(lw_new, anchor)
        if it & (it - 1) == 0:
            anchor = lw_new
        lw = lw_new
        # undamped eigenvalue: rho = (rho_tilde - (1 - lam)) / lam, in logs
        lrho = lrho_t + np.log1p(-(1.0 - lam) * np.exp(-lrho_t)) - np.log(lam)
        vals = _log_min_sweep(m, gamma, lw)
        with np.errstate(over="ignore"):
            residual = float(np.max(np.abs(np.expm1(vals.min(axis=1) - lrho - lw))))
        if residual <= tol or stalled:
            if residual > tol:
                raise IterationLimitError(
                    f"ergodic RVI stalled at machine precision above tol={tol:g}",
                    residual, it)
            h = lw / gamma
            with np.errstate(over="ignore"):
                W, rho = np.exp(lw), float(np.exp(lrho))
            return ErgodicSolution(
                xi=float(lrho / gamma), h=value_dict(m, h), W=value_dict(m, W),
                policy=StationaryPolicy.from_indices(m, np.argmin(vals, axis=1)), rho=rho,
                iterations=it, residual=residual, ratio_spread=spread,
            )
    raise IterationLimitError(
        f"ergodic RVI did not converge (last ratio spread {spread:.3e})",
        residual, MAX_ITERS)


def rounding_floor(gamma, cost):
    """16 ulps of the largest exponent gamma * c over ``cost``: the sweep's
    log terms carry gamma * c, and their rounding floors the relative
    residual, so no smaller tolerance can be met."""
    return 16 * np.finfo(float).eps * (gamma * np.max(cost))


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
