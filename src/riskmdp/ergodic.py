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
is damped with a self-loop mix (periodic chains otherwise cycle); the damping
shifts the eigenvalue affinely, rho_damped = (1 - lam) + lam * rho, and keeps
the eigenvector and the argmin, so the reported xi is undamped.

Every sweep runs in log space (log W), so no gamma causes overflow.
"""

from __future__ import annotations

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
    analyze_chain,
    check_unichain_aperiodic,
    reducible_policy,
    value_dict,
)
from .oce import logsumexp
from .report import SolveReport

MAX_ITERS = 10**6


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


def ergodic_rvi(m, gamma, tol=1e-11, reference_state=None, damping=0.5,
                max_iters=MAX_ITERS):
    """Optimal ergodic entropic cost (xi, h, W, policy, rho) by damped RVI.

    Stopping uses the relative residual of the undamped multiplicative
    equation, max_x |M W(x) / (rho W(x)) - 1| <= tol, which is scale-free in
    gamma (the additive xi/h residual divides float noise by gamma and cannot
    reach tight tolerances for small gamma).  The loop also stops if an
    iteration leaves the table bitwise unchanged, i.e. the machine-precision
    fixed point was reached.  A model in which some stationary policy
    induces a reducible chain is refused with :class:`ChainStructureError`
    naming that policy (the exact test of :func:`reducible_policy`).
    """
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ParameterError(f"risk aversion must be > 0, got {gamma}")
    if m.cost is None:
        raise ParameterError("ergodic solver needs a cost table")
    if not (0.0 < damping <= 1.0):
        raise ParameterError(f"damping must lie in (0, 1], got {damping}")
    m.require_valid(for_discounted=False)
    witness = reducible_policy(m)
    if witness is not None:
        raise ChainStructureError(
            f"policy {witness.choice} does not induce a communicating chain; "
            "the ergodic criterion needs one communicating class per policy"
        )

    z = m.state_index[reference_state if reference_state is not None else m.states[0]]
    lam = damping
    lw = np.zeros(m.n_states)
    spread = np.inf
    # the sweep at the new lw gives both this iteration's residual and the
    # next iteration's update
    vals = _log_min_sweep(m, gamma, lw)
    for it in range(1, max_iters + 1):
        lM = vals.min(axis=1)
        if lam < 1.0:
            ly = np.logaddexp(np.log1p(-lam) + lw, np.log(lam) + lM)
        else:
            ly = lM
        growth = ly - lw
        spread = float(growth.max() - growth.min())
        lrho_t = ly[z] - lw[z]
        lw_new = ly - ly[z]
        if not np.all(np.isfinite(lw_new)):  # a NaN residual would never stop the loop
            raise IterationLimitError(
                "ergodic RVI produced a non-finite iterate", np.nan, it)
        stalled = np.array_equal(lw_new, lw)
        lw = lw_new
        # undamped eigenvalue: rho = (rho_tilde - (1 - lam)) / lam, in logs
        if lam < 1.0:
            lrho = lrho_t + np.log1p(-(1.0 - lam) * np.exp(-lrho_t)) - np.log(lam)
        else:
            lrho = lrho_t
        vals = _log_min_sweep(m, gamma, lw)
        with np.errstate(over="ignore"):
            residual = float(np.max(np.abs(np.expm1(vals.min(axis=1) - lrho - lw))))
        if residual <= tol or stalled:
            if residual > tol:
                raise IterationLimitError(
                    "ergodic RVI stalled at the machine-precision fixed point "
                    f"above tol={tol:g}", residual, it)
            idx = np.argmin(vals, axis=1)
            policy = StationaryPolicy({s: m.actions[idx[i]] for i, s in enumerate(m.states)})
            h = lw / gamma
            with np.errstate(over="ignore"):
                W, rho = np.exp(lw), float(np.exp(lrho))
            return ErgodicSolution(
                xi=float(lrho / gamma), h=value_dict(m, h), W=value_dict(m, W),
                policy=policy, rho=rho,
                iterations=it, residual=residual, ratio_spread=spread,
            )
    raise IterationLimitError(
        f"ergodic RVI did not converge (last ratio spread {spread:.3e})",
        residual, max_iters)


def ergodic_policy_value(m, policy, gamma, tol=1e-12, damping=0.5, max_iters=MAX_ITERS):
    """Growth rate (xi_f, W_f) of one stationary policy by damped power iteration.

    xi_f = (1/gamma) ln rho_f with rho_f the Perron value of
    diag(e^{gamma c_f}) P_f; the eigenvector is strictly positive.
    """
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ParameterError(f"risk aversion must be > 0, got {gamma}")
    if m.cost is None:
        raise ParameterError("ergodic solver needs a cost table")
    rep = analyze_chain(m, policy)
    if not rep.irreducible:
        raise ChainStructureError(
            f"policy {policy.choice} induces a reducible chain; Perron iteration needs "
            "a communicating class covering all states")
    rows, idx = np.arange(m.n_states), policy.indices(m)
    logP, c = m.log_kernel[rows, idx], m.cost[rows, idx]
    lam = damping
    lw = np.zeros(m.n_states)
    for it in range(1, max_iters + 1):
        with np.errstate(over="ignore"):  # an overflow is caught as a non-finite iterate
            lM = gamma * c + logsumexp(logP + lw, axis=1)
        ly = np.logaddexp(np.log1p(-lam) + lw, np.log(lam) + lM) if lam < 1.0 else lM
        growth = ly - lw
        spread = float(growth.max() - growth.min())
        lw = ly - ly[0]
        if not np.all(np.isfinite(lw)):
            raise IterationLimitError(
                "Perron power iteration produced a non-finite iterate", np.nan, it)
        if spread <= tol:
            lrho_t = float(growth.mean())
            lrho = (lrho_t + np.log1p(-(1.0 - lam) * np.exp(-lrho_t)) - np.log(lam)
                    if lam < 1.0 else lrho_t)
            h = lw / gamma
            with np.errstate(over="ignore"):
                W = np.exp(gamma * h)
            return float(lrho / gamma), value_dict(m, W)
    raise IterationLimitError(
        f"Perron power iteration did not converge (spread {spread:.3e})",
        spread, max_iters)
