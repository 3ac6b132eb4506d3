"""Certainty equivalent of the total discounted reward via state augmentation.

The target sup_pi S_u(sum_k beta^k r(X_k, A_k)) splits into an outer scalar
search over the consumption level eta and an inner control problem

    V(x, y, z) = sup_pi E[ u(z * R + y) ],   R = total discounted reward,

solved on the extended space (state, accumulated utility argument y, discount
level z).  The inner problem satisfies

    V(x, y, z) = max_a sum_x' q(x'|x,a) V(x', y + z r(x,a), z beta)

and the wanted quantity is eta* + V(x0, -eta*, 1).  Optimal behavior is
stationary on the extended space but stage-dependent in the original one: at
stage n the decision reads f*(x_n, accumulated reward - eta*, beta^n).

Numerics: y lives on a uniform grid with linear interpolation (monotone,
order-preserving); z is exact because it only takes the values beta^n up to a
truncation level N with beta^N d/(1-beta) below the tail budget.  Level n
reads only level n+1, and level N reads the terminal u(y'), so the table is
computed exactly by one backward pass from level N down to level 0
(:func:`backward_pass`).  The remaining error is the reported tail +
interpolation budget.

The sandwich iteration is kept as the verification path
(:func:`solve_sandwich`): value iteration runs simultaneously from the
pointwise bounds

    lower(y, z) = u(y)                 (zero future reward),
    upper(y, z) = u(z d/(1-beta) + y)  (maximal future reward),

which are monotone from below / above and meet after N+1 sweeps.  Both paths
update a level with the same :func:`augmented_level`, so the converged
sandwich equals the backward pass bitwise; the pass checks instead that its
table lies between the two bounds.

For the entropic utility the y coordinate drops out entirely:

    V(x, z) = max_a { z r(x,a) - (1/gamma) ln sum_x' q(x'|x,a) e^{-gamma V(x', z beta)} },

an exact backward recursion over the z levels (:func:`entropic_total`), whose
level step is the entropic successor-risk layer of the recursive criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .mdp import StagePolicy, StationaryPolicy, first_admissible_policy, value_dict
from .oce import UtilitySpec
from .recursive import _check_gamma_range, successor_risk
from .report import SolveReport


@dataclass(frozen=True)
class AugmentedGrid:
    """Discretization of the (y, z) coordinates.

    ``y`` is uniform over [-eta_max, d/(1-beta)]; the z levels are beta^n for
    n = 0..n_trunc.
    """

    y: np.ndarray
    y_step: float
    beta: float
    n_trunc: int
    tail_eps: float

    @property
    def n_levels(self):
        return self.n_trunc + 1

    def z(self, n):
        return self.beta ** n

    def y_index(self, value):
        """Nearest grid index and rounding distance."""
        i = int(np.clip(np.rint((value - self.y[0]) / self.y_step), 0, self.y.size - 1))
        return i, abs(float(self.y[i]) - float(value))


def _truncation_depth(beta, d, tail_eps):
    """Smallest level N >= 1 with beta^N d / (1 - beta) <= tail_eps (1 at beta = 0)."""
    if beta == 0.0:
        return 1
    return max(1, math.ceil(math.log(tail_eps * (1.0 - beta) / max(d, 1e-300)) / math.log(beta)))


def _tail_error(beta, d, n_trunc):
    """beta^(N+1) d / (1 - beta), 0 unless 0 < beta < 1: what the levels past
    N can add to the value."""
    return (beta ** (n_trunc + 1)) * (d / (1.0 - beta) if 0.0 < beta < 1.0 else 0.0)


def default_grid(m, y_step=None, tail_eps=1e-8, eta_max=None, n_trunc=None):
    """Grid sized from the model: covers every (y, z) reachable from (-eta, 1)."""
    beta = m.discount
    if not (0.0 <= beta < 1.0):
        raise ParameterError(f"total-reward criterion needs beta in [0, 1), got {beta}")
    top = m.reward_bound / (1.0 - beta)
    if top <= 0.0:
        top = 1.0
    eta_max = top if eta_max is None else float(eta_max)
    step = top / 400.0 if y_step is None else float(y_step)
    if n_trunc is None:
        n_trunc = _truncation_depth(beta, m.reward_bound, tail_eps)
    # ceil so the last point reaches the accumulation bound even when the
    # step does not divide the range
    n_pts = int(math.ceil((top + eta_max) / step - 1e-9)) + 1
    y = -eta_max + step * np.arange(n_pts)
    return AugmentedGrid(y=y, y_step=step, beta=beta, n_trunc=int(n_trunc), tail_eps=tail_eps)


def bound_lower(m, spec, grid):
    """u(y), broadcast to the full (level, state, y) table."""
    base = np.asarray(spec.u(grid.y), dtype=float)
    return np.broadcast_to(base, (grid.n_levels, m.n_states, grid.y.size)).copy()


def bound_upper(m, spec, grid):
    """u(z d/(1-beta) + y) per level."""
    top = m.reward_bound / (1.0 - grid.beta)
    out = np.empty((grid.n_levels, m.n_states, grid.y.size))
    for n in range(grid.n_levels):
        out[n, :, :] = spec.u(grid.z(n) * top + grid.y)
    return out


def augmented_level(m, spec, grid, n, next_level):
    """Level n of the extended-space Bellman operator: values and argmax.

    Level n reads only ``next_level``, the (state, y) table of level n+1
    (z-shift exact, y-shift by linear interpolation).  ``None`` marks the
    deepest level, which reads the terminal continuation u(y'), i.e. future
    reward zero, consistent with the lower bound.  y arguments beyond the grid
    top are clamped to the top value, which preserves monotonicity and never
    affects points reachable from (x0, -eta, 1) with eta in [0, eta_max].
    """
    ny = grid.y.size
    z = grid.z(n)
    values = np.empty((m.n_states, ny))
    argmax = np.zeros((m.n_states, ny), dtype=np.int16)
    for si in range(m.n_states):
        best = np.full(ny, -np.inf)
        best_a = np.zeros(ny, dtype=np.int16)
        for a in m.admissible[m.states[si]]:
            ai = m.action_index[a]
            y2 = grid.y + z * m.reward[si, ai]
            if next_level is None:
                val = np.asarray(spec.u(y2), dtype=float)
            else:
                row = m.kernel[si, ai]
                val = np.zeros(ny)
                for xi in np.flatnonzero(row):
                    val += row[xi] * np.interp(y2, grid.y, next_level[xi])
            better = val > best
            best = np.where(better, val, best)
            best_a = np.where(better, np.int16(ai), best_a)
        values[si] = best
        argmax[si] = best_a
    return values, argmax


def augmented_T(m, spec, grid, V, want_argmax=False):
    """One synchronous sweep of the extended-space Bellman operator.

    Every level is updated from the input table ``V`` by
    :func:`augmented_level`; the deepest level reads the terminal u(y').
    """
    n_levels = V.shape[0]
    out = np.empty_like(V)
    argmax = np.zeros(V.shape, dtype=np.int16) if want_argmax else None
    for n in range(n_levels):
        nxt = V[n + 1] if n < n_levels - 1 else None
        out[n], level_argmax = augmented_level(m, spec, grid, n, nxt)
        if want_argmax:
            argmax[n] = level_argmax
    return out, argmax


def backward_pass(m, spec, grid):
    """Exact extended-space table by one pass from level n_trunc down to 0.

    Returns ``(table, argmax, within_bounds)``.  Each level is computed once
    from the finished level below it, with the same :func:`augmented_level`
    the sandwich sweeps use, so the result equals the converged sandwich
    bitwise.  ``within_bounds`` checks lower <= table <= upper (the bounds of
    :func:`bound_lower` / :func:`bound_upper`) up to 1e-9 at every cell,
    which is what the sandwich's monotone envelopes imply.
    """
    m.require_valid()
    table = np.empty((grid.n_levels, m.n_states, grid.y.size))
    argmax = np.empty(table.shape, dtype=np.int16)
    lower = np.asarray(spec.u(grid.y), dtype=float)
    top = m.reward_bound / (1.0 - grid.beta)
    within_bounds = True
    for n in range(grid.n_trunc, -1, -1):
        nxt = table[n + 1] if n < grid.n_trunc else None
        table[n], argmax[n] = augmented_level(m, spec, grid, n, nxt)
        upper = spec.u(grid.z(n) * top + grid.y)
        if np.any(table[n] < lower - 1e-9) or np.any(table[n] > upper + 1e-9):
            within_bounds = False
    return table, argmax, within_bounds


@dataclass
class SandwichSolution:
    """Converged extended-space table with its iteration history."""

    grid: AugmentedGrid
    table: np.ndarray    # (level, state, y); lower == upper at convergence
    argmax: np.ndarray   # same shape, action indices
    sweeps: int
    widths: list         # max over level 0 of (upper - lower), per sweep
    monotone_ok: bool
    converged: bool
    hint: str | None = None


def solve_sandwich(m, spec, grid, max_sweeps=None, width_tol=0.0, monotone_tol=1e-9):
    """Iterate the operator from both bounds until the envelopes meet.

    The lower sequence must be nondecreasing and the upper nonincreasing at
    every grid point each sweep (checked up to ``monotone_tol``); both are
    exactly equal after n_trunc + 1 sweeps.
    """
    m.require_valid()
    lo = bound_lower(m, spec, grid)
    hi = bound_upper(m, spec, grid)
    cap = grid.n_levels if max_sweeps is None else min(max_sweeps, grid.n_levels)
    widths = []
    monotone_ok = True
    sweeps = 0
    argmax = None
    for sweeps in range(1, cap + 1):
        lo2, argmax = augmented_T(m, spec, grid, lo, want_argmax=True)
        hi2, _ = augmented_T(m, spec, grid, hi)
        if np.min(lo2 - lo) < -monotone_tol or np.max(hi2 - hi) > monotone_tol:
            monotone_ok = False
        lo, hi = lo2, hi2
        width = float(np.max(hi[0] - lo[0]))
        widths.append(width)
        if width <= width_tol:
            break
    converged = widths[-1] <= max(width_tol, 0.0)
    hint = None
    if not converged:
        hint = (f"sandwich width {widths[-1]:.3e} after {sweeps} sweeps; "
                "raise max_sweeps to n_trunc + 1 or shrink y_step")
    table = 0.5 * (lo + hi)
    return SandwichSolution(grid, table, argmax, sweeps, widths, monotone_ok, converged, hint)


@dataclass
class InnerSolution:
    value: float
    width: float
    sweeps: int
    monotone_ok: bool
    converged: bool
    hint: str | None


def solve_inner(m, spec, grid, eta, tol=1e-9, x0=None, max_sweeps=None):
    """Value of the inner problem V(x0, -eta, 1) with its sandwich width."""
    x0 = m.states[0] if x0 is None else x0
    sol = solve_sandwich(m, spec, grid, max_sweeps=max_sweeps, width_tol=0.0)
    xi = m.state_index[x0]
    val = float(np.interp(-eta, grid.y, sol.table[0, xi]))
    width = sol.widths[-1]
    if not sol.converged and width > tol:
        hint = sol.hint
    else:
        hint = None
    return InnerSolution(val, width, sol.sweeps, sol.monotone_ok, sol.converged, hint)


def _eta_search(grid, level0_row, eta_max, eta_step):
    """Grid scan of eta -> eta + V(x, -eta, 1), then two local refinements.

    A plain grid is used because the outer objective is a supremum of concave
    functions over policies and need not be unimodal.
    """
    etas = np.arange(0.0, eta_max + 0.5 * eta_step, eta_step)
    vals = etas + np.interp(-etas, grid.y, level0_row)
    i = int(np.argmax(vals))
    best_eta, best_val = float(etas[i]), float(vals[i])
    lo = float(etas[max(i - 1, 0)])
    hi = float(etas[min(i + 1, etas.size - 1)])
    for _ in range(2):
        sub = np.linspace(lo, hi, 9)
        sv = sub + np.interp(-sub, grid.y, level0_row)
        j = int(np.argmax(sv))
        if sv[j] > best_val:
            best_eta, best_val = float(sub[j]), float(sv[j])
        lo = float(sub[max(j - 1, 0)])
        hi = float(sub[min(j + 1, sub.size - 1)])
    return best_eta, best_val


@dataclass
class TotalOceSolution:
    """Outcome of the two-level solve, with everything reconstruction needs."""

    model: object
    spec: object
    grid: AugmentedGrid
    table: np.ndarray
    argmax: np.ndarray
    x0: str
    value: float
    eta_star: float
    values_by_state: dict
    etas_by_state: dict
    stage_policy: StagePolicy
    sandwich_width: float
    sweeps: int
    monotone_ok: bool
    tail_error: float
    interp_error_estimate: float | None = None

    def report(self):
        extras = {
            "utility": self.spec.to_json(),
            "eta_star": self.eta_star,
            "sandwich_width": self.sandwich_width,
            "n_trunc": self.grid.n_trunc,
            "tail_error": self.tail_error,
            "y_step": self.grid.y_step,
            "stage_policy": [dict(rule.choice) for rule in self.stage_policy.stages],
        }
        if self.interp_error_estimate is not None:
            extras["interp_error_estimate"] = self.interp_error_estimate
        bound = self.sandwich_width + self.tail_error + (self.interp_error_estimate or 0.0)
        return SolveReport(
            criterion="total_oce",
            value=dict(self.values_by_state),
            policy=dict(self.stage_policy.stages[0].choice),
            iterations=self.sweeps,
            residual=self.sandwich_width,
            error_bound=bound,
            extras=extras,
        )


def _realize_stage_policy(m, grid, argmax, x0_idx, eta_star):
    """Stage rules read off the argmax table along most-probable histories.

    For each stage the rule at a reachable state uses the accumulated y of the
    most probable history arriving there; states unreachable at that stage get
    the first admissible action (the exact history-dependent decision is
    always available through :func:`reconstruct_policy_action`).
    """
    rules = []
    current = {x0_idx: (1.0, -eta_star)}
    for n in range(grid.n_trunc):
        z = grid.z(n)
        choice = {}
        nxt = {}
        for si in sorted(current):
            p, y = current[si]
            yi, _ = grid.y_index(y)
            ai = int(argmax[n, si, yi])
            choice[m.states[si]] = m.actions[ai]
            y2 = y + z * m.reward[si, ai]
            row = m.kernel[si, ai]
            for xi in np.flatnonzero(row):
                cand = (p * row[xi], y2)
                if xi not in nxt or cand[0] > nxt[xi][0] + 1e-15:
                    nxt[int(xi)] = cand
        for s in m.states:
            choice.setdefault(s, m.admissible[s][0])
        rules.append(StationaryPolicy(choice))
        current = nxt
    tail = rules[-1] if rules else first_admissible_policy(m)
    return StagePolicy(stages=tuple(rules), tail=tail)


def solve_total_oce(m, spec, grid=None, x0=None, eta_step=None,
                    estimate_interp_error=False):
    """Full two-level solve: one backward pass, then the scalar eta search.

    The extended-space table does not depend on eta (eta only selects where it
    is read), so one DP serves the whole search and every initial state.
    """
    m.require_valid()
    if grid is None:
        grid = default_grid(m)
    x0 = m.states[0] if x0 is None else x0
    if x0 not in m.state_index:
        raise ParameterError(f"unknown initial state {x0!r}")
    table, argmax, within_bounds = backward_pass(m, spec, grid)
    eta_max = float(-grid.y[0])
    step = grid.y_step if eta_step is None else float(eta_step)
    values = {}
    etas = {}
    for si, s in enumerate(m.states):
        e, v = _eta_search(grid, table[0, si], eta_max, step)
        values[s] = v
        etas[s] = e
    x0_idx = m.state_index[x0]
    stage_policy = _realize_stage_policy(m, grid, argmax, x0_idx, etas[x0])
    tail_error = _tail_error(m.discount, m.reward_bound, grid.n_trunc)
    interp_est = None
    if estimate_interp_error:
        coarse = default_grid(m, y_step=2.0 * grid.y_step, tail_eps=grid.tail_eps,
                              eta_max=eta_max, n_trunc=grid.n_trunc)
        ctable, _, _ = backward_pass(m, spec, coarse)
        _, cv = _eta_search(coarse, ctable[0, x0_idx], eta_max, 2.0 * step)
        interp_est = abs(values[x0] - cv)
    return TotalOceSolution(
        model=m, spec=spec, grid=grid, table=table, argmax=argmax,
        x0=x0, value=values[x0], eta_star=etas[x0],
        values_by_state=values, etas_by_state=etas,
        stage_policy=stage_policy,
        sandwich_width=0.0, sweeps=grid.n_levels,
        monotone_ok=within_bounds, tail_error=tail_error,
        interp_error_estimate=interp_est,
    )


@dataclass
class ReconstructedAction:
    action: str
    rounding_distance: float
    truncated: bool


def reconstruct_policy_action(sol, past, current_state):
    """Optimal decision after an observed history.

    ``past`` is the sequence of (state, action) pairs already realized; the
    decision at ``current_state`` reads the stored argmax at the accumulated
    coordinates (sum of discounted rewards minus eta*, discount level beta^n),
    with y rounded to the nearest grid point.  Beyond the truncation level the
    stationary tail rule applies and the result is flagged truncated.
    """
    m, grid = sol.model, sol.grid
    n = len(past)
    y = -sol.eta_star
    for k, (s, a) in enumerate(past):
        if a not in m.admissible[s]:
            raise ParameterError(f"history step {k}: action {a!r} inadmissible at {s!r}")
        y += (m.discount ** k) * m.reward[m.state_index[s], m.action_index[a]]
    if n > sol.grid.n_trunc - 1:
        return ReconstructedAction(sol.stage_policy.tail.action(current_state), 0.0, True)
    yi, dist = grid.y_index(y)
    ai = int(sol.argmax[n, m.state_index[current_state], yi])
    return ReconstructedAction(m.actions[ai], dist, False)


# -- entropic fast path -------------------------------------------------------


@dataclass
class EntropicTotalSolution:
    """Backward z-level recursion output for the entropic utility."""

    model: object
    gamma: float
    values: np.ndarray     # (level, state): V(x, beta^n)
    level_argmax: np.ndarray
    stage_policy: StagePolicy
    n_trunc: int
    tail_error: float

    def value_dict(self):
        return value_dict(self.model, self.values[0])

    def report(self):
        return SolveReport(
            criterion="total_oce",
            value=self.value_dict(),
            policy=dict(self.stage_policy.stages[0].choice),
            iterations=self.n_trunc + 1,
            residual=0.0,
            error_bound=self.tail_error,
            extras={
                "utility": {"type": "entropic", "gamma": self.gamma},
                "fast_path": True,
                "eta_star": None,
                "sandwich_width": 0.0,
                "n_trunc": self.n_trunc,
                "tail_error": self.tail_error,
                "stage_policy": [dict(r.choice) for r in self.stage_policy.stages],
            },
        )


def entropic_total(m, gamma, n_trunc=None, tail_eps=1e-8):
    """Exact y-free recursion for the entropic total-reward criterion.

    Levels run backward from the truncation depth, where the continuation is
    set to zero (error at most beta^{N+1} d/(1-beta), which shift-additivity
    propagates unamplified to level 0).  All logs go through log-sum-exp.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ParameterError(f"entropic risk aversion must be > 0, got {gamma}")
    m.require_valid()
    _check_gamma_range(m, gamma)
    beta = m.discount
    d = m.reward_bound
    if n_trunc is None:
        n_trunc = _truncation_depth(beta, d, tail_eps)
    ns = m.n_states
    spec = UtilitySpec.entropic(gamma)
    values = np.zeros((n_trunc + 1, ns))
    level_argmax = np.zeros((n_trunc + 1, ns), dtype=np.int16)

    # deepest level: continuation exactly zero
    z = beta ** n_trunc
    q = np.where(m.admissible_mask, z * m.reward, -np.inf)
    values[n_trunc] = q.max(axis=1)
    level_argmax[n_trunc] = np.argmax(q, axis=1)

    for n in range(n_trunc - 1, -1, -1):
        z = beta ** n
        q = np.where(m.admissible_mask, z * m.reward + successor_risk(m, spec, values[n + 1]),
                     -np.inf)
        values[n] = q.max(axis=1)
        level_argmax[n] = np.argmax(q, axis=1)

    rules = tuple(
        StationaryPolicy({s: m.actions[level_argmax[n, i]] for i, s in enumerate(m.states)})
        for n in range(n_trunc)
    )
    tail = rules[-1] if rules else first_admissible_policy(m)
    tail_error = _tail_error(beta, d, n_trunc)
    return EntropicTotalSolution(
        model=m, gamma=gamma, values=values, level_argmax=level_argmax,
        stage_policy=StagePolicy(stages=rules, tail=tail),
        n_trunc=n_trunc, tail_error=tail_error,
    )
