"""Certainty equivalent of the total discounted reward via state augmentation.

The target sup_pi S_u(sum_k beta^k r(X_k, A_k)) splits into an outer scalar
maximization over the consumption level eta and an inner control problem

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
(:func:`backward_pass`).  A level mixes each (state, action)'s successor rows
of level n+1 by one kernel product and reads the mixture by one
interpolation, which linearity of the interpolation allows
(:func:`augmented_level`).  The remaining error is the reported tail +
interpolation budget.  The table does not depend on eta, and on the
interpolated grid eta -> eta + V(x, -eta, 1) is piecewise linear with its
kinks at the grid points, so eta* is an exact pick over eta = 0 and the
kinks in [0, d/(1-beta)] (:func:`_eta_pick`), not a search.

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
from .recursive import _check_gamma_range, _greedy, successor_risk
from .report import SolveReport

# the most float64 points a y grid can hold: its bytes must fit in intp
_MAX_POINTS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class AugmentedGrid:
    """Discretization of the (y, z) coordinates.

    ``y`` is uniform from -d/(1-beta) up to at least d/(1-beta), so the read
    points y = -eta of eta in [0, d/(1-beta)] lie on it; the z levels are
    beta^n for n = 0..n_trunc.
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
        # plain floats: round() rounds half to even, like np.rint
        t = (float(value) - float(self.y[0])) / self.y_step
        i = round(min(max(t, 0.0), self.y.size - 1.0))
        return i, abs(float(self.y[i]) - float(value))


def _truncation_depth(beta, d, tail_eps):
    """Smallest level N >= 1 with beta^N d / (1 - beta) <= tail_eps (1 at beta = 0).

    A budget that is not finite and > 0 is refused with :class:`ParameterError`.
    """
    if not (tail_eps > 0.0 and math.isfinite(tail_eps)):
        raise ParameterError(f"truncation budget must be finite and > 0, got {tail_eps}")
    if beta == 0.0:
        return 1
    return max(1, math.ceil(math.log(tail_eps * (1.0 - beta) / max(d, 1e-300)) / math.log(beta)))


def _tail_error(beta, d, n_trunc):
    """beta^(N+1) d / (1 - beta), 0 unless 0 < beta < 1: what the levels past
    N can add to the value."""
    return (beta ** (n_trunc + 1)) * (d / (1.0 - beta) if 0.0 < beta < 1.0 else 0.0)


def default_grid(m, y_step=None, tail_eps=1e-8, n_trunc=None):
    """Grid sized from the model: covers every (y, z) reachable from (-eta, 1)
    with eta in [0, d/(1-beta)].

    A step that is not finite and > 0, that is wider than the accumulation
    range d/(1-beta), or whose grid cannot be allocated, is refused with
    :class:`ParameterError`, and so is a bad ``tail_eps``.
    """
    beta = m.discount
    if not (0.0 <= beta < 1.0):
        raise ParameterError(f"total-reward criterion needs beta in [0, 1), got {beta}")
    top = m.reward_bound / (1.0 - beta)
    if top <= 0.0:
        top = 1.0
    step = top / 400.0 if y_step is None else float(y_step)
    if not (step > 0.0 and math.isfinite(step)):
        raise ParameterError(f"grid step must be finite and > 0, got {y_step}")
    if step > top:
        # the grid would skip y = 0 and interpolate u across the whole range
        raise ParameterError(f"grid step {step:g} is wider than the accumulation "
                             f"range d/(1-beta) = {top:g}")
    if n_trunc is None:
        n_trunc = _truncation_depth(beta, m.reward_bound, tail_eps)
    # ceil so the last point reaches the accumulation bound even when the
    # step does not divide the range
    span = 2.0 * top / step
    too_many = ParameterError(f"grid step {step:g} needs {span:.3g} points over "
                              f"[{-top:g}, {top:g}], more than can be allocated")
    if not span < _MAX_POINTS:
        raise too_many
    try:
        y = -top + step * np.arange(int(math.ceil(span - 1e-9)) + 1)
    except MemoryError:
        raise too_many from None
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

    Level n reads only ``next_level``, the (state, y) table F of level n+1
    (z-shift exact, y-shift by linear interpolation).  ``None`` marks the
    deepest level, which reads the terminal continuation u(y'), i.e. future
    reward zero, consistent with the lower bound.  y arguments beyond the grid
    top are clamped to the top value, which preserves monotonicity and never
    affects points reachable from (x0, -eta, 1) with eta in [0, d/(1-beta)].

    Interpolation is linear in the table, so the successors of (x, a), all
    read at the same shift y + z r(x, a), are mixed first:

        sum_x' q(x'|x,a) interp(y + z r, F[x']) = interp(y + z r, sum_x' q(x'|x,a) F[x']),

    one kernel product for every admissible row and one interpolation per
    row.  A -inf entry of F (u overflows at the bottom of the grid) stays
    -inf in a row's mixture only where a successor of positive probability
    holds it; a successor of probability 0 adds nothing, as 0 * (-inf) = NaN
    would.  Ties go to the first maximizing action in declared order.
    """
    rows = np.nonzero(m.admissible_mask)  # (state, action) pairs, declared order
    shifts = grid.z(n) * m.reward[rows]
    # q[a, x, j]: the value of action a at (x, y_j); -inf where a is inadmissible
    q = np.full((m.n_actions, m.n_states, grid.y.size), -np.inf)
    if next_level is None:
        q[rows[1], rows[0]] = spec.u(grid.y + shifts[:, None])
    else:
        kernel = m.kernel[rows]
        neg = np.isneginf(next_level)
        if neg.any():
            mixed = kernel @ np.where(neg, 0.0, next_level)
            mixed[(kernel > 0.0) @ neg] = -np.inf
        else:
            mixed = kernel @ next_level
        for si, ai, shift, row in zip(*rows, shifts, mixed):
            q[ai, si] = np.interp(grid.y + shift, grid.y, row)
    # the first maximum in declared action order, as in recursive._greedy
    values = q[0].copy()
    argmax = np.zeros(values.shape, dtype=np.int16)
    for ai in range(1, m.n_actions):
        better = q[ai] > values
        np.copyto(values, q[ai], where=better)
        argmax[better] = ai
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
    lower = spec.u(grid.y) - 1e-9
    top = m.reward_bound / (1.0 - grid.beta)
    within_bounds = True
    for n in range(grid.n_trunc, -1, -1):
        nxt = table[n + 1] if n < grid.n_trunc else None
        table[n], argmax[n] = augmented_level(m, spec, grid, n, nxt)
        upper = spec.u(grid.z(n) * top + grid.y) + 1e-9
        if np.any(table[n].min(axis=0) < lower) or np.any(table[n].max(axis=0) > upper):
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


def _eta_pick(grid, level0):
    """Exact maximum of eta -> eta + V(x, -eta, 1) over [0, -y_0], per state.

    Linear interpolation makes the objective piecewise linear in eta with its
    kinks at the grid points eta = -y_j, so the maximum over the interval is
    at eta = 0 or at one of them.  The candidates run in ascending eta and the
    first maximum, the smallest maximizer, is taken.  ``level0`` is the
    (state, y) table of level 0; returns (etas, values), one per state.
    """
    kinks = np.flatnonzero(grid.y <= 0.0)[::-1]
    etas = np.concatenate(([0.0], -grid.y[kinks]))
    at_zero = [np.interp(0.0, grid.y, row) for row in level0]
    vals = etas + np.column_stack((at_zero, level0[:, kinks]))
    best = np.argmax(vals, axis=1)
    return etas[best], vals[np.arange(best.size), best]


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
    first = [(s, m.admissible[s][0]) for s in m.states]
    rewards = m.reward.tolist()
    successors = {}  # (state, action) -> [(successor, probability)], built once
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
            y2 = y + z * rewards[si][ai]
            row = successors.get((si, ai))
            if row is None:
                probs = m.kernel[si, ai]
                support = np.flatnonzero(probs)
                row = successors[si, ai] = list(zip(support.tolist(), probs[support].tolist()))
            for xi, q in row:
                cand = p * q
                if xi not in nxt or cand > nxt[xi][0] + 1e-15:
                    nxt[xi] = (cand, y2)
        for s, a in first:
            choice.setdefault(s, a)
        rules.append(StationaryPolicy(choice))
        current = nxt
    tail = rules[-1] if rules else first_admissible_policy(m)
    return StagePolicy(stages=tuple(rules), tail=tail)


def solve_total_oce(m, spec, grid=None, x0=None, estimate_interp_error=False):
    """Full two-level solve: one backward pass, then the exact eta pick.

    The extended-space table does not depend on eta (eta only selects where it
    is read), so one DP serves the pick of :func:`_eta_pick` for every
    initial state.
    """
    m.require_valid()
    if grid is None:
        grid = default_grid(m)
    x0 = m.states[0] if x0 is None else x0
    if x0 not in m.state_index:
        raise ParameterError(f"unknown initial state {x0!r}")
    table, argmax, within_bounds = backward_pass(m, spec, grid)
    etas, values = _eta_pick(grid, table[0])
    x0_idx = m.state_index[x0]
    eta_star = float(etas[x0_idx])
    stage_policy = _realize_stage_policy(m, grid, argmax, x0_idx, eta_star)
    tail_error = _tail_error(m.discount, m.reward_bound, grid.n_trunc)
    interp_est = None
    if estimate_interp_error:
        try:
            coarse = default_grid(m, y_step=2.0 * grid.y_step, tail_eps=grid.tail_eps,
                                  n_trunc=grid.n_trunc)
        except ParameterError as exc:
            raise ParameterError(f"interpolation estimate at twice the step: {exc}") from None
        ctable, _, _ = backward_pass(m, spec, coarse)
        _, cvalues = _eta_pick(coarse, ctable[0])
        interp_est = abs(float(values[x0_idx] - cvalues[x0_idx]))
    return TotalOceSolution(
        model=m, spec=spec, grid=grid, table=table, argmax=argmax,
        x0=x0, value=float(values[x0_idx]), eta_star=eta_star,
        values_by_state=value_dict(m, values),
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


def entropic_total(m, gamma, tail_eps=1e-8):
    """Exact y-free recursion for the entropic total-reward criterion.

    Levels run backward from the truncation depth, where the continuation is
    set to zero (error at most beta^{N+1} d/(1-beta), which shift-additivity
    propagates unamplified to level 0).  All logs go through log-sum-exp.
    """
    spec = UtilitySpec.entropic(gamma)
    m.require_valid()
    _check_gamma_range(m, gamma)
    beta = m.discount
    d = m.reward_bound
    n_trunc = _truncation_depth(beta, d, tail_eps)
    values = np.zeros((n_trunc + 1, m.n_states))
    level_argmax = np.zeros((n_trunc + 1, m.n_states), dtype=np.int16)
    for n in range(n_trunc, -1, -1):
        q = beta ** n * m.reward
        if n < n_trunc:  # the deepest level's continuation is exactly zero
            q = q + successor_risk(m, spec, values[n + 1])
        values[n], level_argmax[n] = _greedy(m, q)

    rules = tuple(StationaryPolicy.from_indices(m, level_argmax[n]) for n in range(n_trunc))
    tail = rules[-1] if rules else first_admissible_policy(m)
    tail_error = _tail_error(beta, d, n_trunc)
    return EntropicTotalSolution(
        model=m, gamma=gamma, values=values, level_argmax=level_argmax,
        stage_policy=StagePolicy(stages=rules, tail=tail),
        n_trunc=n_trunc, tail_error=tail_error,
    )
