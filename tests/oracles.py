"""Independent oracles the test suite checks the solvers against.

Everything here is deliberately brute force: dense eta grids, full policy or
trajectory enumeration, explicit products of moment factors.  None of it
shares code with the solver paths it verifies.
"""

import itertools
import math

import numpy as np


def oce_grid(values, probs, u, lo=None, hi=None, n=10**6):
    """Brute-force sup_eta { eta + E u(X - eta) } on a dense grid."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    lo = values.min() if lo is None else lo
    hi = values.max() if hi is None else hi
    if hi <= lo:
        return float(lo + probs @ u(values - lo))
    etas = np.linspace(lo, hi, n)
    best = -np.inf
    for chunk in np.array_split(etas, max(1, n // 200000)):
        obj = chunk + u(values[None, :] - chunk[:, None]) @ probs
        best = max(best, float(obj.max()))
    return best


def cvar_inf_formula(values, probs, alpha):
    """inf_eta { E[(eta - X)^+] / alpha - eta }, exact at support candidates."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    best = math.inf
    for eta in values:
        best = min(best, float(probs @ np.maximum(eta - values, 0.0) / alpha - eta))
    return best


def jaquette_mgf_value(n_terms=40):
    """Total entropic value on the gamble-selection chain at gamma = 1.

    Decisions at the choice state are independent two-period gambles with
    discount weight (1/4)^n; the optimal MGF product takes the safe branch at
    n = 0 and the fair branch afterwards.
    """
    total = math.log(0.9 * math.exp(-1.0) + 0.1 * math.exp(-5.0))
    for n in range(1, n_terms + 1):
        s = 0.25 ** n
        total += math.log(0.5 + 0.5 * math.exp(-4.0 * s))
    return -total


def jaquette_switch_threshold():
    """Root of 0.5 + 0.5 e^{-4s} = 0.9 e^{-s} + 0.1 e^{-5s} on (0, 1)."""
    from scipy.optimize import brentq

    return brentq(
        lambda s: 0.5 + 0.5 * math.exp(-4.0 * s)
        - 0.9 * math.exp(-s) - 0.1 * math.exp(-5.0 * s),
        0.05, 1.0, xtol=1e-12)


def enumerate_stationary_policies(m):
    pools = [m.admissible[s] for s in m.states]
    for combo in itertools.product(*pools):
        yield dict(zip(m.states, combo))


def chain_average(m, choice, use_cost=False):
    """Long-run average of a stationary policy from its stationary law.

    Solved from pi (P - I) = 0 with normalization, independent of any RVI.
    """
    n = m.n_states
    P = np.zeros((n, n))
    vec = np.zeros(n)
    table = m.cost if use_cost else m.reward
    for si, s in enumerate(m.states):
        ai = m.action_index[choice[s]]
        P[si] = m.kernel[si, ai]
        vec[si] = table[si, ai]
    A = P.T - np.eye(n)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return float(pi @ vec)


def perron_value(M, iters=20000, tol=1e-14):
    """Dominant eigenvalue of a nonnegative irreducible matrix, dense solve."""
    eigs = np.linalg.eigvals(M)
    return float(np.max(eigs.real[np.abs(eigs.imag) < 1e-9]))


def damped_rvi_policy(m, gamma, tol=1e-12, max_iters=10**6):
    """(argmin policy as a choice dict, xi) of the ergodic entropic criterion
    by relative value iteration on W = e^{gamma h} itself, damped with the
    self-loop mix 1/2, until max_x |M W(x) / (rho W(x)) - 1| <= tol.  Plain
    floats: gamma * cost must stay well inside double range."""
    mult = np.exp(gamma * m.cost)
    w, rho = np.ones(m.n_states), math.inf
    for _ in range(max_iters):
        vals = np.where(m.admissible_mask, mult * (m.kernel @ w), np.inf)
        if np.max(np.abs(vals.min(axis=1) / (rho * w) - 1.0)) <= tol:
            choice = {s: m.actions[a] for s, a in zip(m.states, np.argmin(vals, axis=1))}
            return choice, math.log(rho) / gamma
        y = 0.5 * w + 0.5 * vals.min(axis=1)
        rho = (y[0] / w[0] - 0.5) / 0.5
        w = y / y[0]
    raise AssertionError("damped RVI reference did not converge")


def discounted_policy_value(m, choice, beta=None):
    """(I - beta P_f)^{-1} r_f by direct solve."""
    beta = m.discount if beta is None else beta
    n = m.n_states
    P = np.zeros((n, n))
    r = np.zeros(n)
    for si, s in enumerate(m.states):
        ai = m.action_index[choice[s]]
        P[si] = m.kernel[si, ai]
        r[si] = m.reward[si, ai]
    return np.linalg.solve(np.eye(n) - beta * P, r)


def tree_expected_utility(m, action_of, eta, u, depth, x0=None, scalar_levels=6):
    """E[u(R_depth - eta)] under a history-dependent policy, exact enumeration.

    Walks the full chance tree: the first ``scalar_levels`` levels expand in
    Python (one branch per positive-probability successor), the remaining
    levels vectorize over all continuations at once.  ``action_of(n, states,
    ys)`` maps parallel arrays of state indices and accumulated discounted
    rewards (already shifted by -eta) to an array of action indices.

    Intended for tiny models; the leaf count is (max successors)^depth.
    """
    beta = m.discount
    kernel = m.kernel
    reward = m.reward
    x0 = m.states[0] if x0 is None else x0

    def expand_vector(level, states, ys, ps):
        for n in range(level, depth):
            z = beta ** n
            acts = action_of(n, states, ys)
            ys = ys + z * reward[states, acts]
            rows = kernel[states, acts, :]
            new_states = []
            new_ys = []
            new_ps = []
            for succ in range(m.n_states):
                mask = rows[:, succ] > 0.0
                if mask.any():
                    new_states.append(np.full(int(mask.sum()), succ))
                    new_ys.append(ys[mask])
                    new_ps.append(ps[mask] * rows[mask, succ])
            states = np.concatenate(new_states)
            ys = np.concatenate(new_ys)
            ps = np.concatenate(new_ps)
        return float(ps @ u(ys))

    total = 0.0
    stack = [(0, m.state_index[x0], -float(eta), 1.0)]
    # scalar DFS prefix keeps peak memory at one (succ^(depth-scalar)) chunk
    while stack:
        n, s, y, p = stack.pop()
        if n == min(scalar_levels, depth):
            total += p * expand_vector(
                n, np.array([s]), np.array([y]), np.array([1.0]))
            continue
        z = beta ** n
        a = int(action_of(n, np.array([s]), np.array([y]))[0])
        y2 = y + z * reward[s, a]
        row = kernel[s, a]
        for succ in np.flatnonzero(row):
            stack.append((n + 1, int(succ), y2, p * float(row[succ])))
    return total


def bfs_reachability(adj):
    """reach[i, j] iff j is reachable from i in >= 1 steps, by BFS per start."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    reach = np.zeros((n, n), dtype=bool)
    for i in range(n):
        frontier = list(np.flatnonzero(adj[i]))
        reach[i, frontier] = True
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(adj[u]):
                    if not reach[i, v]:
                        reach[i, v] = True
                        nxt.append(v)
            frontier = nxt
    return reach


def augmented_level_loop(m, spec, grid, n, next_level, rows=None):
    """One z-level of the extended-space operator, one interpolation per
    (state, action, successor): (values, argmax) over the (state, y) grid.

    Every successor's row of ``next_level`` (``None``: the terminal u(y')) is
    read at y + z r(x, a) and weighted by its probability; the first maximum
    in declared action order wins.  Successors of probability 0 are skipped.
    ``rows``, the rows a pass has set up, is ignored: the loop reads the
    model itself.
    """
    ny = grid.y.size
    z = grid.beta ** n
    values = np.empty((m.n_states, ny))
    argmax = np.zeros((m.n_states, ny), dtype=np.int16)
    for si, s in enumerate(m.states):
        best = np.full(ny, -np.inf)
        best_a = np.zeros(ny, dtype=np.int16)
        for a in m.admissible[s]:
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


def validate_loop(m, for_discounted=True):
    """The invariant violations of a model, one (state, action) at a time:
    the message list :meth:`~riskmdp.mdp.FiniteMdp.validate` must return,
    with the same text in the same order."""
    out = []
    for s in m.states:
        if not m.admissible[s]:
            out.append(f"admissible[{s}]: empty action set")
        seen = set()
        for a in m.admissible[s]:
            if a in seen:
                out.append(f"admissible[{s}]: duplicate action {a}")
            seen.add(a)
    for si, s in enumerate(m.states):
        for a in m.admissible[s]:
            ai = m.action_index[a]
            row = m.kernel[si, ai]
            total = float(row.sum())
            if not np.isfinite(row).all():
                out.append(f"transitions[{s}][{a}]: probabilities must be finite")
            elif abs(total - 1.0) > 1e-12:
                out.append(f"transitions[{s}][{a}]: row sums to {total!r}, expected 1")
            if (row < 0.0).any():
                out.append(f"transitions[{s}][{a}]: negative probability")
            r = float(m.reward[si, ai])
            if not math.isfinite(r) or r < 0.0:
                out.append(f"rewards[{s}][{a}]: must be finite and >= 0, got {r!r}")
            if m.cost is not None:
                c = float(m.cost[si, ai])
                if not math.isfinite(c) or c < 0.0:
                    out.append(f"costs[{s}][{a}]: must be finite and >= 0, got {c!r}")
    out.extend(m._inadmissible_entries)
    if for_discounted and not (0.0 <= m.discount < 1.0):
        out.append(f"discount: must lie in [0, 1), got {m.discount!r}")
    return out


def logsumexp_where(a, axis=None):
    """The earlier form of :func:`riskmdp.oce.logsumexp`: the top terms are
    replaced by -inf in a - shift before the exponential.  The same
    operations on the same values, so the two must agree bit for bit."""
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    rest = np.sum(np.exp(np.where(top, -np.inf, a - shift)), axis=axis, keepdims=True)
    return np.squeeze(np.log1p(rest / m) + np.log(m) + a_max, axis=axis)[()]


def slopes_at_zero_ladder(points):
    """The segment slopes immediately left and right of t = 0 of a
    piecewise-linear utility, by cases: past either end of the breakpoints
    the end slope applies, and inside them the segment that holds 0 on its
    left (right) side.  The form :meth:`~riskmdp.oce.UtilitySpec._slopes_at_zero`
    must agree with bit for bit."""
    ts = np.array([t for t, _ in points])
    us = np.array([v for _, v in points])
    slopes = np.diff(us) / np.diff(ts)
    if 0.0 <= ts[0]:
        left = slopes[0]
    elif 0.0 > ts[-1]:
        left = slopes[-1]
    else:  # ts[j] < 0 <= ts[j+1]
        left = slopes[np.searchsorted(ts, 0.0, side="left") - 1]
    if 0.0 >= ts[-1]:
        right = slopes[-1]
    elif 0.0 < ts[0]:
        right = slopes[0]
    else:  # ts[j] <= 0 < ts[j+1]
        right = slopes[np.searchsorted(ts, 0.0, side="right") - 1]
    return float(left), float(right)


def to_dict_loop(m):
    """The canonical dict of a model, one kernel entry at a time: declared
    order, every entry != 0 of an admissible row kept.  The dict
    :meth:`~riskmdp.mdp.FiniteMdp.to_dict` must return, key order included."""
    trans, rew = {}, {}
    cost = {} if m.cost is not None else None
    for si, s in enumerate(m.states):
        trans[s], rew[s] = {}, {}
        if cost is not None:
            cost[s] = {}
        for a in m.admissible[s]:
            ai = m.action_index[a]
            trans[s][a] = {y: float(m.kernel[si, ai, yi])
                           for yi, y in enumerate(m.states) if m.kernel[si, ai, yi] != 0.0}
            rew[s][a] = float(m.reward[si, ai])
            if cost is not None:
                cost[s][a] = float(m.cost[si, ai])
    out = {
        "states": list(m.states),
        "actions": list(m.actions),
        "admissible": {s: list(m.admissible[s]) for s in m.states},
        "transitions": trans,
        "rewards": rew,
        "discount": m.discount,
    }
    if cost is not None:
        out["costs"] = cost
    return out
