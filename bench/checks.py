"""Independent output checks of the benchmark.

Each check recomputes what it needs in plain numpy from the model file, apart
from the solver whose output it checks, and returns a list of problems (empty
when the output is correct).  Outputs are the JSON documents the solvers emit
(``SolveReport.to_json`` or the CLI's stdout), parsed into dicts.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache

import numpy as np

SOLVER_TOL = 1e-9


class Model:
    """Dense arrays of one model file, parsed here and not by riskmdp."""

    def __init__(self, obj):
        self.states = list(obj["states"])
        self.actions = list(obj["actions"])
        si = {s: i for i, s in enumerate(self.states)}
        ai = {a: j for j, a in enumerate(self.actions)}
        S, A = len(self.states), len(self.actions)
        self.mask = np.zeros((S, A), dtype=bool)
        for s, acts in obj["admissible"].items():
            for a in acts:
                self.mask[si[s], ai[a]] = True
        self.K = np.zeros((S, A, S))
        for s, row in obj["transitions"].items():
            for a, dist in row.items():
                for y, p in dist.items():
                    self.K[si[s], ai[a], si[y]] = p
        self.R = np.zeros((S, A))
        for s, row in obj["rewards"].items():
            for a, r in row.items():
                self.R[si[s], ai[a]] = r
        self.C = None
        if "costs" in obj:
            self.C = np.zeros((S, A))
            for s, row in obj["costs"].items():
                for a, c in row.items():
                    self.C[si[s], ai[a]] = c
        self.beta = float(obj["discount"])
        self.d = float(self.R[self.mask].max())

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def vec(self, by_state):
        return np.array([by_state[s] for s in self.states], dtype=float)

    def policy_idx(self, choice):
        return np.array([self.actions.index(choice[s]) for s in self.states])

    def chain(self, choice):
        idx = self.policy_idx(choice)
        rows = np.arange(len(self.states))
        return self.K[rows, idx], self.R[rows, idx], idx


# -- successor risks, one closed form per utility -------------------------------


def _lme_risk(K, v, gamma):
    """-(1/gamma) log sum_y K[.., y] exp(-gamma v(y)), stabilised at min v."""
    vmin = v.min()
    with np.errstate(divide="ignore"):
        return vmin - np.log(K @ np.exp(-gamma * (v - vmin))) / gamma


def _cvar_risk(K, v, alpha):
    """-CVaR_alpha: the mean of the worst alpha-share of v(X'), from sorted v."""
    order = np.argsort(v, kind="stable")
    p = K[..., order]
    vs = v[order]
    before = np.cumsum(p, axis=-1) - p
    take = np.minimum(p, np.maximum(alpha - before, 0.0))
    return (take @ vs) / alpha


def _mv_u(t):
    return np.where(t < 1.0, t - 0.5 * t * t, 0.5)


def _mv_risk(K, v, points=20001):
    """sup_eta { eta + E u(X' - eta) } for u(t) = t - t^2/2 (capped), dense eta grid.

    The objective has curvature at most 1, so the grid value is below the
    supremum by at most (span / (points - 1))^2 / 8.
    """
    flat = K.reshape(-1, K.shape[-1])
    out = np.zeros(flat.shape[0])
    for i, row in enumerate(flat):
        sup = row > 0.0
        if not sup.any():  # inadmissible pair
            continue
        x, p = v[sup], row[sup]
        etas = np.linspace(x.min(), x.max(), points)
        out[i] = np.max(etas + _mv_u(x[None, :] - etas[:, None]) @ p)
    return out.reshape(K.shape[:-1])


def successor_risk(model, v, utility):
    kind = utility["type"]
    if kind == "entropic":
        return _lme_risk(model.K, v, utility["gamma"])
    if kind == "cvar":
        return _cvar_risk(model.K, v, utility["alpha"])
    if kind == "mean_variance":
        return _mv_risk(model.K, v)
    raise ValueError(f"no independent check for utility {kind!r}")


def mv_grid_error(model):
    span = model.d / (1.0 - model.beta)
    return (span / 20000.0) ** 2 / 8.0


# -- risk-neutral ---------------------------------------------------------------


def neutral_optimum(model, tol=1e-13):
    """V* by plain value iteration in numpy, to ||V - V*|| <= tol."""
    v = np.zeros(len(model.states))
    while True:
        q = np.where(model.mask, model.R + model.beta * (model.K @ v), -np.inf)
        w = q.max(axis=1)
        delta = np.max(np.abs(w - v))
        v = w
        if delta * model.beta <= tol * (1.0 - model.beta):
            return v


def policy_value(model, choice):
    """(I - beta P_f)^{-1} r_f by a direct linear solve."""
    P, r, _ = model.chain(choice)
    return np.linalg.solve(np.eye(len(r)) - model.beta * P, r)


def _policy_problems(model, rep):
    out = []
    for s in model.states:
        a = (rep.get("policy") or {}).get(s)
        if a not in model.actions or not model.mask[model.states.index(s), model.actions.index(a)]:
            out.append(f"policy picks {a!r} at state {s!r}")
    return out


def check_risk_neutral(model, rep, tol):
    out = _policy_problems(model, rep)
    if out:
        return out
    v = model.vec(rep["value"])
    beta = model.beta
    q = np.where(model.mask, model.R + beta * (model.K @ v), -np.inf)
    res = float(np.max(np.abs(q.max(axis=1) - v)))
    if res > tol:
        out.append(f"Bellman residual {res:.3e} > {tol:.1e}")
    vf = policy_value(model, rep["policy"])
    gap = float(np.max(np.abs(vf - v)))
    allow = tol * (1.0 + 2.0 * beta / (1.0 - beta))
    if gap > allow:
        out.append(f"value of the reported policy differs by {gap:.3e} > {allow:.1e}")
    return out


# -- recursive OCE --------------------------------------------------------------


def recursive_optimum(model, utility, tol=1e-12):
    """Nested-OCE fixed point by plain iteration with the risks above."""
    v = np.zeros(len(model.states))
    while True:
        risk = successor_risk(model, v, utility)
        q = np.where(model.mask, model.R + model.beta * np.where(model.mask, risk, 0.0), -np.inf)
        w = q.max(axis=1)
        delta = np.max(np.abs(w - v))
        v = w
        if delta * model.beta <= tol * (1.0 - model.beta):
            return v


def check_recursive(model, rep, utility, tol):
    """Nested Bellman residual and argmax, with successor risks recomputed here."""
    out = _policy_problems(model, rep)
    if out:
        return out
    v = model.vec(rep["value"])
    risk = successor_risk(model, v, utility)
    q = np.where(model.mask, model.R + model.beta * np.where(model.mask, risk, 0.0), -np.inf)
    best = q.max(axis=1)
    allow = tol + (model.beta * mv_grid_error(model) if utility["type"] == "mean_variance" else 0.0)
    allow += 1e-12 * (1.0 + np.max(np.abs(v)))
    res = float(np.max(np.abs(best - v)))
    if res > allow:
        out.append(f"nested Bellman residual {res:.3e} > {allow:.1e}")
    _, _, idx = model.chain(rep["policy"])
    picked = q[np.arange(len(v)), idx]
    slack = float(np.max(best - picked))
    if slack > 2.0 * allow:
        out.append(f"reported policy is {slack:.3e} below the argmax")
    return out


# -- total OCE ------------------------------------------------------------------


def jaquette_entropic_total(n_terms=60):
    """Closed-form MGF product of the jaquette chain at gamma = 1.

    Choices are independent two-stage gambles with weight (1/4)^n; the safe
    branch (reward 1, then 8 w.p. 0.1) is best at n = 0 and the fair one
    (8 w.p. 0.5) afterwards.
    """
    total = math.log(0.9 * math.exp(-1.0) + 0.1 * math.exp(-5.0))
    for n in range(1, n_terms + 1):
        total += math.log(0.5 + 0.5 * math.exp(-4.0 * 0.25 ** n))
    return -total


def cvar_total_tree(model, alpha, x0=0, depth=40, eta_step=0.01):
    """sup_eta { eta + max_pi E[min(R_depth - eta, 0)] / alpha }, exact tree DP.

    R_depth is the reward of the first ``depth`` stages.  The maximisation runs
    over history-dependent policies on the chance tree; a node whose
    accumulated y is already >= 0 has value 0, and one that cannot reach 0
    has the linear value (y + best expected remaining reward) / alpha, so only
    the nodes in between are expanded.  eta is scanned on a grid and refined
    around the best points.  Returns (value, truncation bound).
    """
    K, R, mask, beta = model.K, model.R, model.mask, model.beta
    S = len(model.states)
    succ = [[np.flatnonzero(K[x, a]) for a in range(R.shape[1])] for x in range(S)]
    acts = [np.flatnonzero(mask[x]) for x in range(S)]
    best_path = np.zeros((depth + 1, S))   # largest reward any path can still collect
    best_mean = np.zeros((depth + 1, S))   # largest expected reward still to come
    for n in range(depth - 1, -1, -1):
        z = beta ** n
        for x in range(S):
            best_path[n, x] = max(z * R[x, a] + best_path[n + 1, succ[x][a]].max() for a in acts[x])
            best_mean[n, x] = max(z * R[x, a] + K[x, a] @ best_mean[n + 1] for a in acts[x])

    def inner(eta):
        @lru_cache(maxsize=None)
        def node(n, x, y):
            if y >= 0.0:
                return 0.0
            if n == depth or y + best_path[n, x] <= 0.0:
                return (y + best_mean[n, x]) / alpha
            z = beta ** n
            return max(sum(K[x, a, x2] * node(n + 1, int(x2), y + z * R[x, a]) for x2 in succ[x][a])
                       for a in acts[x])
        return eta + node(0, x0, -eta)

    top = model.d / (1.0 - beta)
    etas = np.arange(0.0, top + eta_step, eta_step)
    vals = np.array([inner(e) for e in etas])
    best = float(vals.max())
    step = eta_step
    centres = etas[np.argsort(vals)[-5:]]
    for _ in range(3):
        step /= 20.0
        cand = np.concatenate([c + step * np.arange(-20, 21) for c in centres])
        cand = cand[(cand >= 0.0) & (cand <= top)]
        cv = np.array([inner(e) for e in cand])
        best = max(best, float(cv.max()))
        centres = cand[np.argsort(cv)[-5:]]
    return best, (beta ** depth) * model.d / (1.0 - beta)


def evaluate_stage_policy_entropic(model, stages, gamma, tail_stages=1):
    """Entropic value of the total reward under the reported stage rules.

    Stages 0..N-1 follow the reported rules and ``tail_stages`` more stages
    follow the last one; the recursion is exact backward induction.
    """
    rules = list(stages) + [stages[-1]] * tail_stages
    S = len(model.states)
    w = np.zeros(S)
    for n in range(len(rules) - 1, -1, -1):
        P, r, _ = model.chain(rules[n])
        w = (model.beta ** n) * r + _lme_risk(P, w, gamma)
    return w


def check_total(model, rep, utility, v_neutral, tol=1e-9):
    out = []
    v = model.vec(rep["value"])
    over = float(np.max(v - v_neutral))
    if over > tol * (1.0 + np.max(np.abs(v_neutral))):
        out.append(f"total-OCE value exceeds the risk-neutral optimum by {over:.3e}")
    if utility["type"] == "entropic":
        stages = rep["stage_policy"]
        n = len(stages)
        allow = max(rep["tail_error"], model.beta ** n * model.d) + tol
        w = evaluate_stage_policy_entropic(model, stages, utility["gamma"])
        gap = float(np.max(np.abs(w - v)))
        if gap > allow:
            out.append(f"stage policy evaluates {gap:.3e} away from the value (> {allow:.1e})")
    return out


def check_jaquette_total(model, rep, utility):
    """The two jaquette references: the MGF product and the CVaR tree."""
    v = rep["value"]["1"]
    if utility["type"] == "entropic" and utility["gamma"] == 1.0:
        ref = jaquette_entropic_total()
        allow = rep["tail_error"] + 1e-9
        if abs(v - ref) > allow:
            return [f"jaquette entropic total {v!r} != MGF product {ref!r} (+- {allow:.1e})"]
    if utility["type"] == "cvar":
        # Grid values never overestimate, so that side is exact.  The
        # interpolation part of error_bound is a Richardson estimate, not a
        # bound (at y_step 0.02 it reads 0.0147 for an error of 0.0167), so
        # the other side allows twice the reported budget.
        ref, trunc = cvar_total_tree(model, utility["alpha"])
        if v > ref + trunc + 1e-5:
            return [f"jaquette cvar total {v!r} exceeds the tree value {ref!r}"]
        allow = 2.0 * rep["error_bound"] + trunc + 1e-5
        if v < ref - allow:
            return [f"jaquette cvar total {v!r} below the tree value {ref!r} by more than {allow:.1e}"]
    return []


# -- ergodic --------------------------------------------------------------------


def check_ergodic(model, rep, gamma, tol=1e-8):
    out = _policy_problems(model, rep)
    if out:
        return out
    xi = rep["gain"]
    P, _, idx = model.chain(rep["policy"])
    c = model.C[np.arange(len(idx)), idx]
    eig = np.linalg.eigvals(np.exp(gamma * c)[:, None] * P)
    rho = float(np.max(eig.real[np.abs(eig.imag) <= 1e-9 * np.abs(eig).max()]))
    ref = math.log(rho) / gamma
    if abs(xi - ref) > tol:
        out.append(f"ergodic cost {xi!r} != log Perron root / gamma = {ref!r}")
    h = model.vec(rep["bias"])
    rhs = np.where(model.mask, model.C - _lme_risk(model.K, -h, gamma), np.inf)
    res = float(np.max(np.abs(rhs.min(axis=1) - xi - h)))
    if res > tol:
        out.append(f"multiplicative Poisson residual {res:.3e} > {tol:.1e}")
    slack = float(np.max(rhs[np.arange(len(idx)), idx] - rhs.min(axis=1)))
    if slack > tol:
        out.append(f"reported policy is {slack:.3e} above the argmin")
    return out


# -- simulation -----------------------------------------------------------------


def policy_functional(model, choice, x0, horizon, functional, gamma=None):
    """Exact mean or entropic value of the first ``horizon`` discounted rewards."""
    P, r, _ = model.chain(choice)
    w = np.zeros(len(r))
    for n in range(horizon - 1, -1, -1):
        cont = P @ w if functional == "mean" else _lme_risk(P, w, gamma)
        w = (model.beta ** n) * r + cont
    return float(w[model.states.index(x0)])


def check_simulate(model, choice, x0, functional, gamma, est, n_se=5.0):
    ref = policy_functional(model, choice, x0, est["horizon"], functional, gamma)
    allow = n_se * est["std_error"] + est["truncation_error"] + 1e-12
    if not abs(est["estimate"] - ref) <= allow:
        return [f"{functional} estimate {est['estimate']!r} vs analytic {ref!r} (+- {allow:.2e})"]
    return []


# -- per-request checkers ---------------------------------------------------------


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in the output")
    return json.loads(text, parse_constant=reject)


class Reference:
    """The independent side of one model file: its arrays and cached optima."""

    def __init__(self, path):
        self.model = Model.from_file(path)
        self.name = os.path.splitext(os.path.basename(path))[0]
        self._neutral = None

    @property
    def neutral(self):
        if self._neutral is None:
            self._neutral = neutral_optimum(self.model)
        return self._neutral

    def checker(self, criterion, param, policy=None):
        """check(text) -> problems, for one criterion's JSON report."""
        def check(text):
            try:
                return self._check(criterion, param, policy, _strict_json(text))
            except (KeyError, TypeError, ValueError) as exc:
                return [f"malformed output: {exc!r}"]
        return check

    def _check(self, criterion, param, policy, rep):
        m = self.model
        if criterion == "risk_neutral":
            return check_risk_neutral(m, rep, SOLVER_TOL)
        if criterion == "recursive_oce":
            return check_recursive(m, rep, param, SOLVER_TOL)
        if criterion == "total_oce":
            out = check_total(m, rep, param, self.neutral)
            if self.name == "jaquette":
                out += check_jaquette_total(m, rep, param)
            return out
        if criterion == "ergodic_entropic":
            return check_ergodic(m, rep, param)
        functional, gamma, _ = param
        return check_simulate(m, policy, m.states[0], functional, gamma, rep)

    def compare_checker(self, utility):
        """Check a ``compare`` table (risk-neutral, recursive, total rows at x0)."""
        def check(text):
            try:
                table = _strict_json(text)
                x = self.model.states.index(table["state"])
                got = {row["criterion"]: row["value"] for row in table["rows"]}
                want = {"risk_neutral": self.neutral[x],
                        "recursive_oce": recursive_optimum(self.model, utility)[x]}
                if self.name == "jaquette" and utility == {"type": "entropic", "gamma": 1.0}:
                    want["total_oce"] = jaquette_entropic_total()
                out = [f"compare row {c}: {got[c]!r} != {float(v)!r}"
                       for c, v in want.items() if abs(got[c] - v) > 1e-8]
                if got["total_oce"] > self.neutral[x] + SOLVER_TOL:
                    out.append("compare: total-OCE value exceeds the risk-neutral optimum")
                return out
            except (KeyError, TypeError, ValueError) as exc:
                return [f"malformed output: {exc!r}"]
        return check
