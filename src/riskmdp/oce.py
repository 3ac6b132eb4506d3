"""Optimized certainty equivalents of finite-support distributions.

The reward-side functional evaluated here is

    S_u(X) = sup_eta { eta + E[u(X - eta)] }

for a proper, closed, concave, non-decreasing utility u with u(0) = 0 and
u'_+(0) <= 1 <= u'_-(0).  The interpretation: consume ``eta`` today, value the
remainder by expected utility, and optimize the split.  For bounded X the
supremum can be restricted to the support interval.

Each kind below has an exact closed form, and all of them live in one
batched layer, :func:`_oce_sorted`, which :func:`oce`, the recursive sweep and
the simulate bootstrap share.  :func:`oce_generic`, a direct search, is the
independent reference the closed forms are tested against.

For the kinds that sort the atoms, a row's order enters only through
cumulative sums of its weights p, so each is split in two: a p-part
(:func:`_oce_weights`: the cvar tail take and quantile index; the
mean-variance P = cumsum(p), P - p and support ends; the piecewise-linear F
and support ends) and an x-part that reads the atoms.  A caller that sees
the same rows in the same order again, as the recursive sweeps do between
changes of the sort order, keeps the p-part and gets the same bits.  The
kinds:

* entropic, u(t) = (1 - exp(-gamma t)) / gamma:
      S_u(X) = -(1/gamma) ln E[exp(-gamma X)]
  (coincides with the classical certainty equivalent u^{-1} E u(X));
* cvar, u(t) = t/alpha for t < 0 and 0 for t >= 0:
      S_u(X) = -CVaR_alpha(X),  CVaR_alpha(X) = inf_eta { E[(eta-X)^+]/alpha - eta }
  i.e. minus the mean of the worst alpha-fraction of outcomes;
* mean_variance, u(t) = t - t^2/2 capped at 1/2:
      S_u(X) = E X - Var(X)/2  whenever max X <= 1 + E X;
* piecewise_linear, any concave non-decreasing piecewise-linear u.

The cost-side companion S_l(X) = inf_eta { eta + E[l(X - eta)] } with the
convex loss l(t) = -u(-t) is provided by :func:`oce_cost` and satisfies
S_l(X) = -S_u(-X) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError, ParameterError, UnsupportedUtilityError

_MASS_TOL = 1e-12
_GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class DiscreteDistribution:
    """Finite-support probability distribution over real payoffs.

    Atoms with zero probability are accepted and ignored by every statistic.
    Instances are immutable after construction.
    """

    __slots__ = ("values", "probs")

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or values.size == 0:
            raise DistributionError("atoms must be two equal-length, non-empty vectors")
        if not np.all(np.isfinite(values)):
            raise DistributionError("atom values must all be finite")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise DistributionError("probabilities must be finite and >= 0")
        if abs(probs.sum() - 1.0) > _MASS_TOL:
            raise DistributionError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within {_MASS_TOL}"
            )
        keep = probs > 0.0  # the mass check leaves at least one positive entry
        self.values = values[keep]
        self.probs = probs[keep]

    @classmethod
    def point_mass(cls, value):
        return cls([value], [1.0])

    @property
    def atoms(self):
        return list(zip(self.values.tolist(), self.probs.tolist()))

    @property
    def support_min(self):
        return float(self.values.min())

    @property
    def support_max(self):
        return float(self.values.max())

    @property
    def is_degenerate(self):
        return bool(np.all(self.values == self.values[0]))

    def mean(self):
        return float(self.probs @ self.values)

    def variance(self):
        m = self.mean()
        return float(self.probs @ (self.values - m) ** 2)

    def shifted(self, c):
        return DiscreteDistribution(self.values + c, self.probs)

    def scaled(self, c):
        return DiscreteDistribution(self.values * c, self.probs)

    def negated(self):
        return DiscreteDistribution(-self.values, self.probs)

    def merged(self):
        """Combine atoms with identical values (sorted ascending)."""
        vals, inverse = np.unique(self.values, return_inverse=True)
        mass = np.bincount(inverse, weights=self.probs, minlength=vals.size)
        return DiscreteDistribution(vals, mass / mass.sum())

    def __repr__(self):
        inner = ", ".join(f"{v:g}@{p:g}" for v, p in self.atoms)
        return f"DiscreteDistribution({inner})"


@dataclass(frozen=True)
class UtilitySpec:
    """Tagged description of the utility u generating the certainty equivalent.

    ``kind`` is one of ``entropic``, ``cvar``, ``mean_variance``,
    ``piecewise_linear``.  Risk parameters live in ``gamma`` / ``alpha`` /
    ``points`` according to the kind.
    """

    kind: str
    gamma: float | None = None
    alpha: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def entropic(cls, gamma):
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise ParameterError(f"entropic risk aversion must be > 0, got {gamma}")
        return cls(kind="entropic", gamma=float(gamma))

    @classmethod
    def cvar(cls, alpha):
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"cvar level must lie in (0, 1), got {alpha}")
        return cls(kind="cvar", alpha=float(alpha))

    @classmethod
    def mean_variance(cls):
        return cls(kind="mean_variance")

    @classmethod
    def piecewise_linear(cls, points):
        pts = tuple((float(t), float(v)) for t, v in points)
        if len(pts) < 2:
            raise ParameterError("piecewise-linear utility needs at least two points")
        if not all(math.isfinite(x) for p in pts for x in p):
            raise ParameterError("piecewise-linear utility needs finite points")
        ts = np.array([t for t, _ in pts])
        us = np.array([v for _, v in pts])
        if np.any(np.diff(ts) <= 0.0):
            raise ParameterError("breakpoints must be strictly increasing in t")
        slopes = np.diff(us) / np.diff(ts)
        if np.any(slopes < -1e-12):
            raise ParameterError("utility must be non-decreasing (all slopes >= 0)")
        if np.any(np.diff(slopes) > 1e-12):
            raise ParameterError("utility must be concave (slopes non-increasing)")
        spec = cls(kind="piecewise_linear", points=pts)
        if abs(spec.u(0.0)) > 1e-12:
            raise ParameterError("utility must satisfy u(0) = 0")
        left, right = spec._slopes_at_zero()
        if left < 1.0 - 1e-12 or right > 1.0 + 1e-12:
            raise ParameterError(
                f"utility must satisfy u'_-(0) >= 1 >= u'_+(0), got {left}, {right}"
            )
        return spec

    def _slopes_at_zero(self):
        """Segment slopes immediately left and right of t = 0.

        The segment left of 0 ends at the first breakpoint >= 0, the one
        right of 0 at the first breakpoint > 0 (``np.searchsorted``, sides
        left and right).  The function extends past the first/last breakpoint
        with the end slopes, so the segment index is clamped to the segments.
        """
        ts = np.array([t for t, _ in self.points])
        us = np.array([v for _, v in self.points])
        slopes = np.diff(us) / np.diff(ts)
        last = slopes.size - 1
        left = slopes[np.clip(np.searchsorted(ts, 0.0, side="left") - 1, 0, last)]
        right = slopes[np.clip(np.searchsorted(ts, 0.0, side="right") - 1, 0, last)]
        return float(left), float(right)

    def u(self, t):
        """Evaluate the utility, vectorized over t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "entropic":
            g = self.gamma
            out = -np.expm1(-g * t) / g
        elif self.kind == "cvar":
            out = np.minimum(t, 0.0) / self.alpha
        elif self.kind == "mean_variance":
            out = np.where(t < 1.0, t - 0.5 * t * t, 0.5)
        elif self.kind == "piecewise_linear":
            ts = np.array([p[0] for p in self.points])
            us = np.array([p[1] for p in self.points])
            out = np.interp(t, ts, us)
            s_lo = (us[1] - us[0]) / (ts[1] - ts[0])
            s_hi = (us[-1] - us[-2]) / (ts[-1] - ts[-2])
            out = np.where(t < ts[0], us[0] + s_lo * (t - ts[0]), out)
            out = np.where(t > ts[-1], us[-1] + s_hi * (t - ts[-1]), out)
        else:
            raise UnsupportedUtilityError(f"unknown utility kind {self.kind!r}")
        return out if out.ndim else float(out)

    def to_json(self):
        if self.kind == "entropic":
            return {"type": "entropic", "gamma": self.gamma}
        if self.kind == "cvar":
            return {"type": "cvar", "alpha": self.alpha}
        if self.kind == "mean_variance":
            return {"type": "mean_variance"}
        return {"type": "piecewise_linear", "points": [list(p) for p in self.points]}

    @classmethod
    def from_json(cls, obj):
        """The spec of a decoded JSON object; a missing or wrongly typed field
        is refused with :class:`ParameterError`."""
        if not isinstance(obj, dict):
            raise ParameterError(f"utility spec must be a JSON object, got {type(obj).__name__}")
        kind = obj.get("type")
        try:
            if kind == "entropic":
                return cls.entropic(obj["gamma"])
            if kind == "cvar":
                return cls.cvar(obj["alpha"])
            if kind == "mean_variance":
                return cls.mean_variance()
            if kind == "piecewise_linear":
                return cls.piecewise_linear(obj["points"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed {kind} utility {obj}: {exc!r}") from None
        raise ParameterError(f"unknown utility type {kind!r}")


@dataclass
class OceResult:
    """Value and maximizing consumption split of one OCE evaluation."""

    value: float
    eta_star: float


def _cvar_weights(p, spec):
    """The p-part of :func:`_cvar_sorted`: the share of each ascending atom in
    the worst alpha of its row, and the index of the lower alpha-quantile
    atom, the last with less than alpha below it (before[..., 0] = 0 < alpha)."""
    before = np.cumsum(p, axis=-1) - p
    take = np.minimum(p, np.maximum(spec.alpha - before, 0.0))
    return take, (before < spec.alpha).sum(axis=-1) - 1


def _cvar_sorted(p, w, x, spec):
    """-CVaR_alpha per row: the mean of the worst alpha-share of the atoms x,
    attained at the lower alpha-quantile."""
    take, quantile = w
    return (take * x).sum(axis=-1) / spec.alpha, x[quantile]


def _support_index(p):
    """Indices of the smallest and largest atom with positive mass, per row."""
    pos = p > 0.0
    return np.argmax(pos, axis=-1), p.shape[-1] - 1 - np.argmax(pos[..., ::-1], axis=-1)


def _mean_variance_weights(p, spec):
    """The p-part of :func:`_mean_variance_sorted`: P = cumsum(p), the mass
    P - p below each atom and the support ends."""
    P = np.cumsum(p, axis=-1)
    return (P, P - p, *_support_index(p))


def _mean_variance_sorted(p, w, x, spec):
    """Exact sup_eta { eta + E u(X - eta) } per row, u(t) = t - t^2/2 capped at 1/2.

    The first-order condition sum_{x_i < eta+1} p_i (1 + eta - x_i) = 1 is
    linear in eta while the set of atoms below eta + 1 stays fixed: with the
    first k sorted atoms below, eta = (1 + M_k) / P_k - 1 for their mass P_k
    and mass-weighted sum M_k.  The left side at eta = x_j - 1 is
    x_j P_{<j} - M_{<j}, nondecreasing in j, so k counts the atoms where it is
    below 1.
    """
    P, below, lo, hi = w
    px = p * x
    M = np.cumsum(px, axis=-1)
    k = (x * below - (M - px) < 1.0).sum(axis=-1) - 1
    k = k + np.arange(0, P.size, x.size).reshape(k.shape)  # into the flattened rows
    Pk, Mk = P.reshape(-1)[k], M.reshape(-1)[k]
    # all-zero (inadmissible) rows get a finite placeholder
    eta = (1.0 + Mk) / np.where(Pk > 0.0, Pk, 1.0) - 1.0
    eta = np.clip(eta, x[lo], x[hi])
    return eta + (p * spec.u(x - eta[..., None])).sum(axis=-1), eta


def _pwl_parts(spec):
    """(kinks k_j, slope drops d_j > 0, last slope s, c) of a concave
    piecewise-linear u written as u(t) = c + s t + sum_j d_j min(t - k_j, 0)."""
    ts = np.array([t for t, _ in spec.points])
    us = np.array([u for _, u in spec.points])
    slopes = np.diff(us) / np.diff(ts)
    s = slopes[-1]
    return ts[1:-1], slopes[:-1] - slopes[1:], s, us[-1] - s * ts[-1]


def _with_zero(a):
    """a with a 0 before each row: the cumulative sums below each atom."""
    return np.concatenate((np.zeros(a.shape[:-1] + (1,)), a), axis=-1)


def _piecewise_linear_weights(p, spec):
    """The p-part of :func:`_piecewise_linear_sorted`: F and the support ends."""
    return (_with_zero(np.cumsum(p, axis=-1)), *_support_index(p))


def _piecewise_linear_sorted(p, w, x, spec):
    """Exact sup_eta { eta + E u(X - eta) } per row for a concave piecewise-linear u.

    Written as u(t) = c + s t + sum_j d_j min(t - k_j, 0) over the interior
    kinks k_j (slope drops d_j > 0, last slope s), the objective is

        eta + c + s (E X - eta) + sum_j d_j (M(eta + k_j) - (eta + k_j) F(eta + k_j)),

    with F(y), M(y) the mass and mass-weighted sum of the atoms below y, read
    off the cumulative sums.  It is concave and piecewise linear, so its
    maximum over the support sits at a kink x_i - k_j or at an end; the
    candidates are clipped to each row's support.  Memory is rows * n * J.
    """
    F, lo, hi = w
    kinks, drops, s, c = _pwl_parts(spec)
    M = _with_zero(np.cumsum(p * x, axis=-1))
    cands = np.concatenate(((x[:, None] - kinks).ravel(), x[:1]))
    eta = np.clip(cands, x[lo][..., None], x[hi][..., None])
    obj = eta + c + s * (M[..., -1:] - eta)
    for k, d in zip(kinks, drops):
        y = eta + k
        i = np.searchsorted(x, y)
        obj += d * (np.take_along_axis(M, i, axis=-1) - y * np.take_along_axis(F, i, axis=-1))
    best = obj.argmax(axis=-1)[..., None]
    return (np.take_along_axis(obj, best, axis=-1)[..., 0],
            np.take_along_axis(eta, best, axis=-1)[..., 0])


# kind -> (p-part, x-part): the p-part reads the weights only, so a caller
# that keeps the atom order keeps it (see :func:`_oce_sorted`)
_SORTED_OCE = {
    "cvar": (_cvar_weights, _cvar_sorted),
    "mean_variance": (_mean_variance_weights, _mean_variance_sorted),
    "piecewise_linear": (_piecewise_linear_weights, _piecewise_linear_sorted),
}


def _oce_weights(p, spec):
    """The p-part of :func:`_oce_sorted` for a sorted kind: a tuple of arrays,
    each with p's leading (row) axes, that :func:`_oce_sorted` accepts as
    ``weights`` for any ascending atoms of the same order."""
    if spec.kind not in _SORTED_OCE:
        raise UnsupportedUtilityError(f"unknown utility kind {spec.kind!r}")
    return _SORTED_OCE[spec.kind][0](p, spec)


def _oce_sorted(p, x, spec, log_p=None, weights=None):
    """(S_u, maximizing eta) for every row of weights p over the atoms x: the
    one place each utility kind's formula lives.

    p has shape (..., n) and x shape (n,), ascending and shared by all rows;
    zero weights let one atom vector serve rows with different supports.  The
    entropic kind is a log-sum-exp that needs no atom order; it reads ln p
    from ``log_p`` when the caller has it cached, and its maximizer is the
    value itself (first-order condition E e^{-gamma (X - eta)} = 1).

    Each sorted kind is a p-part, which depends on the weights alone
    (:func:`_oce_weights`), followed by an x-part.  A caller that evaluates
    the same rows in the same atom order again passes the p-part it kept as
    ``weights``; the result is the same bits as without it.
    """
    if spec.kind == "entropic":
        log_p = np.log(p) if log_p is None else log_p
        value = -logsumexp(log_p - spec.gamma * x, axis=-1) / spec.gamma
        return value, value
    if weights is None:
        weights = _oce_weights(p, spec)
    return _SORTED_OCE[spec.kind][1](p, weights, x, spec)


def _oce_gradient(p, x, spec, eta, log_p=None, weights=None):
    """dS_u/dx_i = p_i u'(x_i - eta*) for every row of :func:`_oce_sorted`, at
    the eta* it returned: the risk-adjusted ("dual") weights of the rows.

    The envelope theorem gives the gradient, and the first-order condition
    at eta*, sum_i p_i u'(x_i - eta*) = 1, makes each row sum to 1.  Where u
    has a kink, u' at an atom on it can be any slope between the two sides;
    such atoms (the cvar quantile atom, the piecewise-linear atoms within
    rounding of a kink) take the remainder of their row.  Shapes and atom
    order are those of :func:`_oce_sorted`, and so are ``log_p`` and
    ``weights``.
    """
    if spec.kind == "entropic":  # the tilted kernel p e^{-gamma (x - eta*)}
        log_p = np.log(p) if log_p is None else log_p
        return np.exp(log_p - spec.gamma * (x - eta[..., None]))
    if spec.kind == "cvar":
        return (_cvar_weights(p, spec) if weights is None else weights)[0] / spec.alpha
    if spec.kind == "mean_variance":
        return p * np.maximum(0.0, 1.0 - (x - eta[..., None]))
    if spec.kind != "piecewise_linear":
        raise UnsupportedUtilityError(f"unknown utility kind {spec.kind!r}")
    kinks, drops, s, _ = _pwl_parts(spec)
    # (..., n, J): where each atom sits against each kink, eta* + k_j
    gap = (x - eta[..., None])[..., None] - kinks
    on = np.abs(gap) <= 8 * np.finfo(float).eps * (
        np.abs(x)[:, None] + np.abs(kinks) + np.abs(eta)[..., None, None])
    right = p * (s + (drops * ((gap < 0.0) & ~on)).sum(axis=-1))  # p u'_+
    extra = p * (drops * on).sum(axis=-1)  # p (u'_- - u'_+), on a kink only
    room = extra.sum(axis=-1, keepdims=True)
    share = np.clip((1.0 - right.sum(axis=-1, keepdims=True))
                    / np.where(room > 0.0, room, 1.0), 0.0, 1.0)
    return right + share * extra


def _objective(dist, spec, eta):
    """eta + E u(X - eta), vectorized over eta."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    args = dist.values[None, :] - eta[:, None]
    vals = eta + spec.u(args) @ dist.probs
    return vals


def _golden_max(dist, spec, lo, hi):
    """Golden-section search for the concave objective on [lo, hi].

    The objective is concave in eta because u is concave, so the search is
    exact up to the bracketing tolerance.  Returns (eta, value).
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _objective(dist, spec, c)[0]
    fd = _objective(dist, spec, d)[0]
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _objective(dist, spec, c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _objective(dist, spec, d)[0]
    eta = 0.5 * (a + b)
    return eta, _objective(dist, spec, eta)[0]


def _kink_candidates(dist, spec, lo, hi):
    """Candidate maximizers where the objective may be non-smooth.

    Kinks of eta -> E u(X - eta) sit where some X_i - eta crosses a kink of u:
    at eta = v_i for cvar, and eta = v_i - t_j for piecewise-linear u.
    Including them makes the search exact for piecewise-linear kinds.
    """
    cands = [lo, hi]
    if spec.kind == "cvar":
        cands.extend(dist.values.tolist())
    elif spec.kind == "piecewise_linear":
        for t, _ in spec.points:
            cands.extend((dist.values - t).tolist())
    return [c for c in cands if lo <= c <= hi]


def oce_generic(dist, spec):
    """S_u(X) by direct search, independent of the closed forms of :func:`oce`.

    Golden-section over the support interval (the objective is concave)
    followed by an exact sweep of the kink candidates, which makes
    piecewise-linear utilities exact.  No solver calls it: it is the
    reference the closed forms are cross-checked against.
    """
    if dist.is_degenerate:
        v = float(dist.values[0])
        return OceResult(value=v, eta_star=v)
    lo, hi = dist.support_min, dist.support_max
    eta, val = _golden_max(dist, spec, lo, hi)
    cands = _kink_candidates(dist, spec, lo, hi)
    cand_vals = _objective(dist, spec, cands)
    best = int(np.argmax(cand_vals))
    if cand_vals[best] > val:
        eta, val = cands[best], float(cand_vals[best])
    return OceResult(value=float(val), eta_star=float(eta))


def oce(dist, spec):
    """Reward-side optimized certainty equivalent S_u(X), one row of :func:`_oce_sorted`."""
    order = np.argsort(dist.values, kind="stable")
    value, eta = _oce_sorted(dist.probs[order], dist.values[order], spec)
    return OceResult(value=float(value), eta_star=float(eta))


def oce_cost(dist, spec):
    """Cost-side optimized certainty equivalent S_l(X), l(t) = -u(-t).

    Computed through the exact mirror identity S_l(X) = -S_u(-X); the
    minimizing eta is the negated maximizer of the mirrored problem.  The
    result dominates E[X] (convex-side Jensen).
    """
    mirrored = oce(dist.negated(), spec)
    return OceResult(value=-mirrored.value, eta_star=-mirrored.eta_star)


def logsumexp(a, axis=None):
    """ln sum exp(a) along ``axis`` (all axes for None), without over- or underflow.

    The m terms equal to the maximum a_max are taken out of the shifted sum,
    ln sum exp(a) = a_max + ln m + log1p(rest / m) with rest = sum of the
    others' exp(a - a_max) (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    2021).  Close to a single dominant term, log1p keeps the digits that
    ln(m + rest) loses.  An all -inf slice gives -inf.  a - a_max is
    exponentiated in place in one fresh array (shaped and laid out like a,
    so 0-d input works too), and the m top terms are then set to 0.
    """
    a = np.asarray(a, dtype=float)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = np.count_nonzero(top, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    terms = np.subtract(a, shift, out=np.empty_like(a))
    np.exp(terms, out=terms)
    np.putmask(terms, top, 0.0)
    rest = np.sum(terms, axis=axis, keepdims=True)
    return np.squeeze(np.log1p(rest / m) + np.log(m) + a_max, axis=axis)[()]


def entropic(dist, gamma):
    """Entropic risk value -(1/gamma) ln E[exp(-gamma X)], log-sum-exp stabilized."""
    return oce(dist, UtilitySpec.entropic(gamma)).value


def cvar(dist, alpha):
    """Conditional value-at-risk: the mean of the worst alpha-tail of losses -X."""
    return 0.0 - oce(dist, UtilitySpec.cvar(alpha)).value  # a zero tail stays +0.0


def certainty_equivalent(dist, spec):
    """Classical certainty equivalent u^{-1}(E u(X)).

    Only the entropic kind has a strictly increasing invertible u here, and
    for it the certainty equivalent coincides with the optimized one, so the
    call forwards to :func:`entropic`.
    """
    if spec.kind != "entropic":
        raise UnsupportedUtilityError(
            f"certainty equivalent needs an invertible utility; kind {spec.kind!r} is not"
        )
    return entropic(dist, spec.gamma)
