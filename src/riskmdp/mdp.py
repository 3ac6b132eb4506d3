"""Finite MDP data model, validation, file I/O, and induced-chain utilities.

A model consists of ordered state and action id lists, a nonempty admissible
action set per state, a transition kernel row per admissible pair, a
nonnegative bounded reward table, an optional nonnegative cost table, and a
discount factor in [0, 1).  State and action ids are strings in files and are
mapped to dense indices internally; the declared file order fixes every
iteration order, so runs are reproducible.

Rewards are required to be nonnegative; negative inputs are rejected rather
than shifted (shift additivity of the criteria is the caller-side remedy).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationCapError,
    ModelFormatError,
    ModelValidationError,
    PolicyError,
)

_ROW_TOL = 1e-12

# a probability, reward or cost: int, float or a NumPy real scalar, not a bool
_REAL = (int, float, np.integer, np.floating)
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               str: "a string", list: "an array", dict: "an object"}


def _json_type(x):
    return _JSON_TYPES.get(type(x), type(x).__name__)


def _object(x, pointer):
    """x itself if it is a JSON object; refused with its pointer otherwise."""
    if not isinstance(x, dict):
        raise ModelFormatError(f"expected an object, got {_json_type(x)}", pointer)
    return x


def _numbers(row, pointer):
    """The values of the object ``row`` as float64, in key order.  A value
    that is not a real number (a bool, string, null, array or object) is
    refused with its own pointer; the common all-int/float row is checked by
    its set of value types alone."""
    if not {type(x) for x in row.values()} <= {int, float}:
        for key, x in row.items():
            if isinstance(x, bool) or not isinstance(x, _REAL):
                raise ModelFormatError(f"expected a number, got {_json_type(x)}",
                                       f"{pointer}/{key}")
    try:
        return np.fromiter(row.values(), float, len(row))
    except OverflowError:
        raise ModelFormatError("number out of float range", pointer) from None


def _index(index, kind, key, pointer):
    """index[key]; an unknown or unhashable id is refused with the pointer."""
    try:
        return index[key]
    except (KeyError, TypeError):
        raise ModelFormatError(f"unknown {kind} {key!r}", pointer) from None


def _indices(index, kind, ids, pointer):
    """[index[key] for key in ids], refused as in :func:`_index`."""
    try:
        return [index[key] for key in ids]
    except (KeyError, TypeError):
        return [_index(index, kind, key, pointer) for key in ids]


class FiniteMdp:
    """Immutable tabular MDP.

    Construction is lenient so that :meth:`validate` can report semantic
    violations (bad row sums, negative rewards, empty admissible sets) instead
    of throwing; structural problems (unknown ids, wrong types) are rejected
    during parsing with :class:`ModelFormatError` and the pointer of the
    offending element.  Each kernel, reward and cost row is checked and
    stored as a whole: its ids resolved in one pass, its values in one
    assignment.
    """

    def __init__(self, states, actions, admissible, transitions, rewards,
                 costs=None, discount=0.0):
        self.states = list(states)
        self.actions = list(actions)
        self.state_index = {s: i for i, s in enumerate(self.states)}
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        if len(self.state_index) != len(self.states):
            raise ModelFormatError("duplicate state ids", "/states")
        if len(self.action_index) != len(self.actions):
            raise ModelFormatError("duplicate action ids", "/actions")
        self.discount = float(discount)

        ns, na = len(self.states), len(self.actions)
        self.admissible_mask = np.zeros((ns, na), dtype=bool)
        raw_admissible = {s: [] for s in self.states}
        for s, acts in _object(admissible, "/admissible").items():
            si = _index(self.state_index, "state", s, "/admissible")
            if not isinstance(acts, (list, tuple)):
                raise ModelFormatError(f"expected an array, got {_json_type(acts)}",
                                       f"/admissible/{s}")
            raw_admissible[s] = list(acts)
            cols = _indices(self.action_index, "action", acts, f"/admissible/{s}")
            self.admissible_mask[si, cols] = True
        # canonical per-state order = declared action order, so every
        # tie-break (vectorized argmax or per-state loop) agrees
        self.admissible = {
            s: sorted(raw_admissible[s], key=self.action_index.__getitem__)
            for s in self.states
        }

        # entries given for inadmissible actions, which validate() refuses:
        # nothing reads them, and to_dict() would drop them
        self._inadmissible_entries = []
        self.kernel = np.zeros((ns, na, ns))
        for s, row in _object(transitions, "/transitions").items():
            si = _index(self.state_index, "state", s, "/transitions")
            for a, dist in _object(row, f"/transitions/{s}").items():
                ai = _index(self.action_index, "action", a, f"/transitions/{s}")
                self._note_inadmissible("transitions", s, [a])
                pointer = f"/transitions/{s}/{a}"
                cols = _indices(self.state_index, "state", _object(dist, pointer), pointer)
                self.kernel[si, ai, cols] = _numbers(dist, pointer)
        # read-only: the model is immutable, and every solve reads its
        # kernel from here
        self.kernel.flags.writeable = False

        self.reward = self._action_table("rewards", rewards)
        self.cost = None if costs is None else self._action_table("costs", costs)

    def _action_table(self, name, table):
        """The (S, A) array of a rewards or costs object, one row per state."""
        out = np.zeros((self.n_states, self.n_actions))
        for s, row in _object(table, f"/{name}").items():
            si = _index(self.state_index, "state", s, f"/{name}")
            pointer = f"/{name}/{s}"
            cols = _indices(self.action_index, "action", _object(row, pointer), pointer)
            out[si, cols] = _numbers(row, pointer)
            self._note_inadmissible(name, s, row)
        return out

    def _note_inadmissible(self, table, s, acts):
        si = self.state_index[s]
        for a in acts:
            if not self.admissible_mask[si, self.action_index[a]]:
                self._inadmissible_entries.append(
                    f"{table}[{s}][{a}]: action {a} is not admissible at state {s}")

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_actions(self):
        return len(self.actions)

    @property
    def reward_bound(self):
        """Upper reward bound d = max admissible r(x, a)."""
        if not self.admissible_mask.any():
            return 0.0
        return float(self.reward[self.admissible_mask].max())

    # -- validation ---------------------------------------------------------

    def validate(self, for_discounted=True):
        """Return the list of invariant violations (empty iff the model is sound).

        Every test runs on the whole tables first; only the states with a
        violation are walked to write its messages, in declared order.
        """
        out = []
        counts = self.admissible_mask.sum(axis=1).tolist()
        for s, n in zip(self.states, counts):
            acts = self.admissible[s]
            if not acts:
                out.append(f"admissible[{s}]: empty action set")
            elif len(acts) != n:  # an action listed twice sets one mask entry
                seen = set()
                for a in acts:
                    if a in seen:
                        out.append(f"admissible[{s}]: duplicate action {a}")
                    seen.add(a)
        # a row is sound iff its sum is within _ROW_TOL of 1 and its minimum
        # is >= 0: a NaN or infinite entry makes the sum NaN or infinite
        totals = self.kernel.sum(axis=2)
        sound = np.abs(totals - 1.0) <= _ROW_TOL
        sound &= self.kernel.min(axis=2) >= 0.0
        for table in (self.reward, self.cost):
            if table is not None:
                sound &= (table >= 0.0) & (table < np.inf)
        # admissible > sound: admissible and not sound
        for si in np.flatnonzero((self.admissible_mask > sound).any(axis=1)).tolist():
            s = self.states[si]
            for a in self.admissible[s]:
                ai = self.action_index[a]
                if not sound[si, ai]:
                    out.extend(self._pair_violations(si, ai, float(totals[si, ai])))
        out.extend(self._inadmissible_entries)
        if for_discounted and not (0.0 <= self.discount < 1.0):
            out.append(f"discount: must lie in [0, 1), got {self.discount!r}")
        return out

    def _pair_violations(self, si, ai, total):
        """The messages of one (state, action) pair that failed a test of
        :meth:`validate`, whose row sums to ``total``."""
        s, a = self.states[si], self.actions[ai]
        row = self.kernel[si, ai]
        out = []
        # NaN compares False everywhere, so the sum test alone lets it pass
        if not np.isfinite(row).all():
            out.append(f"transitions[{s}][{a}]: probabilities must be finite")
        elif abs(total - 1.0) > _ROW_TOL:
            out.append(f"transitions[{s}][{a}]: row sums to {total!r}, expected 1")
        if (row < 0.0).any():
            out.append(f"transitions[{s}][{a}]: negative probability")
        for name, table in (("rewards", self.reward), ("costs", self.cost)):
            if table is not None:
                x = float(table[si, ai])
                if not math.isfinite(x) or x < 0.0:
                    out.append(f"{name}[{s}][{a}]: must be finite and >= 0, got {x!r}")
        return out

    def require_valid(self, for_discounted=True):
        violations = self.validate(for_discounted)
        if violations:
            raise ModelValidationError(violations)
        return self

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        """Canonical dict form: declared-order keys, zero probabilities dropped.

        Each admissible kernel row is read once, at its nonzero entries
        (``np.flatnonzero``; a NaN entry is nonzero and kept); the rewards
        and costs are written by :meth:`_pair_dict`.
        """
        states = self.states
        trans = {s: {} for s in states}
        for si, s in enumerate(states):
            for a in self.admissible[s]:
                row = self.kernel[si, self.action_index[a]]
                support = np.flatnonzero(row)
                trans[s][a] = dict(zip([states[y] for y in support.tolist()],
                                       row[support].tolist()))
        out = {
            "states": list(states),
            "actions": list(self.actions),
            "admissible": {s: list(self.admissible[s]) for s in states},
            "transitions": trans,
            "rewards": self._pair_dict(self.reward),
            "discount": self.discount,
        }
        if self.cost is not None:
            out["costs"] = self._pair_dict(self.cost)
        return out

    def _pair_dict(self, table):
        """{state: {admissible action: entry}} of an (S, A) table, in declared order."""
        rows = table.tolist()
        return {s: {a: rows[si][self.action_index[a]] for a in self.admissible[s]}
                for si, s in enumerate(self.states)}

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ModelFormatError("model must be a JSON object", "")
        for key, typ in (("states", list), ("actions", list), ("admissible", dict),
                         ("transitions", dict), ("rewards", dict)):
            if key not in obj:
                raise ModelFormatError(f"missing required field {key!r}", f"/{key}")
            if not isinstance(obj[key], typ):
                raise ModelFormatError(f"field {key!r} has wrong type", f"/{key}")
        if "discount" not in obj:
            raise ModelFormatError("missing required field 'discount'", "/discount")
        if not isinstance(obj["discount"], (int, float)) or isinstance(obj["discount"], bool):
            raise ModelFormatError("field 'discount' must be a number", "/discount")
        try:
            discount = float(obj["discount"])
        except OverflowError:
            raise ModelFormatError("number out of float range", "/discount") from None
        return cls(
            states=[str(s) for s in obj["states"]],
            actions=[str(a) for a in obj["actions"]],
            admissible=obj["admissible"],
            transitions=obj["transitions"],
            rewards=obj["rewards"],
            costs=obj.get("costs"),
            discount=discount,
        )

    def __eq__(self, other):
        return isinstance(other, FiniteMdp) and self.to_dict() == other.to_dict()


def save(m, path):
    """Write the canonical JSON form."""
    with open(path, "w") as fh:
        json.dump(m.to_dict(), fh, indent=2)
        fh.write("\n")


def load(path, validate=True):
    """Read, parse, and (by default) validate a model file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}", "") from exc
    m = FiniteMdp.from_dict(obj)
    if validate:
        m.require_valid(for_discounted=False)
    return m


# -- policies ----------------------------------------------------------------


@dataclass(frozen=True)
class StationaryPolicy:
    """One decision rule applied at every stage: state id -> action id."""

    choice: dict

    def action(self, state):
        return self.choice[state]

    def indices(self, m):
        """Action index per state index; raises if any choice is inadmissible."""
        out = np.empty(m.n_states, dtype=int)
        for s in m.states:
            a = self.choice.get(s)
            if a is None or a not in m.admissible[s]:
                raise PolicyError(f"policy picks {a!r} at state {s!r}, admissible: {m.admissible[s]}")
            out[m.state_index[s]] = m.action_index[a]
        return out

    @classmethod
    def from_indices(cls, m, idx):
        """The policy with action index ``idx[i]`` at state index i; inverse of :meth:`indices`."""
        return cls({s: m.actions[idx[i]] for i, s in enumerate(m.states)})

    def __hash__(self):
        return hash(tuple(sorted(self.choice.items())))


@dataclass(frozen=True)
class StagePolicy:
    """Stage-dependent rules for stages 0..N-1 plus a stationary tail."""

    stages: tuple
    tail: StationaryPolicy

    def rule_at(self, stage):
        if stage < len(self.stages):
            return self.stages[stage]
        return self.tail

    @property
    def horizon(self):
        return len(self.stages)


def first_admissible_policy(m):
    return StationaryPolicy({s: m.admissible[s][0] for s in m.states})


def enumerate_policies(m, cap=10**6):
    """All stationary deterministic policies in declared action order.

    Raises :class:`EnumerationCapError` when the product of admissible-set
    sizes exceeds ``cap``.
    """
    count = 1
    for s in m.states:
        count *= max(len(m.admissible[s]), 1)
    if count > cap:
        raise EnumerationCapError(count, cap)
    pools = [m.admissible[s] for s in m.states]
    return [StationaryPolicy(dict(zip(m.states, combo)))
            for combo in itertools.product(*pools)]


def induced_chain(m, policy):
    """Row-stochastic matrix P_f plus reward / cost vectors under ``policy``."""
    idx = policy.indices(m)
    rows = np.arange(m.n_states)
    P = m.kernel[rows, idx, :]
    r = m.reward[rows, idx]
    c = m.cost[rows, idx] if m.cost is not None else None
    return P, r, c


# -- chain structure ----------------------------------------------------------


def _reachability(P):
    """Boolean closure: reach[i, j] iff j is reachable from i in >= 1 steps.

    Squaring doubles the covered path length each round, so after k rounds
    every path of 1..2^k steps is included; ceil(log2 S) + 1 rounds cover
    the S steps any shortest walk needs.
    """
    reach = P > 0.0
    for _ in range(int(math.ceil(math.log2(max(P.shape[0], 2)))) + 1):
        reach = reach | (reach @ reach)
    return reach


def chain_period(P, states_in_class):
    """Period of an irreducible class: gcd of (level(u) + 1 - level(v)) over edges.

    Levels come from a BFS inside the class; the gcd of all level slacks along
    edges equals the cycle-length gcd.
    """
    members = sorted(states_in_class)
    pos = {s: k for k, s in enumerate(members)}
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in members:
                if P[u, v] > 0.0 and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in members:
            if P[u, v] > 0.0:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 1


@dataclass
class ChainReport:
    """Structure of the chain induced by one stationary policy."""

    policy: StationaryPolicy
    irreducible: bool
    unichain: bool
    n_recurrent_classes: int
    period: int | None  # of the unique recurrent class when unichain

    @property
    def aperiodic(self):
        return self.period == 1


def analyze_chain(m, policy):
    P, _, _ = induced_chain(m, policy)
    n = m.n_states
    reach = _reachability(P)
    # communicating classes: mutual reachability (a state communicates with itself)
    comm = (reach & reach.T) | np.eye(n, dtype=bool)
    seen = np.zeros(n, dtype=bool)
    classes = []
    for i in range(n):
        if not seen[i]:
            cls = np.flatnonzero(comm[i])
            seen[cls] = True
            classes.append(cls)
    closed = []
    for cls in classes:
        inside = np.zeros(n, dtype=bool)
        inside[cls] = True
        if not np.any(P[cls][:, ~inside] > 0.0):
            closed.append(cls)
    unichain = len(closed) == 1
    irreducible = len(classes) == 1
    period = chain_period(P, list(closed[0])) if unichain else None
    return ChainReport(policy, irreducible, unichain, len(closed), period)


def reducible_policy(m):
    """A stationary policy whose chain is reducible, or None if none exists.

    The attractor Attr(x) is the least set that holds x and every state
    whose admissible actions all reach the set in one step.  Its complement
    is the largest set that some policy keeps closed while avoiding x, so
    every policy is irreducible exactly when each attractor is the whole
    state space.  The S attractors grow together.  Each starts as its own
    state, so the first round's one-step reach is the support itself; each
    later round costs one (S, S) @ (S, S*A) product, for at most S rounds,
    and the rounds stop as soon as every attractor is the whole state space
    (at once on a dense model) or none grows.  The witness picks, inside the
    complement of the first short attractor, the first admissible action
    whose support stays there, and the first admissible action elsewhere.
    """
    S, A = m.n_states, m.n_actions
    support = m.kernel > 0.0
    # reach[z, y*A + a]: action a at y reaches z, from the support in the
    # first round (the identity times step is step)
    reach = support.reshape(S * A, S).T
    step = reach.astype(np.float32)  # counts stay exact in float32
    inadmissible = ~m.admissible_mask.ravel()
    attr = np.eye(S, dtype=bool)
    while True:
        grown = attr | (reach | inadmissible).reshape(S, S, A).all(axis=2)
        if np.array_equal(grown, attr):
            break
        attr = grown
        if attr.all():
            break
        reach = attr.astype(np.float32) @ step > 0.0
    short = np.flatnonzero(~attr.all(axis=1))
    if short.size == 0:
        return None
    closed = ~attr[short[0]]
    stays = ~(support & ~closed).any(axis=2)
    choice = {}
    for i, s in enumerate(m.states):
        acts = m.admissible[s]
        choice[s] = next(a for a in acts if stays[i, m.action_index[a]]) if closed[i] else acts[0]
    return StationaryPolicy(choice)


@dataclass
class UnichainCheck:
    """Aggregate of per-policy chain reports, possibly on a sampled subset."""

    reports: list
    exhaustive: bool

    @property
    def flagged(self):
        return [r for r in self.reports if not r.unichain or not r.aperiodic]

    def first_reducible(self):
        for r in self.reports:
            if not r.unichain:
                return r
        return None


def check_unichain_aperiodic(m, cap=10**6, sample=None, seed=0):
    """Analyze the chain of every stationary policy (or a sampled subset).

    With ``sample=None`` the policy space is enumerated and
    :class:`EnumerationCapError` is raised beyond ``cap``; with an integer
    ``sample`` that many policies are drawn uniformly with a seeded generator
    and the result is marked non-exhaustive.
    """
    if sample is None:
        policies = enumerate_policies(m, cap=cap)
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        policies = []
        for _ in range(sample):
            policies.append(StationaryPolicy(
                {s: m.admissible[s][rng.integers(len(m.admissible[s]))] for s in m.states}
            ))
        exhaustive = False
    return UnichainCheck([analyze_chain(m, f) for f in policies], exhaustive)


def value_dict(m, vec):
    """Pair a dense value vector with state ids, preserving declared order."""
    return {s: float(vec[i]) for i, s in enumerate(m.states)}
