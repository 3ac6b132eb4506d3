"""Seeded Monte-Carlo rollouts and risk-functional estimators.

This is the independent verification side of every analytic solver: rollouts
realize the controlled chain, estimators evaluate mean / entropic / tail-mean
functionals of the discounted reward (or the ergodic entropic growth rate of
the cumulative cost) with bootstrap standard errors.

Determinism contract: replication i draws its uniforms from NumPy's PCG64
generator seeded with SeedSequence((seed, i)), so a batch is bit-identical for
a fixed (seed, model, policy, horizon, replications) regardless of execution
order, and replications can run in parallel without changing results.

A step inverts the kernel row r = s*A + a at its uniform u: the successor is
the first positive entry whose cumulative mass reaches u.  Zero entries
repeat the mass before them, so where rows have few positive entries a
table built once per rollout keeps only those, succ[r], and the mass through
each, mass[r]; the successor is succ[r, #{i : mass[r, i] < u}], one 1-D
gather, compare and add per column.  Dense rows keep the compare of u with
the whole cumulative row.  On both, the mass from the last positive entry on
reads +inf and before the first reads -inf, so a u above the row's rounded
total (a row may sum to 1 - 1e-12) goes to the last positive entry and a u
of 0 to the first: a rollout never enters a state of probability 0.
Stationary, stage and hook policies all step by this one rule.

Building one SeedSequence and one generator per replication costs more than
its draws, so the streams are derived a block of replications at a time:
SeedSequence's hashing of the entropy words (those of seed, then i) runs in
uint32 array arithmetic and yields each row's four PCG64 state words.  A
block with many rows per step of the horizon then steps PCG64 (O'Neill 2014)
for all rows at once in uint64 array arithmetic; a block with few sets one
reused generator to each row's 128-bit state in turn and draws that row.
NumPy's SeedSequence and PCG64 are the reference: tests/test_simulate.py
pins every stream to them bit for bit, on both paths.

The bootstrap draws its resamples a chunk at a time and evaluates each
chunk's statistics in one batched call; the resamples, and so the standard
errors, are those of one draw per resample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .augmented import _tail_error, _truncation_depth
from .errors import ParameterError, PolicyError
from .mdp import StagePolicy, StationaryPolicy
from .oce import UtilitySpec, _oce_sorted, logsumexp

_BOOT_TAG = 0xB005E  # appended to the seed for the bootstrap stream
_BOOT_RESAMPLES = 200
# the bootstrap draws and evaluates its resamples in chunks of at most this
# many indices (one resample where n is larger), so that a chunk's float
# temporaries stay within 128 KiB, glibc's default mmap threshold: at 2**15
# each chunk mapped and faulted in fresh pages, and 200 resamples of 2000
# took about 1.5x as long
_BOOT_CHUNK = 2**14


def required_horizon(m, truncation_error):
    """Smallest h >= 1 with beta^h d/(1-beta) <= truncation_error.  Only a
    discount in [0, 1) has one: any other is refused with
    :class:`~riskmdp.errors.ModelValidationError`, as a discounted solve
    refuses it."""
    m.require_valid()
    return _truncation_depth(m.discount, m.reward_bound, truncation_error)


@dataclass
class RolloutBatch:
    seed: int
    replications: int
    horizon: int
    discounted_rewards: np.ndarray
    cumulative_costs: np.ndarray | None
    beta: float
    truncation_error: float


# replications run in blocks whose uniforms and gathered successor rows hold
# about _BLOCK_ELEMENTS numbers, so memory does not grow with reps; a block
# keeps at least _MIN_BLOCK replications so that each step stays vectorized
_BLOCK_ELEMENTS = 2**17
_MIN_BLOCK = 256

# a block with at least this many rows per step of the horizon steps all its
# streams in lockstep, a smaller one draws row by row: lockstep pays a fixed
# cost per step, per-row draws one per row.  Per block of _BLOCK_ELEMENTS
# (2 vCPUs, medians of 15), lockstep / per-row:
#   horizon  S=6 (rows)            S=150 (rows)
#   30       3.6 / 28.9 ms (3640)  1.1 / 4.0 ms (728)
#   60       4.9 / 16.4 ms (1985)  3.4 / 5.1 ms (624)
#   100      6.6 / 10.5 ms (1236)  5.1 / 4.5 ms (524)
#   140      8.0 /  7.8 ms  (897)  6.2 / 4.1 ms (451)
#   418     16.8 /  3.4 ms  (309)  19.3 / 3.3 ms (256)
# and for 64, 256 and 1024 rows the tie lies between 3 and 7.5 rows per step
_LOCKSTEP_ROWS_PER_STEP = 6


# a rollout steps by a successor table when its rows have few positive
# entries, by whole cumulative rows otherwise.  Per step, a table column
# costs about 2.5 us + 3 ns per replication, a whole row about 5 us + (40 +
# 1.7 S) ns per replication, fitted to (2 vCPUs, medians of 11, stepping of
# 40-step blocks, ms per block, whole rows / table columns):
#   S    succ.  64 rows      256 rows     1024 rows     4096 rows
#   6    2      0.47 / 0.34  0.91 / 0.38   2.29 / 0.87  10.6 /  2.21
#   6    6      0.64 / 0.90  1.06 / 1.02   2.69 / 1.90   9.01 /  4.25
#   30   8      0.72 / 1.13  1.43 / 1.53   4.05 / 2.21  15.4 /  5.56
#   30   30     0.69 / 3.33  1.44 / 4.51   4.22 / 7.47  15.3 / 17.9
#   150  2      1.41 / 0.66  3.11 / 0.92  10.2 /  1.27  47.2 /  2.08
#   150  16     1.76 / 2.51  3.89 / 3.17  14.1 /  4.89  57.7 / 10.8
#   150  64     1.20 / 4.21  2.91 / 5.03  10.4 /  9.27  46.9 / 32.5
# and a row of k successors takes k - 1 columns
def _by_column(columns, rows, states):
    """Whether blocks of ``rows`` replications step by a successor table of
    ``columns`` mass columns rather than by whole cumulative rows."""
    return columns * (2.5 + 0.003 * rows) < 5 + rows * (0.04 + 0.0017 * states)


# NumPy's SeedSequence constants (pool of four uint32 words) and the PCG64
# multiplier of O'Neill, "PCG" (HMC-CS-2014-0905)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1

# the multiplier as uint64 words M_hi:M_lo, and M_lo's 32-bit limbs M_lo1:M_lo0
_M_HI, _M_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
_M_LO1, _M_LO0 = np.uint64(_PCG_MULT >> 32 & _MASK32), np.uint64(_PCG_MULT & _MASK32)
_U1, _U32, _U63 = np.uint64(1), np.uint64(_MASK32), np.uint64(63)
_S11, _S32, _S58 = np.uint64(11), np.uint64(32), np.uint64(58)


def _words(n):
    """The little-endian 32-bit words of an int n >= 0, as SeedSequence reads it."""
    return [n >> 32 * k & _MASK32 for k in range(max(1, (n.bit_length() + 31) // 32))]


def _seed_states(seed, lo, hi):
    """SeedSequence((seed, i)).generate_state(4, np.uint64) for i in lo..hi-1.

    Returns the four uint64 words as four arrays over the rows; the
    replication index i < 2**32 is the one entropy word that varies.
    """
    entropy = [np.full(hi - lo, w, dtype=np.uint32) for w in _words(seed)]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    const = _INIT_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> 16)

    # the pool takes the first words (zeros past the end), every pool word
    # is mixed into every other, then each remaining word into every one
    zeros = np.zeros(hi - lo, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zeros) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, out = _INIT_B, []
    for k in range(2 * _POOL_SIZE):
        v = pool[k % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        v = v * np.uint32(const)
        out.append((v ^ (v >> 16)).astype(np.uint64))
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


def _replication_uniforms(seed, lo, hi, horizon):
    """Columns lo..hi-1 of the (horizon, reps) uniforms, one stream per replication.

    The block is step-major, so that a step reads one contiguous row;
    column i equals np.random.default_rng(np.random.SeedSequence((seed, i)))
    .random(horizon) bit for bit.  PCG64 seeds from the words (s0, s1, q0,
    q1) with initstate = s0:s1 and initseq = q0:q1 as 128-bit ints:
    inc = (initseq << 1) | 1 and state = ((inc + initstate) * M + inc), mod
    2**128.  With at least _LOCKSTEP_ROWS_PER_STEP rows per step all rows
    step at once (:func:`_lockstep_uniforms`); otherwise each row sets the
    state on one reused generator in turn and draws.
    """
    words = _seed_states(seed, lo, hi)
    if hi - lo >= _LOCKSTEP_ROWS_PER_STEP * horizon:
        return _lockstep_uniforms(*words, horizon)
    U, draws = np.empty((horizon, hi - lo)), np.empty(horizon)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for row, (s0, s1, q0, q1) in enumerate(zip(*(w.tolist() for w in words))):
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        U[:, row] = gen.random(horizon, out=draws)
    return U


def _lockstep_uniforms(s0, s1, q0, q1, horizon):
    """PCG64's seeding and draws for every row at once, in uint64 words.

    A row's 128-bit state is the pair hi:lo.  A step is state * M + inc mod
    2**128; the high word of lo * M_lo comes from 32-bit limbs.  A draw
    steps, then outputs XSL-RR, (hi ^ lo) rotated right by hi >> 58, and the
    uniform is its top 53 bits times 2**-53, as in NumPy's random().
    """
    inc_hi, inc_lo = q0 << _U1 | q1 >> _U63, q1 << _U1 | _U1
    lo = s1 + inc_lo
    hi = s0 + inc_hi + (lo < s1)  # inc + initstate, with the carry out of lo
    U = np.empty((horizon, lo.size))
    for t in range(-1, horizon):  # step -1 ends the seeding
        a0, a1 = lo & _U32, lo >> _S32
        mid = a1 * _M_LO0 + (a0 * _M_LO0 >> _S32)
        low = (mid & _U32) + a0 * _M_LO1
        hi = (a1 * _M_LO1 + (mid >> _S32) + (low >> _S32)
              + hi * _M_LO + lo * _M_HI + inc_hi)
        lo = lo * _M_LO + inc_lo
        hi += lo < inc_lo
        if t >= 0:
            x, rot = hi ^ lo, hi >> _S58
            U[t] = (x >> rot | x << (-rot & _U63)) >> _S11
    U *= 2.0**-53
    return U


def _rule_rows(m, policy, horizon):
    """Per step, the kernel row s*A + a that a stationary or stage policy takes at each s."""
    base = np.arange(m.n_states) * m.n_actions
    if isinstance(policy, StationaryPolicy):
        return [base + policy.indices(m)] * horizon
    if isinstance(policy, StagePolicy):
        return [base + policy.rule_at(t).indices(m) for t in range(horizon)]
    return None


def _successor_table(kernel, block_rows):
    """The successor rule of every kernel row r = s*A + a, as (mass, succ).

    A row's successor under a uniform u is the first positive entry whose
    cumulative mass reaches u, else its last positive entry.  Where the
    rows have few positive entries (see :func:`_by_column`), succ[r] lists
    them in state order (then zeros), mass[r, i] is the cumulative mass
    through succ[r, i], +inf from the last one on, and the successor is
    succ[r, #{i : mass[r, i] < u}].  Otherwise succ is None and mass[r] is
    the cumulative row, -inf before its first positive entry and +inf from
    its last on, and the count #{j : mass[r, j] < u} is the successor.
    """
    K = kernel.reshape(-1, kernel.shape[-1])
    positive = K > 0.0
    n_succ = np.count_nonzero(positive, axis=1)
    width = max(int(n_succ.max()), 1)
    cum = np.cumsum(K, axis=1)
    if not _by_column(width - 1, block_rows, K.shape[1]):
        states = np.arange(K.shape[1])
        cum[states < positive.argmax(axis=1)[:, None]] = -np.inf
        cum[states >= K.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)[:, None]] = np.inf
        return cum, None
    succ = np.zeros((len(K), width), dtype=np.intp)
    # a mask fills row by row, the order in which nonzero lists the entries
    succ[np.arange(width) < n_succ[:, None]] = np.nonzero(positive)[1]
    mass = np.take_along_axis(cum, succ[:, :-1], axis=1)
    mass[np.arange(width - 1) >= n_succ[:, None] - 1] = np.inf
    return mass, succ


def _next_states(mass, succ, rows, u):
    """The successors of kernel rows ``rows`` under uniforms ``u``, by the
    rule of :func:`_successor_table`: one 1-D gather, compare and add per
    column of the table, or one compare of the gathered cumulative rows."""
    if succ is None:
        return (mass[rows] < u[..., None]).sum(axis=-1)
    flat = rows * succ.shape[1]
    for col in mass.T:
        flat += col[rows] < u
    return succ.ravel()[flat]


def rollout(m, policy, x0, horizon, seed, reps):
    """Simulate ``reps`` independent trajectories of length ``horizon``.

    ``policy`` is a StationaryPolicy, a StagePolicy, or a callable
    ``(past_pairs, current_state) -> action`` (e.g. the reconstruction hook of
    the total-reward criterion; this path loops per replication).  ``seed``
    is any integer >= 0; ``reps`` is at most 2**32, so that a replication's
    index is one 32-bit word of its stream's entropy.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    if not isinstance(horizon, numbers.Integral) or horizon < 1:
        raise ParameterError(f"horizon must be an integer >= 1, got {horizon!r}")
    if not isinstance(reps, numbers.Integral) or not 0 <= reps <= 2**32:
        raise ParameterError(f"replications must be an integer in [0, 2**32], got {reps!r}")
    m.require_valid(for_discounted=False)
    if x0 not in m.state_index:
        raise ParameterError(f"unknown initial state {x0!r}")
    beta = m.discount
    trunc = _tail_error(beta, m.reward_bound, horizon - 1)
    block = max(_MIN_BLOCK, _BLOCK_ELEMENTS // (horizon + m.n_states))
    mass, succ = _successor_table(m.kernel, min(block, reps))
    reward = m.reward.ravel()
    cost = m.cost.ravel() if m.cost is not None else None
    R = np.zeros(reps)
    C = np.zeros(reps) if cost is not None else None

    rules = _rule_rows(m, policy, horizon)
    for lo in range(0, reps, block):
        hi = min(lo + block, reps)
        U = _replication_uniforms(int(seed), lo, hi, horizon)
        if rules is not None:
            x = np.full(hi - lo, m.state_index[x0], dtype=int)
            disc = 1.0
            for rule, u in zip(rules, U):
                rows = rule[x]
                R[lo:hi] += disc * reward[rows]
                if C is not None:
                    C[lo:hi] += cost[rows]
                x = _next_states(mass, succ, rows, u)
                disc *= beta
            continue
        for i in range(lo, hi):
            s = x0
            past = []
            disc = 1.0
            for u in U[:, i - lo]:
                act = policy(past, s)
                if act not in m.admissible[s]:
                    raise PolicyError(f"hook returned {act!r}, inadmissible at state {s!r}")
                row = m.state_index[s] * m.n_actions + m.action_index[act]
                R[i] += disc * reward[row]
                if C is not None:
                    C[i] += cost[row]
                past.append((s, act))
                s = m.states[_next_states(mass, succ, row, u)]
                disc *= beta
    return RolloutBatch(seed, reps, horizon, R, C, beta, trunc)


@dataclass
class EstimateReport:
    functional: str
    point: float
    std_error: float
    replications: int
    horizon: int
    truncation_error: float


def _bootstrap_se(stats, n, seed):
    """Standard deviation of the statistic over seeded resamples of range(n).

    ``stats`` maps a (k, n) array of resampled indices, one resample per row,
    to its k statistics.  The resamples come in chunks of at most _BOOT_CHUNK
    indices, or of one resample: a (k, n) draw of ``integers`` takes the generator's words in the
    order k draws of n would, so each resample is the same in any chunking.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOT_TAG)))
    k = max(1, _BOOT_CHUNK // n)
    values = [stats(rng.integers(0, n, (min(k, _BOOT_RESAMPLES - b), n)))
              for b in range(0, _BOOT_RESAMPLES, k)]
    return float(np.concatenate(values).std(ddof=1))


def estimate(batch, functional, gamma=None, alpha=None):
    """Point estimate and standard error of a risk functional of the batch.

    Entropic and tail-mean functionals are nonlinear in the empirical law, so
    standard errors come from a seeded nonparametric bootstrap; the mean uses
    the classical formula.  Each statistic takes a chunk of resamples at
    once: the entropic one as a row-wise log-sum-exp, the tail mean over the
    samples sorted once, where a resample's law is its counts over them and
    a chunk is one weight matrix of the OCE layer.  Both figures are computed
    with overflow warnings off: an overflow reaches the caller only as the
    :class:`ParameterError` of :func:`_finite`.
    """
    if batch.replications < 100:
        raise ParameterError("need at least 100 replications to estimate")
    if functional == "entropic" and not (gamma and 0.0 < gamma < math.inf):
        raise ParameterError("entropic functional needs a finite gamma > 0")
    if functional == "cvar" and not (alpha and 0.0 < alpha < 1.0):
        raise ParameterError("cvar functional needs alpha in (0, 1)")
    if functional not in ("mean", "entropic", "cvar"):
        raise ParameterError(f"unknown functional {functional!r}")
    with np.errstate(over="ignore"):
        point, se = _point_and_se(batch, functional, gamma, alpha)
    return _finite(EstimateReport(functional, point, se, batch.replications,
                                  batch.horizon, batch.truncation_error))


def _point_and_se(batch, functional, gamma, alpha):
    """(point estimate, standard error) of :func:`estimate`."""
    samples = batch.discounted_rewards
    n = samples.size
    if functional == "mean":
        return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n))
    if functional == "entropic":
        scaled = -gamma * samples

        def stats(idx):
            return -(logsumexp(scaled[idx], axis=-1) - math.log(n)) / gamma
    else:
        # atoms above the smallest sample lo, so the tail sums round on the
        # spread of the samples rather than on their level
        order = np.argsort(samples, kind="stable")
        rank, lo, spec = np.argsort(order), samples[order[0]], UtilitySpec.cvar(alpha)
        x = samples[order] - lo

        def stats(idx):  # row r counts into bins r*n..r*n+n-1; 0.0 - keeps a zero tail +0.0
            k = idx.shape[0]
            bins = (rank[idx] + n * np.arange(k)[:, None]).ravel()
            p = np.bincount(bins, minlength=k * n).reshape(k, n) / n
            return 0.0 - lo - _oce_sorted(p, x, spec)[0]
    return float(stats(np.arange(n)[None])[0]), _bootstrap_se(stats, n, batch.seed)


def _finite(rep):
    """``rep`` if its estimate and standard error are finite; otherwise the
    samples overflowed double range (rewards near 1e300 square to inf in the
    variance), which is refused with :class:`ParameterError`."""
    if not (math.isfinite(rep.point) and math.isfinite(rep.std_error)):
        raise ParameterError(
            f"the {rep.functional} estimate overflows double range for this model "
            f"(estimate {rep.point!r}, standard error {rep.std_error!r})")
    return rep


def estimate_ergodic_entropic(m, policy, gamma, n, reps, seed, x0=None):
    """(1/(gamma n)) ln (1/m) sum_i exp(gamma C_i) over seeded rollouts.

    Consistent for the per-policy ergodic entropic cost as n grows, provided
    gamma * std(C_n) stays moderate (otherwise the log-mean-exp is dominated
    by the sample maximum and exponentially many replications are needed).
    """
    if m.cost is None:
        raise ParameterError("ergodic estimator needs a cost table")
    UtilitySpec.entropic(gamma)  # a finite gamma > 0
    batch = rollout(m, policy, x0 if x0 is not None else m.states[0], n, seed, reps)
    scaled = gamma * batch.cumulative_costs

    def stats(idx):
        return (logsumexp(scaled[idx], axis=-1) - math.log(reps)) / (gamma * n)

    return EstimateReport("ergodic_entropic", float(stats(np.arange(reps)[None])[0]),
                          _bootstrap_se(stats, reps, seed), reps, n, 0.0)
