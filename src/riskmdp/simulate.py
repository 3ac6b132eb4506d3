"""Seeded Monte-Carlo rollouts and risk-functional estimators.

This is the independent verification side of every analytic solver: rollouts
realize the controlled chain, estimators evaluate mean / entropic / tail-mean
functionals of the discounted reward (or the ergodic entropic growth rate of
the cumulative cost) with bootstrap standard errors.

Determinism contract: replication i draws its uniforms from NumPy's PCG64
generator seeded with SeedSequence((seed, i)), so a batch is bit-identical for
a fixed (seed, model, policy, horizon, replications) regardless of execution
order, and replications can run in parallel without changing results.

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
    """Smallest h >= 1 with beta^h d/(1-beta) <= truncation_error."""
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
    """Rows lo..hi-1 of the (reps, horizon) uniforms, one stream per replication.

    Row i equals np.random.default_rng(np.random.SeedSequence((seed, i)))
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
    U = np.empty((hi - lo, horizon))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for row, (s0, s1, q0, q1) in enumerate(zip(*(w.tolist() for w in words))):
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        gen.random(horizon, out=U[row])
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
    U = np.empty((lo.size, horizon))
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
            U[:, t] = (x >> rot | x << (-rot & _U63)) >> _S11
    U *= 2.0**-53
    return U


def _rule_indices(m, policy, horizon):
    """Per-step action-index arrays for stationary or stage policies."""
    if isinstance(policy, StationaryPolicy):
        idx = policy.indices(m)
        return [idx] * horizon
    if isinstance(policy, StagePolicy):
        return [policy.rule_at(t).indices(m) for t in range(horizon)]
    return None


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
    cum = np.cumsum(m.kernel, axis=2)
    R = np.zeros(reps)
    C = np.zeros(reps) if m.cost is not None else None

    rules = _rule_indices(m, policy, horizon)
    block = max(_MIN_BLOCK, _BLOCK_ELEMENTS // (horizon + m.n_states))
    for lo in range(0, reps, block):
        hi = min(lo + block, reps)
        U = _replication_uniforms(int(seed), lo, hi, horizon)
        if rules is not None:
            x = np.full(hi - lo, m.state_index[x0], dtype=int)
            disc = 1.0
            for t in range(horizon):
                a = rules[t][x]
                R[lo:hi] += disc * m.reward[x, a]
                if C is not None:
                    C[lo:hi] += m.cost[x, a]
                rows = cum[x, a, :]
                x = np.minimum((rows < U[:, t][:, None]).sum(axis=1), m.n_states - 1)
                disc *= beta
            continue
        for i in range(lo, hi):
            s = x0
            past = []
            disc = 1.0
            for t in range(horizon):
                act = policy(past, s)
                if act not in m.admissible[s]:
                    raise PolicyError(f"hook returned {act!r}, inadmissible at state {s!r}")
                si, ai = m.state_index[s], m.action_index[act]
                R[i] += disc * m.reward[si, ai]
                if C is not None:
                    C[i] += m.cost[si, ai]
                y = int(np.minimum((cum[si, ai] < U[i - lo, t]).sum(), m.n_states - 1))
                past.append((s, act))
                s = m.states[y]
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
    a chunk is one weight matrix of the OCE layer.
    """
    if batch.replications < 100:
        raise ParameterError("need at least 100 replications to estimate")
    samples = batch.discounted_rewards
    n = samples.size
    if functional == "entropic" and not (gamma and 0.0 < gamma < math.inf):
        raise ParameterError("entropic functional needs a finite gamma > 0")
    if functional == "cvar" and not (alpha and 0.0 < alpha < 1.0):
        raise ParameterError("cvar functional needs alpha in (0, 1)")
    if functional == "mean":
        point, se = float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n))
        return EstimateReport(functional, point, se, batch.replications,
                              batch.horizon, batch.truncation_error)
    if functional == "entropic":
        scaled = -gamma * samples

        def stats(idx):
            return -(logsumexp(scaled[idx], axis=-1) - math.log(n)) / gamma
    elif functional == "cvar":
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
    else:
        raise ParameterError(f"unknown functional {functional!r}")
    return EstimateReport(functional, float(stats(np.arange(n)[None])[0]),
                          _bootstrap_se(stats, n, batch.seed),
                          batch.replications, batch.horizon, batch.truncation_error)


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
