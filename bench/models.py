"""Seeded model generators of the benchmark.

Every model a workload solves is made here from the workload seed and written
as a riskmdp model file; the solvers only ever see those files.  Rewards are
scaled so that their maximum is exactly 1, which pins the reward bound d and
with it the z-level count, the y grid and the rollout horizon: the amount of
work per solve then barely depends on the seed.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed, tag):
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag)))


def model_dict(K, R, C, beta):
    """riskmdp model JSON object from dense arrays; zero probabilities dropped."""
    S, A, _ = K.shape
    states = [f"s{i}" for i in range(S)]
    actions = [f"a{j}" for j in range(A)]
    out = {
        "states": states,
        "actions": actions,
        "admissible": {s: list(actions) for s in states},
        "transitions": {
            s: {a: {y: float(K[i, j, k]) for k, y in enumerate(states) if K[i, j, k] > 0.0}
                for j, a in enumerate(actions)}
            for i, s in enumerate(states)},
        "rewards": {s: {a: float(R[i, j]) for j, a in enumerate(actions)}
                    for i, s in enumerate(states)},
        "discount": float(beta),
    }
    if C is not None:
        out["costs"] = {s: {a: float(C[i, j]) for j, a in enumerate(actions)}
                        for i, s in enumerate(states)}
    return out


def ring_chain(rng, n_states, n_actions, beta):
    """Sparse chain: each row has a self-loop, a ring edge and an edge across.

    The ring edge makes every policy's chain irreducible and the self-loop
    makes it aperiodic, so the ergodic precheck passes for every seed.  The
    fixed cross edge (to the opposite state) and weights in [0.5, 1] keep the
    mixing rate, and with it the solvers' iteration counts, close across seeds.
    """
    S, A = n_states, n_actions
    K = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            w = rng.uniform(0.5, 1.0, 3)
            K[s, a, s] += w[0]
            K[s, a, (s + 1) % S] += w[1]
            K[s, a, (s + S // 2) % S] += w[2]
            K[s, a] /= K[s, a].sum()
    R = rng.random((S, A))
    R /= R.max()
    C = rng.random((S, A))
    return model_dict(K, R, C, beta)


def dense_model(rng, n_states, n_actions, beta):
    """Dense chain: every successor has probability at least ~0.05 / S."""
    S, A = n_states, n_actions
    K = rng.random((S, A, S)) + 0.05
    K /= K.sum(axis=2, keepdims=True)
    R = rng.random((S, A))
    R /= R.max()
    C = rng.random((S, A))
    return model_dict(K, R, C, beta)


def random_policy(rng, model):
    """A seeded stationary policy (state id -> action id) for the rollouts."""
    return {s: model["admissible"][s][int(rng.integers(len(model["admissible"][s])))]
            for s in model["states"]}


# Model make-up of each in-process workload: name -> (kind, states, actions, beta).
# Fixtures are taken from riskmdp.fixtures; ``inventory_half`` is inventory_toy
# at discount 0.5 (the fixture's 0.9 gives 219 z-levels and a ~90 s solve).
WORKLOAD_MODELS = {
    "sparse_grid": {
        "jaquette": ("fixture", None, None, None),
        "inventory_half": ("inventory", None, None, 0.5),
        "ring_small": ("ring", 4, 2, 0.7),
        # six of them, so that the seed-to-seed spread of RVI iteration
        # counts averages out in solve_s.ergodic_entropic
        **{f"ring_wide{i}": ("ring", 6, 5, 0.7) for i in range(6)},
    },
    "dense_logspace": {
        "dense_large": ("dense", 150, 4, 0.95),
        "dense_small": ("dense", 4, 2, 0.5),
    },
}


def build(workload, seed):
    """name -> model JSON object, plus name -> rollout policy, for one workload."""
    from riskmdp import fixtures

    models = {}
    policies = {}
    for tag, (name, (kind, S, A, beta)) in enumerate(WORKLOAD_MODELS[workload].items()):
        rng = rng_for(seed, tag)
        if kind == "fixture":
            models[name] = fixtures.FIXTURES[name]().to_dict()
        elif kind == "inventory":
            models[name] = fixtures.inventory_toy(discount=beta).to_dict()
        elif kind == "ring":
            models[name] = ring_chain(rng, S, A, beta)
        else:
            models[name] = dense_model(rng, S, A, beta)
        policies[name] = random_policy(rng, models[name])
    return models, policies
