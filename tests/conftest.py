import numpy as np
import pytest
from hypothesis import settings

from riskmdp import fixtures
from riskmdp.mdp import FiniteMdp
from riskmdp.oce import DiscreteDistribution

# property tests assert mathematically universal statements; pin the example
# stream so repeated suite runs are reproducible
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def jaquette():
    return fixtures.jaquette()


@pytest.fixture
def invariant_model():
    return fixtures.invariant_model()


def random_mdp(rng, n_states=4, n_actions=2, beta=0.9, reward_scale=1.0,
               min_prob=0.05, with_costs=False, full_admissible=True, successors=None):
    """Random dense model; min_prob > 0 makes every chain irreducible and
    aperiodic, so average-criterion preconditions hold by construction.
    With ``successors`` = k each row instead puts its mass on k random
    states, with no min_prob floor."""
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"a{j}" for j in range(n_actions)]
    admissible = {}
    transitions = {}
    rewards = {}
    costs = {}
    for s in states:
        if full_admissible or rng.random() < 0.5:
            acts = actions
        else:
            k = int(rng.integers(1, n_actions + 1))
            acts = actions[:k]
        admissible[s] = list(acts)
        transitions[s] = {}
        rewards[s] = {}
        costs[s] = {}
        for a in acts:
            raw = rng.random(n_states) + 1e-3
            if successors is None:
                row = (1.0 - min_prob) * raw / raw.sum() + min_prob / n_states
            else:
                raw[rng.permutation(n_states)[successors:]] = 0.0
                row = raw / raw.sum()
            row = row / row.sum()
            transitions[s][a] = {y: float(p) for y, p in zip(states, row)}
            rewards[s][a] = float(reward_scale * rng.random())
            costs[s][a] = float(reward_scale * rng.random())
    return FiniteMdp(
        states=states, actions=actions, admissible=admissible,
        transitions=transitions, rewards=rewards,
        costs=costs if with_costs else None, discount=beta)


def random_distribution(rng, max_atoms=8, spread=10.0):
    n = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(-spread, spread, n)
    probs = rng.random(n) + 1e-3
    probs = probs / probs.sum()
    return DiscreteDistribution(values, probs)
