import json

import numpy as np
import pytest

from riskmdp import fixtures
from riskmdp.errors import (
    EnumerationCapError,
    ModelFormatError,
    ModelValidationError,
    PolicyError,
)
from riskmdp.mdp import (
    FiniteMdp,
    StationaryPolicy,
    _reachability,
    analyze_chain,
    check_unichain_aperiodic,
    enumerate_policies,
    induced_chain,
    load,
    reducible_policy,
    save,
)

from conftest import random_mdp
from oracles import bfs_reachability, to_dict_loop, validate_loop


class TestValidate:
    def test_jaquette_clean(self, jaquette):
        assert jaquette.validate() == []

    def test_bad_row_sum_reported(self, jaquette):
        bad = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"2": 0.9}}, "2": {"a": {"1": 1.0}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}},
            discount=0.5)
        violations = bad.validate()
        assert len(violations) == 1
        assert "transitions[1][a]" in violations[0]

    def test_empty_admissible_reported(self):
        bad = FiniteMdp(
            states=["1"], actions=["a"], admissible={"1": []},
            transitions={}, rewards={}, discount=0.5)
        assert any("admissible[1]" in v for v in bad.validate())

    def test_negative_reward_rejected(self):
        bad = FiniteMdp(
            states=["1"], actions=["a"], admissible={"1": ["a"]},
            transitions={"1": {"a": {"1": 1.0}}},
            rewards={"1": {"a": -0.5}}, discount=0.5)
        assert any("rewards[1][a]" in v for v in bad.validate())

    def test_entries_for_inadmissible_actions_reported(self, jaquette):
        # only "a" is admissible at "2" and "3", and only b1, b2 at "1": the
        # stray entries would be dropped by to_dict, so validate names each
        obj = jaquette.to_dict()
        obj["transitions"]["2"]["b1"] = {"1": 1.0}
        obj["rewards"]["2"]["b1"] = 5.0
        obj["costs"] = {s: {a: 0.0 for a in acts} for s, acts in obj["admissible"].items()}
        obj["costs"]["1"]["a"] = 1.0
        assert FiniteMdp.from_dict(obj).validate(for_discounted=False) == [
            "transitions[2][b1]: action b1 is not admissible at state 2",
            "rewards[2][b1]: action b1 is not admissible at state 2",
            "costs[1][a]: action a is not admissible at state 1",
        ]

    @pytest.mark.parametrize("edits", [
        [("transitions", "1", "b1", "2", float("nan"))],
        [("transitions", "1", "b1", "2", float("inf")), ("transitions", "2", "a", "1", -0.5)],
        [("transitions", "1", "b2", "1", 0.3), ("transitions", "3", "a", "3", 0.25)],
        [("rewards", "1", "b2", -1.0), ("rewards", "3", "a", float("nan")),
         ("costs", "2", "a", float("-inf")), ("costs", "1", "b1", -0.0)],
        [("transitions", "2", "b1", "1", 1.0), ("rewards", "2", "b1", -5.0),
         ("costs", "1", "a", float("nan"))],
        [("admissible", "2", []), ("admissible", "1", ["b2", "b1", "b2", "b2"])],
        [("admissible", "3", ["a", "a"]), ("transitions", "3", "a", "1", 2.0),
         ("rewards", "3", "a", float("inf")), ("discount", 1.5)],
    ], ids=["nan", "inf-negative", "row-sums", "rewards-costs", "inadmissible",
            "empty-duplicate", "duplicate-mixed"])
    def test_messages_match_the_pair_loop(self, jaquette, edits):
        # the whole-table tests report what the per-(state, action) loop of
        # the oracle reports, message for message and in the same order
        obj = jaquette.to_dict()
        obj["costs"] = {s: {a: 0.5 for a in acts} for s, acts in obj["admissible"].items()}
        for *path, value in edits:
            node = obj
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
        m = FiniteMdp.from_dict(obj)
        for for_discounted in (True, False):
            want = validate_loop(m, for_discounted)
            assert want
            assert m.validate(for_discounted) == want

    def test_messages_match_the_pair_loop_on_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_mdp(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)),
                           with_costs=True, full_admissible=False)
            obj = m.to_dict()
            for table in ("transitions", "rewards", "costs"):
                s = m.states[int(rng.integers(m.n_states))]
                a = obj["admissible"][s][0]
                if table == "transitions":
                    obj[table][s][a][m.states[0]] = float(rng.choice([-0.1, 0.7, np.nan]))
                else:
                    obj[table][s][a] = float(rng.choice([-1.0, np.nan, np.inf, 0.0]))
            bad = FiniteMdp.from_dict(obj)
            assert bad.validate() == validate_loop(bad)
            assert m.validate() == validate_loop(m) == []

    def test_discount_range_only_for_discounted(self):
        m = FiniteMdp(
            states=["1"], actions=["a"], admissible={"1": ["a"]},
            transitions={"1": {"a": {"1": 1.0}}},
            rewards={"1": {"a": 0.0}}, discount=1.0)
        assert any("discount" in v for v in m.validate())
        assert m.validate(for_discounted=False) == []


class TestIo:
    def test_load_jaquette(self, tmp_path, jaquette):
        p = tmp_path / "jaquette.json"
        save(jaquette, p)
        m = load(p)
        assert m.n_states == 3
        assert m.n_actions == 3
        assert m.discount == 0.5
        assert m == jaquette

    def test_round_trip_byte_identical(self, tmp_path, jaquette):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save(jaquette, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_discount_names_pointer(self, tmp_path):
        obj = fixtures.jaquette().to_dict()
        del obj["discount"]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError) as err:
            load(p)
        assert err.value.pointer == "/discount"

    def test_unknown_state_in_kernel(self, tmp_path):
        obj = fixtures.jaquette().to_dict()
        obj["transitions"]["1"]["b1"]["99"] = 0.0
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError) as err:
            load(p)
        assert "unknown state" in str(err.value)

    def test_invalid_model_raises_on_load(self, tmp_path):
        obj = fixtures.jaquette().to_dict()
        obj["transitions"]["1"]["b1"] = {"2": 0.7, "3": 0.2}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ModelValidationError):
            load(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{nope")
        with pytest.raises(ModelFormatError):
            load(p)

    def test_canonical_form_normalizes_order_and_zeros(self, tmp_path):
        obj = fixtures.jaquette().to_dict()
        obj["admissible"]["1"] = ["b2", "b1"]          # reversed declaration
        obj["transitions"]["1"]["b1"]["1"] = 0.0       # explicit zero entry
        p1 = tmp_path / "raw.json"
        p1.write_text(json.dumps(obj))
        m = load(p1)
        assert m.admissible["1"] == ["b1", "b2"]
        assert "1" not in m.to_dict()["transitions"]["1"]["b1"]
        p2 = tmp_path / "canon.json"
        p3 = tmp_path / "canon2.json"
        save(m, p2)
        save(load(p2), p3)
        assert p2.read_bytes() == p3.read_bytes()

    def test_to_dict_text_matches_the_entry_loop(self):
        # partial admissible sets, costs, zero entries (successors=2), a
        # NaN, a -0.0 and a listed-twice action: the same text, key order
        # included, as the loop over every kernel entry
        rng = np.random.default_rng(23)
        for k in range(16):
            m = random_mdp(rng, n_states=int(rng.integers(1, 7)), n_actions=int(rng.integers(1, 4)),
                           with_costs=k % 2 == 1, full_admissible=k % 3 == 0,
                           successors=None if k % 4 else 2)
            obj = m.to_dict()
            s = m.states[-1]
            a = obj["admissible"][s][0]
            row = obj["transitions"][s][a]
            keys = list(row)
            row[keys[0]] = float("nan")
            row[keys[-1]] = -0.0  # dropped, as a zero entry of either sign
            obj["rewards"][s][a] = float("nan")
            obj["admissible"][s].append(a)
            for model in (m, FiniteMdp.from_dict(obj)):
                assert (json.dumps(model.to_dict(), indent=2)
                        == json.dumps(to_dict_loop(model), indent=2))


class TestInducedChain:
    def test_jaquette_under_f(self, jaquette):
        P, r, c = induced_chain(jaquette, fixtures.jaquette_policy("f"))
        assert np.allclose(P, [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert r.tolist() == [0.0, 0.0, 8.0]
        assert c is None

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_mdp(rng, n_states=5, n_actions=3)
            for f in enumerate_policies(m)[:8]:
                P, _, _ = induced_chain(m, f)
                assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_cycle_is_permutation(self):
        m = FiniteMdp(
            states=["1", "2", "3"], actions=["a"],
            admissible={s: ["a"] for s in "123"},
            transitions={"1": {"a": {"2": 1.0}}, "2": {"a": {"3": 1.0}},
                         "3": {"a": {"1": 1.0}}},
            rewards={s: {"a": 0.0} for s in "123"}, discount=0.5)
        P, _, _ = induced_chain(m, enumerate_policies(m)[0])
        assert np.array_equal(P, np.roll(np.eye(3), -1, axis=0).T) or np.allclose(P.sum(axis=1), 1)
        assert sorted(P.argmax(axis=1).tolist()) == [0, 1, 2]

    def test_inadmissible_policy_rejected(self, jaquette):
        with pytest.raises(PolicyError):
            induced_chain(jaquette, StationaryPolicy({"1": "a", "2": "a", "3": "a"}))


class TestChainStructure:
    def test_jaquette_policies_periodic_unichain(self, jaquette):
        chk = check_unichain_aperiodic(jaquette)
        assert chk.exhaustive
        assert len(chk.reports) == 2
        for rep in chk.reports:
            assert rep.unichain
            assert rep.irreducible
            assert rep.period == 2
            assert not rep.aperiodic
        assert len(chk.flagged) == 2  # flagged for periodicity, not reducibility
        assert chk.first_reducible() is None

    def test_self_loops_aperiodic(self):
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"1": 0.5, "2": 0.5}},
                         "2": {"a": {"1": 0.5, "2": 0.5}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}}, discount=0.5)
        rep = analyze_chain(m, enumerate_policies(m)[0])
        assert rep.unichain and rep.aperiodic and rep.period == 1

    def test_disconnected_components_flag_reducible(self):
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"1": 1.0}}, "2": {"a": {"2": 1.0}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}}, discount=0.5)
        chk = check_unichain_aperiodic(m)
        rep = chk.first_reducible()
        assert rep is not None
        assert not rep.irreducible
        assert rep.n_recurrent_classes == 2

    def test_transient_state_still_unichain(self):
        # state 1 leaks into the {2} loop and never returns
        m = FiniteMdp(
            states=["1", "2"], actions=["a"],
            admissible={"1": ["a"], "2": ["a"]},
            transitions={"1": {"a": {"2": 1.0}}, "2": {"a": {"2": 1.0}}},
            rewards={"1": {"a": 0.0}, "2": {"a": 1.0}}, discount=0.5)
        rep = analyze_chain(m, enumerate_policies(m)[0])
        assert rep.unichain and not rep.irreducible

    def test_enumeration_cap(self):
        rng = np.random.default_rng(1)
        m = random_mdp(rng, n_states=8, n_actions=4)
        with pytest.raises(EnumerationCapError) as err:
            check_unichain_aperiodic(m, cap=1000)
        assert err.value.cap == 1000
        chk = check_unichain_aperiodic(m, cap=1000, sample=16, seed=2)
        assert not chk.exhaustive
        assert len(chk.reports) == 16


def sparse_partial_mdp(rng):
    """2 to 6 states, each with a random nonempty subset of 3 actions whose
    successor supports have random sizes; about a third of these models have
    no reducible policy."""
    n = int(rng.integers(2, 7))
    states = [f"s{i}" for i in range(n)]
    actions = ["a", "b", "c"]
    admissible, transitions = {}, {}
    for s in states:
        k = int(rng.integers(1, 4))
        admissible[s] = [str(a) for a in rng.choice(actions, size=k, replace=False)]
        transitions[s] = {}
        for a in admissible[s]:
            support = rng.choice(states, size=int(rng.integers(1, n + 1)), replace=False)
            p = rng.random(support.size) + 0.1
            transitions[s][a] = {str(y): float(q) for y, q in zip(support, p / p.sum())}
    return FiniteMdp(states=states, actions=actions, admissible=admissible,
                     transitions=transitions,
                     rewards={s: {a: 0.0 for a in admissible[s]} for s in states},
                     discount=0.5)


class TestReduciblePolicy:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(2007)
        outcomes = []
        for _ in range(400):
            m = sparse_partial_mdp(rng)
            m.require_valid()
            witness = reducible_policy(m)
            every_irreducible = all(analyze_chain(m, f).irreducible
                                    for f in enumerate_policies(m))
            assert (witness is None) == every_irreducible
            if witness is not None:
                assert not analyze_chain(m, witness).irreducible
            outcomes.append(every_irreducible)
        # both answers occur often enough for the comparison to mean something
        assert min(sum(outcomes), len(outcomes) - sum(outcomes)) >= 100


class TestReachability:
    def test_long_ring_reaches_every_state(self):
        # diameter 11 is longer than the ceil(log2 12) + 2 = 6 steps that
        # adding one step per round covers; squaring covers 2^5 = 32
        n = 12
        P = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
        assert _reachability(P).all()

    def test_matches_bfs_closure(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 25))
            P = (rng.random((n, n)) < rng.uniform(0.02, 0.3)).astype(float)
            assert np.array_equal(_reachability(P), bfs_reachability(P > 0.0))


class TestPolicies:
    def test_enumerate_jaquette(self, jaquette):
        policies = enumerate_policies(jaquette)
        assert [f.choice["1"] for f in policies] == ["b1", "b2"]

    def test_full_order(self):
        rng = np.random.default_rng(2)
        m = random_mdp(rng, n_states=3, n_actions=2)
        assert len(enumerate_policies(m)) == 8


@pytest.mark.parametrize("field", ["states", "actions"])
def test_duplicate_ids_refused(field):
    obj = fixtures.jaquette().to_dict()
    obj[field] = obj[field] + obj[field][:1]
    with pytest.raises(ModelFormatError, match=f"duplicate {field[:-1]} ids"):
        FiniteMdp.from_dict(obj)
