"""Self-test of the benchmark's checks: each accepts a correct result and
rejects a perturbed one.

    python3 bench/selftest.py        # exit 0 when every case holds

Correct results come from riskmdp on small models (the jaquette and
invariant fixtures, a seeded ring chain); each perturbation is one a faulty
solver could produce: a shifted value, a changed action, a shifted estimate,
a non-finite number in the JSON.
"""

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import models  # noqa: E402
from riskmdp import augmented, cli, ergodic, fixtures, neutral, recursive, simulate  # noqa: E402
from riskmdp.mdp import FiniteMdp, StationaryPolicy, save  # noqa: E402
from riskmdp.oce import UtilitySpec  # noqa: E402

CVAR = {"type": "cvar", "alpha": 0.2}
MV = {"type": "mean_variance"}
ENTROPIC = {"type": "entropic", "gamma": 1.0}


def shifted(rep, state, by):
    out = copy.deepcopy(rep)
    out["value"][state] += by
    return out


def with_action(rep, state, action):
    out = copy.deepcopy(rep)
    out["policy"][state] = action
    return out


def other_action(ref, state, action):
    m = ref.model
    row = m.mask[m.states.index(state)]
    return next(a for j, a in enumerate(m.actions) if row[j] and a != action)


def cases(tmp):
    paths = {}
    for name, m in (("jaquette", fixtures.jaquette()),
                    ("invariant_model", fixtures.invariant_model()),
                    ("ring", FiniteMdp.from_dict(
                        models.ring_chain(models.rng_for(5, 0), 4, 2, 0.7)))):
        paths[name] = os.path.join(tmp, f"{name}.json")
        save(m, paths[name])
    refs = {name: checks.Reference(p) for name, p in paths.items()}
    jaq = fixtures.jaquette()
    ring = FiniteMdp.from_dict(models.ring_chain(models.rng_for(5, 0), 4, 2, 0.7))
    tol = checks.SOLVER_TOL

    rep = json.loads(neutral.value_iteration(ring, tol=tol).to_json())
    check = refs["ring"].checker("risk_neutral", None)
    s0 = ring.states[0]
    yield "risk-neutral", check, rep, [
        ("value +1e-6", shifted(rep, s0, 1e-6)),
        ("other action", with_action(rep, s0, other_action(refs["ring"], s0, rep["policy"][s0]))),
    ]

    for util in (ENTROPIC, CVAR, MV):
        spec = UtilitySpec.from_json(util)
        rep = json.loads(recursive.solve_recursive(ring, spec, tol=tol).to_json())
        check = refs["ring"].checker("recursive_oce", util)
        yield f"recursive {util['type']}", check, rep, [
            ("value +1e-6", shifted(rep, s0, 1e-6)),
            ("other action",
             with_action(rep, s0, other_action(refs["ring"], s0, rep["policy"][s0]))),
        ]

    rep = json.loads(augmented.entropic_total(jaq, 1.0).report().to_json())
    check = refs["jaquette"].checker("total_oce", ENTROPIC)
    bad_stage = copy.deepcopy(rep)
    bad_stage["stage_policy"][2]["1"] = "b2"
    above = copy.deepcopy(rep)
    above["value"]["2"] = 10.0
    yield "total entropic (MGF product, stage policy)", check, rep, [
        ("value +1e-6", shifted(rep, "1", 1e-6)),
        ("stage-2 action changed", bad_stage),
        ("value above the risk-neutral optimum", above),
    ]

    rep = json.loads(augmented.solve_total_oce(
        jaq, UtilitySpec.cvar(0.2), estimate_interp_error=True).report().to_json())
    check = refs["jaquette"].checker("total_oce", CVAR)
    yield "total cvar (tree)", check, rep, [
        ("value +0.04, above the tree", shifted(rep, "1", 0.04)),
        ("value -0.2", shifted(rep, "1", -0.2)),
    ]

    inv = fixtures.invariant_model()
    rep = json.loads(ergodic.ergodic_rvi(inv, 1.0, tol=1e-10).report(1.0).to_json())
    check = refs["invariant_model"].checker("ergodic_entropic", 1.0)
    gain = copy.deepcopy(rep)
    gain["gain"] += 1e-6
    bias = copy.deepcopy(rep)
    bias["bias"]["s1"] += 1e-3
    yield "ergodic", check, rep, [("gain +1e-6", gain), ("bias +1e-3", bias)]

    choice = {"1": "b1", "2": "a", "3": "a"}
    batch = simulate.rollout(jaq, StationaryPolicy(choice), "1",
                             simulate.required_horizon(jaq, 1e-8), 3, 4000)
    est = simulate.estimate(batch, "entropic", gamma=1.0)
    rep = {"estimate": est.point, "std_error": est.std_error, "horizon": est.horizon,
           "truncation_error": est.truncation_error}
    check = refs["jaquette"].checker("simulate", ("entropic", 1.0, 4000), choice)
    far = dict(rep, estimate=rep["estimate"] + 10 * rep["std_error"])
    yield "simulate", check, rep, [("estimate +10 se", far)]

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["compare", "--model", paths["jaquette"], "--criteria",
                  "risk_neutral,recursive_oce,total_oce", "--gamma", "1.0"])
    table = json.loads(out.getvalue())
    bad_row = copy.deepcopy(table)
    bad_row["rows"][1]["value"] += 1e-6
    yield "compare", refs["jaquette"].compare_checker(ENTROPIC), table, [
        ("recursive row +1e-6", bad_row)]

    rep = json.loads(neutral.value_iteration(jaq, tol=tol).to_json())
    yield "strict JSON", refs["jaquette"].checker("risk_neutral", None), rep, [
        ("NaN value", json.dumps(shifted(rep, "1", float("nan")))),
    ]


def main():
    failures = 0
    tmp = os.path.join(os.path.dirname(HERE), ".bench_out", "selftest")
    os.makedirs(tmp, exist_ok=True)
    for name, check, good, bads in cases(tmp):
        problems = check(json.dumps(good))
        failures += bool(problems)
        status = "ok" if not problems else f"FAIL: rejects the correct result: {problems}"
        print(f"{name}: correct result -> {status}")
        for label, bad in bads:
            rejected = check(bad if isinstance(bad, str) else json.dumps(bad))
            failures += not rejected
            print(f"{name}: {label} -> "
                  f"{'rejected: ' + rejected[0] if rejected else 'FAIL: accepted'}")
    print("selftest:", "all checks behave" if not failures else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
