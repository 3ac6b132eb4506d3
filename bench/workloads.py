"""The benchmark's workloads: request mix, how each request runs, and its check.

``cli_fixtures`` sends the README command mix on the bundled fixtures, one
``riskmdp`` process at a time (a closed loop with one caller).
``sparse_grid`` and ``dense_logspace`` call the solvers in this process on
the seeded models of ``models.py``.  Every request is an :class:`Op`; a pass
runs every op once, in order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

TOL = checks.SOLVER_TOL
ERGODIC_TOL = 1e-10
TRUNC_ERR = 1e-8
CVAR = {"type": "cvar", "alpha": 0.2}
MV = {"type": "mean_variance"}
ENTROPIC = {"type": "entropic", "gamma": 1.0}


class Op:
    """One request.  ``run()`` returns (ok, output text, spans of a traced child or None).

    ``ok`` is False when the request failed: it raised, or a CLI call exited
    with another code than the documented one.  ``check(text)`` returns the
    problems found in the output of a request that did not fail.
    """

    def __init__(self, name, bucket, run, check):
        self.name = name
        self.bucket = bucket
        self.run = run
        self.check = check


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# -- in-process workloads -------------------------------------------------------

# (model, criterion, parameter): a utility for the OCE criteria, gamma for the
# ergodic one, (functional, gamma, replications) for a rollout batch.
IN_PROCESS_MIX = {
    "sparse_grid": [
        ("jaquette", "risk_neutral", None),
        ("jaquette", "recursive_oce", CVAR),
        ("jaquette", "recursive_oce", MV),
        ("jaquette", "recursive_oce", ENTROPIC),
        ("jaquette", "total_oce", CVAR),
        ("jaquette", "total_oce", MV),
        ("jaquette", "total_oce", ENTROPIC),
        ("inventory_half", "risk_neutral", None),
        ("inventory_half", "recursive_oce", CVAR),
        ("inventory_half", "recursive_oce", MV),
        ("ring_small", "risk_neutral", None),
        ("ring_small", "recursive_oce", CVAR),
        ("ring_small", "recursive_oce", MV),
        ("ring_small", "total_oce", CVAR),
        ("ring_small", "ergodic_entropic", 1.0),
        *[(f"ring_wide{i}", "risk_neutral", None) for i in range(6)],
        ("ring_wide0", "recursive_oce", CVAR),
        *[(f"ring_wide{i}", "ergodic_entropic", 1.0) for i in range(6)],
        ("jaquette", "simulate", ("entropic", 1.0, 2000)),
        ("ring_small", "simulate", ("mean", None, 2000)),
        ("ring_wide0", "simulate", ("entropic", 1.0, 2000)),
    ],
    "dense_logspace": [
        ("dense_large", "risk_neutral", None),
        ("dense_large", "recursive_oce", ENTROPIC),
        ("dense_large", "total_oce", ENTROPIC),
        ("dense_large", "ergodic_entropic", 1.0),
        ("dense_large", "simulate", ("entropic", 1.0, 2000)),
        ("dense_small", "risk_neutral", None),
        ("dense_small", "recursive_oce", CVAR),
        ("dense_small", "total_oce", CVAR),
        ("dense_small", "ergodic_entropic", 1.0),
        ("dense_small", "simulate", ("mean", None, 2000)),
    ],
}


class InProcess:
    in_process = True

    def __init__(self, workload, out_dir, seed):
        self.workload = workload
        self.seed = seed
        self.model_dir = os.path.join(out_dir, "models")

    def setup(self):
        """One set-up in a fresh interpreter; (wall seconds, phase times)."""
        cmd = [sys.executable, os.path.join(HERE, "setup_child.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--out", self.model_dir]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        return wall, json.loads(proc.stdout.splitlines()[-1])

    def ops(self, traced):
        from riskmdp import augmented, ergodic, neutral, recursive, simulate
        from riskmdp.mdp import StationaryPolicy, load
        from riskmdp.oce import UtilitySpec

        with open(os.path.join(self.model_dir, "policies.json")) as fh:
            policies = json.load(fh)
        models, refs = {}, {}
        out = []
        for k, (name, criterion, param) in enumerate(IN_PROCESS_MIX[self.workload]):
            path = os.path.join(self.model_dir, f"{name}.json")
            if name not in models:
                models[name] = load(path)
                refs[name] = checks.Reference(path)
            m, ref = models[name], refs[name]
            if criterion == "risk_neutral":
                def run(m=m):
                    return neutral.value_iteration(m, tol=TOL).to_json()
            elif criterion == "recursive_oce" and param["type"] == "entropic":
                def run(m=m, g=param["gamma"]):
                    return recursive.entropic_fast_path(m, g, tol=TOL).to_json()
            elif criterion == "recursive_oce":
                def run(m=m, spec=UtilitySpec.from_json(param)):
                    return recursive.solve_recursive(m, spec, tol=TOL).to_json()
            elif criterion == "total_oce" and param["type"] == "entropic":
                def run(m=m, g=param["gamma"]):
                    return augmented.entropic_total(m, g).report().to_json()
            elif criterion == "total_oce":
                # the interpolation estimate gives the jaquette tree check its bound
                def run(m=m, spec=UtilitySpec.from_json(param), interp=name == "jaquette"):
                    return augmented.solve_total_oce(
                        m, spec, estimate_interp_error=interp).report().to_json()
            elif criterion == "ergodic_entropic":
                def run(m=m, g=param):
                    return ergodic.ergodic_rvi(m, g, tol=ERGODIC_TOL).report(g).to_json()
            else:
                functional, gamma, reps = param
                sim_seed = 1000 * self.seed + k

                def run(m=m, pol=StationaryPolicy(policies[name]), f=functional, g=gamma,
                        reps=reps, sim_seed=sim_seed):
                    x0 = m.states[0]
                    horizon = simulate.required_horizon(m, TRUNC_ERR)
                    batch = simulate.rollout(m, pol, x0, horizon, sim_seed, reps)
                    rep = simulate.estimate(batch, f, gamma=g)
                    return json.dumps({
                        "functional": rep.functional, "estimate": rep.point,
                        "std_error": rep.std_error, "replications": rep.replications,
                        "horizon": rep.horizon, "truncation_error": rep.truncation_error,
                        "seed": sim_seed})
            out.append(Op(f"{name}/{criterion}/{_label(param)}", criterion,
                          _in_process(run), ref.checker(criterion, param, policies[name])))
        return out


def _label(param):
    if isinstance(param, dict):
        return param["type"]
    if isinstance(param, tuple):
        return param[0]
    return "" if param is None else f"gamma={param}"


def _in_process(fn):
    def run():
        try:
            return True, fn(), None
        except Exception as exc:  # a failed request is counted, the run goes on
            return False, repr(exc), None
    return run


# -- CLI workload ---------------------------------------------------------------


class CliFixtures:
    in_process = False

    def __init__(self, out_dir, seed):
        self.seed = seed
        self.out_dir = out_dir
        self.model_dir = os.path.join(out_dir, "models")

    def setup(self):
        """``riskmdp fixtures export``, timed from spawn to exit."""
        cmd = [sys.executable, "-m", "riskmdp.cli", "fixtures", "export", "--dir", self.model_dir]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"fixtures export failed:\n{proc.stderr}")
        return wall, {}

    def ops(self, traced):
        d = self.model_dir
        jaq, inv, toy = (os.path.join(d, f"{n}.json")
                         for n in ("jaquette", "invariant_model", "inventory_toy"))
        nan_path = os.path.join(d, "jaquette_nan.json")
        with open(jaq) as fh:
            obj = json.load(fh)
        obj["transitions"]["1"]["b1"]["2"] = float("nan")
        with open(nan_path, "w") as fh:
            json.dump(obj, fh)
        refs = {p: checks.Reference(p) for p in (jaq, inv, toy)}
        cvar = json.dumps(CVAR)
        total_cfg = json.dumps({"criterion": "total_oce", "utility": ENTROPIC})
        sim_seed = str(self.seed)
        csv = os.path.join(self.out_dir, "rows.csv")
        # (argv, documented exit code, metric bucket, check); every bucket
        # gets at least two calls, so no metric is one short call
        f_choice = {"1": "b1", "2": "a", "3": "a"}
        g_choice = {"1": "b2", "2": "a", "3": "a"}
        mix = [
            (["validate", "--model", jaq], 0, None, _text_is("ok\n")),
            (["solve", "--model", jaq, "--criterion", "risk_neutral"], 0, "risk_neutral",
             refs[jaq].checker("risk_neutral", None)),
            (["solve", "--model", toy, "--criterion", "risk_neutral"], 0, "risk_neutral",
             refs[toy].checker("risk_neutral", None)),
            (["solve", "--model", jaq, "--criterion", "recursive_oce", "--gamma", "1.0"], 0,
             "recursive_oce", refs[jaq].checker("recursive_oce", ENTROPIC)),
            (["solve", "--model", toy, "--criterion", "recursive_oce", "--utility", cvar], 0,
             "recursive_oce", refs[toy].checker("recursive_oce", CVAR)),
            (["solve", "--model", jaq, "--criterion", "total_oce", "--gamma", "1.0"], 0,
             "total_oce", refs[jaq].checker("total_oce", ENTROPIC)),
            (["solve", "--model", jaq, "--criterion", "total_oce", "--utility", cvar,
              "--y-step", "0.02"], 0, "total_oce", refs[jaq].checker("total_oce", CVAR)),
            (["solve", "--model", jaq, "--config", total_cfg], 0, "total_oce",
             refs[jaq].checker("total_oce", ENTROPIC)),
            (["solve", "--model", inv, "--criterion", "ergodic_entropic", "--gamma", "1.0"], 0,
             "ergodic_entropic", refs[inv].checker("ergodic_entropic", 1.0)),
            (["solve", "--model", inv, "--criterion", "ergodic_entropic", "--gamma", "0.5"], 0,
             "ergodic_entropic", refs[inv].checker("ergodic_entropic", 0.5)),
            (["compare", "--model", jaq, "--criteria", "risk_neutral,recursive_oce,total_oce",
              "--gamma", "1.0"], 0, None, refs[jaq].compare_checker(ENTROPIC)),
            (["simulate", "--model", jaq, "--policy", "fixture:jaquette.f", "--functional",
              "entropic", "--gamma", "1.0", "--reps", "10000", "--seed", sim_seed, "--csv", csv],
             0, "simulate", refs[jaq].checker("simulate", ("entropic", 1.0, 10000), f_choice)),
            (["simulate", "--model", jaq, "--policy", "fixture:jaquette.g", "--functional",
              "mean", "--reps", "10000", "--seed", sim_seed], 0, "simulate",
             refs[jaq].checker("simulate", ("mean", None, 10000), g_choice)),
            # a NaN transition probability must fail validation (exit 1)
            (["validate", "--model", nan_path], 1, None, lambda text: []),
        ]
        spans_path = os.path.join(self.out_dir, "cli_spans.json")
        out = []
        for argv, code, bucket, check in mix:
            name = " ".join(os.path.basename(a) if a.startswith(self.out_dir) else a for a in argv)
            out.append(Op(name, bucket,
                          _cli_run(argv, code, spans_path if traced else None), check))
        return out


def _text_is(expected):
    def check(text):
        return [] if text == expected else [f"output {text!r}, expected {expected!r}"]
    return check


def _cli_run(argv, code, spans_path):
    if spans_path is None:
        cmd = [sys.executable, "-m", "riskmdp.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv]

    def run():
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
        spans = None
        if spans_path is not None:
            with open(spans_path) as fh:
                spans = json.load(fh)
        if proc.returncode != code:
            return False, f"exit {proc.returncode}, expected {code}: {proc.stdout}{proc.stderr}", spans
        return True, proc.stdout, spans
    return run


def make(workload, out_dir, seed):
    if workload == "cli_fixtures":
        return CliFixtures(out_dir, seed)
    return InProcess(workload, out_dir, seed)


WORKLOADS = ("cli_fixtures", "sparse_grid", "dense_logspace")
