import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from riskmdp import fixtures
from riskmdp.cli import _policy_from_source, main
from riskmdp.mdp import save
from riskmdp.simulate import rollout


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "jaquette.json"
    save(fixtures.jaquette(), p)
    return str(p)


@pytest.fixture
def invariant_path(tmp_path):
    p = tmp_path / "invariant.json"
    save(fixtures.invariant_model(), p)
    return str(p)


@pytest.fixture
def nan_model_path(tmp_path, model_path):
    obj = json.load(open(model_path))
    obj["transitions"]["1"]["b1"]["2"] = float("nan")
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_clean_model(self, capsys, model_path):
        code, out, _ = run(capsys, ["validate", "--model", model_path])
        assert code == 0
        assert "ok" in out

    def test_corrupted_row(self, capsys, tmp_path, model_path):
        obj = json.load(open(model_path))
        obj["transitions"]["1"]["b1"] = {"2": 0.7, "3": 0.2}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["validate", "--model", str(bad)])
        assert code == 1
        assert "transitions[1][b1]" in out

    def test_nan_probability(self, capsys, nan_model_path):
        code, out, _ = run(capsys, ["validate", "--model", nan_model_path])
        assert code == 1
        assert "transitions[1][b1]" in out

    def test_entry_for_inadmissible_action(self, capsys, tmp_path, model_path):
        obj = json.load(open(model_path))
        obj["transitions"]["2"]["b1"] = {"1": 1.0}
        obj["rewards"]["2"]["b1"] = 5.0
        bad = tmp_path / "stray.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["validate", "--model", str(bad)])
        assert code == 1
        assert out.splitlines() == [
            "transitions[2][b1]: action b1 is not admissible at state 2",
            "rewards[2][b1]: action b1 is not admissible at state 2",
        ]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["validate", "--model", "/nope/missing.json"])
        assert code == 2

    @pytest.mark.parametrize("edit, want", [
        (lambda o: o["admissible"]["s0"].append("a"), "admissible[s0]: duplicate action a"),
        (lambda o: o["transitions"]["s0"]["a"].update({"s0": 1.5, "s1": -0.5}),
         "transitions[s0][a]: negative probability"),
        (lambda o: o["costs"]["s1"].update({"a": -1.0}),
         "costs[s1][a]: must be finite and >= 0, got -1.0"),
    ])
    def test_violation_message(self, capsys, tmp_path, invariant_path, edit, want):
        obj = json.load(open(invariant_path))
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["validate", "--model", str(bad)])
        assert (code, out.splitlines()) == (1, [want])


class TestSolve:
    def test_risk_neutral(self, capsys, model_path):
        code, out, _ = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "risk_neutral"])
        assert code == 0
        rep = json.loads(out)
        assert rep["value"]["1"] == pytest.approx(8.0 / 3.0, abs=1e-8)
        assert rep["policy"]["1"] == "b1"

    def test_recursive_entropic(self, capsys, model_path):
        code, out, _ = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "recursive_oce", "--gamma", "1.0"])
        rep = json.loads(out)
        assert code == 0
        assert rep["value"]["1"] == pytest.approx(1.4035488, abs=1e-5)
        assert rep["policy"]["1"] == "b2"

    def test_total_entropic_stage_policy(self, capsys, model_path):
        code, out, _ = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "total_oce", "--gamma", "1.0"])
        rep = json.loads(out)
        assert code == 0
        stage_actions = [rule["1"] for rule in rep["stage_policy"]]
        assert stage_actions[0] == "b2"
        assert all(a == "b1" for a in stage_actions[2:])

    def test_total_cvar_generic_path(self, capsys, model_path):
        code, out, _ = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "total_oce",
                                    "--utility", '{"type":"cvar","alpha":0.4}',
                                    "--y-step", "0.08"])
        rep = json.loads(out)
        assert code == 0
        assert "eta_star" in rep and "sandwich_width" in rep and "n_trunc" in rep

    @pytest.mark.parametrize("flags", [
        ["--alpha", "0.2", "--tail-eps", "-1"],
        ["--alpha", "0.2", "--tail-eps", "0"],
        ["--alpha", "0.2", "--tail-eps", "nan"],
        ["--alpha", "0.2", "--y-step", "-0.1"],
        ["--alpha", "0.2", "--y-step", "0"],
        ["--alpha", "0.2", "--y-step", "nan"],
        ["--alpha", "0.2", "--y-step", "inf"],
        ["--alpha", "0.2", "--y-step", "1e-300"],
        ["--gamma", "1.0", "--tail-eps", "-1"],
        ["--gamma", "1.0", "--tail-eps", "0"],
    ])
    def test_bad_grid_parameter(self, capsys, model_path, flags):
        # no default stands in for a given value, and no traceback for a bad one
        code, out, err = run(capsys, ["solve", "--model", model_path,
                                      "--criterion", "total_oce", *flags])
        assert code == 4
        assert out == "" and err.startswith("error: ")

    def test_entropic_total_reads_tail_eps(self, capsys, model_path):
        depth = {}
        for tail_eps in ("1e-3", "1e-8"):
            code, out, _ = run(capsys, ["solve", "--model", model_path,
                                        "--criterion", "total_oce", "--gamma", "1.0",
                                        "--tail-eps", tail_eps])
            assert code == 0
            depth[tail_eps] = json.loads(out)["n_trunc"]
        # the smallest N with (1/2)^N 8 / (1 - 1/2) <= tail_eps
        assert depth == {"1e-3": 14, "1e-8": 31}

    def test_nan_model_rejected_before_solving(self, capsys, nan_model_path):
        code, _, err = run(capsys, ["solve", "--model", nan_model_path,
                                    "--criterion", "risk_neutral"])
        assert code == 1
        assert "transitions[1][b1]" in err

    def test_total_mean_variance_inventory(self, capsys, tmp_path):
        p = tmp_path / "inventory_toy.json"
        save(fixtures.inventory_toy(), p)
        code, out, _ = run(capsys, ["solve", "--model", str(p),
                                    "--criterion", "total_oce",
                                    "--utility", '{"type":"mean_variance"}'])
        assert code == 0
        rep = json.loads(out)
        assert rep["iterations"] == rep["n_trunc"] + 1
        assert rep["sandwich_width"] == 0.0

    def test_ergodic(self, capsys, invariant_path):
        code, out, _ = run(capsys, ["solve", "--model", invariant_path,
                                    "--criterion", "ergodic_entropic", "--gamma", "1.0"])
        rep = json.loads(out)
        assert code == 0
        assert rep["gain"] == pytest.approx(0.6201145, abs=1e-6)
        assert "rho" in rep and "bias" in rep

    def test_ergodic_rho_overflow_reported_as_null(self, invariant_path):
        # e^{gamma xi} overflows at gamma = 1000: stdout must stay strict JSON
        # and the run must print no overflow warning
        def non_finite(name):
            raise ValueError(f"non-finite constant {name} in the report")

        proc = subprocess.run(
            [sys.executable, "-m", "riskmdp.cli", "solve", "--model", invariant_path,
             "--criterion", "ergodic_entropic", "--gamma", "1000"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        rep = json.loads(proc.stdout, parse_constant=non_finite)
        assert rep["rho"] is None
        assert rep["gain"] == pytest.approx(1.0 - math.log(2.0) / 1000.0, abs=1e-12)

    def test_ergodic_overflow_fails_fast(self, invariant_path):
        # at gamma = 1e308 the log sweep overflows and the iterate turns NaN:
        # the run must stop at once with exit 3, not spin 10^6 iterations
        proc = subprocess.run(
            [sys.executable, "-m", "riskmdp.cli", "solve", "--model", invariant_path,
             "--criterion", "ergodic_entropic", "--gamma", "1e308"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3
        assert "non-finite iterate" in proc.stderr

    def test_ergodic_bad_tolerance_is_a_parameter_error(self, capsys, invariant_path):
        code, out, err = run(capsys, ["solve", "--model", invariant_path,
                                      "--criterion", "ergodic_entropic", "--gamma", "1.0",
                                      "--tol", "-1"])
        assert code == 4
        assert out == ""
        assert "tolerance" in err

    def test_ergodic_needs_gamma(self, capsys, invariant_path):
        code, _, err = run(capsys, ["solve", "--model", invariant_path,
                                    "--criterion", "ergodic_entropic"])
        assert code == 4

    def test_ergodic_needs_costs(self, capsys, model_path):
        code, _, err = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "ergodic_entropic", "--gamma", "1.0"])
        assert code == 4

    def test_deterministic_output(self, capsys, model_path):
        _, out1, _ = run(capsys, ["solve", "--model", model_path,
                                  "--criterion", "recursive_oce", "--gamma", "1.0"])
        _, out2, _ = run(capsys, ["solve", "--model", model_path,
                                  "--criterion", "recursive_oce", "--gamma", "1.0"])
        assert out1 == out2

    def test_threads_flag_does_not_change_output(self, capsys, model_path):
        _, out1, _ = run(capsys, ["solve", "--model", model_path,
                                  "--criterion", "risk_neutral", "--threads", "1"])
        _, out2, _ = run(capsys, ["solve", "--model", model_path,
                                  "--criterion", "risk_neutral", "--threads", "4"])
        assert out1 == out2

    def test_criterion_config_json(self, capsys, model_path):
        cfg = json.dumps({"criterion": "recursive_oce",
                          "utility": {"type": "entropic", "gamma": 1.0}})
        code, out, _ = run(capsys, ["solve", "--model", model_path, "--config", cfg])
        assert code == 0
        rep = json.loads(out)
        assert rep["criterion"] == "recursive_oce"
        assert rep["value"]["1"] == pytest.approx(1.4035488, abs=1e-5)

    def test_total_config_with_grid(self, capsys, model_path):
        cfg = json.dumps({"criterion": "total_oce",
                          "utility": {"type": "cvar", "alpha": 0.4},
                          "grid": {"y_step": 0.08, "tail_eps": 1e-6}})
        code, out, _ = run(capsys, ["solve", "--model", model_path, "--config", cfg])
        assert code == 0
        assert json.loads(out)["y_step"] == 0.08

    def test_missing_criterion_everywhere(self, capsys, model_path):
        code, _, err = run(capsys, ["solve", "--model", model_path])
        assert code == 2

    def test_tsv_format(self, capsys, model_path):
        code, out, _ = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "risk_neutral", "--format", "tsv"])
        assert code == 0
        assert out.startswith("state\tvalue\taction")

    def test_tsv_scalar_extras(self, capsys, invariant_path):
        # each scalar extra is one "# key=repr" line; dicts (bias) are left out
        argv = ["solve", "--model", invariant_path, "--criterion", "ergodic_entropic",
                "--gamma", "1.0"]
        code, out, _ = run(capsys, argv)
        rep = json.loads(out)
        code, out, _ = run(capsys, [*argv, "--format", "tsv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["state\tvalue\taction",
                             f"s0\t{rep['value']['s0']!r}\ta", f"s1\t{rep['value']['s1']!r}\ta"]
        assert lines[4:] == [f"# {k}={rep[k]!r}" for k in ("gain", "rho", "gamma", "safeguarded")]

    def test_out_file(self, tmp_path, capsys, model_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["solve", "--model", model_path,
                                    "--criterion", "risk_neutral", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["criterion"] == "risk_neutral"


class TestCompare:
    def test_three_rows(self, capsys, model_path):
        code, out, _ = run(capsys, ["compare", "--model", model_path,
                                    "--criteria", "risk_neutral,recursive_oce,total_oce",
                                    "--gamma", "1.0"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["criterion"] for r in rows] == ["risk_neutral", "recursive_oce", "total_oce"]
        assert rows[0]["value"] == pytest.approx(8.0 / 3.0, abs=1e-8)
        assert rows[1]["value"] == pytest.approx(1.4035488, abs=1e-5)
        assert rows[2]["value"] == pytest.approx(1.6415667, abs=1e-5)
        assert [r["stage0_action"] for r in rows] == ["b1", "b2", "b2"]

    def test_duplicates_dropped(self, capsys, model_path):
        code, out, _ = run(capsys, ["compare", "--model", model_path,
                                    "--criteria", "risk_neutral,risk_neutral"])
        rows = json.loads(out)["rows"]
        assert len(rows) == 1

    def test_empty_criteria_usage_error(self, capsys, model_path):
        code, _, err = run(capsys, ["compare", "--model", model_path,
                                    "--criteria", ","])
        assert code == 2

    def test_unknown_criterion(self, capsys, model_path):
        code, _, err = run(capsys, ["compare", "--model", model_path,
                                    "--criteria", "maximax"])
        assert code == 4

    def test_tsv_rows(self, capsys, model_path):
        argv = ["compare", "--model", model_path, "--criteria", "risk_neutral,recursive_oce"]
        code, out, _ = run(capsys, argv)
        rows = json.loads(out)["rows"]
        code, out, _ = run(capsys, [*argv, "--format", "tsv"])
        assert code == 0
        assert out.splitlines() == ["criterion\tvalue\tstage0_action"] + [
            f"{r['criterion']}\t{r['value']!r}\t{r['stage0_action']}" for r in rows]

    @pytest.mark.parametrize("x0, want", [("1", "order2"), ("2", "order1")])
    def test_total_oce_stage0_action_at_x0(self, capsys, tmp_path, x0, want):
        # the stage rules of a total-OCE report are realised from its initial
        # state, so the row at x0 reads the solve from x0
        from riskmdp.augmented import solve_total_oce
        from riskmdp.oce import UtilitySpec
        m = fixtures.inventory_toy()
        path = tmp_path / "inventory.json"
        save(m, path)
        code, out, _ = run(capsys, ["compare", "--model", str(path), "--criteria", "total_oce",
                                    "--utility", '{"type": "cvar", "alpha": 0.2}',
                                    "--x0", x0, "--format", "tsv"])
        assert code == 0
        sol = solve_total_oce(m, UtilitySpec.cvar(0.2), x0=x0)
        assert sol.stage_policy.stages[0].action(x0) == want
        assert out.splitlines()[1] == f"total_oce\t{sol.value!r}\t{want}"


class TestSimulateCmd:
    def test_infinite_gamma_refused(self, capsys, model_path):
        # the estimate would be NaN, which strict JSON cannot carry
        code, out, err = run(capsys, ["simulate", "--model", model_path,
                                      "--policy", "fixture:jaquette.f",
                                      "--functional", "entropic", "--gamma", "inf",
                                      "--reps", "200"])
        assert code == 4
        assert out == ""
        assert "gamma" in err

    @pytest.mark.parametrize("seed, want", [("-1", 4), ("18446744073709551617", 0)])
    def test_seed_range(self, capsys, model_path, seed, want):
        # any integer >= 0 seeds the streams; a negative one is a parameter error
        code, out, err = run(capsys, ["simulate", "--model", model_path,
                                      "--policy", "fixture:jaquette.f",
                                      "--horizon", "5", "--reps", "200", "--seed", seed])
        assert code == want
        if want:
            assert out == "" and "seed" in err
        else:
            assert json.loads(out)["seed"] == int(seed)

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_bad_horizon(self, capsys, model_path, horizon):
        # a given horizon is never replaced by the one of --trunc-err
        code, out, err = run(capsys, ["simulate", "--model", model_path,
                                      "--policy", "fixture:jaquette.f",
                                      "--reps", "200", "--horizon", horizon])
        assert code == 4
        assert out == "" and "horizon" in err

    @pytest.mark.parametrize("trunc_err", ["0", "-0.5", "nan", "inf"])
    def test_bad_truncation_budget(self, capsys, model_path, trunc_err):
        code, out, err = run(capsys, ["simulate", "--model", model_path,
                                      "--policy", "fixture:jaquette.f",
                                      "--reps", "200", "--trunc-err", trunc_err])
        assert code == 4
        assert out == "" and "truncation budget" in err

    @pytest.mark.parametrize("content, words", [
        ("", "not valid JSON"), ("[1]", "JSON object"), ('{"policy": [1]}', "/policy"),
        ('{"stage_policy": 5}', "/stage_policy"), ('{"stage_policy": [1]}', "/stage_policy")])
    def test_policy_file_not_a_report(self, capsys, tmp_path, model_path, content, words):
        # an empty file (as /dev/null reads), JSON that is no object or a rule
        # that is no object is a format error with exit 2, not a traceback
        policy = tmp_path / "policy.json"
        policy.write_text(content)
        code, out, err = run(capsys, ["simulate", "--model", model_path,
                                      "--policy", str(policy), "--reps", "200"])
        assert code == 2
        assert out == "" and words in err

    def test_fixture_policy(self, capsys, model_path):
        code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                    "--policy", "fixture:jaquette.f",
                                    "--functional", "mean",
                                    "--horizon", "30", "--reps", "4000", "--seed", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["estimate"] == pytest.approx(8.0 / 3.0, abs=3 * rep["std_error"] + 0.05)

    def test_report_file_policy(self, capsys, tmp_path, model_path):
        report = tmp_path / "rn.json"
        run(capsys, ["solve", "--model", model_path, "--criterion", "risk_neutral",
                     "--out", str(report)])
        code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                    "--policy", str(report), "--functional", "entropic",
                                    "--gamma", "0.5", "--horizon", "40",
                                    "--reps", "2000", "--seed", "3"])
        assert code == 0
        assert json.loads(out)["functional"] == "entropic"

    def test_total_oce_stage_policy_report(self, capsys, tmp_path, model_path):
        # a total-OCE report carries its rules as stage_policy: the rollout
        # follows them stage by stage, and the entropic estimate of the
        # realised reward lands on the reported value
        report = tmp_path / "total.json"
        assert main(["solve", "--model", model_path, "--criterion", "total_oce",
                     "--gamma", "1.0", "--out", str(report)]) == 0
        rep = json.loads(report.read_text())
        code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                    "--policy", str(report), "--functional", "entropic",
                                    "--gamma", "1.0", "--reps", "4000", "--seed", "5"])
        assert code == 0
        est = json.loads(out)
        assert abs(est["estimate"] - rep["value"]["1"]) <= 4 * est["std_error"]

    def test_csv_dump(self, capsys, tmp_path):
        # one line per replication, each value as repr of its Python float,
        # and an empty cost column for a model without costs (jaquette)
        for m, policy in ((fixtures.jaquette(), "fixture:jaquette.g"),
                          (fixtures.invariant_model(), "fixture:invariant_model.first")):
            path, csv = tmp_path / "model.json", tmp_path / "rows.csv"
            save(m, path)
            code, _, _ = run(capsys, ["simulate", "--model", str(path), "--policy", policy,
                                      "--horizon", "5", "--reps", "120", "--seed", "0",
                                      "--csv", str(csv)])
            assert code == 0
            batch = rollout(m, _policy_from_source(m, policy), m.states[0], 5, 0, 120)
            costs = batch.cumulative_costs
            want = ["replication,discounted_reward,cumulative_cost"]
            want += [f"{i},{float(batch.discounted_rewards[i])!r},"
                     + (repr(float(costs[i])) if costs is not None else "") for i in range(120)]
            assert csv.read_text() == "\n".join(want) + "\n"

    # stdout at the seed-1 defaults (horizon 31 from --trunc-err), as the
    # per-row stream draws and the per-resample bootstrap printed it
    GOLDEN = {
        "mean": ("2.6259313894808294", "0.04624050474105096"),
        "entropic": ("1.1904007406032981", "0.02546531384479454"),
        "cvar": ("-0.11678561482578495", "0.009387113531244329"),
    }

    @pytest.mark.parametrize("functional, extra", [
        ("mean", []), ("entropic", ["--gamma", "1.0"]), ("cvar", ["--alpha", "0.2"])])
    def test_golden_stdout(self, capsys, model_path, functional, extra):
        code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                    "--policy", "fixture:jaquette.f", "--functional",
                                    functional, *extra, "--reps", "2000", "--seed", "1"])
        point, se = self.GOLDEN[functional]
        assert code == 0
        assert out == (
            f'{{\n  "functional": "{functional}",\n  "estimate": {point},\n'
            f'  "std_error": {se},\n  "replications": 2000,\n  "horizon": 31,\n'
            f'  "truncation_error": 7.450580596923828e-09,\n  "seed": 1\n}}\n')

    def test_tsv_estimate_is_a_plain_float(self, capsys, model_path):
        code, out, _ = run(capsys, ["simulate", "--model", model_path,
                                    "--policy", "fixture:jaquette.f", "--functional", "cvar",
                                    "--alpha", "0.2", "--reps", "2000", "--seed", "1",
                                    "--format", "tsv"])
        assert code == 0
        assert "estimate\t-0.11678561482578495\n" in out

    def test_byte_identical_runs(self, capsys, model_path):
        argv = ["simulate", "--model", model_path, "--policy", "fixture:jaquette.f",
                "--functional", "cvar", "--alpha", "0.2",
                "--horizon", "25", "--reps", "3000", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestFixturesCmd:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["fixtures", "list"])
        assert code == 0
        assert set(out.split()) == {"jaquette", "invariant_model", "inventory_toy"}

    def test_export_and_validate(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["fixtures", "export", "--dir", str(tmp_path)])
        assert code == 0
        for name in ("jaquette", "invariant_model", "inventory_toy"):
            path = tmp_path / f"{name}.json"
            assert path.exists()
            assert main(["validate", "--model", str(path)]) == 0
        capsys.readouterr()


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy serves the tests alone
    probe = "import sys, riskmdp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_recursive_runs_policy_iteration(capsys, model_path):
    from riskmdp.oce import UtilitySpec
    from riskmdp.recursive import solve_recursive
    code, out, _ = run(capsys, ["solve", "--model", model_path, "--criterion", "recursive_oce",
                                "--utility", '{"type": "cvar", "alpha": 0.2}'])
    assert code == 0
    rep = json.loads(out)
    assert (rep["method"], rep["safeguarded"]) == ("policy_iteration", 0)
    vi = solve_recursive(fixtures.jaquette(), UtilitySpec.cvar(0.2))
    assert rep["policy"] == vi.policy
    for s, v in vi.value.items():
        assert abs(rep["value"][s] - v) <= vi.error_bound + rep["error_bound"] + 1e-12


@pytest.mark.parametrize("model, gamma", [("invariant", "1e7"), ("random", "1e5")])
def test_ergodic_tolerance_at_the_rounding_floor(capsys, tmp_path, invariant_path, model, gamma):
    # min(--tol, 1e-10) lies below the rounding of gamma * c in the log sweep
    # here, where the iteration can only stall; the floor lets it stop
    import numpy as np
    from conftest import random_mdp
    from riskmdp.ergodic import ergodic_policy_value
    from riskmdp.mdp import StationaryPolicy
    m = random_mdp(np.random.default_rng(9), n_states=4, with_costs=True, reward_scale=10.0)
    path = invariant_path if model == "invariant" else str(tmp_path / "random.json")
    if model == "random":
        save(m, path)
    code, out, err = run(capsys, ["solve", "--model", path, "--criterion", "ergodic_entropic",
                                  "--gamma", gamma])
    assert code == 0, err
    rep = json.loads(out)
    g = float(gamma)
    if model == "invariant":  # xi = (1/gamma) ln((1 + e^gamma) / 2)
        assert rep["gain"] == pytest.approx(1.0 + (math.log1p(math.exp(-g)) - math.log(2.0)) / g,
                                            abs=1e-12)
    else:
        xi, _ = ergodic_policy_value(m, StationaryPolicy(rep["policy"]), g)
        assert rep["gain"] == pytest.approx(xi, abs=1e-12)


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name, builder in fixtures.FIXTURES.items():
        paths[name] = str(root / f"{name}.json")
        save(builder(), paths[name])
    return paths


# each of these died with a traceback or, for --tol inf and a grid step wider
# than the accumulation range d/(1-beta) = 2, exited 0
@pytest.mark.parametrize("argv", [
    ["compare", "--criteria", "risk_neutral", "--x0", "nope"],
    ["solve", "--criterion", "ergodic_entropic", "--gamma", "1", "--reference-state", "nope"],
    ["solve", "--criterion", "recursive_oce", "--utility", '{"type": "cvar"}'],
    ["solve", "--criterion", "recursive_oce", "--utility", '{"type": "cvar", "alpha": "x"}'],
    ["solve", "--criterion", "recursive_oce", "--utility", '{"type": "entropic", "gamma": null}'],
    ["solve", "--criterion", "recursive_oce",
     "--utility", '{"type": "piecewise_linear", "points": [[0, 0], [1]]}'],
    ["solve", "--criterion", "recursive_oce", "--utility", '{"type": "entropic"'],
    ["solve", "--config", '{"criterion": "total_oce", "grid": 5}'],
    ["solve", "--config", '{"criterion": "recursive_oce", "gamma": "x"}'],
    ["solve", "--criterion", "risk_neutral", "--tol", "inf"],
    ["solve", "--criterion", "recursive_oce", "--tol", "inf"],
    ["solve", "--criterion", "ergodic_entropic", "--gamma", "1", "--tol", "inf"],
    ["solve", "--criterion", "total_oce", "--alpha", "0.2", "--y-step", "5"],
], ids=lambda argv: " ".join(argv[1:]))
def test_malformed_input_is_a_parameter_error(capsys, fixture_paths, argv):
    code, out, err = run(capsys, [argv[0], "--model", fixture_paths["invariant_model"], *argv[1:]])
    assert (code, out) == (4, "")
    assert err.startswith("error: ")


_PARAMS = st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-300, 1.0])
_JUNK = st.sampled_from([None, "x", [1.0], {}, True, 10**400])
_VALUES = _PARAMS | _JUNK
# 1e-300 is kept out of tail_eps: it asks for thousands of z-levels
_GRID_VALUES = st.sampled_from([0.0, -1.0, math.nan, math.inf, 0.5]) | _JUNK
_STATE_IDS = st.sampled_from(["1", "3", "s0", "s1", "0", "2", "", "nope", "s9"])
_UTILITIES = st.fixed_dictionaries(
    {"type": st.sampled_from(["entropic", "cvar", "mean_variance", "piecewise_linear", "nope"])
     | _JUNK},
    optional={"gamma": _VALUES, "alpha": _VALUES, "extra": _VALUES,
              "points": st.just([[-1.0, -2.0], [0.0, 0.0], [1.0, 0.5]])
              | st.lists(st.lists(_VALUES, max_size=3), max_size=3)})
_CONFIGS = st.fixed_dictionaries({}, optional={
    "criterion": st.sampled_from(["risk_neutral", "recursive_oce", "total_oce",
                                  "ergodic_entropic"]) | _JUNK,
    "utility": _UTILITIES | _JUNK,
    "gamma": _VALUES, "alpha": _VALUES, "reference_state": _STATE_IDS | _JUNK,
    "grid": st.fixed_dictionaries({}, optional={"y_step": _GRID_VALUES | st.just(1e-300),
                                                "tail_eps": _GRID_VALUES}) | _JUNK,
    "extra": _VALUES})


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(["solve", "compare"]))
    argv = [cmd, "--model", draw(st.sampled_from(sorted(fixtures.FIXTURES)))]
    criteria = ["risk_neutral", "recursive_oce", "total_oce", "ergodic_entropic"]
    if cmd == "solve":
        criterion = draw(st.none() | st.sampled_from(criteria))
        if criterion is not None:
            argv.append(f"--criterion={criterion}")
        if criterion is None or draw(st.booleans()):
            argv.append("--config=" + json.dumps(draw(_CONFIGS)))
        if draw(st.booleans()):
            argv.append(f"--reference-state={draw(_STATE_IDS)}")
    else:
        argv.append("--criteria=" + ",".join(draw(st.lists(st.sampled_from(criteria),
                                                           min_size=1, max_size=4))))
        if draw(st.booleans()):
            argv.append(f"--x0={draw(_STATE_IDS)}")
    for flag in ("tol", "gamma", "alpha"):
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(_PARAMS)!r}")
    if draw(st.booleans()):
        argv.append("--utility=" + json.dumps(draw(_UTILITIES)))
    return argv


def _no_constant(name):
    raise ValueError(f"{name} in strict JSON")


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_any_input_exits_with_a_documented_code(fixture_paths, argv):
    # malformed or out-of-range input never escapes main() as an exception:
    # it ends in a documented exit code, and exit 0 prints strict JSON
    argv[2] = fixture_paths[argv[2]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert out.getvalue() == ""
