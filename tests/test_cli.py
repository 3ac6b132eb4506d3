import json
import math
import subprocess
import sys

import pytest

from riskmdp import fixtures
from riskmdp.cli import main
from riskmdp.mdp import save


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["validate", "--model", "/nope/missing.json"])
        assert code == 2


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

    def test_csv_dump(self, capsys, tmp_path, model_path):
        csv = tmp_path / "rows.csv"
        code, _, _ = run(capsys, ["simulate", "--model", model_path,
                                  "--policy", "fixture:jaquette.g",
                                  "--horizon", "5", "--reps", "120", "--seed", "0",
                                  "--csv", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "replication,discounted_reward,cumulative_cost"
        assert len(lines) == 121

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
