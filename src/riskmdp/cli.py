"""Command-line front end: validate, solve, compare, simulate, fixtures.

Exit codes: 0 success, 1 model validation failure, 2 usage / file / parse
error, 3 solver non-convergence, 4 unsupported criterion or parameter
combination.  All randomness flows through --seed; repeated runs with the
same flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures as fixture_mod
from .augmented import default_grid, entropic_total, solve_total_oce
from .ergodic import ergodic_rvi, rounding_floor
from .errors import (
    ChainStructureError,
    IterationLimitError,
    ModelFormatError,
    ModelValidationError,
    ParameterError,
    PolicyError,
    RiskMdpError,
    UnsupportedUtilityError,
)
from .mdp import StagePolicy, StationaryPolicy, first_admissible_policy, load, save
from .neutral import value_iteration
from .oce import UtilitySpec
# solve_recursive: no longer called here, but wrapped by name in bench/tracing.py
from .recursive import entropic_fast_path, policy_iteration_recursive, solve_recursive  # noqa: F401
from .simulate import estimate, required_horizon, rollout

CRITERIA = ("risk_neutral", "recursive_oce", "total_oce", "ergodic_entropic")


def _add_common(p):
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--tol", type=float, default=1e-9, help="solver tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("RISKMDP_THREADS", "1")),
                   help="worker budget; solvers are deterministic regardless")


def _utility_from_args(args):
    if getattr(args, "utility", None):
        return UtilitySpec.from_json(json.loads(args.utility))
    if getattr(args, "alpha", None) is not None:
        return UtilitySpec.cvar(args.alpha)
    gamma = getattr(args, "gamma", None)
    return UtilitySpec.entropic(gamma if gamma is not None else 1.0)


def _apply_criterion_config(args):
    """Fold a criterion-config JSON object into the parsed flags.

    Accepted shape: {"criterion": ..., "utility": {...}, "gamma": ...,
    "reference_state": ..., "grid": {"y_step": ..., "tail_eps": ...}};
    explicit flags win over config entries.
    """
    if not getattr(args, "config", None):
        return args
    try:
        obj = json.loads(args.config)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"--config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParameterError("--config must hold a JSON object")
    if args.criterion is None:
        args.criterion = obj.get("criterion")
    if args.criterion is None:
        raise ParameterError("criterion missing from both --criterion and --config")
    if getattr(args, "utility", None) is None and "utility" in obj:
        args.utility = json.dumps(obj["utility"])
    for key in ("gamma", "alpha", "reference_state"):
        if getattr(args, key, None) is None and key in obj:
            setattr(args, key, obj[key])
    grid = obj.get("grid", {})
    if getattr(args, "y_step", None) is None:
        args.y_step = grid.get("y_step")
    if getattr(args, "tail_eps", None) is None:
        args.tail_eps = grid.get("tail_eps")
    return args


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve_one(m, criterion, args):
    if criterion == "risk_neutral":
        return value_iteration(m, tol=args.tol)
    if criterion == "recursive_oce":
        spec = _utility_from_args(args)
        if spec.kind == "entropic":
            return entropic_fast_path(m, spec.gamma, tol=args.tol)
        return policy_iteration_recursive(m, spec, tol=args.tol)
    if criterion == "total_oce":
        spec = _utility_from_args(args)
        if spec.kind == "entropic":
            return entropic_total(m, spec.gamma).report()
        grid = default_grid(m, y_step=getattr(args, "y_step", None) or None,
                            tail_eps=getattr(args, "tail_eps", None) or 1e-8)
        return solve_total_oce(m, spec, grid=grid,
                               estimate_interp_error=True).report()
    if criterion == "ergodic_entropic":
        gamma = getattr(args, "gamma", None)
        if gamma is None:
            raise ParameterError("ergodic_entropic needs --gamma")
        tol = min(args.tol, 1e-10)
        if tol > 0.0 and m.cost is not None:  # a tolerance <= 0 is refused by the solver
            tol = max(tol, rounding_floor(gamma, m.cost))
        sol = ergodic_rvi(m, gamma, tol=tol,
                          reference_state=getattr(args, "reference_state", None))
        return sol.report(gamma)
    raise ParameterError(f"unknown criterion {criterion!r}")


def cmd_validate(args):
    m = load(args.model, validate=False)
    violations = m.validate(for_discounted=False)
    if violations:
        for v in violations:
            print(v)
        return 1
    print("ok")
    return 0


def cmd_solve(args):
    if args.criterion is None and not args.config:
        print("solve: needs --criterion or --config", file=sys.stderr)
        return 2
    m = load(args.model)
    _apply_criterion_config(args)
    report = _solve_one(m, args.criterion, args)
    _emit(report.to_json() if args.format == "json" else report.to_tsv(), args.out)
    return 0


def cmd_compare(args):
    m = load(args.model)
    names = []
    for chunk in args.criteria:
        names.extend(c.strip() for c in chunk.split(",") if c.strip())
    seen = []
    for c in names:
        if c not in CRITERIA:
            raise ParameterError(f"unknown criterion {c!r}; choose from {CRITERIA}")
        if c not in seen:
            seen.append(c)
    if not seen:
        print("compare: needs at least one criterion", file=sys.stderr)
        return 2
    x0 = args.x0 if args.x0 else m.states[0]
    rows = []
    for c in seen:
        rep = _solve_one(m, c, args)
        rows.append({
            "criterion": c,
            "value": rep.value[x0],
            "stage0_action": (rep.policy or {}).get(x0),
        })
    if args.format == "json":
        _emit(json.dumps({"state": x0, "rows": rows}, indent=2, allow_nan=False) + "\n",
              args.out)
    else:
        lines = ["criterion\tvalue\tstage0_action"]
        lines += [f"{r['criterion']}\t{r['value']!r}\t{r['stage0_action']}" for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _policy_from_source(m, source):
    if source.startswith("fixture:"):
        ref = source[len("fixture:"):]
        name, _, pol = ref.partition(".")
        if name == "jaquette" and pol in ("f", "g"):
            return fixture_mod.jaquette_policy(pol)
        if pol == "" or pol == "first":
            return first_admissible_policy(m)
        raise ParameterError(f"unknown fixture policy {source!r}")
    with open(source) as fh:
        obj = json.load(fh)
    if obj.get("stage_policy"):
        stages = tuple(StationaryPolicy(dict(rule)) for rule in obj["stage_policy"])
        return StagePolicy(stages=stages, tail=stages[-1])
    if obj.get("policy"):
        return StationaryPolicy(dict(obj["policy"]))
    raise ModelFormatError("report carries neither 'policy' nor 'stage_policy'", "/policy")


def cmd_simulate(args):
    m = load(args.model)
    policy = _policy_from_source(m, args.policy)
    x0 = args.x0 if args.x0 else m.states[0]
    horizon = args.horizon if args.horizon else required_horizon(m, args.trunc_err)
    batch = rollout(m, policy, x0, horizon, args.seed, args.reps)
    rep = estimate(batch, args.functional, gamma=args.gamma, alpha=args.alpha)
    if args.csv:
        lines = ["replication,discounted_reward,cumulative_cost"]
        lines += [f"{i},{r!r},{c!r}" if c != "" else f"{i},{r!r},"
                  for i, r, c in batch.to_rows()]
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    payload = {
        "functional": rep.functional,
        "estimate": rep.point,
        "std_error": rep.std_error,
        "replications": rep.replications,
        "horizon": rep.horizon,
        "truncation_error": rep.truncation_error,
        "seed": args.seed,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    else:
        _emit("".join(f"{k}\t{v!r}\n" for k, v in payload.items()), args.out)
    return 0


def cmd_fixtures(args):
    if args.action == "list":
        for name in fixture_mod.FIXTURES:
            print(name)
        return 0
    os.makedirs(args.dir, exist_ok=True)
    for name, builder in fixture_mod.FIXTURES.items():
        save(builder(), os.path.join(args.dir, f"{name}.json"))
        print(f"wrote {name}.json")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="riskmdp", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a model file against its invariants")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="solve one criterion")
    _add_common(p)
    p.add_argument("--criterion", choices=CRITERIA,
                   help="criterion name (or supply it inside --config)")
    p.add_argument("--config", help="criterion config JSON, e.g. "
                   '{"criterion":"total_oce","utility":{"type":"cvar","alpha":0.1},'
                   '"grid":{"y_step":0.01}}')
    p.add_argument("--utility", help='utility JSON, e.g. {"type":"cvar","alpha":0.05}')
    p.add_argument("--gamma", type=float, help="entropic risk aversion")
    p.add_argument("--alpha", type=float, help="cvar tail level")
    p.add_argument("--reference-state", dest="reference_state")
    p.add_argument("--y-step", dest="y_step", type=float, help="total_oce grid step")
    p.add_argument("--tail-eps", dest="tail_eps", type=float, help="total_oce tail budget")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("compare", help="one row per criterion at the initial state")
    _add_common(p)
    p.add_argument("--criteria", nargs="+", required=True,
                   help="criterion names (comma or space separated)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float)
    p.add_argument("--utility")
    p.add_argument("--x0", help="state whose value/action is tabulated")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo estimate of a functional")
    _add_common(p)
    p.add_argument("--policy", required=True,
                   help="SolveReport JSON path or fixture:jaquette.f / fixture:NAME.first")
    p.add_argument("--functional", choices=("mean", "entropic", "cvar"), default="mean")
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--x0")
    p.add_argument("--horizon", type=int)
    p.add_argument("--trunc-err", dest="trunc_err", type=float, default=1e-8,
                   help="pick the horizon from this truncation budget")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--csv", help="also dump per-replication rows here")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fixtures", help="list or export the built-in models")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("--dir", default=".", help="target directory for export")
    p.set_defaults(fn=cmd_fixtures)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "threads", 1) < 1:
        print("--threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IterationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, UnsupportedUtilityError, ChainStructureError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RiskMdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
