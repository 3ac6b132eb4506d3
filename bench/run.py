"""riskmdp benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sparse_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; riskmdp is imported from ``src/``.
The run sets up the workload several times (``setup_s`` is the median), runs
one untimed warm-up pass whose outputs are checked independently, then runs
whole passes over the request mix until ``--seconds`` have gone by.  Every
later output must equal the warm-up one (the solvers are deterministic) or
pass the checks itself.  End-to-end metrics are medians over passes; with
``--trace 1`` the layers are wrapped and the per-layer metrics are printed
instead, and the spans go to ``.bench_out/trace-<workload>-seed<n>.json``.
The last line of stdout is the result object.
"""

import os

# one BLAS thread: on a small shared machine extra threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
BUCKETS = ("risk_neutral", "recursive_oce", "total_oce", "ergodic_entropic", "simulate")


def run_pass(ops, rec):
    """Every op once: (wall, per-bucket seconds, [(ok, text)], layer aggregate, spans).

    Spans come from the in-process recorder, or one list per traced CLI call.
    """
    import tracing

    buckets = dict.fromkeys(BUCKETS, 0.0)
    results, span_lists = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        ok, text, spans = op.run()
        dt = time.perf_counter() - t0
        if op.bucket is not None:
            buckets[op.bucket] += dt
        results.append((ok, text))
        if spans is not None:
            span_lists.append(spans)
    wall = time.perf_counter() - start
    if rec is not None:
        span_lists.append(list(rec.spans))
        rec.spans.clear()
    agg = tracing.merge(tracing.aggregate(s) for s in span_lists)
    return wall, buckets, results, agg, span_lists


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "riskmdp", "__init__.py")):
        print(f"error: no riskmdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.make(args.workload, out_dir, args.seed)

    setups = [wl.setup() for _ in range(SETUP_REPEATS)]
    ops = wl.ops(traced)
    rec = tracing.Recorder().install() if traced and wl.in_process else None

    _, _, warm, _, _ = run_pass(ops, rec)
    problems = []
    for op, (ok, text) in zip(ops, warm):
        if ok:
            problems += [f"{op.name}: {p}" for p in op.check(text)]

    # whole passes only, and none that would end past --seconds
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1][0] <= args.seconds:
        passes.append(run_pass(ops, rec))
    if rec is not None:
        rec.uninstall()

    attempted = failed = 0
    for _, _, results, _, _ in passes:
        for op, (ok, text), (warm_ok, warm_text) in zip(ops, results, warm):
            attempted += 1
            if not ok:
                failed += 1
                print(f"failed: {op.name}: {text.strip()}", file=sys.stderr)
            elif not (warm_ok and text == warm_text):
                problems += [f"{op.name}: {p}" for p in op.check(text)]
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    med = statistics.median
    if traced:
        per_pass = [tracing.layer_values(agg) for _, _, _, agg, _ in passes]
        if wl.in_process:
            # the in-process workloads import and load in their set-up children
            for vals in per_pass:
                vals["cli.import_s"] = med(s["import_s"] for _, s in setups)
                vals["mdp.load_s"] = med(s["load_s"] for _, s in setups)
        units = {k: ("s" if k.endswith("_s") else "MB" if k.endswith("_mb") else "count")
                 for k in tracing.LAYER_METRICS}
        metrics = {k: {"value": med(v[k] for v in per_pass), "unit": units[k]}
                   for k in tracing.LAYER_METRICS}
        trace_path = os.path.join(ROOT, ".bench_out",
                                  f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "wall_s": [p[0] for p in passes], "per_pass": per_pass,
                       "metrics": metrics, "spans": [p[4] for p in passes]}, fh)
    else:
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": {"value": med(w for w, _ in setups), "unit": "s"},
            "wall_s": {"value": med(p[0] for p in passes), "unit": "s"},
        }
        for b in BUCKETS:
            name = "simulate_s" if b == "simulate" else f"solve_s.{b}"
            metrics[name] = {"value": med(p[1][b] for p in passes), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(who).ru_maxrss / 1024.0,
                                  "unit": "MB"}
    print(f"{args.workload}: {len(passes)} passes, pass wall "
          f"{[round(p[0], 3) for p in passes]}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
