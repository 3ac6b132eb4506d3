"""Set-up step of one in-process workload, run in a fresh interpreter.

Imports riskmdp (the CLI module, which loads every solver), builds and writes
the workload's models from the seed, loads each file back, and prints the time
of each phase as one JSON line.  ``run.py`` starts it several times and takes
the median wall time from spawn to exit as ``setup_s``.

    python3 bench/setup_child.py --workload sparse_grid --seed 1 --out DIR
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

    t0 = time.perf_counter()
    import riskmdp.cli  # noqa: F401
    from riskmdp.mdp import FiniteMdp, load, save
    t1 = time.perf_counter()
    import models
    built, policies = models.build(args.workload, args.seed)
    t2 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    for name, obj in built.items():
        save(FiniteMdp.from_dict(obj), os.path.join(args.out, f"{name}.json"))
    with open(os.path.join(args.out, "policies.json"), "w") as fh:
        json.dump(policies, fh, indent=2)
    t3 = time.perf_counter()
    for name in built:
        load(os.path.join(args.out, f"{name}.json"))
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1,
                      "save_s": t3 - t2, "load_s": t4 - t3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
