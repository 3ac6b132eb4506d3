"""One traced ``riskmdp`` CLI call: time the import, wrap the layers, run main.

    python3 bench/cli_child.py SPANS.json validate --model m.json

The spans go to SPANS.json when the call returns; the exit code is the CLI's.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import tracing

    t0 = time.perf_counter()
    import riskmdp.cli
    t1 = time.perf_counter()
    rec = tracing.Recorder()
    rec.add("cli.import", t0, t1)
    rec.install()
    try:
        code = riskmdp.cli.main(argv)
    finally:
        rec.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
