"""Run every workload once and print its end-to-end metrics as a table.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs in its own `bench/run.py` process, exactly as a single
benchmark run; the table lists every end-to-end metric by name and unit,
and the ops attempted and failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("states", "spectra", "verify", "cli")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    print(f"{'workload':9s} {'metric':15s} {'value':>14s} unit")
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:15s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:9s} {'attempted':15s} {result['attempted']:14d}")
        print(f"{name:9s} {'failed':15s} {result['failed']:14d} "
              f"{json.dumps(record['failures_by_class'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
