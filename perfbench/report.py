"""Print every end-to-end figure of every workload, by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload, each in its own process, and
prints the report line of each run as a table: the BENCHMARK.json metrics
plus wall time, failure shares and the accuracy figures.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args(argv)
    correct = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
        side, result = (json.loads(line)
                        for line in done.stdout.strip().splitlines()[-2:])
        correct &= result["correct"]
        print(f"{workload}  correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, figure in side["report"].items():
            value = "n/a" if figure["value"] is None else f"{figure['value']:.6g}"
            print(f"  {name:18s} {value:<14s} {figure['unit']}")
        for failure in side["failures"]:
            print(f"  failed: {failure['label']}: "
                  f"{failure['error'] or '; '.join(failure['problems'])}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
