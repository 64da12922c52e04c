#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 svcbench/spread_check.py [--first-seed 101] [workload ...]

Runs every workload (or the ones named) once for each of ten seeds with
tracing off and prints, per end-to-end metric, the median over the runs
and the distance between the first and third quartile as a share of the median
(Python's statistics.quantiles(values, n=4)), next to the metric's bound
in BENCHMARK.json. Exit code 1 when a run fails its checks or a spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                ok = False
                print("%s seed %d failed its checks" % (workload, seed))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d runs)" % (workload, RUNS))
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            q = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q[2] - q[0]) / median
            within = spread <= metric["bound"]
            ok = ok and within
            print("  %-15s median %12.6g %-4s spread %6.3f  bound %.2f %s" % (
                metric["name"], median, metric["unit"], spread,
                metric["bound"], "" if within else "OVER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
