#!/usr/bin/env python3
"""Exact-count repeat check of the traced run.

    python3 svcbench/repeat_check.py [--seed 7] [--held-out-seed 8]

Runs `run.py --trace 1` for BENCHMARK.json's run_seconds twice with one
seed and once with a held-out seed for every workload. The counts below
are deterministic functions of the inputs, so the two same-seed runs must
report them identically; the held-out seed is recorded next to them.
Exit code 1 on any difference or any run that fails its checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_read", "edit_churn", "cold_resolve"]
EXACT = ["ground.atoms", "ground.clauses", "core.dirty_components.mean",
         "storage.fsyncs_per_edit", "storage.wal_bytes_per_edit",
         "rdf.chunk_copies_per_publish"]


def traced(workload, seed, seconds):
    """The exact counts of one traced run, or None when the run failed."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode != 0 or result is None or not result["correct"]:
        print("%s seed %d: run failed\n%s" % (workload, seed, out.stderr[-2000:]))
        return None
    return {k: result["metrics"][k]["value"] for k in EXACT}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--held-out-seed", type=int, default=8)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    ok = True
    print("%-13s %-28s %14s %14s %14s" % (
        "workload", "count", "seed %d" % args.seed, "repeat",
        "seed %d" % args.held_out_seed))
    for workload in WORKLOADS:
        first = traced(workload, args.seed, seconds)
        second = traced(workload, args.seed, seconds)
        held_out = traced(workload, args.held_out_seed, seconds)
        if first is None or second is None or held_out is None:
            ok = False
            continue
        for key in EXACT:
            same = first[key] == second[key]
            ok = ok and same
            print("%-13s %-28s %14.6g %14.6g %14.6g %s" % (
                workload, key, first[key], second[key], held_out[key],
                "" if same else "MISMATCH"))
    print("exact counts repeat: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
