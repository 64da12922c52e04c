#!/usr/bin/env python3
"""Service benchmark of tecore-server.

    python3 svcbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Builds tecore-server and the svcbench binary from this source tree into
.bench_build/svcbench (build output goes to stderr), then runs one
workload. The last stdout line is the result JSON; the exit code
is nonzero when the build fails or an output check fails. See
svcbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")
WORK = os.path.join(ROOT, ".bench_build", "svcbench-work")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("svcbench: no TeCoRe source tree around %s" % HERE, file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "svcbench", "tecore-server"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "svcbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_read", "edit_churn", "cold_resolve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "svcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "tecore", "tecore-server"),
           "--work-dir", WORK, "--commit", source_id()]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True)
    except subprocess.TimeoutExpired:
        print("svcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    print(gated(lines[-1], args.trace))
    return run.returncode


def gated(line, trace):
    """The result line with the metrics BENCHMARK.json lists for this mode:
    svcbench prints more (every end-to-end metric, with its sample count
    on the lines above) than a run is judged on."""
    try:
        result = json.loads(line)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return line
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    result["metrics"] = {n: result["metrics"][n] for n in names
                         if n in result["metrics"]}
    return json.dumps(result)


if __name__ == "__main__":
    sys.exit(main())
