#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own Cargo workspace
(perfbench/Cargo.toml) built against the repository's crates by path, into
$CARGO_TARGET_DIR (default: .bench_build at the root). The last line of
standard output is the run's JSON result; everything else goes to standard
error. A run that panics, crashes or outlives its time limit is reported as
a failed operation instead of hanging. Spans of a traced run are written to
<target>/perfbench-traces/.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fleet_churn", "tenant_fused", "tenant_flood")

# A run of the benchmark binary is stopped and counted as failed once it has
# outlived --seconds by this much, so a wedged publisher cannot hang the
# benchmark. The margin covers the set-ups, the pass still running at the
# deadline and the parity run of the repository's experiment (together
# 5-15 s on a 2-core x86-64 host).
RUN_MARGIN_S = 60


def failure(reason):
    print(f"run.py: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [
        os.path.join(target, "release", "valkyrie-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    limit_s = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=limit_s)
    except subprocess.TimeoutExpired:
        failure(f"{args.workload} did not finish within {limit_s} s")
        return 0
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        failure(f"{args.workload} exited with code {run.returncode} and no result")
        return 0
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
