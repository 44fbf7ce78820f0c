#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload io_day --seed 1 --seconds 10 --trace 0

The benchmark program (perfbench/vmkbench.ml) is built with dune from the
sources in this checkout, then run once. Its standard output is passed
through; the last line is the JSON result. The exit code is non-zero when
the build fails, when an output check fails, or when the result line is
missing or malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("smp_storm", "io_day", "guest_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def build():
    """Build the benchmark program; return its path, or None on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no simulator sources next to perfbench/", file=sys.stderr)
        return None
    # Keep every build output inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        res = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "perfbench/vmkbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return None
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "vmkbench.exe")
    if res.returncode != 0 or not os.path.isfile(exe):
        print("perfbench: build failed", file=sys.stderr)
        return None
    return exe


def valid_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return set(res["metrics"]) == names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "expected_digests"),
           "--out", os.path.join(HERE, "out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1], args.trace):
        return fail("no valid result line", 3)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
