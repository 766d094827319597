#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload soak|heap|verify|all --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) from the
sources in the checkout, runs one workload and passes its output through: '#'
header lines, then one JSON line with the end-to-end metrics (--trace 0) or
the per-layer metrics (--trace 1).  `all` (the default) runs the three
workloads in turn, each in its own process, and prints each one's output.
The build tree is $CARGO_TARGET_DIR
(relative paths are taken from the repo root), else .bench_build/.  A traced
run also writes its spans as Chrome trace-event JSON to
<build tree>/traces/<workload>-seed<N>.json.  Exits non-zero, printing no
result, when the build fails, a correctness gate trips or the output is
malformed.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soak", "heap", "verify")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def build_tree():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark binary; returns its path.  Build
    output goes to stderr so stdout stays the benchmark's own."""
    tree = os.path.join(build_tree(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "--target", "perfbench", "-j", jobs],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(tree, "perfbench")


def run_timeout(seconds):
    """Bounds a run that hangs.  The binary stops starting cycles once
    `seconds` have passed but finishes the cycle it is in, which takes up to
    about 11 s (a traced verify cycle), so the bound grows with the budget."""
    return seconds * 1.5 + 120


def check_result(line):
    """The result line must be a JSON object with exactly these keys."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys " + ", ".join(sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        raise ValueError("run not correct")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            raise ValueError("metric " + name + " malformed")


def run_workload(binary, workload, args):
    """Runs one workload in its own process and passes its output through."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_tree(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s run exceeded %g s" % (workload, timeout))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        # Header lines only: a failed run prints no result.
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("#")))
        sys.exit(proc.returncode)
    try:
        check_result(lines[-1])
    except (IndexError, ValueError) as error:
        sys.exit("perfbench: %s: malformed result: %s" % (workload, error))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(binary, workload, args)


if __name__ == "__main__":
    main()
