#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/determinism_test.py

For every workload, two one-cycle runs (--seconds 0, at the sizes the
benchmark measures) with the same seed must report identical
count-derived metrics and identical layer-counter deltas (DsmStats, GcStats,
NetworkStats, RvmStats, DiskStats and the deterministic PerfCounters), and a
run with another seed must report different ones, so a nondeterminism bug
cannot pass as run-to-run noise.  verify runs at its fixed pool size.  Exits
non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile

import run


def one_cycle(binary, workload, seed, out_dir):
    path = os.path.join(out_dir, "%s-%d-%d.json" % (workload, seed, len(os.listdir(out_dir))))
    subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                    "--trace", "0", "--counts-out", path],
                   check=True, stdout=subprocess.DEVNULL, timeout=run.run_timeout(0))
    with open(path) as f:
        return json.load(f)


def layer_deltas(record):
    return {k: v for k, v in record["counts"].items() if k.startswith(("dsm.", "gc."))}


def main():
    binary = run.build()
    failures = []
    with tempfile.TemporaryDirectory(dir=run.build_tree()) as out_dir:
        for workload in run.WORKLOADS:
            first = one_cycle(binary, workload, run.DEFAULT_SEED, out_dir)
            again = one_cycle(binary, workload, run.DEFAULT_SEED, out_dir)
            other = one_cycle(binary, workload, run.HELD_OUT_SEED, out_dir)
            found = []
            if first != again:
                keys = sorted(k for k in first["counts"]
                              if first["counts"][k] != again["counts"].get(k))
                found.append("%s: same seed, different results (%s)" %
                             (workload, ", ".join(keys) or "metrics"))
            if layer_deltas(first) == layer_deltas(other):
                found.append("%s: seeds %d and %d gave identical DsmStats/GcStats deltas" %
                             (workload, run.DEFAULT_SEED, run.HELD_OUT_SEED))
            print("%s: %s" % (workload, "FAILED" if found else "ok"), flush=True)
            failures += found
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
