#!/usr/bin/env python3
"""Runs a command and fails when its peak resident set size exceeds a bound.

    python3 scripts/check_peak_rss.py --max-mb 512 -- <command> [args...]

The peak is the child's ru_maxrss, read with getrusage(RUSAGE_CHILDREN) once
it has exited (KiB on Linux).  Linux counts the child's image before exec
too, so the floor is this interpreter's own RSS, about 15 MB.  Prints the
peak and the wall time.  Exits with the command's status when it fails, 1
when the peak exceeds the bound, else 0.
"""

import argparse
import resource
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    start = time.monotonic()
    status = subprocess.run(command).returncode
    wall = time.monotonic() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print("peak RSS %.1f MB (bound %.0f MB), wall %.2f s" % (peak_mb, args.max_mb, wall))
    if status != 0:
        return status
    if peak_mb > args.max_mb:
        print("peak RSS above the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
