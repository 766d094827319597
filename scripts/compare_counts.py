#!/usr/bin/env python3
"""Compares two perfbench --counts-out files key by key.

    python3 scripts/compare_counts.py EXPECTED ACTUAL [--ignore KEY ...]

Both files hold {"metrics": {...}, "counts": {...}}: the count-derived
end-to-end metrics and the layer counters of one seed's cycle, which repeat
exactly for a given build and seed.  Every key of both sections must be
present in both files with equal values, except the keys named by --ignore
(in either section).  Prints each differing or missing key with both values.
Exits 1 if there is any, else 0.
"""

import argparse
import json
import sys

SECTIONS = ("metrics", "counts")
MISSING = "(missing)"


def load(path):
    with open(path) as f:
        data = json.load(f)
    for section in SECTIONS:
        if not isinstance(data.get(section), dict):
            sys.exit("%s: no '%s' object" % (path, section))
    return data


def differences(expected, actual, ignore):
    """Yields (section, key, expected value, actual value) for each key whose
    values differ or that one side lacks."""
    for section in SECTIONS:
        want, got = expected[section], actual[section]
        for key in sorted(set(want) | set(got)):
            if key in ignore:
                continue
            a, b = want.get(key, MISSING), got.get(key, MISSING)
            if a != b:
                yield section, key, a, b


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("expected")
    parser.add_argument("actual")
    parser.add_argument("--ignore", nargs="+", action="extend", default=[], metavar="KEY",
                        help="a key not compared, in either section")
    args = parser.parse_args()

    diffs = list(differences(load(args.expected), load(args.actual), set(args.ignore)))
    for section, key, a, b in diffs:
        print("%s.%s: expected %s, actual %s" % (section, key, a, b))
    if diffs:
        print("%d key(s) differ between %s and %s" % (len(diffs), args.expected, args.actual),
              file=sys.stderr)
        return 1
    print("counts match (%s vs %s)" % (args.expected, args.actual))
    return 0


if __name__ == "__main__":
    sys.exit(main())
