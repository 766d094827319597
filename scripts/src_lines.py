#!/usr/bin/env python3
"""Counts the non-blank, non-comment lines of src/, per module and in total.

    python3 scripts/src_lines.py [ROOT]

Every file under ROOT/src (ROOT defaults to the repo this script lives in)
counts; a line counts unless it is blank or starts with `//` after leading
whitespace.  A module is a directory directly under src/; files directly in
src/ count as module ".".  This is the size figure ROADMAP.md and CHANGES.md
quote.
"""

import os
import sys


def count_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return sum(1 for line in f if line.strip() and not line.lstrip().startswith("//"))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    modules = {}
    for directory, _, files in os.walk(src):
        rel = os.path.relpath(directory, src)
        module = rel.split(os.sep)[0]
        for name in files:
            modules[module] = modules.get(module, 0) + count_lines(os.path.join(directory, name))
    for module in sorted(modules):
        print("%-10s %6d" % (module, modules[module]))
    print("%-10s %6d" % ("total", sum(modules.values())))


if __name__ == "__main__":
    main()
