#!/usr/bin/env python3
"""Compare two pipeline output directories file by file.

    python3 scripts/compare_artifacts.py OLD NEW [--tol 1e-12] [--ignore manifest.json]

For each file name in either directory this prints one line: ``identical``
when the bytes are equal; for a CSV artifact that differs, the relative
2-norm ``|new - old| / |old|`` of its last (value) column, the other columns
(coordinates, indices) having to match exactly; otherwise ``differs``,
``only in OLD`` or ``only in NEW``.  An eigenvector's sign is arbitrary, so
``eigenvector_*`` files are compared after flipping NEW's sign when it
points away from OLD.  ``--ignore`` skips names that match a glob pattern
(``manifest.json`` holds timings, which differ on every run).

Exit status 1 when a file exists on one side only, or differs by more than
``--tol`` (default 0: any difference), else 0.
"""

import argparse
import fnmatch
import math
import os
import sys

import numpy as np


def _table(path):
    """The numbers of a CSV artifact below its header row, (rows, columns);
    None for a file that is not a table of numbers."""
    if not path.endswith(".csv"):
        return None
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        return None


def compare(old_path, new_path):
    """None for equal bytes, the relative 2-norm of the value column's change
    for CSV tables with the same other columns, inf for any other difference."""
    with open(old_path, "rb") as fh_old, open(new_path, "rb") as fh_new:
        if fh_old.read() == fh_new.read():
            return None
    old, new = _table(old_path), _table(new_path)
    if old is None or new is None or old.shape != new.shape \
            or not np.array_equal(old[:, :-1], new[:, :-1]):
        return math.inf
    a, b = old[:, -1], new[:, -1]
    if fnmatch.fnmatch(os.path.basename(old_path), "eigenvector_*") and a @ b < 0:
        b = -b
    scale = np.linalg.norm(a)
    return float(np.linalg.norm(b - a) / scale) if scale > 0 else float(np.linalg.norm(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest relative 2-norm difference allowed (default 0)")
    parser.add_argument("--ignore", action="append", default=[], metavar="GLOB",
                        help="skip file names that match; may be repeated")
    args = parser.parse_args(argv)
    names = {side: {name for name in os.listdir(path)
                    if os.path.isfile(os.path.join(path, name))
                    and not any(fnmatch.fnmatch(name, glob) for glob in args.ignore)}
             for side, path in (("OLD", args.old), ("NEW", args.new))}
    failed = False
    for name in sorted(names["OLD"] | names["NEW"]):
        if name not in names["NEW"] or name not in names["OLD"]:
            print(f"only in {'OLD' if name in names['OLD'] else 'NEW'} {name}")
            failed = True
            continue
        diff = compare(os.path.join(args.old, name), os.path.join(args.new, name))
        if diff is None:
            print(f"identical {name}")
        else:
            print(f"{'differs' if diff == math.inf else f'{diff:.3e}'} {name}")
            failed |= diff > args.tol
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
