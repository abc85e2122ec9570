#!/usr/bin/env python3
"""Compare two pipeline output directories file by file.

    python3 scripts/compare_artifacts.py OLD NEW [--tol 1e-12] [--ignore GLOB]

For each file name in either directory this prints one line: ``identical``
when the bytes are equal; for a CSV artifact that differs, the relative
2-norm ``|new - old| / |old|`` of its last (value) column, the other columns
(coordinates, indices) having to match exactly; otherwise ``differs``,
``only in OLD`` or ``only in NEW``.  An eigenvector's sign is arbitrary, so
``eigenvector_*`` files are compared after flipping NEW's sign when it
points away from OLD.

``manifest.json`` is compared by its ``stages`` objects, each entry less its
``timing_s``, which differs on every run: ``identical manifest.json`` when
they are equal, else one line per stage found on one side only (``only in
OLD manifest.json:map``) and per stage key whose value differs (``differs
manifest.json:map.newton_iters``).  The config it echoes, which names the
output directory, is not compared.  ``--ignore`` skips names that match a
glob pattern.

Exit status 1 when a file exists on one side only, differs by more than
``--tol`` (default 0: any difference), or is a manifest whose stages differ,
else 0.
"""

import argparse
import fnmatch
import json
import math
import os
import sys

import numpy as np

MANIFEST = "manifest.json"


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


def _stages(path):
    """The manifest's stage entries, each key's value as sorted JSON text
    (so that NaN equals NaN), without ``timing_s``."""
    with open(path, "r", encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    return {stage: {key: json.dumps(val, sort_keys=True) for key, val in entry.items()
                    if key != "timing_s"} for stage, entry in stages.items()}


def compare_manifests(old_path, new_path):
    """One line per stage on one side only and per stage key that differs."""
    old, new = _stages(old_path), _stages(new_path)
    lines = []
    for stage in sorted(old.keys() | new.keys()):
        if stage not in old or stage not in new:
            lines.append(f"only in {'OLD' if stage in old else 'NEW'} {MANIFEST}:{stage}")
            continue
        lines += [f"differs {MANIFEST}:{stage}.{key}"
                  for key in sorted(old[stage].keys() | new[stage].keys())
                  if old[stage].get(key) != new[stage].get(key)]
    return lines


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
        if name == MANIFEST:
            lines = compare_manifests(os.path.join(args.old, name), os.path.join(args.new, name))
            print("\n".join(lines) or f"identical {name}")
            failed |= bool(lines)
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
