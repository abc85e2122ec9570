"""linbayes benchmark: one run of one workload.

    python3 bench/run.py --workload wave1d --seed 1 --seconds 50 --trace 0

Run from the root of a linbayes checkout.  Each workload runs in its own
single-process child (``child.py``) with BLAS threads pinned to 1, against
the package in ``src/`` and the bundled configs in ``configs/``.  The child's
report is passed through; its last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Exits non-zero, without a result, if the checkout or the child is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

CHILD_TIMEOUT_S = 170
WORK_ROOT = ".bench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "LINBAYES_THREADS")
REQUIRED = ("src/linbayes/__init__.py", "src/linbayes/pipeline.py",
            "configs/wave1d_small.json", "configs/linear_small.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="wave1d or linear2d")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    repo = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(repo, p))]
    if missing:
        print(f"bench: not a linbayes checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(repo, "src")
    env["PYTHONHASHSEED"] = "0"
    os.makedirs(os.path.join(repo, WORK_ROOT), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(repo, WORK_ROOT))
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", repo, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=repo, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print("\n".join(lines), file=sys.stderr)
        print(f"bench: child exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
