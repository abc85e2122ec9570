"""The paper's mesh-independence claim as counts, on the linear2d problem.

    python3 bench/scaling.py --seed 1

Runs ``map`` and ``spectrum`` once per mesh (16x16, 24x24, 32x32 elements)
under the span tracer and prints, per size, the Lanczos iterations, Hessian
matvecs, retained rank and MAP CG iterations.  The paper claims these stay
flat as the mesh is refined.  They are counts, so they repeat exactly for a
seed; the last line is the JSON table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from linbayes.pipeline import run_pipeline  # noqa: E402

import spans  # noqa: E402
from workloads import linear2d_config  # noqa: E402

SIZES = (16, 24, 32)
STAGES = ("truth", "data", "map", "spectrum")
COUNTS = ("lowrank.lanczos.iters", "lowrank.hessian_matvecs", "lowrank.rank",
          "map_solver.cg_iters")


def count_pass(repo, seed, sizes=SIZES) -> dict:
    """Counts per mesh size for one seed."""
    os.makedirs(os.path.join(repo, ".bench_runs"), exist_ok=True)
    out = {}
    for n in sizes:
        workdir = tempfile.mkdtemp(prefix="scaling-", dir=os.path.join(repo, ".bench_runs"))
        try:
            cfg = linear2d_config(repo, seed, counts=(n, n))
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                run_pipeline(cfg, outdir=workdir, stages=STAGES)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics = spans.layer_metrics([tracer.spans])
        out[f"{n}x{n}"] = {k: metrics[k] for k in COUNTS}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    table = count_pass(os.getcwd(), args.seed)
    print(f"{'mesh':8s}" + "".join(f"{k:>26s}" for k in COUNTS))
    for size, row in table.items():
        print(f"{size:8s}" + "".join(f"{row[k]:26d}" for k in COUNTS))
    print(json.dumps({"seed": args.seed, "counts": table}))


if __name__ == "__main__":
    main()
