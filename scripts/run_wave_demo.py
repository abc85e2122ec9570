#!/usr/bin/env python3
"""Run the bundled 1D wave-inversion demo: synthetic truth on a refined twin
mesh, MAP reconstruction, dominant spectrum, and pointwise uncertainty."""

import argparse
import csv
import logging
from pathlib import Path

import numpy as np

from linbayes.pipeline import run_pipeline

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "wave1d_small.json"


def _field(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[-1]) for r in rows])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/wave1d_small")
    parser.add_argument("--config", default=str(CONFIG))
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(message)s")  # the MAP log
    artifacts = run_pipeline(args.config, outdir=args.out)
    out = Path(artifacts.outdir)
    truth = _field(out / "truth.csv")
    m_map = _field(out / "map.csv")
    prior_sd = np.sqrt(_field(out / "prior_variance.csv"))
    post_sd = np.sqrt(_field(out / "posterior_variance.csv"))

    stages = artifacts.manifest["stages"]
    print(f"\noutput directory: {out}")
    print(f"map converged: {stages['map']['converged']} in "
          f"{stages['map']['newton_iters']} newton iterations")
    print(f"reconstruction rel error: "
          f"{np.linalg.norm(m_map - truth) / np.linalg.norm(truth):.3e}")
    print(f"retained eigenvalues: "
          + ", ".join(f"{v:.3g}" for v in stages["spectrum"]["lambdas"]))
    print(f"mean std reduction: prior {prior_sd.mean():.4f} -> "
          f"posterior {post_sd.mean():.4f}")


if __name__ == "__main__":
    main()
