#!/usr/bin/env python3
"""Run the bundled 1D wave-inversion demo: synthetic truth on a refined twin
mesh, MAP reconstruction, dominant spectrum, and pointwise uncertainty."""

import argparse
import logging
from pathlib import Path

import numpy as np

from linbayes.pipeline import load_config, read_field_csv, run_pipeline

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "wave1d_small.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/wave1d_small")
    parser.add_argument("--config", default=str(CONFIG))
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(message)s")  # the MAP log
    config = load_config(args.config)
    artifacts = run_pipeline(config, outdir=args.out)
    out = Path(artifacts.outdir)
    truth, m_map, prior_var, post_var = (
        read_field_csv(str(out / name), config.mesh)
        for name in ("truth.csv", "map.csv", "prior_variance.csv", "posterior_variance.csv"))
    prior_sd, post_sd = np.sqrt(prior_var), np.sqrt(post_var)

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
