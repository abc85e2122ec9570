#!/usr/bin/env python3
"""Run the bundled linear inverse problem end to end and print a summary."""

import argparse
import json
import logging
from pathlib import Path

from linbayes.pipeline import run_pipeline

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "linear_small.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/linear_small")
    parser.add_argument("--config", default=str(CONFIG))
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(message)s")  # the MAP log
    artifacts = run_pipeline(args.config, outdir=args.out)
    stages = artifacts.manifest["stages"]
    print(f"\noutput directory: {artifacts.outdir}")
    print(f"map converged: {stages['map']['converged']} "
          f"(gradient reduction {stages['map']['map_gradnorm_reduction']:.2e})")
    lambdas = stages["spectrum"]["lambdas"]
    print(f"retained eigenvalues ({len(lambdas)}): "
          + ", ".join(f"{v:.3g}" for v in lambdas))
    print(json.dumps({k: v["timing_s"] for k, v in stages.items()}, indent=2))


if __name__ == "__main__":
    main()
