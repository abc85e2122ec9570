"""Command-line driver for the inversion pipeline.

Exit codes: 0 success, 2 configuration error, 3 model/solver failure,
4 I/O failure, 5 missing or unusable upstream stage artifacts.
"""

import argparse
import logging
import sys

from .errors import (ConfigError, InvalidParameterError, MissingArtifactError,
                     SolverFailure, StabilityError)
from .pipeline import PIPELINE_STAGES, run_pipeline


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="linbayes",
        description="Linearized Bayesian inversion pipeline over FEM parameter fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *PIPELINE_STAGES):
        p = sub.add_parser(name, help="run every stage" if name == "run"
                           else f"run the '{name}' stage")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stages = None if args.command == "run" else [args.command]
    # --verbose prints what the pipeline logs under "linbayes": the MAP log
    # and the stage cost counters
    log, handler = logging.getLogger("linbayes"), logging.StreamHandler(sys.stdout)
    if args.verbose:
        log.setLevel(logging.INFO)
        log.addHandler(handler)
    try:
        artifacts = run_pipeline(args.config, outdir=args.out, stages=stages)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"missing or unusable upstream artifacts: {exc}", file=sys.stderr)
        return 5
    except (SolverFailure, InvalidParameterError, StabilityError) as exc:
        print(f"solver/model failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)
    written = {name: digest for stage in stages or PIPELINE_STAGES
               for name, digest in artifacts.manifest["stages"][stage]["files"].items()}
    if args.verbose:
        for name, digest in sorted(written.items()):
            print(f"{digest}  {name}")
    print(f"wrote {len(written)} artifacts to {artifacts.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
