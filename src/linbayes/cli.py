"""Command-line driver for the inversion pipeline.

Exit codes: 0 success, 2 configuration error, 3 model/solver failure,
4 I/O failure, 5 missing or unusable upstream stage artifacts.
"""

import os

# Thread cap must land in the environment before numpy initializes its BLAS.
_threads = os.environ.get("LINBAYES_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import logging
import sys

from .errors import (ConfigError, InvalidParameterError, MissingArtifactError,
                     SolverFailure, StabilityError)
from .pipeline import PIPELINE_STAGES, SEED_FLAGS, run_pipeline

_STAGE_COMMANDS = ("sample-prior", "map", "spectrum", "variance", "sample-posterior")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="linbayes",
        description="Linearized Bayesian inversion pipeline over FEM parameter fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        for key, flag in SEED_FLAGS.items():
            p.add_argument(flag, type=int, default=None, dest=key)
        p.add_argument("--verbose", action="store_true")

    run = sub.add_parser("run", help="run the full pipeline (or one stage)")
    common(run)
    run.add_argument("--stage", choices=PIPELINE_STAGES, default=None)

    for name in _STAGE_COMMANDS:
        p = sub.add_parser(name, help=f"run the '{name}' stage")
        common(p)
        if name.startswith("sample"):
            p.add_argument("--count", type=int, default=None)
            p.add_argument("--seed", type=int, default=None,
                           help="shorthand for --seed-sample")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seed_overrides = {key: getattr(args, key) for key in SEED_FLAGS}
    if getattr(args, "seed", None) is not None:
        seed_overrides["sampling"] = args.seed
    if args.command == "run":
        stages = [args.stage] if args.stage else None
    else:
        stages = [args.command]
    # --verbose prints what the pipeline logs under "linbayes": the MAP log
    # and the stage cost counters
    log, handler = logging.getLogger("linbayes"), logging.StreamHandler(sys.stdout)
    if args.verbose:
        log.setLevel(logging.INFO)
        log.addHandler(handler)
    try:
        artifacts = run_pipeline(args.config, outdir=args.out, stages=stages,
                                 seed_overrides=seed_overrides,
                                 count=getattr(args, "count", None))
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
    if args.verbose:
        for name, digest in sorted(artifacts.checksums.items()):
            print(f"{digest}  {name}")
    print(f"wrote {len(artifacts.checksums)} artifacts to {artifacts.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
