#!/usr/bin/env python3
"""Time the wave model's forward solve and Jacobian build in process.

    OMP_NUM_THREADS=1 python3 scripts/wave_timing.py [--repeats 5] [--case NAME ...]

Each case is ``configs/wave1d_small.json`` with its mesh, dt or observation
changed:

* ``bundled``  the config as it is: 100 elements, dt 2.5e-3, one receiver,
  Fourier observables;
* ``400-raw``  400 elements, dt 6.25e-4, four receivers (0.2, 0.4, 0.65,
  0.85), raw samples;
* ``800``      800 elements, dt 3.125e-4.

Every repetition builds a fresh model with ``build_problem``, so no cached
solve is reused, and times ``observe`` (the forward solve, with the step's
assembly) and then ``jacobian`` (the Jacobian build, with the forming of its
stage maps) at the config's true wavespeed.  One more fresh model gives the
Jacobian build's tracemalloc peak, taken after its forward solve.  Per case
this prints one JSON line: the medians ``forward_ms`` and ``jacobian_ms``
and ``jacobian_peak_mib``.  Set the BLAS thread count in the environment,
as above, when comparing commits.
"""

import argparse
import copy
import json
import statistics
import time
import tracemalloc
from pathlib import Path

from linbayes.pipeline import build_problem, evaluate_field

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "wave1d_small.json"


def _cases(base) -> dict:
    raw = copy.deepcopy(base)
    raw["mesh"]["counts"], raw["model"]["dt"] = [400], 6.25e-4
    raw["observation"]["receivers"] = [0.2, 0.4, 0.65, 0.85]
    del raw["observation"]["fourier_truncation"]
    fine = copy.deepcopy(base)
    fine["mesh"]["counts"], fine["model"]["dt"] = [800], 3.125e-4
    return {"bundled": base, "400-raw": raw, "800": fine}


def _fresh(config):
    """A new wave model of ``config`` and its true wavespeed."""
    problem = build_problem(config)
    return problem.model, evaluate_field(problem.config.truth, problem.mesh.node_coords)


def time_case(name, config, repeats) -> dict:
    forward, jacobian = [], []
    for _ in range(repeats):
        model, c = _fresh(config)
        t0 = time.perf_counter()
        model.observe(c)
        t1 = time.perf_counter()
        model.jacobian(c)
        t2 = time.perf_counter()
        forward.append(1e3 * (t1 - t0))
        jacobian.append(1e3 * (t2 - t1))
    model, c = _fresh(config)
    model.observe(c)
    tracemalloc.start()
    try:
        model.jacobian(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"case": name, "elements": model.n - 1, "q": model.q, "repeats": repeats,
            "forward_ms": round(statistics.median(forward), 3),
            "jacobian_ms": round(statistics.median(jacobian), 3),
            "jacobian_peak_mib": round(peak / 2**20, 2)}


def main(argv=None):
    cases = _cases(json.loads(CONFIG.read_text()))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5, help="timed fresh models per case")
    ap.add_argument("--case", action="append", choices=list(cases),
                    help="a case to run (repeatable; default all)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    for name in args.case or cases:
        print(json.dumps(time_case(name, cases[name], args.repeats)), flush=True)


if __name__ == "__main__":
    main()
