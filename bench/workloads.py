"""Benchmark workloads: configs generated from the bundled ones and a seed.

Each whole run of a workload gets its own config, made from the run's seed
and the whole run's index ``k``: the pair sets the config's ``sampling`` and
``lanczos`` seeds, so the Lanczos start vector and the draws; everything else
is fixed.  One seed always gives the same configs and, the pipeline being
deterministic, the same artifacts.

The data noise (and on ``linear2d`` the forward operator, ``model.seed``)
keep the bundled seeds.  Seeded as well, they moved the MAP solve's work:
7 Newton and 42 CG iterations to 8 and 55 on ``wave1d`` over seeds 1-8, and
59 to 72 CG iterations on ``linear2d`` over six seeds each.  A run makes
one or two MAP solves, too few to average that out, so the seed would
have set ``map_s`` more than the program did.

* ``wave1d``   the bundled ``wave1d_small.json``, full ``run``.  Wave sweeps
               in ``models`` dominate, driven by ``map_solver`` and Lanczos.
* ``linear2d`` ``linear_small.json`` regenerated on a 32x32 mesh of [-1, 1]^2
               with the paper's radial anisotropy and 256 draws per sampling
               stage, full ``run``.  Single-column Jacobi-CG K solves
               (pointwise variance) dominate ``variance``; 256-column block
               K solves and 512 CSV writes dominate the sampling stages.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("wave1d", "linear2d")
DRAW_COUNT = 256
LINEAR2D_COUNTS = (32, 32)


def _load(repo, name):
    with open(os.path.join(repo, "configs", name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _seed(cfg, seed, k):
    rng = random.Random(f"{seed}/{k}")
    cfg["seeds"].update({key: rng.randrange(2**31) for key in ("sampling", "lanczos")})
    return cfg


def wave1d_config(repo, seed, k=0):
    return _seed(_load(repo, "wave1d_small.json"), seed, k)


def linear2d_config(repo, seed, k=0, counts=LINEAR2D_COUNTS):
    """The bundled linear config at a timeable size with radial anisotropy.

    ``r_max`` exceeds ``q`` so the rank-``q`` misfit Hessian's spectrum can
    be captured completely.
    """
    cfg = _load(repo, "linear_small.json")
    cfg["mesh"] = {"dim": 2, "counts": list(counts),
                   "bounds": [[-1.0, 1.0], [-1.0, 1.0]]}
    cfg["prior"]["anisotropy"] = {"kind": "radial", "beta": 0.05,
                                  "theta": 0.5, "radius": 1.5}
    cfg["model"]["q"] = 50
    cfg["lowrank"]["r_max"] = 60
    cfg["output"]["sample_count"] = DRAW_COUNT
    return _seed(cfg, seed, k)


def make_config(name, repo, seed, k, outdir) -> dict:
    """Config of whole run ``k`` of workload ``name`` for ``seed``."""
    if name == "wave1d":
        cfg = wave1d_config(repo, seed, k)
    elif name == "linear2d":
        cfg = linear2d_config(repo, seed, k)
    else:
        raise ValueError(f"unknown workload '{name}'")
    cfg["output"]["directory"] = outdir
    return cfg
