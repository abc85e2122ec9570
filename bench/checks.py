"""Output checks behind the benchmark's ``failed`` count.

Every check returns a dict ``{stage: [problem, ...]}``; an empty list means
the stage's output passed.  The checks read the artifacts back from disk with
their own code (``hashlib``, ``numpy.loadtxt``), not with the pipeline's
readers, so a defect in those readers cannot hide itself.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

import numpy as np

from linbayes.pipeline import build_problem

# Dense closed form of the linear problem (n = 1089 on the 32x32 mesh):
# the MAP point must agree in the mass-weighted norm relative to its distance
# from the prior mean, and each retained eigenvalue relative to the largest.
# The solvers run at relative tolerances of 1e-12 (K, M and the Newton CG)
# and 1e-8 (Lanczos residuals), so both bounds leave two orders of margin.
MAP_REL_TOL = 1e-6
EIG_REL_TOL = 1e-6

# Draw variance against the variance field.  Lumped sqrt(M) biases the
# sampler's nodewise variance on the 32x32 mesh to 1.05-1.15 (prior) and
# 0.74-0.87 (posterior) of the exact field, measured by dense algebra; hence
# the band [0.70, 1.20].  256 draws about a known mean give a nodewise
# relative standard deviation of sqrt(2/256) = 0.088; every node must lie
# within 6 of those outside the band and the field mean within 3.
LUMPING_BAND = (0.70, 1.20)


def load_manifest(outdir) -> dict:
    with open(os.path.join(outdir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _column(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]


def stage_checksums(manifest, stage) -> dict:
    return dict(manifest["stages"].get(stage, {}).get("files", {}))


def check_stages(outdir, stages) -> dict:
    """Manifest checksums match the files, MAP converged, spectrum complete,
    0 <= posterior variance <= prior variance at every node."""
    manifest = load_manifest(outdir)
    problems = {stage: [] for stage in stages}
    for stage in stages:
        entry = manifest["stages"].get(stage)
        if entry is None:
            problems[stage].append("stage missing from the manifest")
            continue
        for name, digest in entry["files"].items():
            if _sha256(os.path.join(outdir, name)) != digest:
                problems[stage].append(f"{name}: checksum does not match the manifest")
        if stage == "map" and not entry.get("converged"):
            problems[stage].append("map.converged is false")
        if stage == "spectrum" and entry.get("spectrum_incomplete"):
            problems[stage].append("spectrum is incomplete")
        if stage == "variance":
            prior = _column(os.path.join(outdir, "prior_variance.csv"))
            post = _column(os.path.join(outdir, "posterior_variance.csv"))
            if np.any(post < 0) or np.any(post > prior):
                problems[stage].append("posterior variance outside [0, prior variance]")
    return problems


def check_linear_dense(cfg, outdir) -> dict:
    """MAP point and retained eigenvalues against the dense closed form."""
    problem = build_problem(cfg)
    prior, model = problem.prior, problem.model
    k = prior.stiffness.toarray()
    m = prior.mspace.matrix.toarray()
    g = model.operator
    s2 = model.noise_sigma ** 2
    y = _column(os.path.join(outdir, "observations.csv"))
    m0 = prior.mean

    precision = k @ np.linalg.solve(m, k)
    m_dense = np.linalg.solve(g.T @ g / s2 + precision, g.T @ y / s2 + precision @ m0)
    m_map = _column(os.path.join(outdir, "map.csv"))
    err, ref = m_map - m_dense, m_dense - m0
    map_err = math.sqrt(err @ m @ err) / math.sqrt(ref @ m @ ref)

    # nonzero spectrum of K^-1 G^T G K^-1 M / s2 equals that of the q x q
    # matrix G K^-1 M K^-1 G^T / s2
    b = np.linalg.solve(k, g.T)
    dense = np.linalg.eigvalsh(b.T @ m @ b / s2)[::-1]
    lambdas = np.loadtxt(os.path.join(outdir, "spectrum.csv"), delimiter=",",
                         skiprows=1, ndmin=2)[:, 1]
    threshold = cfg.get("lowrank", {}).get("trunc_threshold", 0.1)
    expected_rank = int(np.sum(dense >= threshold))

    problems = {"map": [], "spectrum": []}
    if not map_err <= MAP_REL_TOL:
        problems["map"].append(f"MAP differs from the dense solution by {map_err:.2e} "
                               f"(tolerance {MAP_REL_TOL:.0e})")
    if lambdas.size != expected_rank:
        problems["spectrum"].append(f"rank {lambdas.size}, dense rank {expected_rank}")
    else:
        eig_err = float(np.max(np.abs(lambdas - dense[:lambdas.size]), initial=0.0)
                        / dense[0])
        if not eig_err <= EIG_REL_TOL:
            problems["spectrum"].append(f"eigenvalues differ from dense by {eig_err:.2e} "
                                        f"(tolerance {EIG_REL_TOL:.0e})")
    return problems


def _draw_problems(outdir, prefix, mean_file, variance_file, count):
    draws = np.stack([_column(p) for p in
                      sorted(glob.glob(os.path.join(outdir, f"{prefix}_*.csv")))], axis=1)
    if draws.shape[1] != count:
        return [f"{draws.shape[1]} draw files, expected {count}"]
    mean = _column(os.path.join(outdir, mean_file))
    field = _column(os.path.join(outdir, variance_file))
    ratio = np.mean((draws - mean[:, None]) ** 2, axis=1) / field
    field_ratio = float(np.mean((draws - mean[:, None]) ** 2) / np.mean(field))
    sd = math.sqrt(2.0 / count)
    lo, hi = LUMPING_BAND
    out = []
    if np.min(ratio) < lo * (1 - 6 * sd) or np.max(ratio) > hi * (1 + 6 * sd):
        out.append(f"nodewise draw/field variance ratio in [{np.min(ratio):.3f}, "
                   f"{np.max(ratio):.3f}], outside [{lo * (1 - 6 * sd):.3f}, "
                   f"{hi * (1 + 6 * sd):.3f}]")
    if not lo * (1 - 3 * sd) <= field_ratio <= hi * (1 + 3 * sd):
        out.append(f"field-mean draw/field variance ratio {field_ratio:.3f} outside "
                   f"[{lo * (1 - 3 * sd):.3f}, {hi * (1 + 3 * sd):.3f}]")
    return out


def check_draws(outdir, count) -> dict:
    """Draw variance of both samplers against their variance fields."""
    return {
        "sample-prior": _draw_problems(outdir, "prior_sample", "prior_mean.csv",
                                       "prior_variance.csv", count),
        "sample-posterior": _draw_problems(outdir, "posterior_sample", "map.csv",
                                           "posterior_variance.csv", count),
    }
