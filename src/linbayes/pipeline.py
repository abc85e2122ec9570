"""End-to-end pipeline: JSON configuration, stages, CSV artifacts, manifest.

Stages compose through the output directory: each one records its files (with
content checksums) in ``manifest.json`` and later stages reload exactly those
files, so running ``linbayes run`` once is byte-identical to running the
subcommands one at a time.  Everything is deterministic under fixed seeds;
CSV files carry 17 significant digits, which round-trips doubles exactly.
Each file is written to a temporary name and moved into place, so a crash
leaves every artifact and the manifest whole, old or new.  The ``map`` and
``spectrum`` entries record the forward solves and Jacobian builds the stage
ran (``forward_solves``, ``jacobian_builds``); a stage that finds its point
already solved by the stage before it, in one ``run``, records none.

Stage graph:

    truth -> data -> map -> spectrum -> variance
                              \\-> sample-posterior
    sample-prior (independent)
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingArtifactError, SolverFailure
from .fem import AnisotropySpec, build_mesh
from .lowrank import (EigenDecomposition, LowRankPosterior, lanczos_eigs,
                      prior_preconditioned_hessian, truncation_error_bound)
from .map_solver import MapSolverConfig, find_map
from .models import (ObservationSetup, SourceSpec, WaveConfig, WaveModel,
                     synthesize_data)
from .models.linear import random_linear_model
from .prior import build_prior

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".linbayes.lock"
PIPELINE_STAGES = ("truth", "data", "map", "spectrum", "variance",
                   "sample-prior", "sample-posterior")
# the command-line flag that sets each seed override, named in range errors
SEED_FLAGS = {"data_noise": "--seed-data", "sampling": "--seed-sample",
              "lanczos": "--seed-lanczos"}
STAGE_DEPS = {
    "truth": (),
    "data": ("truth",),
    "map": ("data",),
    "spectrum": ("map",),
    "variance": ("spectrum",),
    "sample-prior": (),
    "sample-posterior": ("spectrum", "map"),
}


# ---------------------------------------------------------------------------
# configuration parsing (fail-closed: unknown keys are rejected)


def _check_keys(d, path, required, optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in d:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing required key")


def _number(d, path, key, default=None, positive=False, nonnegative=False):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    if positive and val <= 0:
        raise ConfigError(f"{path}.{key}: must be positive, got {val}")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}.{key}: must be nonnegative, got {val}")
    return float(val)


def _integer(d, path, key, default=None, minimum=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _validate_field_spec(spec, path, dim):
    _check_keys(spec, path, required=("kind",),
                optional=("value", "center", "width", "amplitude", "terms"))
    kind = spec.get("kind")
    if kind == "constant":
        _number(spec, path, "value")
    elif kind == "gaussian_bump":
        center = spec.get("center")
        if not isinstance(center, list) or len(center) != dim or any(
                isinstance(c, bool) or not isinstance(c, (int, float)) for c in center):
            raise ConfigError(f"{path}.center: expected a list of {dim} coordinates")
        _number(spec, path, "width", positive=True)
        _number(spec, path, "amplitude")
    elif kind == "sum":
        terms = spec.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{path}.terms: expected a nonempty list")
        for i, term in enumerate(terms):
            _validate_field_spec(term, f"{path}.terms[{i}]", dim)
    else:
        raise ConfigError(f"{path}.kind: unknown field kind '{kind}'")


def evaluate_field(spec, coords) -> np.ndarray:
    """Evaluate an analytic field spec at an (n, dim) array of points."""
    kind = spec["kind"]
    if kind == "constant":
        return np.full(coords.shape[0], float(spec["value"]))
    if kind == "gaussian_bump":
        center = np.asarray(spec["center"], dtype=float)
        d2 = np.sum((coords - center[None, :]) ** 2, axis=1)
        return float(spec["amplitude"]) * np.exp(-0.5 * d2 / float(spec["width"]) ** 2)
    if kind == "sum":
        return sum(evaluate_field(t, coords) for t in spec["terms"])
    raise ConfigError(f"unknown field kind '{kind}'")


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict against the versioned schema.

    Returns the dict unchanged on success; raises ConfigError naming the
    offending field path otherwise.
    """
    _check_keys(raw, "config",
                required=("schema_version", "mesh", "prior", "model", "truth",
                          "observation", "seeds", "output"),
                optional=("map_solver", "lowrank"))
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']}")

    mesh = raw["mesh"]
    _check_keys(mesh, "config.mesh", required=("dim", "counts", "bounds"))
    dim = _integer(mesh, "config.mesh", "dim", minimum=1)
    if dim not in (1, 2):
        raise ConfigError(f"config.mesh.dim: must be 1 or 2, got {dim}")
    counts = mesh["counts"]
    if not isinstance(counts, list) or len(counts) != dim or \
            any(isinstance(c, bool) or not isinstance(c, int) or c < 1 for c in counts):
        raise ConfigError(f"config.mesh.counts: expected {dim} integer(s) >= 1")
    bounds = mesh["bounds"]
    ok = isinstance(bounds, list) and len(bounds) == dim and all(
        isinstance(b, list) and len(b) == 2 and
        all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in b) and
        b[0] < b[1] for b in bounds)
    if not ok:
        raise ConfigError(f"config.mesh.bounds: expected {dim} [lo, hi] pair(s) with lo < hi")

    prior = raw["prior"]
    _check_keys(prior, "config.prior", required=("alpha", "anisotropy", "mean"))
    _number(prior, "config.prior", "alpha", positive=True)
    aniso = prior["anisotropy"]
    _check_keys(aniso, "config.prior.anisotropy", required=("kind", "beta"),
                optional=("theta", "radius"))
    if aniso["kind"] not in ("isotropic", "radial"):
        raise ConfigError("config.prior.anisotropy.kind: must be 'isotropic' or 'radial'")
    _number(aniso, "config.prior.anisotropy", "beta", positive=True)
    if aniso["kind"] == "radial":
        _number(aniso, "config.prior.anisotropy", "theta", positive=True)
        _number(aniso, "config.prior.anisotropy", "radius", positive=True)
    _validate_field_spec(prior["mean"], "config.prior.mean", dim)
    _validate_field_spec(raw["truth"], "config.truth", dim)

    model = raw["model"]
    _check_keys(model, "config.model", required=("kind",),
                optional=("q", "seed", "scale", "final_time", "dt", "cfl", "rho",
                          "source", "mitigate_inverse_crime"))
    kind = model.get("kind")
    obs = raw["observation"]
    if kind == "linear":
        _integer(model, "config.model", "q", minimum=1)
        _integer(model, "config.model", "seed", minimum=0)
        _number(model, "config.model", "scale", default=1.0, positive=True)
        _check_keys(obs, "config.observation", required=("noise_sigma",))
        _number(obs, "config.observation", "noise_sigma", positive=True)
    elif kind == "wave1d":
        if dim != 1:
            raise ConfigError("config.model.kind: wave1d requires a 1D mesh")
        _number(model, "config.model", "final_time", positive=True)
        _number(model, "config.model", "dt", positive=True)
        _number(model, "config.model", "cfl", default=0.5, positive=True)
        _number(model, "config.model", "rho", default=1.0, positive=True)
        src = model.get("source")
        _check_keys(src, "config.model.source",
                    required=("position", "width", "time_center", "time_std"),
                    optional=("amplitude",))
        for key, pos in (("position", False), ("width", True),
                         ("time_center", False), ("time_std", True)):
            _number(src, "config.model.source", key, positive=pos)
        _number(src, "config.model.source", "amplitude", default=1.0)
        mic = model.get("mitigate_inverse_crime", False)
        if not isinstance(mic, bool):
            raise ConfigError("config.model.mitigate_inverse_crime: expected a boolean")
        _check_keys(obs, "config.observation",
                    required=("noise_sigma", "receivers", "sample_times"),
                    optional=("fourier_truncation",))
        _number(obs, "config.observation", "noise_sigma", positive=True)
        recs = obs["receivers"]
        if not isinstance(recs, list) or not recs or \
                any(isinstance(r, bool) or not isinstance(r, (int, float)) for r in recs):
            raise ConfigError("config.observation.receivers: expected a list of positions")
        st = obs["sample_times"]
        if isinstance(st, dict):
            _check_keys(st, "config.observation.sample_times",
                        required=("start", "stop", "count"))
            start = _number(st, "config.observation.sample_times", "start", positive=True)
            stop = _number(st, "config.observation.sample_times", "stop", positive=True)
            _integer(st, "config.observation.sample_times", "count", minimum=1)
            if stop <= start:
                raise ConfigError("config.observation.sample_times.stop: must exceed start")
        elif isinstance(st, list):
            if not st or any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in st):
                raise ConfigError("config.observation.sample_times: expected times or "
                                  "{start, stop, count}")
        else:
            raise ConfigError("config.observation.sample_times: expected times or "
                              "{start, stop, count}")
        if obs.get("fourier_truncation") is not None:
            _integer(obs, "config.observation", "fourier_truncation", minimum=1)
    else:
        raise ConfigError(f"config.model.kind: unknown model kind '{kind}'")

    solver = raw.get("map_solver", {})
    _check_keys(solver, "config.map_solver", required=(),
                optional=("grad_tol_rel", "max_newton_iters", "max_cg_iters",
                          "forcing_exponent", "armijo_c1", "backtrack_factor",
                          "max_backtracks", "cg_tol_fixed"))
    for key, val in solver.items():
        if key in ("max_newton_iters", "max_cg_iters", "max_backtracks"):
            _integer(solver, "config.map_solver", key, minimum=0)
        elif not (key == "cg_tol_fixed" and val is None):
            _number(solver, "config.map_solver", key, positive=True)
    if "backtrack_factor" in solver and solver["backtrack_factor"] >= 1:
        raise ConfigError("config.map_solver.backtrack_factor: must be below 1")
    lowrank = raw.get("lowrank", {})
    _check_keys(lowrank, "config.lowrank", required=(),
                optional=("r_max", "eig_tol", "trunc_threshold", "max_iters"))
    n_nodes = math.prod(c + 1 for c in counts)
    if "r_max" in lowrank and \
            _integer(lowrank, "config.lowrank", "r_max", minimum=1) > n_nodes:
        raise ConfigError(f"config.lowrank.r_max: must not exceed the {n_nodes} mesh nodes")
    if "eig_tol" in lowrank:
        _number(lowrank, "config.lowrank", "eig_tol", positive=True)
    if "trunc_threshold" in lowrank:
        _number(lowrank, "config.lowrank", "trunc_threshold", nonnegative=True)
    if lowrank.get("max_iters") is not None:
        _integer(lowrank, "config.lowrank", "max_iters", minimum=1)

    seeds = raw["seeds"]
    _check_keys(seeds, "config.seeds", required=("data_noise", "sampling", "lanczos"))
    for key in ("data_noise", "sampling", "lanczos"):
        _integer(seeds, "config.seeds", key, minimum=0)

    output = raw["output"]
    _check_keys(output, "config.output", required=("directory",),
                optional=("sample_count",))
    if not isinstance(output["directory"], str) or not output["directory"]:
        raise ConfigError("config.output.directory: expected a nonempty path")
    if "sample_count" in output:
        _integer(output, "config.output", "sample_count", minimum=1)
    return raw


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return validate_config(raw)


@dataclass(frozen=True)
class PipelineConfig:
    """A configuration dict that has passed schema validation."""

    raw: dict

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls(load_config(path))

    @classmethod
    def from_dict(cls, d) -> "PipelineConfig":
        return cls(validate_config(d))


# ---------------------------------------------------------------------------
# problem assembly from a validated config


@dataclass
class Problem:
    config: dict
    mesh: object
    prior: object
    model: object


def _build_anisotropy(cfg) -> AnisotropySpec:
    spec = cfg["prior"]["anisotropy"]
    if spec["kind"] == "isotropic":
        return AnisotropySpec.isotropic(spec["beta"])
    return AnisotropySpec.radial(spec["beta"], spec["theta"], spec["radius"])


def _sample_times(cfg):
    st = cfg["observation"]["sample_times"]
    if isinstance(st, dict):
        return tuple(np.linspace(st["start"], st["stop"], st["count"]))
    return tuple(float(t) for t in st)


def _build_observation(cfg) -> ObservationSetup:
    obs = cfg["observation"]
    return ObservationSetup(receiver_positions=tuple(obs["receivers"]),
                            sample_times=_sample_times(cfg),
                            noise_sigma=obs["noise_sigma"],
                            fourier_truncation=obs.get("fourier_truncation"))


def _build_wave_model(cfg, mesh, mspace=None, refine=1) -> WaveModel:
    mspec = cfg["model"]
    src = mspec["source"]
    source = SourceSpec(position=src["position"], width=src["width"],
                        time_center=src["time_center"], time_std=src["time_std"],
                        amplitude=src.get("amplitude", 1.0))
    wcfg = WaveConfig(mesh=mesh, final_time=mspec["final_time"],
                      dt=mspec["dt"] / refine, source=source,
                      rho=mspec.get("rho", 1.0), cfl=mspec.get("cfl", 0.5))
    return WaveModel(wcfg, _build_observation(cfg), mspace=mspace)


def build_problem(cfg) -> Problem:
    mcfg = cfg["mesh"]
    mesh = build_mesh(mcfg["dim"], tuple(mcfg["counts"]),
                      [tuple(b) for b in mcfg["bounds"]])
    mean = evaluate_field(cfg["prior"]["mean"], mesh.node_coords)
    prior = build_prior(mesh, cfg["prior"]["alpha"], _build_anisotropy(cfg), mean=mean)
    if cfg["model"]["kind"] == "linear":
        model = random_linear_model(prior.mspace, cfg["model"]["q"],
                                    cfg["observation"]["noise_sigma"],
                                    cfg["model"]["seed"],
                                    scale=cfg["model"].get("scale", 1.0))
    else:
        model = _build_wave_model(cfg, mesh, mspace=prior.mspace)
    return Problem(config=cfg, mesh=mesh, prior=prior, model=model)


def build_map_solver_config(cfg) -> MapSolverConfig:
    return MapSolverConfig(**cfg.get("map_solver", {}))


# ---------------------------------------------------------------------------
# artifact files


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _atomic_open(path, newline=None):
    """Text file handle whose contents replace ``path`` only once the block
    completes; a crash part-way leaves the old file and no temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path, header, rows):
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_field_csv(path, mesh, values):
    header = ["x", "value"] if mesh.dim == 1 else ["x", "y", "value"]
    rows = [[_fmt(c) for c in coord] + [_fmt(v)]
            for coord, v in zip(mesh.node_coords, values)]
    _write_csv(path, header, rows)


def read_field_csv(path, mesh) -> np.ndarray:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        vals = [float(row[-1]) for row in reader]
    if len(vals) != mesh.n:
        raise ValueError(f"{path}: expected {mesh.n} rows, found {len(vals)}")
    return np.asarray(vals)


def read_vector_csv(path) -> np.ndarray:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.asarray([float(row[-1]) for row in reader])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunArtifacts:
    outdir: str
    manifest: dict

    @property
    def checksums(self) -> dict:
        out = {}
        for stage in self.manifest.get("stages", {}).values():
            out.update(stage.get("files", {}))
        return out


# ---------------------------------------------------------------------------
# stages


def _load_manifest(outdir) -> dict:
    path = os.path.join(outdir, MANIFEST_NAME)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return {"schema_version": SCHEMA_VERSION, "stages": {}}


def _save_manifest(outdir, manifest):
    with _atomic_open(os.path.join(outdir, MANIFEST_NAME)) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record(manifest, outdir, stage, filenames, **extra):
    entry = {"files": {name: sha256_file(os.path.join(outdir, name))
                       for name in filenames}}
    entry.update(extra)
    manifest["stages"][stage] = entry


def _solve_counts(model, since=None):
    """The model's forward solves and Jacobian builds, less those in ``since``."""
    since = since or {}
    counts = {"forward_solves": model.forward_solves,
              "jacobian_builds": model.jacobian_builds}
    return {key: val - since.get(key, 0) for key, val in counts.items()}


def _require(manifest, stage):
    for dep in STAGE_DEPS[stage]:
        if dep not in manifest["stages"]:
            raise MissingArtifactError(dep)


def _check_override(flag, val, minimum):
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise ConfigError(f"{flag}: must be an integer >= {minimum}, got {val!r}")


def _seeds(cfg, overrides):
    seeds = dict(cfg["seeds"])
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in SEED_FLAGS:
            raise ConfigError(f"unknown seed override '{key}'")
        _check_override(SEED_FLAGS[key], val, 0)
        seeds[key] = val
    return seeds


def _stage_truth(problem, outdir, manifest, seeds, options):
    cfg, mesh = problem.config, problem.mesh
    truth = evaluate_field(cfg["truth"], mesh.node_coords)
    write_field_csv(os.path.join(outdir, "prior_mean.csv"), mesh, problem.prior.mean)
    write_field_csv(os.path.join(outdir, "truth.csv"), mesh, truth)
    _record(manifest, outdir, "truth", ["prior_mean.csv", "truth.csv"])


def _stage_data(problem, outdir, manifest, seeds, options):
    cfg = problem.config
    sigma = cfg["observation"]["noise_sigma"]
    files = ["observations.csv"]
    if cfg["model"]["kind"] == "wave1d" and cfg["model"].get("mitigate_inverse_crime"):
        # generate data on a twice-refined mesh and time step, invert on the
        # coarse one
        mcfg = cfg["mesh"]
        fine_mesh = build_mesh(mcfg["dim"], tuple(2 * c for c in mcfg["counts"]),
                               [tuple(b) for b in mcfg["bounds"]])
        data_model = _build_wave_model(cfg, fine_mesh, refine=2)
        m_true = evaluate_field(cfg["truth"], fine_mesh.node_coords)
    else:
        data_model = problem.model
        m_true = read_field_csv(os.path.join(outdir, "truth.csv"), problem.mesh)
    y_obs = synthesize_data(data_model, m_true, sigma, seeds["data_noise"])
    _write_csv(os.path.join(outdir, "observations.csv"), ["index", "value"],
               [[i, _fmt(v)] for i, v in enumerate(y_obs)])
    if isinstance(data_model, WaveModel):
        series = data_model.receiver_series(m_true)
        dt = data_model.config.dt
        rows = [[_fmt(k * dt), r, _fmt(series[k, r])]
                for r in range(series.shape[1]) for k in range(series.shape[0])]
        _write_csv(os.path.join(outdir, "seismogram_truth.csv"),
                   ["time", "receiver_id", "value"], rows)
        files.append("seismogram_truth.csv")
    _record(manifest, outdir, "data", files)


def _stage_map(problem, outdir, manifest, seeds, options):
    y_obs = read_vector_csv(os.path.join(outdir, "observations.csv"))
    solver_cfg = build_map_solver_config(problem.config)
    log_fn = print if options.get("verbose") else None
    start = _solve_counts(problem.model)
    result = find_map(problem.prior, problem.model, y_obs, problem.prior.mean,
                      solver_cfg, log_fn=log_fn)
    write_field_csv(os.path.join(outdir, "map.csv"), problem.mesh, result.m_map)
    with _atomic_open(os.path.join(outdir, "map_log.txt")) as fh:
        fh.write("\n".join(result.log_lines) + "\n")
    reduction = (result.gradnorm_history[-1] / result.gradnorm_history[0]
                 if result.gradnorm_history[0] > 0 else 0.0)
    _record(manifest, outdir, "map", ["map.csv", "map_log.txt"],
            converged=bool(result.converged),
            newton_iters=result.newton_iters,
            cg_iters_total=result.cg_iters_total,
            map_gradnorm_reduction=reduction,
            objective_history=[float(v) for v in result.objective_history],
            gradnorm_history=[float(v) for v in result.gradnorm_history],
            **_solve_counts(problem.model, start))
    if not result.converged:
        raise SolverFailure(f"MAP solve did not converge: {result.message}",
                            residual=reduction)


def _stage_spectrum(problem, outdir, manifest, seeds, options):
    cfg = problem.config
    m_map = read_field_csv(os.path.join(outdir, "map.csv"), problem.mesh)
    lr_cfg = cfg.get("lowrank", {})
    start = _solve_counts(problem.model)
    action = prior_preconditioned_hessian(problem.prior, problem.model, m_map)
    tuning = {key: lr_cfg[key] for key in ("eig_tol", "trunc_threshold", "max_iters")
              if key in lr_cfg}
    eig = lanczos_eigs(action, problem.prior.mspace, r_max=lr_cfg.get("r_max", 50),
                       seed=seeds["lanczos"], **tuning)
    _write_csv(os.path.join(outdir, "spectrum.csv"), ["index", "lambda"],
               [[i, _fmt(lam)] for i, lam in enumerate(eig.lambdas)])
    files = ["spectrum.csv"]
    for k in range(eig.rank):
        name = f"eigenvector_{k:03d}.csv"
        write_field_csv(os.path.join(outdir, name), problem.mesh, eig.vectors[:, k])
        files.append(name)
    _record(manifest, outdir, "spectrum", files,
            lambdas=[float(v) for v in eig.lambdas],
            truncation_error_estimate=truncation_error_bound(eig.discarded),
            spectrum_incomplete=bool(eig.spectrum_incomplete),
            lanczos_iterations=eig.iterations,
            **_solve_counts(problem.model, start))


def _load_lowrank(problem, outdir, manifest) -> LowRankPosterior:
    lambdas = []
    path = os.path.join(outdir, "spectrum.csv")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        lambdas = [float(row[1]) for row in reader]
    lambdas = np.asarray(lambdas)
    vectors = np.zeros((problem.mesh.n, lambdas.size))
    for k in range(lambdas.size):
        vectors[:, k] = read_field_csv(
            os.path.join(outdir, f"eigenvector_{k:03d}.csv"), problem.mesh)
    m_map = read_field_csv(os.path.join(outdir, "map.csv"), problem.mesh)
    eig = EigenDecomposition(lambdas=lambdas, vectors=vectors,
                             residual_norms=np.zeros(lambdas.size))
    return LowRankPosterior(problem.prior, m_map, eig)


def _stage_variance(problem, outdir, manifest, seeds, options):
    lowrank = _load_lowrank(problem, outdir, manifest)
    pts = problem.mesh.node_coords
    prior_var = problem.prior.pointwise_variance(pts)
    post_var = lowrank.pointwise_variance(pts, prior_variance=prior_var)
    write_field_csv(os.path.join(outdir, "prior_variance.csv"), problem.mesh, prior_var)
    write_field_csv(os.path.join(outdir, "posterior_variance.csv"), problem.mesh, post_var)
    _record(manifest, outdir, "variance",
            ["prior_variance.csv", "posterior_variance.csv"])


def _sample_count(problem, options):
    if options.get("count") is not None:
        return options["count"]
    return problem.config["output"].get("sample_count", 4)


def _stage_sample_prior(problem, outdir, manifest, seeds, options):
    count = _sample_count(problem, options)
    rng = np.random.default_rng([seeds["sampling"], 0])
    nhat = rng.standard_normal((problem.mesh.n, count))
    samples = problem.prior.sample(nhat)
    files = []
    for k in range(count):
        name = f"prior_sample_{k:03d}.csv"
        write_field_csv(os.path.join(outdir, name), problem.mesh, samples[:, k])
        files.append(name)
    _record(manifest, outdir, "sample-prior", files, count=count)


def _stage_sample_posterior(problem, outdir, manifest, seeds, options):
    lowrank = _load_lowrank(problem, outdir, manifest)
    count = _sample_count(problem, options)
    rng = np.random.default_rng([seeds["sampling"], 1])
    nhat = rng.standard_normal((problem.mesh.n, count))
    samples = lowrank.sample(nhat)
    files = []
    for k in range(count):
        name = f"posterior_sample_{k:03d}.csv"
        write_field_csv(os.path.join(outdir, name), problem.mesh, samples[:, k])
        files.append(name)
    _record(manifest, outdir, "sample-posterior", files, count=count)


_STAGE_FNS = {
    "truth": _stage_truth,
    "data": _stage_data,
    "map": _stage_map,
    "spectrum": _stage_spectrum,
    "variance": _stage_variance,
    "sample-prior": _stage_sample_prior,
    "sample-posterior": _stage_sample_posterior,
}


class _DirectoryLock:
    """Exclusive ownership of the output directory for one process."""

    def __init__(self, outdir):
        self.path = os.path.join(outdir, LOCK_NAME)

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise OSError(
                f"output directory is locked by another run ({self.path}); "
                "remove the lock file if that run is gone") from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass
        return False


def run_pipeline(config, outdir=None, stages=None, seed_overrides=None,
                 count=None, verbose=False) -> RunArtifacts:
    """Execute pipeline stages against an output directory.

    ``config`` is a path or a validated dict.  Runs the full stage sequence
    by default; failure in a stage leaves earlier artifacts in place and a
    failure note in the manifest before the exception propagates.
    """
    if isinstance(config, PipelineConfig):
        cfg = config.raw
    elif isinstance(config, (str, os.PathLike)):
        cfg = load_config(config)
    else:
        cfg = validate_config(config)
    seeds = _seeds(cfg, seed_overrides)
    if count is not None:
        _check_override("--count", count, 1)
    options = {"count": count, "verbose": verbose}
    outdir = outdir or cfg["output"]["directory"]
    os.makedirs(outdir, exist_ok=True)
    stages = list(stages) if stages else list(PIPELINE_STAGES)
    for stage in stages:
        if stage not in _STAGE_FNS:
            raise ConfigError(f"unknown stage '{stage}'")

    with _DirectoryLock(outdir):
        manifest = _load_manifest(outdir)
        manifest["schema_version"] = SCHEMA_VERSION
        manifest["config"] = cfg
        manifest.pop("failure", None)
        problem = build_problem(cfg)
        for stage in stages:
            _require(manifest, stage)
            start = time.perf_counter()
            try:
                _STAGE_FNS[stage](problem, outdir, manifest, seeds, options)
            except Exception as exc:
                manifest["failure"] = {"stage": stage, "error": str(exc)}
                _save_manifest(outdir, manifest)
                raise
            manifest["stages"][stage]["timing_s"] = time.perf_counter() - start
            _save_manifest(outdir, manifest)
    return RunArtifacts(outdir=outdir, manifest=manifest)
