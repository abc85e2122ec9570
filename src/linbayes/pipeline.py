"""End-to-end pipeline: JSON configuration, stages, CSV artifacts, manifest.

Stages compose through the output directory: each one records its files (with
content checksums) in ``manifest.json`` and later stages reload exactly those
files, so running ``linbayes run`` once is byte-identical to running the
subcommands one at a time.  Everything is deterministic under fixed seeds;
CSV values are the bytes of ``'%.17g'``, which round-trip doubles exactly:
the row prefixes of a block of files are formatted once, and the values by
one whole-array kernel, exact for 1e-4 <= |x| < 1e16, with ``%`` for the
rest.  Each file is written to a temporary name and moved into place, so a
crash leaves every artifact and the manifest whole, old or new; checksums
are taken of the bytes written.  The ``map`` and ``spectrum`` entries record
the forward solves and Jacobian builds the stage ran (``forward_solves``,
``jacobian_builds``); a stage that finds its point already solved by the
stage before it, in one ``run``, records none.  The
``data`` entry records the forward solves of the model that made the data
(the refined one under inverse-crime mitigation).  ``data``, ``map`` and
``spectrum`` also log these counters, with the Newton and CG iterations of
``map`` and the Lanczos iterations of ``spectrum``, at INFO on the
``linbayes.pipeline`` logger.

Stage graph:

    truth -> data -> map -> spectrum -> variance
                              \\-> sample-posterior
    sample-prior (independent)
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import logging
import math
import os
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, MissingArtifactError, SolverFailure
from .fem import AnisotropySpec, Mesh, build_mesh
from .lowrank import (EigenDecomposition, LowRankPosterior, lanczos_eigs,
                      prior_preconditioned_hessian, truncation_error_bound)
from .map_solver import MapSolverConfig, find_map
from .models import (ObservationSetup, SourceSpec, WaveConfig, WaveModel,
                     synthesize_data)
from .models.linear import random_linear_model
from .models.wave1d import _check_observation, _validate_wavespeed
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
#
# The parser checks the types of outside input and hands each section to its
# library constructor with only the keys the config sets, so the constructor
# holds the one copy of each default and range check.


def _check_keys(d, path, required, optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in d:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing required key")


def _is_number(val) -> bool:
    # json also parses NaN and Infinity, which no field takes
    return (isinstance(val, int) and not isinstance(val, bool)
            or isinstance(val, float) and math.isfinite(val))


def _number(d, path, key, positive=False, nonnegative=False):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required key")
    val = d[key]
    if not _is_number(val):
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


def _given(d, path, keys) -> dict:
    """The numbers ``d`` sets among ``keys``."""
    return {key: _number(d, path, key) for key in keys if key in d}


def _build(path, factory, *args, **kwargs):
    """Call a library constructor; the ValueError it raises for a value out
    of range becomes a ConfigError naming ``path``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _validate_field_spec(spec, path, dim):
    _check_keys(spec, path, required=("kind",),
                optional=("value", "center", "width", "amplitude", "terms"))
    kind = spec.get("kind")
    if kind == "constant":
        _number(spec, path, "value")
    elif kind == "gaussian_bump":
        center = spec.get("center")
        if not isinstance(center, list) or len(center) != dim or \
                not all(map(_is_number, center)):
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


@dataclass(frozen=True)
class PipelineConfig:
    """A parsed configuration: the library objects its sections describe.

    ``raw`` is the input dict, echoed into the manifest.  The model and
    observation sections give either ``linear``, the ``random_linear_model``
    arguments the config sets, or ``wave`` and ``observation``; the other is
    None.  ``prior_mean`` and ``truth`` are field specs for
    ``evaluate_field``, and ``lowrank`` holds the ``lanczos_eigs`` tuning
    keys as given.
    """

    raw: dict
    mesh: Mesh
    alpha: float
    anisotropy: AnisotropySpec
    prior_mean: dict
    truth: dict
    linear: dict | None
    wave: WaveConfig | None
    observation: ObservationSetup | None
    mitigate_inverse_crime: bool
    map_solver: MapSolverConfig
    lowrank: dict
    seeds: dict
    directory: str
    sample_count: int


def _parse_mesh(mesh):
    path = "config.mesh"
    _check_keys(mesh, path, required=("dim", "counts", "bounds"))
    counts, bounds = mesh["counts"], mesh["bounds"]
    if not isinstance(counts, list) or any(
            isinstance(c, bool) or not isinstance(c, int) for c in counts):
        raise ConfigError(f"{path}.counts: expected a list of integers")
    if not isinstance(bounds, list) or not all(
            isinstance(b, list) and len(b) == 2 and all(map(_is_number, b))
            for b in bounds):
        raise ConfigError(f"{path}.bounds: expected a list of [lo, hi] pairs")
    return _build(path, build_mesh, _integer(mesh, path, "dim"), counts, bounds)


def _parse_anisotropy(aniso, mesh) -> AnisotropySpec:
    path = "config.prior.anisotropy"
    _check_keys(aniso, path, required=("kind", "beta"), optional=("theta", "radius"))
    if aniso["kind"] == "radial":
        _check_keys(aniso, path, required=("theta", "radius"), optional=("kind", "beta"))
    anisotropy = _build(path, AnisotropySpec, kind=aniso["kind"],
                        **_given(aniso, path, ("beta", "theta", "radius")))
    # a radial ball must cover every quadrature point of the mesh
    _build(path, anisotropy.quadrature_tensors, mesh)
    return anisotropy


def _data_wave(wave) -> WaveConfig:
    """The data's wave config under inverse-crime mitigation: mesh and dt halved."""
    mesh = wave.mesh
    fine_mesh = build_mesh(mesh.dim, tuple(2 * c for c in mesh.counts), mesh.domain_bounds)
    return replace(wave, mesh=fine_mesh, dt=wave.dt / 2)


def _parse_wave(model, mesh) -> WaveConfig:
    path = "config.model.source"
    src = model.get("source")
    _check_keys(src, path, required=("position", "width", "time_center", "time_std"),
                optional=("amplitude",))
    source = _build(path, SourceSpec, **_given(src, path, src))
    path = "config.model"
    return _build(path, WaveConfig, mesh=mesh, source=source,
                  final_time=_number(model, path, "final_time"),
                  dt=_number(model, path, "dt"), **_given(model, path, ("cfl", "rho")))


def _parse_observation(obs, wave) -> ObservationSetup:
    path = "config.observation"
    _check_keys(obs, path, required=("noise_sigma", "receivers", "sample_times"),
                optional=("fourier_truncation",))
    recs = obs["receivers"]
    if not isinstance(recs, list) or not all(map(_is_number, recs)):
        raise ConfigError(f"{path}.receivers: expected a list of positions")
    st, st_path = obs["sample_times"], f"{path}.sample_times"
    if isinstance(st, dict):
        _check_keys(st, st_path, required=("start", "stop", "count"))
        start, stop = _number(st, st_path, "start"), _number(st, st_path, "stop")
        if stop <= start:
            raise ConfigError(f"{st_path}.stop: must exceed start")
        st = np.linspace(start, stop, _integer(st, st_path, "count", minimum=1))
    elif not isinstance(st, list) or not all(map(_is_number, st)):
        raise ConfigError(f"{st_path}: expected times or {{start, stop, count}}")
    if obs.get("fourier_truncation") is not None:
        _integer(obs, path, "fourier_truncation")
    observation = _build(path, ObservationSetup, receiver_positions=recs, sample_times=st,
                         noise_sigma=_number(obs, path, "noise_sigma"),
                         fourier_truncation=obs.get("fourier_truncation"))
    _build(path, _check_observation, wave, observation)
    return observation


# the config.model keys each model kind reads, besides "kind"
_MODEL_KEYS = {"linear": ("q", "seed", "scale"),
               "wave1d": ("final_time", "dt", "cfl", "rho", "source", "mitigate_inverse_crime")}

# the map_solver keys and their types are the fields of MapSolverConfig
_MAP_SOLVER_TYPES = typing.get_type_hints(MapSolverConfig)


def _parse_map_solver(solver) -> MapSolverConfig:
    path = "config.map_solver"
    _check_keys(solver, path, required=(), optional=_MAP_SOLVER_TYPES)
    for key, val in solver.items():
        kind = _MAP_SOLVER_TYPES[key]
        if kind is int:
            _integer(solver, path, key)
        elif not (val is None and type(None) in typing.get_args(kind)):
            _number(solver, path, key)
    return _build(path, MapSolverConfig, **solver)


def _parse_lowrank(lowrank, n_nodes) -> dict:
    path = "config.lowrank"
    _check_keys(lowrank, path, required=(),
                optional=("r_max", "eig_tol", "trunc_threshold"))
    if "r_max" in lowrank and _integer(lowrank, path, "r_max", minimum=1) > n_nodes:
        raise ConfigError(f"{path}.r_max: must not exceed the {n_nodes} mesh nodes")
    if "eig_tol" in lowrank:
        _number(lowrank, path, "eig_tol", positive=True)
    if "trunc_threshold" in lowrank:
        _number(lowrank, path, "trunc_threshold", nonnegative=True)
    return lowrank


def validate_config(raw: dict) -> PipelineConfig:
    """Parse a raw config dict against the versioned schema.

    Returns the parsed ``PipelineConfig``; raises ConfigError naming the
    offending field path otherwise.
    """
    _check_keys(raw, "config",
                required=("schema_version", "mesh", "prior", "model", "truth",
                          "observation", "seeds", "output"),
                optional=("map_solver", "lowrank"))
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']}")
    mesh = _parse_mesh(raw["mesh"])

    prior = raw["prior"]
    _check_keys(prior, "config.prior", required=("alpha", "anisotropy", "mean"))
    alpha = _number(prior, "config.prior", "alpha", positive=True)
    anisotropy = _parse_anisotropy(prior["anisotropy"], mesh)
    _validate_field_spec(prior["mean"], "config.prior.mean", mesh.dim)
    _validate_field_spec(raw["truth"], "config.truth", mesh.dim)

    model = raw["model"]
    _check_keys(model, "config.model", required=("kind",), optional=sum(_MODEL_KEYS.values(), ()))
    if model["kind"] not in tuple(_MODEL_KEYS):
        raise ConfigError(f"config.model.kind: unknown model kind '{model['kind']}'")
    _check_keys(model, "config.model", required=("kind",), optional=_MODEL_KEYS[model["kind"]])
    obs = raw["observation"]
    linear = wave = observation = None
    mitigate = False
    if model["kind"] == "linear":
        _check_keys(obs, "config.observation", required=("noise_sigma",))
        linear = {"q": _integer(model, "config.model", "q", minimum=1),
                  "seed": _integer(model, "config.model", "seed", minimum=0),
                  "noise_sigma": _number(obs, "config.observation", "noise_sigma",
                                         positive=True)}
        if "scale" in model:
            linear["scale"] = _number(model, "config.model", "scale", positive=True)
    else:
        wave = _parse_wave(model, mesh)
        mitigate = model.get("mitigate_inverse_crime", False)
        if not isinstance(mitigate, bool):
            raise ConfigError("config.model.mitigate_inverse_crime: expected a boolean")
        observation = _parse_observation(obs, wave)
        # dt against the CFL bound for the truth on the data mesh and the prior
        # mean; the model refuses a nonpositive wavespeed when it runs
        data_wave = _data_wave(wave) if mitigate else wave
        for config, spec in ((data_wave, raw["truth"]), (wave, prior["mean"])):
            c = evaluate_field(spec, config.mesh.node_coords)
            if np.all(c > 0):
                _build("config.model.dt", _validate_wavespeed, config, c)

    seeds = raw["seeds"]
    _check_keys(seeds, "config.seeds", required=tuple(SEED_FLAGS))
    for key in seeds:
        _integer(seeds, "config.seeds", key, minimum=0)

    output = raw["output"]
    _check_keys(output, "config.output", required=("directory",),
                optional=("sample_count",))
    if not isinstance(output["directory"], str) or not output["directory"]:
        raise ConfigError("config.output.directory: expected a nonempty path")
    return PipelineConfig(
        raw=raw, mesh=mesh, alpha=alpha, anisotropy=anisotropy,
        prior_mean=prior["mean"], truth=raw["truth"], linear=linear, wave=wave, observation=observation,
        mitigate_inverse_crime=mitigate,
        map_solver=_parse_map_solver(raw.get("map_solver", {})),
        lowrank=_parse_lowrank(raw.get("lowrank", {}), mesh.n), seeds=seeds,
        directory=output["directory"],
        sample_count=_integer(output, "config.output", "sample_count", default=4,
                              minimum=1))


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: not a UTF-8 JSON document ({exc})") from exc
    return validate_config(raw)


def _parsed(config) -> PipelineConfig:
    """A config given as a path, a raw dict or already parsed, parsed."""
    if isinstance(config, PipelineConfig):
        return config
    if isinstance(config, (str, os.PathLike)):
        return load_config(config)
    return validate_config(config)


# ---------------------------------------------------------------------------
# problem assembly from a parsed config


@dataclass
class Problem:
    config: PipelineConfig
    mesh: Mesh
    prior: object
    model: object


def build_problem(config) -> Problem:
    """Assemble the prior and the forward model a config describes."""
    config = _parsed(config)
    mesh = config.mesh
    prior = build_prior(mesh, config.alpha, config.anisotropy,
                        mean=evaluate_field(config.prior_mean, mesh.node_coords))
    if config.wave is None:
        model = random_linear_model(prior.mspace, **config.linear)
    else:
        model = WaveModel(config.wave, config.observation, mspace=prior.mspace)
    return Problem(config=config, mesh=mesh, prior=prior, model=model)


# ---------------------------------------------------------------------------
# artifact files


@contextlib.contextmanager
def _atomic_open(path):
    """Binary file handle whose contents replace ``path`` only once the block
    completes; a crash part-way leaves the old file and no temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# 17-digit text.  CPython's '%.17g' is correctly rounded, and at 17 digits
# that takes its bignum path one value at a time.  For 1e-4 <= |x| < 1e16
# the same digits come from whole-array arithmetic: with E = floor(log10|x|)
# and k = 16 - E, 10**k is an exact double and Dekker's two-product gives
# |x| * 10**k = h + l exactly.  In [1e16, 1e17) h is an even integer and
# |l| <= 8, so h + rint(l) is the round-half-even significand '%.17g' prints.
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for doubles
_POW10 = 10.0 ** np.arange(22)
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)) + b"0.-\0", np.uint32)
_TRAILING_ZEROS4 = sum((np.arange(10000) % 10**p == 0).astype(np.intp) for p in range(1, 5))
_TEXT_WIDTH = 24  # the longest '%.17g' text: -2.2250738585072014e-308
# Values per kernel call (about 360 bytes each at its peak): a 1,089 x 256
# draw block takes 69 ms in calls of 1,089 values, which pay numpy's per-call
# cost, 33 ms in calls of 17,424 and 81 ms in one, which falls out of cache.
_CHUNK_VALUES = 16384


def _text_layout(e, length, neg, j):
    """For each E in [-4, 16], text length and sign, the digit-table byte of
    each text byte j: the sign, then the integer part or "0." and -E - 1
    zeros, the point and the fraction.  Digit-table bytes 3-19 are the 17
    digits, 20-23 "0", ".", "-" and NUL."""
    point, zeros = np.maximum(e, 0) + 1, np.maximum(-e, 0)
    digit = j - (j > point) - zeros
    src = np.where(j == point, 21, np.where(digit < 0, 20, np.where(digit > 16, 23, 3 + digit)))
    src = np.where(j >= length, 23, src)
    return np.where(j < 0, 23 - neg, src).reshape(-1, 24)


_LAYOUT = _text_layout(*np.ix_(np.arange(-4, 17), np.arange(24), np.arange(2), np.arange(-1, 23)))


def _times_pow10(a, k):
    """h, l with h = fl(a * 10**k) and h + l = a * 10**k exactly: Dekker's
    two-product on Veltkamp's split, no FMA needed."""
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    h = a * _POW10[k]
    bhi, blo = _POW10_HI[k], _POW10_LO[k]
    return h, ((ahi * bhi - h) + ahi * blo + alo * bhi) + alo * blo


def _format17(values) -> np.ndarray:
    """(size, 24) uint8 rows, each ``b"%.17g" % v`` for one value v of
    ``values`` once its NUL bytes are dropped.  0, -0, |v| < 1e-4,
    |v| >= 1e16, subnormals, nan and inf go through ``%`` itself."""
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0  # a stand-in on the whole-array path, replaced below
    e = np.floor(np.log10(a)).astype(np.intp)
    h, l = _times_pow10(a, 16 - e)
    # log10 may miss E by one: compare the exact h + l with the decade
    low = (h < 1e16) | ((h == 1e16) & (l < 0))
    high = (h > 1e17) | ((h == 1e17) & (l >= 0))
    fix = np.flatnonzero(low | high)
    e[fix] += high[fix].astype(np.intp) - low[fix]
    h[fix], l[fix] = _times_pow10(a[fix], 16 - e[fix])
    # no double in [1e-4, 1e16) lies within half a 17th digit below a power
    # of ten, so n never rounds up to 1e17
    n = h.astype(np.int64) + np.rint(l).astype(np.int64)
    groups = np.full((n.size, 6), 10000)  # d0, four 4-digit groups, "0.-\0"
    for g, p in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[:, g] = n // p
        n -= groups[:, g] * p
    groups[:, 4] = n
    table = _DIGITS4.take(groups)
    trailing = _TRAILING_ZEROS4.take(groups[:, 4])
    for g in (3, 2, 1):  # rows whose groups below g are all zero
        rows = np.flatnonzero(trailing == 16 - 4 * g)
        trailing[rows] += _TRAILING_ZEROS4.take(groups[rows, g])
    digits = 17 - trailing
    point, zeros = np.maximum(e, 0) + 1, np.maximum(-e, 0)
    length = np.where(zeros + digits > point, zeros + digits + 1, point)
    index = _LAYOUT.take(((e + 4) * 24 + length) * 2 + (x < 0), axis=0)
    index += np.arange(0, 24 * n.size, 24)[:, None]
    out = table.view(np.uint8).ravel().take(index)
    texts = [b"%.17g" % v for v in x[slow].tolist()]
    out[slow] = np.array(texts, f"S{_TEXT_WIDTH}").view(np.uint8).reshape(-1, _TEXT_WIDTH)
    return out


def _write_csv(path, body) -> str:
    """Write the bytes ``body`` to ``path``; returns their sha256."""
    with _atomic_open(path) as fh:
        fh.write(body)
    return hashlib.sha256(body).hexdigest()


def _write_columns(paths, header, prefixes, values) -> dict:
    """Write column k of the (len(prefixes), len(paths)) block ``values`` to
    ``paths[k]`` as a CSV file: the header line, then each row's prefix and
    17-digit value, each line ended by csv.writer's "\r\n".  Returns each
    path's sha256."""
    n = len(prefixes)
    width = max(map(len, prefixes), default=1)
    per_chunk = max(1, _CHUNK_VALUES // max(n, 1))
    lines = np.empty((min(per_chunk, len(paths)), n, width + _TEXT_WIDTH + 2), np.uint8)
    lines[:, :, :width] = np.array(prefixes, f"S{width}").view(np.uint8).reshape(n, width)
    lines[:, :, -2:] = np.frombuffer(b"\r\n", np.uint8)
    digests = {}
    for start in range(0, len(paths), per_chunk):
        block = values[:, start:start + per_chunk].T
        lines[:len(block), :, width:-2] = _format17(block).reshape(len(block), n, _TEXT_WIDTH)
        for path, text in zip(paths[start:start + per_chunk], lines):
            digests[path] = _write_csv(path, header + text[text != 0].tobytes())
    return digests


def write_fields_csv(paths, mesh, values) -> dict:
    """Write column k of the (n, len(paths)) block ``values`` to ``paths[k]``
    as a field file: each node's coordinates, then its value.  Returns each
    path's sha256."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n, len(paths)):
        raise ValueError(f"expected a ({mesh.n}, {len(paths)}) block, got {values.shape}")
    coords = b"%.17g," * mesh.dim
    return _write_columns(paths, b"x,value\r\n" if mesh.dim == 1 else b"x,y,value\r\n",
                          [coords % tuple(c) for c in mesh.node_coords.tolist()], values)


def write_field_csv(path, mesh, values) -> dict:
    return write_fields_csv([path], mesh, np.reshape(values, (-1, 1)))


def read_vector_csv(path) -> np.ndarray:
    """The last column of a CSV artifact, below its header row; empty for a
    header-only file (a rank-0 spectrum).  A file that is not UTF-8 text of
    numbers raises MissingArtifactError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = fh.readlines()[1:]
        return np.loadtxt(rows, delimiter=",", usecols=-1, ndmin=1) if rows else np.empty(0)
    except ValueError as exc:
        raise MissingArtifactError(message=f"{path}: {exc}") from exc


def read_field_csv(path, mesh) -> np.ndarray:
    vals = read_vector_csv(path)
    if vals.size != mesh.n:
        raise MissingArtifactError(message=f"{path}: expected {mesh.n} rows, found {vals.size}")
    return vals


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
    with _atomic_open(os.path.join(outdir, MANIFEST_NAME)) as fh, \
            io.TextIOWrapper(fh, encoding="utf-8") as text:
        json.dump(manifest, text, indent=2, sort_keys=True)
        text.write("\n")


def _record(manifest, outdir, stage, files, **extra):
    """Enter a stage's files (path: sha256) in its manifest entry, and delete
    the files its previous entry listed that this one does not (eigenvectors
    after a smaller rank, draws after a smaller count)."""
    files = {os.path.basename(path): digest for path, digest in files.items()}
    for name in set(manifest["stages"].get(stage, {}).get("files", {})) - set(files):
        path = os.path.join(outdir, name)
        if name == os.path.basename(name) and os.path.isfile(path):
            os.remove(path)
    entry = {"files": files}
    entry.update(extra)
    manifest["stages"][stage] = entry


def _solve_counts(model, since=None):
    """The model's forward solves and Jacobian builds, less those in ``since``."""
    since = since or {}
    counts = {"forward_solves": model.forward_solves,
              "jacobian_builds": model.jacobian_builds}
    return {key: val - since.get(key, 0) for key, val in counts.items()}


def _log_costs(stage, entry, keys):
    """Log the cost counters ``keys`` of a stage's manifest entry."""
    logging.getLogger(__name__).info(
        "%s: %s", stage, ", ".join(f"{key} {entry[key]}" for key in keys))


def _require(manifest, stage):
    for dep in STAGE_DEPS[stage]:
        if dep not in manifest["stages"]:
            raise MissingArtifactError(dep)


def _check_override(flag, val, minimum):
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise ConfigError(f"{flag}: must be an integer >= {minimum}, got {val!r}")


def _seeds(config, overrides):
    seeds = dict(config.seeds)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in SEED_FLAGS:
            raise ConfigError(f"unknown seed override '{key}'")
        _check_override(SEED_FLAGS[key], val, 0)
        seeds[key] = val
    return seeds


def _stage_truth(problem, outdir, manifest, seeds, options):
    mesh = problem.mesh
    truth = evaluate_field(problem.config.truth, mesh.node_coords)
    files = write_fields_csv([os.path.join(outdir, f) for f in ("prior_mean.csv", "truth.csv")],
                             mesh, np.column_stack([problem.prior.mean, truth]))
    _record(manifest, outdir, "truth", files)


def _stage_data(problem, outdir, manifest, seeds, options):
    config = problem.config
    if config.mitigate_inverse_crime:
        # generate data on a twice-refined mesh and time step, invert on the
        # coarse one
        fine = _data_wave(config.wave)
        data_model = WaveModel(fine, config.observation)
        m_true = evaluate_field(config.truth, fine.mesh.node_coords)
    else:
        data_model = problem.model
        m_true = read_field_csv(os.path.join(outdir, "truth.csv"), problem.mesh)
    start = data_model.forward_solves
    y_obs = synthesize_data(data_model, m_true, data_model.noise_sigma,
                            seeds["data_noise"])
    files = _write_columns([os.path.join(outdir, "observations.csv")], b"index,value\r\n",
                           [b"%d," % i for i in range(y_obs.size)], y_obs[:, None])
    if isinstance(data_model, WaveModel):
        series = data_model.receiver_series(m_true)
        dt = data_model.config.dt
        rows = [b"%.17g,%d," % (k * dt, r)
                for r in range(series.shape[1]) for k in range(series.shape[0])]
        files.update(_write_columns([os.path.join(outdir, "seismogram_truth.csv")],
                                    b"time,receiver_id,value\r\n", rows, series.T.reshape(-1, 1)))
    _record(manifest, outdir, "data", files, seed=seeds["data_noise"],
            forward_solves=data_model.forward_solves - start)
    _log_costs("data", manifest["stages"]["data"], ("forward_solves",))


def _stage_map(problem, outdir, manifest, seeds, options):
    y_obs = read_vector_csv(os.path.join(outdir, "observations.csv"))
    start = _solve_counts(problem.model)
    result = find_map(problem.prior, problem.model, y_obs, problem.prior.mean,
                      problem.config.map_solver, log_fn=logging.getLogger("linbayes").info)
    files = write_field_csv(os.path.join(outdir, "map.csv"), problem.mesh, result.m_map)
    path = os.path.join(outdir, "map_log.txt")
    log = ("\n".join(result.log_lines) + "\n").encode()
    with _atomic_open(path) as fh:
        fh.write(log)
    files[path] = hashlib.sha256(log).hexdigest()
    reduction = (result.gradnorm_history[-1] / result.gradnorm_history[0]
                 if result.gradnorm_history[0] > 0 else 0.0)
    _record(manifest, outdir, "map", files,
            converged=bool(result.converged),
            newton_iters=result.newton_iters,
            cg_iters_total=result.cg_iters_total,
            map_gradnorm_reduction=reduction,
            objective_history=[float(v) for v in result.objective_history],
            gradnorm_history=[float(v) for v in result.gradnorm_history],
            **_solve_counts(problem.model, start))
    _log_costs("map", manifest["stages"]["map"],
               ("forward_solves", "jacobian_builds", "newton_iters", "cg_iters_total"))
    if not result.converged:
        raise SolverFailure(f"MAP solve did not converge: {result.message}",
                            residual=reduction)


def _stage_spectrum(problem, outdir, manifest, seeds, options):
    m_map = read_field_csv(os.path.join(outdir, "map.csv"), problem.mesh)
    start = _solve_counts(problem.model)
    action = prior_preconditioned_hessian(problem.prior, problem.model, m_map)
    eig = lanczos_eigs(action, problem.prior.mspace, seed=seeds["lanczos"],
                       **problem.config.lowrank)
    # G = X^T M X / sigma^2, X = K^-1 J^T, has the nonzero spectrum of the
    # preconditioned Hessian: its tail beyond the rank is the exact error
    x = problem.prior.solve_stiffness(problem.model.jacobian(m_map).T)
    gram = x.T @ (problem.prior.mspace.matrix @ x) / problem.model.noise_sigma**2
    tail = np.clip(np.linalg.eigvalsh(gram)[::-1][eig.rank:], 0.0, None)
    files = _write_columns([os.path.join(outdir, "spectrum.csv")], b"index,lambda\r\n",
                           [b"%d," % k for k in range(eig.rank)], eig.lambdas[:, None])
    files.update(write_fields_csv([os.path.join(outdir, f"eigenvector_{k:03d}.csv")
                                   for k in range(eig.rank)], problem.mesh, eig.vectors))
    _record(manifest, outdir, "spectrum", files, seed=seeds["lanczos"],
            lambdas=[float(v) for v in eig.lambdas],
            truncation_error_estimate=truncation_error_bound(tail),
            spectrum_incomplete=bool(eig.spectrum_incomplete),
            lanczos_iterations=eig.iterations,
            **_solve_counts(problem.model, start))
    _log_costs("spectrum", manifest["stages"]["spectrum"],
               ("forward_solves", "jacobian_builds", "lanczos_iterations"))


def _load_lowrank(problem, outdir) -> LowRankPosterior:
    lambdas = read_vector_csv(os.path.join(outdir, "spectrum.csv"))
    vectors = np.zeros((problem.mesh.n, lambdas.size))
    for k in range(lambdas.size):
        vectors[:, k] = read_field_csv(os.path.join(outdir, f"eigenvector_{k:03d}.csv"), problem.mesh)
    m_map = read_field_csv(os.path.join(outdir, "map.csv"), problem.mesh)
    eig = EigenDecomposition(lambdas=lambdas, vectors=vectors,
                             residual_norms=np.zeros(lambdas.size))
    return LowRankPosterior(problem.prior, m_map, eig)


def _stage_variance(problem, outdir, manifest, seeds, options):
    lowrank = _load_lowrank(problem, outdir)
    pts = problem.mesh.node_coords
    prior_var = problem.prior.pointwise_variance(pts)
    post_var = lowrank.pointwise_variance(pts, prior_variance=prior_var)
    files = write_fields_csv([os.path.join(outdir, f"{kind}_variance.csv")
                              for kind in ("prior", "posterior")],
                             problem.mesh, np.column_stack([prior_var, post_var]))
    _record(manifest, outdir, "variance", files)


def _write_draws(problem, outdir, manifest, seeds, options, which, sampler):
    """Draw ``sample-<which>`` from ``sampler``, one file per draw; the prior
    and the posterior draw from streams 0 and 1 of the sampling seed."""
    count = problem.config.sample_count if options["count"] is None else options["count"]
    rng = np.random.default_rng([seeds["sampling"], ("prior", "posterior").index(which)])
    samples = sampler.sample(rng.standard_normal((problem.mesh.n, count)))
    files = write_fields_csv([os.path.join(outdir, f"{which}_sample_{k:03d}.csv")
                              for k in range(count)], problem.mesh, samples)
    _record(manifest, outdir, f"sample-{which}", files, seed=seeds["sampling"], count=count)


def _stage_sample_prior(problem, outdir, manifest, seeds, options):
    _write_draws(problem, outdir, manifest, seeds, options, "prior", problem.prior)


def _stage_sample_posterior(problem, outdir, manifest, seeds, options):
    lowrank = _load_lowrank(problem, outdir)
    _write_draws(problem, outdir, manifest, seeds, options, "posterior", lowrank)


_STAGE_FNS = {
    "truth": _stage_truth,
    "data": _stage_data,
    "map": _stage_map,
    "spectrum": _stage_spectrum,
    "variance": _stage_variance,
    "sample-prior": _stage_sample_prior,
    "sample-posterior": _stage_sample_posterior,
}


@contextlib.contextmanager
def _locked(outdir):
    """Hold an exclusive flock on the output directory's lock file.

    The kernel releases the lock when its holder exits, however it exits.
    The file stays in place: unlinked before the release, two runs could
    each lock a different file under the same name.
    """
    path = os.path.join(outdir, LOCK_NAME)
    with open(path, "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"output directory is locked by another run ({path})") from None
        yield


def run_pipeline(config, outdir=None, stages=None, seed_overrides=None,
                 count=None) -> RunArtifacts:
    """Execute pipeline stages against an output directory.

    ``config`` is a path, a raw dict or a ``PipelineConfig``; it is parsed
    before the output directory is created.  Runs the full stage sequence
    by default; failure in a stage leaves earlier artifacts in place and a
    failure note in the manifest before the exception propagates.
    """
    config = _parsed(config)
    seeds = _seeds(config, seed_overrides)
    if count is not None:
        _check_override("--count", count, 1)
    options = {"count": count}
    outdir = outdir or config.directory
    os.makedirs(outdir, exist_ok=True)
    stages = list(stages) if stages else list(PIPELINE_STAGES)
    for stage in stages:
        if stage not in _STAGE_FNS:
            raise ConfigError(f"unknown stage '{stage}'")

    with _locked(outdir):
        manifest = _load_manifest(outdir)
        manifest["schema_version"] = SCHEMA_VERSION
        manifest["config"] = config.raw
        manifest.pop("failure", None)
        problem = build_problem(config)
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
