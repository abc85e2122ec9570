"""End-to-end pipeline: JSON configuration, stages, CSV artifacts, manifest.

Stages compose through the output directory: each one records its files (with
content checksums) in ``manifest.json`` and later stages reload exactly those
files, so running ``linbayes run`` once is byte-identical to running the
subcommands one at a time.  Everything is deterministic under fixed seeds;
CSV values are the bytes of ``'%.17g'``, which round-trip doubles exactly:
the row prefixes of a block of files are formatted once, and the values by
one whole-array kernel, exact for 1e-4 <= |x| < 1e16, with ``%`` for the
rest.  Each file is written to a temporary name and moved into place, so a
crash leaves no artifact and no manifest torn; checksums
are taken of the bytes written.  A stage first drops its manifest entry
and deletes the files it listed, so a failed re-run leaves no entry.

The ``map``, ``spectrum``, ``variance`` and ``sample-*`` entries record the
forward solves and Jacobian builds the stage ran (``forward_solves``,
``jacobian_builds``; only ``map`` runs any) and the columns it solved with K
(``stiffness_solves``).  The ``data`` entry records the forward solves of
the model that made the data (for a wave model, its twice-refined twin).
Each stage but ``truth`` also logs these counters, with the Newton and CG
iterations of ``map`` and the Lanczos iterations of ``spectrum``, at INFO
on the ``linbayes.pipeline`` logger; an incomplete spectrum is logged at
WARNING with its ``diagnostic``.

Stage graph:

    data -> map -> spectrum -> variance
                     \\-> sample-posterior
    truth, sample-prior (independent; data evaluates the truth itself)

``map`` hands ``spectrum`` the MAP point and, for a wave model, J there
(``jacobian.csv``), which ``spectrum`` linearizes on.  Every stage checks
each file it reads against the digest its writer's entry recorded.  The
config alone sets what a run computes, its seeds and draw count included.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import inspect
import io
import json
import logging
import math
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, MissingArtifactError, SolverFailure
from .fem import AnisotropySpec, Mesh, build_mesh
from .lowrank import (LowRankPosterior, hessian_factor, lanczos_eigs,
                      prior_preconditioned_hessian, truncation_error_bound)
from .map_solver import find_map
from .models import (ObservationSetup, SourceSpec, WaveConfig, WaveModel,
                     synthesize_data)
from .models.linear import LinearMapModel, random_linear_model
from .models.wave1d import _check_observation, _step_count, _validate_wavespeed
from .prior import build_prior

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
LOCK_NAME = ".linbayes.lock"
PIPELINE_STAGES = ("truth", "data", "map", "spectrum", "variance",
                   "sample-prior", "sample-posterior")
STAGE_DEPS = {
    "truth": (),
    "data": (),
    "map": ("data",),
    "spectrum": ("map",),
    "variance": ("spectrum", "map"),
    "sample-prior": (),
    "sample-posterior": ("spectrum", "map"),
}


# ---------------------------------------------------------------------------
# configuration parsing (fail-closed: unknown keys are rejected)
#
# A section's keys are the parameters of the library constructor it feeds,
# less those the pipeline supplies itself (the mesh, the mass space, and
# what it builds from a nested section: the source, the anisotropy, the
# prior mean) and the Lanczos threshold, left at its default.  A key's type
# is the parameter's annotation; a parameter without a default is required.
# The constructor gets only the keys the config sets, so it holds the one
# copy of each default and range check.  The parser keeps the mesh section,
# the config-only names (the kinds, the field grammar, receivers, the
# sample-time range), the checks that span sections (r_max against the mesh,
# dt against the wavespeeds and the last sample time), and the ranges of
# build_prior, random_linear_model and lanczos_eigs, which run after parsing.


# the levels of objects and lists a config may nest: far fewer than the
# recursion limit that the JSON decoder and encoder and evaluate_field share
_MAX_DEPTH = 64


def _check_depth(raw):
    level = [raw]
    for _ in range(_MAX_DEPTH):
        level = [v for x in level if isinstance(x, (dict, list))
                 for v in (x.values() if isinstance(x, dict) else x)]
    if any(isinstance(x, (dict, list)) for x in level):
        raise ConfigError(f"config: nested too deeply (more than {_MAX_DEPTH} levels)")


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
    # json also parses NaN, Infinity and integers beyond any double, which no
    # field takes
    return (isinstance(val, int) and not isinstance(val, bool) and abs(val) <= sys.float_info.max
            or isinstance(val, float) and math.isfinite(val))


def _is_int(val) -> bool:  # json parses integers of any size, numpy 64 bits
    return isinstance(val, int) and not isinstance(val, bool) and -2**63 <= val < 2**63


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", type(None): "null"}


def _value(d, path, key, kinds=(float,), positive=False, nonnegative=False):
    """``d[key]`` as a value of one of the types ``kinds``: a float is a
    finite number, an int a 64-bit integer and no bool, NoneType takes null."""
    val, path = d[key], f"{path}.{key}"
    if float in kinds and _is_number(val):
        val = float(val)
    elif isinstance(val, (bool, float)) or not isinstance(val, kinds):
        names = " or ".join(_TYPE_NAMES[kind] for kind in kinds if kind in _TYPE_NAMES)
        raise ConfigError(f"{path}: expected {names}")
    elif isinstance(val, int) and not _is_int(val):
        raise ConfigError(f"{path}: must lie in [-2**63, 2**63)")
    if positive and val <= 0:
        raise ConfigError(f"{path}: must be positive, got {val}")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}: must be nonnegative, got {val}")
    return val


def _check_size(path, *shape):
    """ConfigError naming ``path`` when an array of doubles of ``shape``
    cannot fit in the machine's memory; checked before it is allocated."""
    need, have = math.prod(shape) * 8, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(f"{path}: a {' x '.join(map(str, shape))} array of doubles needs "
                          f"{need / 2**30:.3g} GiB, more than the machine's "
                          f"{have / 2**30:.3g} GiB of memory")


def _build(path, factory, *args, **kwargs):
    """Call a library constructor; the ValueError it raises for a value out
    of range becomes a ConfigError naming ``path``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _params(factory) -> dict:
    """The parameters of ``factory`` by name, each annotation resolved to the
    tuple of types it allows (two for ``X | None``)."""
    hints = typing.get_type_hints(factory.__init__ if isinstance(factory, type) else factory)
    return {name: param.replace(annotation=typing.get_args(hint) or (hint,))
            for name, param in inspect.signature(factory).parameters.items()
            for hint in (hints.get(name, object),)}


# built once, as get_type_hints and signature take about 0.15 ms a
# constructor; keyed by name, which a wrapper made by functools.wraps keeps
_PARAMS = {factory.__name__: _params(factory) for factory in (
    build_prior, AnisotropySpec, SourceSpec, WaveConfig, ObservationSetup,
    random_linear_model, LinearMapModel, lanczos_eigs)}


def _args(section, path, factory, supplied=(), required=(), optional=(),
          positive=(), nonnegative=()) -> dict:
    """The arguments of ``factory`` that a config section sets, each checked
    against its annotation.  The section holds the parameters but those the
    pipeline ``supplied``, and the config-only keys ``required`` and
    ``optional``, which the caller reads.  ``positive`` and ``nonnegative``
    range-check a factory that runs only after parsing."""
    params = {key: p for key, p in _PARAMS[factory.__name__].items() if key not in supplied}
    _check_keys(section, path, optional=(*optional, *params),
                required=(*required, *(key for key, p in params.items() if p.default is p.empty)))
    return {key: _value(section, path, key, params[key].annotation, key in positive,
                        key in nonnegative) for key in section if key in params}


def _section(section, path, factory, required=(), optional=(), **supplied):
    """``factory`` called with a config section's arguments and ``supplied``."""
    return _build(path, factory, **supplied,
                  **_args(section, path, factory, supplied, required, optional))


def _kind(section, path, kinds, noun) -> str:
    """The ``kind`` a config section names, one of ``kinds``."""
    _check_keys(section, path, required=("kind",), optional=section)
    kind = section["kind"]
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{path}.kind: unknown {noun} kind '{kind}'")
    return kind


# the keys of each field kind besides "kind"
_FIELD_KEYS = {"constant": ("value",), "gaussian_bump": ("center", "width", "amplitude"),
               "sum": ("terms",)}


def evaluate_field(spec, coords, path="field") -> np.ndarray:
    """Evaluate an analytic field spec at an (n, dim) array of points; a spec
    outside the grammar raises ConfigError naming where, under ``path``."""
    kind = _kind(spec, path, _FIELD_KEYS, "field")
    _check_keys(spec, path, required=("kind", *_FIELD_KEYS[kind]))
    if kind == "constant":
        return np.full(coords.shape[0], _value(spec, path, "value"))
    if kind == "gaussian_bump":
        dim, center = coords.shape[1], spec["center"]
        if not isinstance(center, list) or len(center) != dim or \
                not all(map(_is_number, center)):
            raise ConfigError(f"{path}.center: expected a list of {dim} coordinates")
        width = _value(spec, path, "width", positive=True)
        if not 0.0 < width * width < math.inf:
            raise ConfigError(f"{path}.width: its square must be a positive double, got {width}")
        with np.errstate(over="ignore"):  # a center so far that the bump vanishes
            d2 = np.sum((coords - np.asarray(center, dtype=float)[None, :]) ** 2, axis=1)
        return _value(spec, path, "amplitude") * np.exp(-0.5 * d2 / width ** 2)
    terms = spec["terms"]
    if not isinstance(terms, list) or not terms:
        raise ConfigError(f"{path}.terms: expected a nonempty list")
    return sum(evaluate_field(term, coords, f"{path}.terms[{i}]") for i, term in enumerate(terms))


@dataclass(frozen=True)
class PipelineConfig:
    """A parsed configuration: the library objects its sections describe.

    ``raw`` is the input dict, echoed into the manifest.  The model and
    observation sections give either ``linear``, the ``random_linear_model``
    arguments the config sets, or ``wave`` and ``observation``; the other is
    None.  ``prior_mean`` and ``truth`` are field specs for
    ``evaluate_field``, and ``lowrank`` holds the ``lanczos_eigs`` arguments
    the config sets.
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
    lowrank: dict
    seeds: dict
    directory: str
    sample_count: int


def _parse_mesh(mesh):
    path = "config.mesh"
    _check_keys(mesh, path, required=("dim", "counts", "bounds"))
    counts, bounds = mesh["counts"], mesh["bounds"]
    if not isinstance(counts, list) or not all(map(_is_int, counts)):
        raise ConfigError(f"{path}.counts: expected a list of integers")
    if not isinstance(bounds, list) or not all(
            isinstance(b, list) and len(b) == 2 and all(map(_is_number, b))
            for b in bounds):
        raise ConfigError(f"{path}.bounds: expected a list of [lo, hi] pairs")
    _check_size(f"{path}.counts", len(counts), *(c + 1 for c in counts))
    return _build(path, build_mesh, _value(mesh, path, "dim", (int,)), counts, bounds)


def _data_wave(wave) -> WaveConfig:
    """The wave config the data come from: mesh and dt halved, no inverse crime."""
    mesh = wave.mesh
    fine_mesh = build_mesh(mesh.dim, tuple(2 * c for c in mesh.counts), mesh.domain_bounds)
    return replace(wave, mesh=fine_mesh, dt=wave.dt / 2)


def _parse_observation(obs, wave) -> ObservationSetup:
    path = "config.observation"
    args = _args(obs, path, ObservationSetup, ("receiver_positions", "sample_times"),
                 required=("receivers", "sample_times"))
    recs = obs["receivers"]
    if not isinstance(recs, list) or not all(map(_is_number, recs)):
        raise ConfigError(f"{path}.receivers: expected a list of positions")
    st, st_path = obs["sample_times"], f"{path}.sample_times"
    _check_keys(st, st_path, required=("start", "stop", "count"))
    start, stop = _value(st, st_path, "start"), _value(st, st_path, "stop")
    if stop <= start:
        raise ConfigError(f"{st_path}.stop: must exceed start")
    count = _value(st, st_path, "count", (int,), positive=True)
    _check_size(f"{st_path}.count", count)
    observation = _build(path, ObservationSetup, receiver_positions=recs,
                         sample_times=np.linspace(start, stop, count), **args)
    _build(path, _check_observation, wave, observation)
    return observation


def validate_config(raw: dict) -> PipelineConfig:
    """Parse a raw config dict against the versioned schema.

    Returns the parsed ``PipelineConfig``; raises ConfigError naming the
    offending field path otherwise.
    """
    _check_depth(raw)
    _check_keys(raw, "config",
                required=("schema_version", "mesh", "prior", "model", "truth",
                          "observation", "seeds", "output"),
                optional=("lowrank",))
    if _value(raw, "config", "schema_version", (int,)) != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']}")
    mesh = _parse_mesh(raw["mesh"])

    prior = raw["prior"]
    alpha = _args(prior, "config.prior", build_prior, ("mesh", "anisotropy", "mean"),
                  required=("anisotropy", "mean"), positive=("alpha",))["alpha"]
    anisotropy = _section(prior["anisotropy"], "config.prior.anisotropy", AnisotropySpec)
    # a radial ball must cover every quadrature point of the mesh
    _build("config.prior.anisotropy", anisotropy.quadrature_tensors, mesh)

    model, obs = raw["model"], raw["observation"]
    linear = wave = observation = twin = None
    if _kind(model, "config.model", ("linear", "wave1d"), "model") == "linear":
        linear = _args(model, "config.model", random_linear_model, ("mspace", "noise_sigma"),
                       required=("kind",), positive=("q",), nonnegative=("seed",))
        linear.update(_args(obs, "config.observation", LinearMapModel, ("operator", "mspace"),
                            positive=("noise_sigma",)))
        _check_size("config.model.q", linear["q"], mesh.n)
    else:
        source = _section(model.get("source"), "config.model.source", SourceSpec)
        wave = _section(model, "config.model", WaveConfig, required=("kind", "source"),
                        mesh=mesh, source=source)
        observation = _parse_observation(obs, wave)
        steps = _build("config.model.dt", _step_count, wave.dt, observation)
        _check_size("config.model.dt", steps + 1, 2 * mesh.n + 4)
        # the data twin's history: twice the nodes and twice the steps
        twin = _data_wave(wave)
        _check_size("config.model.dt", _step_count(twin.dt, observation) + 1,
                    2 * twin.mesh.n + 4)
    # the spectrum's q x q G = X^T M X / sigma^2
    q = linear["q"] if linear else observation.q
    _check_size("config.model.q" if linear else "config.observation", q, q)
    # the misfit divides by sigma^2, which must not round to 0 or overflow
    sigma = float(obs["noise_sigma"])
    if not sys.float_info.min <= sigma * sigma < math.inf:
        raise ConfigError("config.observation.noise_sigma: its square must be a positive "
                          f"double with a finite reciprocal, got {sigma}")
    # evaluating a field at one node checks it; a wavespeed must also be
    # positive and within dt's CFL bound at every node: the truth on the data
    # mesh, and the prior mean
    for spec, path, config in ((raw["truth"], "config.truth", twin),
                               (prior["mean"], "config.prior.mean", wave)):
        c = evaluate_field(spec, config.mesh.node_coords if config else mesh.node_coords[:1], path)
        if config is not None:
            _build(path if c.min() <= 0 else "config.model.dt", _validate_wavespeed, config, c)

    lowrank = _args(raw.get("lowrank", {}), "config.lowrank", lanczos_eigs,
                    ("operator", "mspace", "trunc_threshold", "seed"),
                    positive=("r_max", "eig_tol"))
    r_max = lowrank.get("r_max", _PARAMS["lanczos_eigs"]["r_max"].default)
    if r_max > mesh.n:
        raise ConfigError(
            f"config.lowrank.r_max: must not exceed the {mesh.n} mesh nodes, got {r_max}")

    seeds = raw["seeds"]
    _check_keys(seeds, "config.seeds", required=("data_noise", "sampling", "lanczos"))
    for key in seeds:
        _value(seeds, "config.seeds", key, (int,), nonnegative=True)

    output = raw["output"]
    _check_keys(output, "config.output", required=("directory",),
                optional=("sample_count",))
    if not isinstance(output["directory"], str) or not output["directory"]:
        raise ConfigError("config.output.directory: expected a nonempty path")
    sample_count = (_value(output, "config.output", "sample_count", (int,), positive=True)
                    if "sample_count" in output else 4)
    _check_size("config.output.sample_count", mesh.n, sample_count)
    return PipelineConfig(
        raw=raw, mesh=mesh, alpha=alpha, anisotropy=anisotropy,
        prior_mean=prior["mean"], truth=raw["truth"], linear=linear, wave=wave, observation=observation,
        lowrank=lowrank, seeds=seeds, directory=output["directory"], sample_count=sample_count)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: not a UTF-8 JSON document ({exc})") from exc
    except RecursionError:
        raise ConfigError("config: nested too deeply for the JSON decoder") from None
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
    """Assemble the prior and the forward model a config describes; a value
    they refuse, or a wave source that is zero at every step, raises
    ConfigError naming its section."""
    config = _parsed(config)
    mesh = config.mesh
    prior = _build("config.prior", build_prior, mesh, config.alpha, config.anisotropy,
                   mean=evaluate_field(config.prior_mean, mesh.node_coords))
    if config.wave is None:
        model = _build("config.model", random_linear_model, prior.mspace, **config.linear)
    else:
        model = WaveModel(config.wave, config.observation, mspace=prior.mspace)
        disc = model.disc
        if not (np.any(disc.source_v) and np.any(disc.source_factors)
                and np.all(np.isfinite(disc.source_v))):
            raise ConfigError("config.model.source: the source is zero at every step "
                              "or not finite")
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


def _write_bodies(paths, bodies) -> dict:
    """Write each body to its path, in order; returns each path's sha256."""
    return {path: _write_csv(path, body) for path, body in zip(paths, bodies)}


def _write_columns(paths, header, prefixes, values) -> dict:
    """Write column k of the (len(prefixes), len(paths)) block ``values`` to
    ``paths[k]`` as a CSV file: the header line, then each row's prefix and
    17-digit value, each line ended by csv.writer's "\r\n".  Returns each
    path's sha256.

    The files go out a chunk at a time.  One writer thread hashes and writes
    chunk k while this thread formats chunk k + 1; this thread takes chunk
    k's digests, or its exception, before it hands chunk k + 1 over, so at
    most one chunk is in flight and a failure stops before any later file.
    The last chunk is written here, so a call of one chunk starts no thread."""
    n = len(prefixes)
    width = max(map(len, prefixes), default=1)
    per_chunk = max(1, _CHUNK_VALUES // max(n, 1))
    lines = np.empty((min(per_chunk, len(paths)), n, width + _TEXT_WIDTH + 2), np.uint8)
    lines[:, :, :width] = np.array(prefixes, f"S{width}").view(np.uint8).reshape(n, width)
    lines[:, :, -2:] = np.frombuffer(b"\r\n", np.uint8)
    digests, pending = {}, None
    # the executor starts its thread on the first submit
    with ThreadPoolExecutor(max_workers=1) as writer:
        for start in range(0, len(paths), per_chunk):
            block = values[:, start:start + per_chunk].T
            # a file of more rows than a chunk holds values: a chunk of rows at a time
            for r0 in range(0, n, _CHUNK_VALUES):
                rows = block[:, r0:r0 + _CHUNK_VALUES]
                lines[:len(block), r0:r0 + rows.shape[1], width:-2] = _format17(rows).reshape(
                    *rows.shape, _TEXT_WIDTH)
            bodies = [header + text[text != 0].tobytes() for text in lines[:len(block)]]
            if pending is not None:
                digests.update(pending.result())
            chunk = paths[start:start + per_chunk]
            if start + per_chunk < len(paths):
                pending = writer.submit(_write_bodies, chunk, bodies)
            else:
                digests.update(_write_bodies(chunk, bodies))
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


def read_vector_csv(path, digest=None) -> np.ndarray:
    """The last column of a CSV artifact, below its header row; empty for a
    header-only file (a rank-0 spectrum).  A file that is missing, not UTF-8
    text of numbers, or whose bytes have a sha256 other than ``digest`` (when
    given) raises MissingArtifactError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if digest is not None and hashlib.sha256(data).hexdigest() != digest:
            raise MissingArtifactError(message=f"{path}: its sha256 differs from the one "
                                               "recorded when it was written")
        rows = data.decode("utf-8").splitlines()[1:]
        return np.loadtxt(rows, delimiter=",", usecols=-1, ndmin=1) if rows else np.empty(0)
    except FileNotFoundError as exc:
        raise MissingArtifactError(message=f"{path}: no such file") from exc
    except ValueError as exc:
        raise MissingArtifactError(message=f"{path}: {exc}") from exc


def read_field_csv(path, mesh, digest=None) -> np.ndarray:
    vals = read_vector_csv(path, digest)
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
    """The output directory's manifest, or an empty one; MissingArtifactError
    for a file that is not a JSON object whose ``stages`` object holds an
    object with a ``files`` object per stage."""
    path = os.path.join(outdir, MANIFEST_NAME)
    if not os.path.exists(path):
        return {"schema_version": SCHEMA_VERSION, "stages": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not UTF-8 JSON
        raise MissingArtifactError(message=f"{path}: {exc}") from exc
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict) or not all(
            isinstance(entry, dict) and isinstance(entry.get("files"), dict)
            for entry in stages.values()):
        raise MissingArtifactError(message=f"{path}: expected an object with a 'stages' object")
    return manifest


def _save_manifest(outdir, manifest):
    with _atomic_open(os.path.join(outdir, MANIFEST_NAME)) as fh, \
            io.TextIOWrapper(fh, encoding="utf-8") as text:
        json.dump(manifest, text, indent=2, sort_keys=True)
        text.write("\n")


_COSTS = ("forward_solves", "jacobian_builds", "stiffness_solves", "newton_iters",
          "cg_iters_total", "lanczos_iterations")


def _record(manifest, stage, files, **extra):
    """Enter a stage's files (path: sha256) in its manifest entry and log its
    cost counters."""
    files = {os.path.basename(path): digest for path, digest in files.items()}
    entry = {"files": files}
    entry.update(extra)
    manifest["stages"][stage] = entry
    costs = [f"{key} {entry[key]}" for key in _COSTS if key in entry]
    if costs:
        logging.getLogger(__name__).info("%s: %s", stage, ", ".join(costs))


def _solve_counts(problem, since=None):
    """The model's forward solves and J builds and the prior's K solves, less ``since``."""
    since = since or {}
    counts = (problem.model.forward_solves, problem.model.jacobian_builds,
              problem.prior.stiffness_solves)
    return {key: val - since.get(key, 0) for key, val in zip(_COSTS[:3], counts)}


def _require(manifest, stage):
    """MissingArtifactError naming the first stage ``stage`` reads that has
    no entry, or whose entry records that it did not converge."""
    for dep in STAGE_DEPS[stage]:
        entry = manifest["stages"].get(dep)
        if entry is None or entry.get("converged") is False:
            raise MissingArtifactError(dep)


def _read(manifest, outdir, stage, name, mesh=None) -> np.ndarray:
    """The values of the file ``name`` that ``stage`` wrote: a field on
    ``mesh``, or without one the last column.  MissingArtifactError names the
    file when the stage's entry lists none or its bytes have another sha256."""
    path = os.path.join(outdir, name)
    digest = manifest["stages"][stage]["files"].get(name)
    if digest is None:
        raise MissingArtifactError(message=f"{path}: the {stage} stage recorded no such file")
    return read_vector_csv(path, digest) if mesh is None else read_field_csv(path, mesh, digest)


def _forget(manifest, outdir, stage):
    """Drop a stage's manifest entry and delete the files it listed: a re-run
    writes to fresh names, as a rename over a file can force its writeback."""
    for name in manifest["stages"].pop(stage, {"files": {}})["files"]:
        path = os.path.join(outdir, name)
        if name == os.path.basename(name) and os.path.isfile(path):
            os.remove(path)


def _stage_truth(problem, outdir, manifest, cache):
    mesh = problem.mesh
    truth = evaluate_field(problem.config.truth, mesh.node_coords)
    files = write_fields_csv([os.path.join(outdir, f) for f in ("prior_mean.csv", "truth.csv")],
                             mesh, np.column_stack([problem.prior.mean, truth]))
    _record(manifest, "truth", files)


def _stage_data(problem, outdir, manifest, cache):
    config = problem.config
    seed, wave = config.seeds["data_noise"], config.wave is not None
    # wave data come from a twin on a twice-refined mesh and time step
    data_model = WaveModel(_data_wave(config.wave), config.observation) if wave else problem.model
    mesh = data_model.config.mesh if wave else problem.mesh
    m_true = evaluate_field(config.truth, mesh.node_coords)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        y_obs = synthesize_data(data_model, m_true, data_model.noise_sigma, seed)
        series = data_model.receiver_series(m_true) if wave else None
        # the misfit 1/2 |y / sigma|^2 the map stage starts from
        finite = np.isfinite(0.5 * np.sum((y_obs / data_model.noise_sigma)**2))
    # a finite source, or a finite truth under a linear map, can still drive
    # the observations past a double
    if wave and not (finite and np.all(np.isfinite(series))):
        raise ConfigError("config.model.source: the observations overflow a double")
    if not finite:
        raise ConfigError("config.truth: the observations or their misfit overflow a double")
    files = _write_columns([os.path.join(outdir, "observations.csv")], b"index,value\r\n",
                           [b"%d," % i for i in range(y_obs.size)], y_obs[:, None])
    if wave:
        dt = data_model.config.dt
        rows = [b"%.17g,%d," % (k * dt, r)
                for r in range(series.shape[1]) for k in range(series.shape[0])]
        files.update(_write_columns([os.path.join(outdir, "seismogram_truth.csv")],
                                    b"time,receiver_id,value\r\n", rows, series.T.reshape(-1, 1)))
    # the data model runs no solve before this stage: the wave one is new
    _record(manifest, "data", files, seed=seed, forward_solves=data_model.forward_solves)


def _stage_map(problem, outdir, manifest, cache):
    y_obs = _read(manifest, outdir, "data", "observations.csv")
    start = _solve_counts(problem)
    result = find_map(problem.prior, problem.model, y_obs)
    files = write_field_csv(os.path.join(outdir, "map.csv"), problem.mesh, result.m_map)
    if isinstance(problem.model, WaveModel):
        # J at the MAP point, cached by the last gradient: the spectrum
        # linearizes on it and runs no PDE solve of its own
        jac = problem.model.jacobian(result.m_map)
        q, n = jac.shape
        files.update(_write_columns(
            [os.path.join(outdir, "jacobian.csv")], b"datum,node,value\r\n",
            [b"%d,%d," % (i, j) for i in range(q) for j in range(n)], jac.reshape(-1, 1)))
    path = os.path.join(outdir, "map_log.txt")
    files[path] = _write_csv(path, ("\n".join(result.log_lines) + "\n").encode())
    # nan when the first gradient norm is not finite
    reduction = (result.gradnorm_history[-1] / result.gradnorm_history[0]
                 if result.gradnorm_history[0] != 0 else 0.0)
    _record(manifest, "map", files,
            converged=bool(result.converged),
            newton_iters=result.newton_iters,
            cg_iters_total=result.cg_iters_total,
            map_gradnorm_reduction=reduction,
            objective_history=[float(v) for v in result.objective_history],
            gradnorm_history=[float(v) for v in result.gradnorm_history],
            **_solve_counts(problem, start))
    if not result.converged:
        raise SolverFailure(f"MAP solve did not converge: {result.message} (relative "
                            f"gradient norm {reduction:.3e})", residual=reduction)


def _stage_spectrum(problem, outdir, manifest, cache):
    seed = problem.config.seeds["lanczos"]
    m_map = _read(manifest, outdir, "map", "map.csv", problem.mesh)
    start = _solve_counts(problem)
    model = problem.model
    if isinstance(model, WaveModel):
        # the linearization at the MAP point is the Jacobian the map stage wrote
        jac = _read(manifest, outdir, "map", "jacobian.csv")
        path = os.path.join(outdir, "jacobian.csv")
        if jac.size != model.q * model.n:
            raise MissingArtifactError(
                message=f"{path}: expected {model.q * model.n} values, found {jac.size}")
        model = LinearMapModel(jac.reshape(model.q, model.n), problem.prior.mspace,
                               model.noise_sigma)
    action = prior_preconditioned_hessian(problem.prior, model, m_map)
    eig = lanczos_eigs(action, problem.prior.mspace, seed=seed, **problem.config.lowrank)
    # G = X^T M X / sigma^2, X = K^-1 J^T, has the nonzero spectrum of the
    # preconditioned Hessian: its tail beyond the rank is the exact error
    x = hessian_factor(problem.prior, model, m_map)
    gram = x.T @ (problem.prior.mspace.matrix @ x) / model.noise_sigma**2
    tail = np.clip(np.linalg.eigvalsh(gram)[::-1][eig.rank:], 0.0, None)
    files = _write_columns([os.path.join(outdir, "spectrum.csv")], b"index,lambda\r\n",
                           [b"%d," % k for k in range(eig.rank)], eig.lambdas[:, None])
    files.update(write_fields_csv([os.path.join(outdir, f"eigenvector_{k:03d}.csv")
                                   for k in range(eig.rank)], problem.mesh, eig.vectors))
    _record(manifest, "spectrum", files, seed=seed,
            lambdas=[float(v) for v in eig.lambdas],
            truncation_error_estimate=truncation_error_bound(tail),
            spectrum_incomplete=bool(eig.spectrum_incomplete), diagnostic=eig.diagnostic,
            lanczos_iterations=eig.iterations,
            **_solve_counts(problem, start))
    if eig.spectrum_incomplete:
        logging.getLogger(__name__).warning("spectrum: %s", eig.diagnostic)


def _load_lowrank(problem, outdir, manifest, cache) -> LowRankPosterior:
    """The low-rank posterior of the spectrum and map stages' files, read once
    per ``run_pipeline`` call: it stays in ``cache`` with the digests recorded
    for those files, and the next load takes it from there while they are
    unchanged, so a stage that re-writes them in the call forces a reload.
    Each file read is checked against its recorded digest."""
    stages = manifest["stages"]
    key = (sorted(stages["spectrum"]["files"].items()), stages["map"]["files"].get("map.csv"))
    kept, posterior = cache.get("posterior", (None, None))
    if kept != key:
        lambdas = _read(manifest, outdir, "spectrum", "spectrum.csv")
        vectors = np.zeros((problem.mesh.n, lambdas.size))
        for k in range(lambdas.size):
            vectors[:, k] = _read(manifest, outdir, "spectrum", f"eigenvector_{k:03d}.csv",
                                  problem.mesh)
        m_map = _read(manifest, outdir, "map", "map.csv", problem.mesh)
        posterior = LowRankPosterior(problem.prior, m_map, lambdas, vectors)
        cache["posterior"] = (key, posterior)
    return posterior


def _stage_variance(problem, outdir, manifest, cache):
    start = _solve_counts(problem)
    lowrank = _load_lowrank(problem, outdir, manifest, cache)
    pts = problem.mesh.node_coords
    prior_var = problem.prior.pointwise_variance(pts)
    post_var = lowrank.pointwise_variance(pts, prior_variance=prior_var)
    files = write_fields_csv([os.path.join(outdir, f"{kind}_variance.csv")
                              for kind in ("prior", "posterior")],
                             problem.mesh, np.column_stack([prior_var, post_var]))
    _record(manifest, "variance", files, **_solve_counts(problem, start))


def _write_draws(problem, outdir, manifest, which, load_sampler):
    """Draw ``sample-<which>`` from ``load_sampler()``, one file per draw; the
    prior and the posterior draw from streams 0 and 1 of the sampling seed."""
    start = _solve_counts(problem)
    sampler = load_sampler()
    count, seed = problem.config.sample_count, problem.config.seeds["sampling"]
    rng = np.random.default_rng([seed, ("prior", "posterior").index(which)])
    samples = sampler.sample(rng.standard_normal((problem.mesh.n, count)))
    files = write_fields_csv([os.path.join(outdir, f"{which}_sample_{k:03d}.csv")
                              for k in range(count)], problem.mesh, samples)
    _record(manifest, f"sample-{which}", files, seed=seed, count=count,
            **_solve_counts(problem, start))


def _stage_sample_prior(problem, outdir, manifest, cache):
    _write_draws(problem, outdir, manifest, "prior", lambda: problem.prior)


def _stage_sample_posterior(problem, outdir, manifest, cache):
    _write_draws(problem, outdir, manifest, "posterior",
                 lambda: _load_lowrank(problem, outdir, manifest, cache))


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


def run_pipeline(config, outdir=None, stages=None) -> RunArtifacts:
    """Execute pipeline stages against an output directory.

    ``config`` is a path, a raw dict or a ``PipelineConfig``; it is parsed,
    and the problem built, before the output directory is created.  Runs all
    stages when ``stages`` is None, and none for an empty list; failure in a
    stage leaves earlier artifacts in place and a failure note in the
    manifest before the exception propagates.
    """
    config = _parsed(config)
    stages = list(PIPELINE_STAGES if stages is None else stages)
    for stage in stages:
        if stage not in _STAGE_FNS:
            raise ConfigError(f"unknown stage '{stage}'")
    problem = build_problem(config)
    outdir = outdir or config.directory
    os.makedirs(outdir, exist_ok=True)

    with _locked(outdir):
        manifest = _load_manifest(outdir)
        manifest["schema_version"] = SCHEMA_VERSION
        manifest["config"] = config.raw
        manifest.pop("failure", None)
        cache = {}  # the low-rank posterior the stages of this call share
        for stage in stages:
            _require(manifest, stage)
            start = time.perf_counter()
            try:
                _forget(manifest, outdir, stage)
                _STAGE_FNS[stage](problem, outdir, manifest, cache)
            except Exception as exc:
                manifest["failure"] = {"stage": stage, "error": str(exc)}
                _save_manifest(outdir, manifest)
                raise
            manifest["stages"][stage]["timing_s"] = time.perf_counter() - start
            _save_manifest(outdir, manifest)
    return RunArtifacts(outdir=outdir, manifest=manifest)
