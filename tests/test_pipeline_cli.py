import argparse
import csv
import fcntl
import inspect
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import linbayes as lb
from linbayes.cli import _build_parser, main as cli_main
from linbayes.errors import ConfigError, MissingArtifactError
from linbayes.pipeline import (PIPELINE_STAGES, STAGE_DEPS, build_problem, evaluate_field,
                               load_config, read_field_csv, read_vector_csv, run_pipeline,
                               sha256_file, validate_config)

import oracles

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _linear_config(outdir):
    cfg = json.loads((CONFIG_DIR / "linear_small.json").read_text())
    cfg["output"]["directory"] = str(outdir)
    return cfg


def test_bundled_configs_validate():
    for name in ("linear_small.json", "wave1d_small.json"):
        raw = json.loads((CONFIG_DIR / name).read_text())
        config = validate_config(raw)
        assert isinstance(config, lb.PipelineConfig)
        assert config.raw == json.loads((CONFIG_DIR / name).read_text())


def test_build_problem_from_path_or_dict():
    # the two calls the benchmark makes: a loaded config and a raw dict
    for name in ("linear_small.json", "wave1d_small.json"):
        raw = json.loads((CONFIG_DIR / name).read_text())
        loaded = build_problem(load_config(CONFIG_DIR / name))
        parsed = build_problem(raw)
        for a, b in ((loaded.prior, parsed.prior), (loaded.model, parsed.model)):
            assert (a.mspace.matrix != b.mspace.matrix).nnz == 0
        assert (loaded.prior.stiffness != parsed.prior.stiffness).nnz == 0
        assert np.array_equal(loaded.prior.mean, parsed.prior.mean)
        if isinstance(loaded.model, lb.WaveModel):
            a, b = loaded.model.config, parsed.model.config
            assert np.array_equal(a.mesh.node_coords, b.mesh.node_coords)
            assert replace(a, mesh=b.mesh) == b
            assert loaded.model.observation == parsed.model.observation
        else:
            assert np.array_equal(loaded.model.operator, parsed.model.operator)


def test_wave_defaults_come_from_the_dataclasses(tmp_path):
    cfg = _wave_config(tmp_path)
    del cfg["model"]["source"]["amplitude"]
    wave = validate_config(cfg).wave
    source = lb.SourceSpec(**cfg["model"]["source"])
    assert wave == lb.WaveConfig(mesh=wave.mesh, dt=0.01, source=source)


def _on_wave(mutate):
    """Replace a config by the trimmed wave one, then apply ``mutate``."""
    def apply(cfg):
        wave = _wave_config(cfg["output"]["directory"])
        cfg.clear()
        cfg.update(wave)
        mutate(cfg)
    return apply


# values a library constructor rejects, each named by its section's path
CONSTRUCTOR_REJECTS = [
    pytest.param(_on_wave(lambda c: c["prior"].__setitem__("anisotropy", {
        "kind": "radial", "beta": 0.001875, "theta": 2.0, "radius": 1.0})),
        "config.prior.anisotropy: theta", id="theta"),
    pytest.param(_on_wave(lambda c: c["observation"].__setitem__(
        "sample_times", {"start": -0.5, "stop": 0.2, "count": 3})),
        "config.observation: sample times", id="sample-times"),
    # the last sample time sets the step count, which must be finite
    pytest.param(_on_wave(lambda c: c["observation"]["sample_times"].__setitem__("stop", 1e308)),
                 "config.model.dt: the last sample time is inf steps", id="steps"),
    pytest.param(_on_wave(lambda c: c["model"]["source"].__setitem__("position", 5.0)),
                 "config.model: source position", id="source"),
    pytest.param(_on_wave(lambda c: c["observation"].__setitem__("receivers", [7.0])),
                 "config.observation: receiver 7.0", id="receiver"),
    pytest.param(lambda c: c["prior"].__setitem__("anisotropy", {
        "kind": "radial", "beta": 0.05, "radius": 1.5}),
        "config.prior.anisotropy: a radial tensor needs theta and radius", id="no-theta"),
    # a radial ball that leaves quadrature points of the 2D mesh uncovered
    pytest.param(lambda c: c["prior"].__setitem__("anisotropy", {
        "kind": "radial", "beta": 0.05, "theta": 0.5, "radius": 1.0}),
        "config.prior.anisotropy: |x| = ", id="radius"),
    # json reads NaN and Infinity as numbers; no config field takes them
    pytest.param(lambda c: c["prior"].__setitem__("alpha", float("nan")),
                 "config.prior.alpha", id="nan-alpha"),
    pytest.param(lambda c: c["observation"].__setitem__("noise_sigma", float("nan")),
                 "config.observation.noise_sigma", id="nan-noise"),
    pytest.param(_on_wave(lambda c: c["truth"]["terms"][0].__setitem__("value", float("nan"))),
                 "config.truth.terms[0].value", id="nan-truth"),
    pytest.param(_on_wave(lambda c: c["model"]["source"].__setitem__("width", float("nan"))),
                 "config.model.source.width", id="nan-width"),
    pytest.param(lambda c: c["prior"]["mean"].__setitem__("value", float("nan")),
                 "config.prior.mean.value", id="nan-mean"),
    pytest.param(lambda c: c["prior"]["anisotropy"].__setitem__("beta", float("inf")),
                 "config.prior.anisotropy.beta", id="inf-beta"),
    pytest.param(lambda c: c["lowrank"].__setitem__("eig_tol", float("nan")),
                 "config.lowrank.eig_tol", id="nan-eig-tol"),
    # a noise level whose square, or the square's reciprocal, overflows
    pytest.param(lambda c: c["observation"].__setitem__("noise_sigma", 1e155),
                 "config.observation.noise_sigma: its square", id="linear-noise-1e155"),
    pytest.param(lambda c: c["observation"].__setitem__("noise_sigma", 1e-300),
                 "config.observation.noise_sigma: its square", id="linear-noise-1e-300"),
    pytest.param(_on_wave(lambda c: c["observation"].__setitem__("noise_sigma", 1e155)),
                 "config.observation.noise_sigma: its square", id="wave-noise-1e155"),
    pytest.param(_on_wave(lambda c: c["observation"].__setitem__("noise_sigma", 1e-300)),
                 "config.observation.noise_sigma: its square", id="wave-noise-1e-300"),
]


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda c: c.__setitem__("unknown_top", 1), "unknown_top"),
    (lambda c: c["observation"].__setitem__("noise_sigma", -0.1), "noise_sigma"),
    (lambda c: c["mesh"].__setitem__("counts", [0, 3]), "counts"),
    (lambda c: c["seeds"].pop("lanczos"), "lanczos"),
    (lambda c: c["seeds"].__setitem__("sampling", -3), "config.seeds.sampling: must be nonneg"),
    (lambda c: c["output"].__setitem__("sample_count", 0), "config.output.sample_count: must be pos"),
    (lambda c: c["prior"]["anisotropy"].__setitem__("kind", "diagonal"), "anisotropy"),
    (lambda c: c.__setitem__("schema_version", 99), "schema_version"),
    (lambda c: c.__setitem__("schema_version", True), "config.schema_version: expected an integer"),
    (lambda c: c["lowrank"].__setitem__("r_max", "20"), "r_max"),
    (lambda c: c["output"].__setitem__("exact_mass_sqrt", True), "exact_mass_sqrt"),
    (_on_wave(lambda c: c["observation"]["sample_times"].__setitem__("stop", 0.01)),
     "config.observation.sample_times.stop: must exceed start"),
] + CONSTRUCTOR_REJECTS)
def test_config_validation_names_field(tmp_path, mutate, path_fragment):
    cfg = _linear_config(tmp_path)
    mutate(cfg)
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert path_fragment in str(info.value)


def test_full_run_is_deterministic(tmp_path):
    art1 = run_pipeline(_linear_config(tmp_path / "a"))
    art2 = run_pipeline(_linear_config(tmp_path / "b"))
    assert art1.checksums == art2.checksums
    for name in art1.checksums:
        b1 = (Path(art1.outdir) / name).read_bytes()
        b2 = (Path(art2.outdir) / name).read_bytes()
        assert b1 == b2


def test_manifest_checksums_match_files(tmp_path):
    art = run_pipeline(_linear_config(tmp_path / "run"))
    for name, digest in art.checksums.items():
        assert sha256_file(os.path.join(art.outdir, name)) == digest
    assert art.manifest["stages"]["map"]["map_gradnorm_reduction"] <= 1e-6
    assert art.manifest["stages"]["map"]["converged"] is True


def test_seed_override_changes_data(tmp_path):
    base = run_pipeline(_linear_config(tmp_path / "a"), stages=["truth", "data"])
    cfg = _linear_config(tmp_path / "b")
    cfg["seeds"]["data_noise"] = 999
    other = run_pipeline(cfg, stages=["truth", "data"])
    f1 = base.manifest["stages"]["data"]["files"]["observations.csv"]
    f2 = other.manifest["stages"]["data"]["files"]["observations.csv"]
    assert f1 != f2


def test_stage_composition_matches_full_run(tmp_path, monkeypatch):
    # the stages of one call share one low-rank posterior: the full run
    # reads each eigenvector file once, and writes what one call per stage
    # writes
    reads = []

    def counted(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return read_field_csv(path, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lb.pipeline, "read_field_csv", counted)
        full = run_pipeline(_linear_config(tmp_path / "full"))
    rank = len(full.manifest["stages"]["spectrum"]["lambdas"])
    eigenvectors = sorted(name for name in reads if name.startswith("eigenvector_"))
    assert rank > 0 and eigenvectors == [f"eigenvector_{k:03d}.csv" for k in range(rank)]
    staged_dir = tmp_path / "staged"
    cfg = _linear_config(staged_dir)
    for stage in ("truth", "data", "map", "spectrum", "variance",
                  "sample-prior", "sample-posterior"):
        run_pipeline(cfg, stages=[stage])
    staged = json.loads((staged_dir / "manifest.json").read_text())
    staged_sums = {}
    for entry in staged["stages"].values():
        staged_sums.update(entry["files"])
    assert staged_sums == full.checksums


def test_missing_upstream_stage_raises(tmp_path):
    with pytest.raises(MissingArtifactError) as info:
        run_pipeline(_linear_config(tmp_path / "x"), stages=["variance"])
    assert info.value.stage == "spectrum"


def test_unknown_stage_raises_before_the_directory_exists(tmp_path):
    with pytest.raises(ConfigError, match="unknown stage 'nope'"):
        run_pipeline(_linear_config(tmp_path / "out"), stages=["nope"])
    assert not (tmp_path / "out").exists()


def test_spectrum_csv_matches_dense_oracle(tmp_path):
    cfg = _linear_config(tmp_path / "run")
    art = run_pipeline(cfg)
    with open(Path(art.outdir) / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "lambda"]
    lambdas = np.array([float(r[1]) for r in rows[1:]])

    from linbayes.pipeline import build_problem, read_field_csv
    problem = build_problem(cfg)
    m_map = read_field_csv(os.path.join(art.outdir, "map.csv"), problem.mesh)
    vals, _ = oracles.preconditioned_hessian_eigs_dense(
        problem.model.operator, problem.prior.mspace.matrix.toarray(),
        problem.prior.stiffness.toarray(), problem.model.noise_sigma)
    kept = vals[vals >= 0.1][:len(lambdas)]
    assert np.allclose(lambdas, kept, rtol=1e-6)


@pytest.mark.parametrize("wave", [False, True], ids=["linear", "wave"])
def test_truncation_error_is_the_dense_tail(tmp_path, wave):
    # the manifest's truncation error sums lam / (1 + lam) over every
    # eigenvalue of the dense prior-preconditioned Hessian beyond the rank;
    # the linear config has ten nonzero eigenvalues, all above the threshold,
    # so a rank cap of 4 drops six
    cfg = (_wave_config if wave else _linear_config)(tmp_path / "run")
    if not wave:
        cfg["lowrank"]["r_max"] = 4
    art = run_pipeline(cfg, stages=["truth", "data", "map", "spectrum"])
    entry = art.manifest["stages"]["spectrum"]
    problem = build_problem(cfg)
    m_map = read_field_csv(os.path.join(art.outdir, "map.csv"), problem.mesh)
    vals, _ = oracles.preconditioned_hessian_eigs_dense(
        problem.model.jacobian(m_map), problem.prior.mspace.matrix.toarray(),
        problem.prior.stiffness.toarray(), problem.model.noise_sigma)
    tail = np.clip(vals[len(entry["lambdas"]):], 0.0, None)
    expected = np.sum(tail / (1.0 + tail))
    assert expected > 1e-3
    assert np.isclose(entry["truncation_error_estimate"], expected,
                      rtol=1e-8, atol=1e-10 * vals[0])


def test_lanczos_keeps_the_smallest_retained_pair_on_the_wave_map_point(tmp_path):
    # a Ritz value from the null space of the rank-q Hessian converges within
    # a few iterations; counted as proof that the spectrum above the
    # threshold was captured, it stopped these seeds before lambda_8 = 0.673
    # appeared, with rank 7 and no flag set
    cfg = json.loads((CONFIG_DIR / "wave1d_small.json").read_text())
    cfg["output"]["directory"] = str(tmp_path / "wave")
    run_pipeline(cfg, stages=["truth", "data", "map"])
    problem = build_problem(cfg)
    m_map = read_field_csv(tmp_path / "wave" / "map.csv", problem.mesh)
    vals, _ = oracles.preconditioned_hessian_eigs_dense(
        problem.model.jacobian(m_map), problem.prior.mspace.matrix.toarray(),
        problem.prior.stiffness.toarray(), problem.model.noise_sigma)
    threshold = inspect.signature(lb.lanczos_eigs).parameters["trunc_threshold"].default
    expected = vals[vals >= threshold]
    assert expected.size == 8
    action = lb.prior_preconditioned_hessian(problem.prior, problem.model, m_map)
    for seed in (59, 236, 677):
        eig = lb.lanczos_eigs(action, problem.prior.mspace, seed=seed,
                              **problem.config.lowrank)
        assert eig.rank == expected.size and not eig.spectrum_incomplete
        assert np.allclose(eig.lambdas, expected, rtol=1e-6)


def test_field_csv_roundtrips_doubles(tmp_path):
    art = run_pipeline(_linear_config(tmp_path / "run"), stages=["truth"])
    from linbayes.pipeline import build_problem, evaluate_field, read_field_csv
    cfg = _linear_config(tmp_path / "run")
    problem = build_problem(cfg)
    truth = evaluate_field(cfg["truth"], problem.mesh.node_coords)
    back = read_field_csv(os.path.join(art.outdir, "truth.csv"), problem.mesh)
    assert np.array_equal(back, truth)  # 17 significant digits round-trip
    raw = (Path(art.outdir) / "truth.csv").read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    header = raw.split(b"\r\n")[0].decode()
    assert header == "x,y,value"


def _wave_config(outdir):
    """Trimmed wave pipeline for fast end-to-end checks."""
    return {
        "schema_version": 1,
        "mesh": {"dim": 1, "counts": [40], "bounds": [[0.0, 1.0]]},
        "prior": {"alpha": 24.0,
                  "anisotropy": {"kind": "isotropic", "beta": 0.001875},
                  "mean": {"kind": "constant", "value": 1.0}},
        "model": {"kind": "wave1d", "dt": 0.01,
                  "source": {"position": 0.25, "width": 0.08, "time_center": 0.2,
                             "time_std": 0.06, "amplitude": 25.0}},
        "truth": {"kind": "sum", "terms": [
            {"kind": "constant", "value": 1.0},
            {"kind": "gaussian_bump", "center": [0.45], "width": 0.08,
             "amplitude": 0.08}]},
        "observation": {"noise_sigma": 0.002, "receivers": [0.65],
                        "sample_times": {"start": 0.01, "stop": 1.0, "count": 60},
                        "fourier_truncation": 7},
        "lowrank": {"r_max": 10, "eig_tol": 1e-6},
        "seeds": {"data_noise": 11, "sampling": 22, "lanczos": 33},
        "output": {"directory": str(outdir), "sample_count": 2},
    }


def test_wave_pipeline_end_to_end(tmp_path):
    art = run_pipeline(_wave_config(tmp_path / "wave"))
    outdir = Path(art.outdir)
    assert art.manifest["stages"]["map"]["converged"] is True
    # data generated on the refined twin carries the receiver time series
    raw = (outdir / "seismogram_truth.csv").read_bytes()
    assert raw.split(b"\r\n")[0] == b"time,receiver_id,value"
    with open(outdir / "seismogram_truth.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # the refined twin halves dt, so 200 steps
    assert len(rows) == 201
    pv, qv = (np.array([float(r[-1]) for r in
                        list(csv.reader((outdir / name).read_text().splitlines()))[1:]])
              for name in ("prior_variance.csv", "posterior_variance.csv"))
    assert np.all(qv <= pv + 1e-14)
    assert len(art.manifest["stages"]["spectrum"]["lambdas"]) >= 1


def test_vector_files_match_per_cell_oracle(tmp_path):
    # the data come from the model's twin on a mesh and a step both halved,
    # at the truth; built here independently, it recomputes every value
    cfg = _wave_config(tmp_path / "wave")
    art = run_pipeline(cfg, stages=["truth", "data", "map", "spectrum"])
    coarse = build_problem(cfg).model
    fine = replace(coarse.config, mesh=lb.build_mesh(1, 80, (0.0, 1.0)), dt=0.005)
    model = lb.WaveModel(fine, coarse.observation)
    m_true = evaluate_field(cfg["truth"], model.config.mesh.node_coords)
    y_obs = lb.synthesize_data(model, m_true, model.noise_sigma, cfg["seeds"]["data_noise"])
    series, dt = model.receiver_series(m_true), model.config.dt
    lambdas = art.manifest["stages"]["spectrum"]["lambdas"]
    assert len(lambdas) >= 1
    expected = {
        "observations.csv": oracles.csv_per_cell(["index", "value"], enumerate(y_obs)),
        "seismogram_truth.csv": oracles.csv_per_cell(
            ["time", "receiver_id", "value"],
            [(k * dt, r, series[k, r]) for r in range(series.shape[1])
             for k in range(series.shape[0])]),
        "spectrum.csv": oracles.csv_per_cell(["index", "lambda"], enumerate(lambdas)),
    }
    for name, data in expected.items():
        assert (Path(art.outdir) / name).read_bytes() == data, name


def test_map_and_spectrum_record_solve_counts(tmp_path):
    # bundled wave config: one Jacobian per gradient (the initial one and one
    # per Newton iteration); the spectrum reads the one at the MAP point from
    # jacobian.csv and runs no PDE solve
    cfg = json.loads((CONFIG_DIR / "wave1d_small.json").read_text())
    cfg["output"]["directory"] = str(tmp_path / "wave")
    run_pipeline(cfg, stages=["truth", "data", "map"])
    art = run_pipeline(cfg, stages=["spectrum"])
    map_entry = art.manifest["stages"]["map"]
    assert map_entry["jacobian_builds"] == map_entry["newton_iters"] + 1
    # exact Gauss-Newton steps: each Newton iteration runs one forward solve
    # and one Jacobian build
    assert [map_entry[k] for k in ("newton_iters", "jacobian_builds", "forward_solves")] == [4, 5, 5]
    assert map_entry["forward_solves"] >= map_entry["newton_iters"] + 1
    spectrum = art.manifest["stages"]["spectrum"]
    assert (spectrum["forward_solves"], spectrum["jacobian_builds"]) == (0, 0)
    # an explicit linear map runs no PDE solve
    art = run_pipeline(_linear_config(tmp_path / "linear"),
                       stages=["truth", "data", "map", "spectrum"])
    for stage in ("map", "spectrum"):
        entry = art.manifest["stages"][stage]
        assert (entry["forward_solves"], entry["jacobian_builds"]) == (0, 0)


def test_spectrum_linearizes_on_the_jacobian_the_map_stage_wrote(tmp_path):
    # jacobian.csv holds J at the MAP point bit for bit, one row per entry,
    # and the spectrum files are those of Lanczos on the wave model itself
    cfg = _wave_config(tmp_path / "wave")
    art = run_pipeline(cfg, stages=["truth", "data", "map", "spectrum"])
    outdir = Path(art.outdir)
    problem = build_problem(cfg)
    prior, model = problem.prior, problem.model
    m_map = read_field_csv(outdir / "map.csv", problem.mesh)
    jac = model.jacobian(m_map)
    raw = (outdir / "jacobian.csv").read_bytes()
    assert raw.startswith(b"datum,node,value\r\n0,0,") and raw.count(b"\r\n") == jac.size + 1
    assert np.array_equal(read_vector_csv(outdir / "jacobian.csv").reshape(jac.shape), jac)
    assert art.manifest["stages"]["map"]["files"]["jacobian.csv"] == sha256_file(
        outdir / "jacobian.csv")
    eig = lb.lanczos_eigs(lb.prior_preconditioned_hessian(prior, model, m_map), prior.mspace,
                          seed=cfg["seeds"]["lanczos"], **problem.config.lowrank)
    assert eig.rank >= 1
    assert np.array_equal(read_vector_csv(outdir / "spectrum.csv"), eig.lambdas)
    for k in range(eig.rank):
        assert np.array_equal(read_field_csv(outdir / f"eigenvector_{k:03d}.csv", problem.mesh),
                              eig.vectors[:, k])
    # an explicit linear map is its own linearization
    art = run_pipeline(_linear_config(tmp_path / "linear"), stages=["truth", "data", "map"])
    assert "jacobian.csv" not in art.manifest["stages"]["map"]["files"]
    assert not (Path(art.outdir) / "jacobian.csv").exists()


def test_interrupted_manifest_save_keeps_previous(tmp_path, monkeypatch):
    cfg = _linear_config(tmp_path / "run")
    run_pipeline(cfg, stages=["truth"])
    path = tmp_path / "run" / "manifest.json"
    before = path.read_bytes()

    def torn_dump(obj, fh, **kwargs):
        fh.write('{"schema_version": 1, "stages": {')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(cfg, stages=["data"])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert "data" not in json.loads(before)["stages"]
    leftovers = [p.name for p in (tmp_path / "run").iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_failure_leaves_note_and_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr(lb.map_solver, "GRAD_TOL_REL", 1e-300)  # unreachable: forces failure
    cfg = _linear_config(tmp_path / "run")
    with pytest.raises(lb.SolverFailure):
        run_pipeline(cfg)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "map"
    assert (tmp_path / "run" / "map.csv").exists()
    assert (tmp_path / "run" / "observations.csv").exists()


# --- command-line interface -------------------------------------------------------


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_run_exit_zero(tmp_path):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_config_error_exit_2(tmp_path):
    cfg = _linear_config(tmp_path / "out")
    cfg["observation"]["noise_sigma"] = -1.0
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 2


def test_cli_solver_failure_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(lb.map_solver, "GRAD_TOL_REL", 1e-300)
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path]) == 3


def _lock_is_held(out):
    with open(out / ".linbayes.lock", "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
    return False


def _lock_holder(out):
    """A child process that holds the output directory's lock until its
    stdin closes."""
    script = ("import fcntl, sys\n"
              f"fh = open({str(out / '.linbayes.lock')!r}, 'a')\n"
              "fcntl.flock(fh, fcntl.LOCK_EX)\n"
              "print('locked', flush=True)\n"
              "sys.stdin.read()\n")
    child = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "locked\n"
    return child


def _assert_refused_while_held(tmp_path, out):
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["truth", "--config", path]) == 4
    assert sorted(os.listdir(out)) == [".linbayes.lock"]
    assert _lock_is_held(out)


def test_cli_locked_directory_exit_4(tmp_path):
    # flock locks belong to the open file description, so a second open in
    # this process is refused as another process would be
    out = tmp_path / "out"
    out.mkdir()
    with open(out / ".linbayes.lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        _assert_refused_while_held(tmp_path, out)


def test_cli_lock_held_by_a_live_process_exit_4(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    with _lock_holder(out):
        _assert_refused_while_held(tmp_path, out)


def test_cli_reclaims_the_lock_of_a_dead_run(tmp_path):
    # the kernel frees a killed holder's lock; the lock file stays in place
    out = tmp_path / "out"
    out.mkdir()
    with _lock_holder(out) as child:
        child.kill()
        child.wait()
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["truth", "--config", path]) == 0
    assert (out / "truth.csv").exists()
    assert (out / ".linbayes.lock").exists() and not _lock_is_held(out)


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no process
    return child.pid


@pytest.mark.parametrize("content", ["", "-7", " 1", "dead-pid"])
def test_cli_leftover_lock_files_exit_0(tmp_path, content):
    # the files a crashed run of the earlier pid-file lock left behind,
    # whatever they hold, lock nothing
    out = tmp_path / "out"
    out.mkdir()
    (out / ".linbayes.lock").write_text(str(_dead_pid()) if content == "dead-pid" else content)
    (out / ".linbayes.lock.reclaim").write_text("")
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["truth", "--config", path]) == 0
    assert (out / "truth.csv").exists()


@pytest.mark.parametrize("section,key,value", [
    ("map_solver", "forcing_exponent", 0.5), ("map_solver", "cg_tol_fixed", 1e-12),
    ("map_solver", "max_newton_iters", 50), ("map_solver", "armijo_c1", 1e-4),
    ("map_solver", "backtrack_factor", 0.5), ("map_solver", "max_backtracks", 30),
    ("lowrank", "max_iters", 64),
    (None, "map_solver", {"grad_tol_rel": 1e-6, "max_cg_iters": 100})])
def test_cli_removed_config_key_exit_2(tmp_path, capsys, section, key, value):
    # the MAP solve takes no settings: every Gauss-Newton step is solved
    # exactly, and its tolerances and limits are map_solver constants, so the
    # whole section is gone and a key in it names the section; the Lanczos
    # iteration cap is derived from r_max
    cfg = _linear_config(tmp_path / "out")
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 2
    unknown = "config.map_solver" if "map_solver" in (section, key) else f"config.{section}.{key}"
    assert f"{unknown}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_upstream_exit_5(tmp_path):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["variance", "--config", path]) == 5


@pytest.mark.parametrize("converged_first", [False, True], ids=["fresh", "over-converged"])
def test_cli_unconverged_map_counts_as_missing_exit_5(tmp_path, capsys, converged_first):
    # a map entry recorded with converged false is no input for the stages
    # after it, also when a converged run left its spectrum in place
    if converged_first:
        assert cli_main(["run", "--config", _write_config(tmp_path, _linear_config(
            tmp_path / "out"))]) == 0
    path = _bundled_with(tmp_path, "linear_small.json", ("prior", "alpha"), 1e-100)
    assert cli_main(["run", "--config", path]) == 3
    capsys.readouterr()
    for command in ("spectrum", "variance", "sample-posterior"):
        assert cli_main([command, "--config", path]) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command == "spectrum" or converged_first:
            assert "missing artifacts from stage 'map'" in err


def _counts_7x7(cfg, map_csv):
    cfg["mesh"]["counts"] = [7, 7]


def _non_numeric_cell(cfg, map_csv):
    lines = map_csv.read_text().splitlines(keepends=True)
    lines[3] = lines[3][:lines[3].rindex(",") + 1] + "x\r\n"
    map_csv.write_text("".join(lines), newline="")


def _not_utf8(cfg, map_csv):
    map_csv.write_bytes(b"\xff\xfe" + map_csv.read_bytes())


def _deleted(cfg, map_csv):
    map_csv.unlink()


def _edited_value(cfg, csv_path):
    # still a table of numbers: only its digest tells it from the file written
    lines = csv_path.read_bytes().split(b"\r\n")
    lines[3] = lines[3][:lines[3].rindex(b",") + 1] + b"0.5"
    csv_path.write_bytes(b"\r\n".join(lines))


def _assert_spectrum_refused(tmp_path, capsys, cfg, name):
    """``linbayes spectrum`` exits 5 naming ``name``; the failed re-run
    leaves no spectrum entry and none of the files the old one listed."""
    out = tmp_path / "out"
    assert cli_main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 5
    err = capsys.readouterr().err
    assert "unusable" in err and str(out / name) in err and "Traceback" not in err
    assert "spectrum" not in json.loads((out / "manifest.json").read_text())["stages"]
    assert not list(out.glob("eigenvector_*.csv")) and not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("spoil", [_counts_7x7, _non_numeric_cell, _not_utf8, _deleted,
                                   _edited_value])
def test_cli_unusable_upstream_artifact_exit_5(tmp_path, capsys, spoil):
    # a map.csv that the spectrum stage cannot use: the run exits 5 and
    # names the file instead of ending in a traceback
    cfg = _linear_config(tmp_path / "out")
    assert cli_main(["run", "--config", _write_config(tmp_path, cfg)]) == 0
    capsys.readouterr()
    spoil(cfg, tmp_path / "out" / "map.csv")
    _assert_spectrum_refused(tmp_path, capsys, cfg, "map.csv")


def _unlisted(cfg, jacobian_csv):
    manifest = jacobian_csv.parent / "manifest.json"
    raw = json.loads(manifest.read_text())
    del raw["stages"]["map"]["files"]["jacobian.csv"]
    manifest.write_text(json.dumps(raw))


def _other_q(cfg, jacobian_csv):
    cfg["observation"]["fourier_truncation"] = 6


@pytest.mark.parametrize("name,command", [
    ("observations.csv", "map"), ("spectrum.csv", "variance"),
    ("eigenvector_001.csv", "sample-posterior"), ("map.csv", "variance")])
def test_cli_tampered_upstream_file_exit_5(tmp_path, capsys, name, command):
    # every stage checks each file it reads against the digest recorded when
    # the file was written
    out = tmp_path / "out"
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["run", "--config", path]) == 0
    capsys.readouterr()
    _edited_value(None, out / name)
    assert cli_main([command, "--config", path]) == 5
    err = capsys.readouterr().err
    assert f"{out / name}: its sha256 differs" in err and "Traceback" not in err
    assert command not in json.loads((out / "manifest.json").read_text())["stages"]


@pytest.mark.parametrize("spoil", [_edited_value, _unlisted, _other_q, _deleted])
def test_cli_unusable_jacobian_exit_5(tmp_path, capsys, spoil):
    # the wave spectrum linearizes on jacobian.csv alone: a file edited, not
    # recorded by the map stage, of another shape or gone is refused
    cfg = _wave_config(tmp_path / "out")
    run_pipeline(cfg, stages=["truth", "data", "map", "spectrum"])
    spoil(cfg, tmp_path / "out" / "jacobian.csv")
    _assert_spectrum_refused(tmp_path, capsys, cfg, "jacobian.csv")


@pytest.mark.parametrize("text", ["{not json", "[]", '{"stages": []}',
                                  '{"stages": {"truth": 5}}'])
def test_cli_unreadable_manifest_exit_5(tmp_path, capsys, text):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["truth", "--config", path]) == 0
    capsys.readouterr()
    manifest = tmp_path / "out" / "manifest.json"
    manifest.write_text(text)
    assert cli_main(["truth", "--config", path]) == 5
    err = capsys.readouterr().err
    assert f"unusable upstream artifacts: {manifest}: " in err and "Traceback" not in err
    assert manifest.read_text() == text


def test_cli_default_r_max_beyond_the_mesh_exit_2(tmp_path, capsys):
    # lanczos_eigs's default r_max (50) exceeds the 49 nodes of the 6 x 6 mesh
    cfg = _linear_config(tmp_path / "out")
    del cfg["lowrank"]["r_max"]
    assert cli_main(["run", "--config", _write_config(tmp_path, cfg)]) == 2
    assert "config.lowrank.r_max: must not exceed the 49 mesh nodes, got 50" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_non_utf8_config_exit_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(_linear_config(tmp_path / "out")).encode())
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "configuration error: config: not a UTF-8 JSON document" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _nested_list(cfg):
    return json.dumps(cfg)[:-1] + ', "extra": ' + "[" * 200_000 + "]" * 200_000 + "}"


def _nested_truth(depth):
    def text(cfg):
        truth = json.dumps(cfg.pop("truth"))
        return (json.dumps(cfg)[:-1] + ', "truth": ' + '{"kind": "sum", "terms": [' * depth
                + truth + "]}" * depth + "}")
    return text


@pytest.mark.parametrize("text,message", [
    (_nested_list, "nested too deeply for the JSON decoder"),
    (_nested_truth(495), "nested too deeply for the JSON decoder"),
    (_nested_truth(40), "nested too deeply (more than 64 levels)")],
    ids=["list-200000", "sum-495", "sum-40"])
def test_cli_config_nested_too_deeply_exit_2(tmp_path, capsys, text, message):
    # a config nested past the JSON decoder's recursion limit, or past the
    # levels the parser takes (so that evaluating a sum cannot recurse too
    # deeply either), is a config error, not a RecursionError
    path = tmp_path / "config.json"
    path.write_text(text(_linear_config(tmp_path / "out")))
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: config: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["linear", "wave"])
def test_each_stage_reads_files_of_exactly_its_upstream_stages(tmp_path, monkeypatch, kind):
    # every edge of STAGE_DEPS is a file read, and every read follows an
    # edge; one call per stage, so that each stage loads what it needs
    # rather than taking the low-rank posterior an earlier stage loaded
    cfg = (_linear_config if kind == "linear" else _wave_config)(tmp_path / "out")
    reads = set()

    def recorded(manifest, outdir, stage, *args, _read=lb.pipeline._read):
        reads.add(stage)
        return _read(manifest, outdir, stage, *args)

    monkeypatch.setattr(lb.pipeline, "_read", recorded)
    for stage in PIPELINE_STAGES:
        reads.clear()
        run_pipeline(cfg, stages=[stage])
        assert reads == set(STAGE_DEPS[stage]), stage


@pytest.mark.parametrize("argv", [
    ["run", "--stage", "truth"], ["sample-prior", "--seed", "7"], ["run", "--seed-data", "5"],
    ["sample-posterior", "--seed-sample", "5"], ["spectrum", "--seed-lanczos", "5"],
    ["sample-prior", "--count", "4"]], ids=lambda argv: argv[1])
def test_cli_removed_run_setting_flag_exit_2(tmp_path, capsys, argv):
    # seeds and the draw count come from the config alone, and each stage is
    # its own command
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as info:
        cli_main(argv + ["--config", path])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_commands_take_only_config_out_and_verbose():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(commands.choices) == ("run", *PIPELINE_STAGES)
    for command in commands.choices.values():
        flags = {flag for action in command._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out", "--verbose"}


@pytest.mark.parametrize("mutate,path_fragment", CONSTRUCTOR_REJECTS)
def test_cli_constructor_reject_exit_2(tmp_path, capsys, mutate, path_fragment):
    cfg = _linear_config(tmp_path / "out")
    mutate(cfg)
    path = _write_config(tmp_path, cfg)
    assert cli_main(["truth", "--config", path]) == 2
    err = capsys.readouterr().err
    assert path_fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,where,value,message", [
    # a stiffness that overflows a double, refused when the problem is built
    ("linear_small.json", ("prior", "anisotropy", "beta"), 1e308,
     "config.prior: the stiffness overflows"),
    ("linear_small.json", ("model", "q"), 10**400, "config.model.q: must lie in"),
    ("linear_small.json", ("output", "sample_count"), 10**400,
     "config.output.sample_count: must lie in"),
    ("linear_small.json", ("truth", "terms", 0, "width"), 1e308,
     "config.truth.terms[0].width: its square must be a positive double"),
    ("wave1d_small.json", ("observation", "sample_times", "stop"), 1e308,
     "config.model.dt: the last sample time is inf steps of dt = 0.0025"),
    ("wave1d_small.json", ("observation", "sample_times", "count"), 10**400,
     "config.observation.sample_times.count: must lie in"),
    # a seed past 64 bits, a source that is zero at every step, and sizes
    # beyond any memory, refused before anything is allocated
    ("linear_small.json", ("model", "seed"), 2**63, "config.model.seed: must lie in"),
    ("wave1d_small.json", ("model", "source", "time_center"), 1e308,
     "config.model.source: the source is zero at every step"),
    ("linear_small.json", ("output", "sample_count"), 2**62,
     "config.output.sample_count: a 49 x 4611686018427387904 array of doubles needs"),
    ("linear_small.json", ("model", "q"), 2**40,
     "config.model.q: a 1099511627776 x 49 array of doubles needs"),
    ("linear_small.json", ("mesh", "counts"), [2**30, 2**30],
     "config.mesh.counts: a 2 x 1073741825 x 1073741825 array of doubles needs"),
    ("wave1d_small.json", ("observation", "sample_times", "count"), 2**50,
     "config.observation.sample_times.count: a 1125899906842624 array of doubles needs"),
    ("wave1d_small.json", ("model", "dt"), 1e-12,
     "config.model.dt: a 1000000000001 x 206 array of doubles needs"),
    # a radial eigenvalue that rounds to 0 at the farthest quadrature point
    ("linear_small.json", ("prior", "anisotropy"),
     {"kind": "radial", "beta": 0.05, "theta": 1e-300, "radius": 1.3644038139193142},
     "config.prior: anisotropy tensor is not SPD at a quadrature point"),
])
def test_cli_overflowing_value_exit_2(tmp_path, capsys, name, where, value, message):
    # one value of a bundled config, too large for the arithmetic it feeds
    assert cli_main(["run", "--config", _bundled_with(tmp_path, name, where, value)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,where,value,message", [
    # the model's 2,000,001 x 206 history fits; its data twin's, with twice
    # the nodes and twice the steps, does not
    ("wave1d_small.json", ("model", "dt"), 5e-7,
     "config.model.dt: a 4000001 x 406 array of doubles needs"),
    # the q x n operator fits; the spectrum's q x q G does not
    ("linear_small.json", ("model", "q"), 60000,
     "config.model.q: a 60000 x 60000 array of doubles needs"),
    ("wave1d_small.json", ("observation",),
     {"noise_sigma": 0.002, "receivers": [0.65],
      "sample_times": {"start": 0.01, "stop": 1.0, "count": 40000}},
     "config.observation: a 40000 x 40000 array of doubles needs"),
])
def test_cli_largest_arrays_sized_at_parse_exit_2(tmp_path, capsys, monkeypatch, name, where,
                                                  value, message):
    # on a machine of 8 GiB; the memory figure is patched, so nothing large
    # is allocated
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda key: 2**33 // sysconf("SC_PAGE_SIZE")
                        if key == "SC_PHYS_PAGES" else sysconf(key))
    path = _bundled_with(tmp_path, name, where, value)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    assert cli_main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _bundled_with(tmp_path, name, where, value):
    """The path of a bundled config, written out with the value at the keys
    ``where`` replaced and its output under ``tmp_path``."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["output"]["directory"] = str(tmp_path / "out")
    parent = cfg
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return _write_config(tmp_path, cfg)


@pytest.mark.parametrize("name,where,value", [
    ("linear_small.json", ("prior", "alpha"), 1e-100),
    ("linear_small.json", ("prior", "alpha"), 1e-300),
    ("wave1d_small.json", ("prior", "alpha"), 1e-100),
    ("wave1d_small.json", ("prior", "alpha"), 1e-150),
    ("linear_small.json", ("prior", "mean", "value"), 1e150),
    ("linear_small.json", ("observation", "noise_sigma"), 1e-150),
    ("linear_small.json", ("prior", "mean", "value"), 1e308),
])
def test_cli_overflowing_map_solve_exit_3(tmp_path, capsys, name, where, value):
    # a prior so wide, or a mean so far out, that the Gauss-Newton step or
    # the first misfit overflows, or a noise level so small that the first
    # gradient norm does: only the solve can tell, and it stops with its
    # residual
    assert cli_main(["run", "--config", _bundled_with(tmp_path, name, where, value)]) == 3
    err = capsys.readouterr().err
    assert "MAP solve did not converge: " in err and "relative gradient norm" in err
    assert "Traceback" not in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "map"
    assert manifest["stages"]["map"]["converged"] is False
    assert manifest["stages"]["map"]["map_gradnorm_reduction"] != 0.0


def test_cli_overflowing_source_exit_2(tmp_path, capsys):
    # a finite source whose propagated field overflows: the data stage
    # refuses the observations before it writes observations.csv
    cfg = _bundled_wave(tmp_path / "out")
    cfg["model"]["source"]["amplitude"] = 1e308
    assert cli_main(["run", "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: config.model.source: the observations overflow a double" \
        in err and "Traceback" not in err
    assert not (tmp_path / "out" / "observations.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "data" and "data" not in manifest["stages"]


def test_cli_overflowing_linear_observations_exit_2(tmp_path, capsys):
    # a finite truth that a linear map takes past a double: the data stage
    # refuses the observations before it writes observations.csv, instead
    # of the map stage ending in a traceback
    cfg = _linear_config(tmp_path / "out")
    cfg["truth"] = {"kind": "constant", "value": 1e308}
    assert cli_main(["run", "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: config.truth: the observations or their misfit overflow " \
        "a double" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "observations.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "data" and "data" not in manifest["stages"]


def test_cli_sample_prior_reproducible(tmp_path):
    cfg = _linear_config(tmp_path / "ignored")
    cfg["output"]["sample_count"], cfg["seeds"]["sampling"] = 4, 7
    path = _write_config(tmp_path, cfg)
    assert cli_main(["sample-prior", "--config", path, "--out", str(tmp_path / "s1")]) == 0
    assert cli_main(["sample-prior", "--config", path, "--out", str(tmp_path / "s2")]) == 0
    for k in range(4):
        name = f"prior_sample_{k:03d}.csv"
        assert (tmp_path / "s1" / name).read_bytes() == \
            (tmp_path / "s2" / name).read_bytes()
    assert not (tmp_path / "s1" / "prior_sample_004.csv").exists()


def test_seeded_stages_record_their_seed(tmp_path):
    # each entry records the seed of the config its stage ran under
    cfg = _linear_config(tmp_path / "out")
    cfg["seeds"].update(data_noise=5, lanczos=6)
    assert cli_main(["run", "--config", _write_config(tmp_path, cfg)]) == 0
    cfg["seeds"]["sampling"], cfg["output"]["sample_count"] = 7, 2
    assert cli_main(["sample-prior", "--config", _write_config(tmp_path, cfg, "other.json")]) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    seeds = {stage: entry.get("seed") for stage, entry in stages.items()}
    assert seeds == {"truth": None, "data": 5, "map": None, "spectrum": 6, "variance": None,
                     "sample-prior": 7, "sample-posterior": 202}


def test_rerun_with_fewer_draws_deletes_the_orphans(tmp_path):
    cfg = _linear_config(tmp_path / "out")
    out = tmp_path / "out"
    cfg["output"]["sample_count"] = 4
    assert cli_main(["sample-prior", "--config", _write_config(tmp_path, cfg)]) == 0
    assert len(list(out.glob("prior_sample_*.csv"))) == 4
    cfg["output"]["sample_count"] = 2
    assert cli_main(["sample-prior", "--config", _write_config(tmp_path, cfg)]) == 0
    files = json.loads((out / "manifest.json").read_text())["stages"]["sample-prior"]["files"]
    assert sorted(files) == ["prior_sample_000.csv", "prior_sample_001.csv"]
    assert sorted(p.name for p in out.glob("prior_sample_*.csv")) == sorted(files)


def _upstream(stage):
    """The stages ``stage`` needs, directly or not, in pipeline order."""
    needed = set(STAGE_DEPS[stage])
    for dep in STAGE_DEPS[stage]:
        needed.update(_upstream(dep))
    return [s for s in PIPELINE_STAGES if s in needed]


@pytest.mark.parametrize("stage", PIPELINE_STAGES)
def test_cli_stage_command_runs_only_that_stage(tmp_path, stage):
    cfg = _linear_config(tmp_path / "out")
    upstream = _upstream(stage)
    before = run_pipeline(cfg, stages=upstream).manifest["stages"] if upstream else {}
    assert cli_main([stage, "--config", _write_config(tmp_path, cfg)]) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert set(stages) == {*upstream, stage}
    assert all(stages[name] == entry for name, entry in before.items())


def test_cli_reports_only_the_files_its_stages_wrote(tmp_path, capsys):
    # after a whole run, the variance command rewrites its two files: the
    # count and the digests it prints are those two, not all the manifest's
    cfg = _linear_config(tmp_path / "out")
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert sum(len(entry["files"]) for entry in stages.values()) == 26
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote 26 artifacts to {tmp_path / 'out'}"
    assert cli_main(["variance", "--config", path, "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "stages"]["variance"]["files"]
    assert sorted(written) == ["posterior_variance.csv", "prior_variance.csv"]
    assert [line for line in lines if re.match(r"[0-9a-f]{64}  ", line)] == [
        f"{written[name]}  {name}" for name in sorted(written)]
    assert lines[-1] == f"wrote 2 artifacts to {tmp_path / 'out'}"


def test_empty_stage_list_runs_no_stage(tmp_path):
    cfg = _linear_config(tmp_path / "out")
    assert run_pipeline(cfg, stages=[]).manifest["stages"] == {}
    assert not (tmp_path / "out" / "manifest.json").exists()
    run_pipeline(cfg, stages=["truth"])
    before = (tmp_path / "out" / "manifest.json").read_bytes()
    assert list(run_pipeline(cfg, stages=[]).manifest["stages"]) == ["truth"]
    assert (tmp_path / "out" / "manifest.json").read_bytes() == before
    assert sorted(os.listdir(tmp_path / "out")) == [
        ".linbayes.lock", "manifest.json", "prior_mean.csv", "truth.csv"]


def test_cli_sample_time_list_exit_2(tmp_path, capsys):
    # sample times are only evenly spaced: {start, stop, count}
    cfg = _wave_config(tmp_path / "out")
    cfg["observation"]["sample_times"] = [0.1, 0.2, 0.3]
    assert cli_main(["truth", "--config", _write_config(tmp_path, cfg)]) == 2
    assert "config.observation.sample_times: expected an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


# keys of the other model kind, refused per kind, and the retired keys of
# each kind: the CFL number is the wave model's constant, the linear map is
# unscaled, wave data always come from the refined twin, the last sample
# time sets the wave horizon, and the density is 1
@pytest.mark.parametrize("config,key,value", [
    ("linear", "dt", 0.01), ("linear", "final_time", 1.0),
    ("linear", "source", {"position": 0.25}), ("linear", "rho", 1.0),
    ("wave", "q", 5), ("wave", "seed", 1),
    ("wave", "cfl", 0.5), ("linear", "scale", 1.0),
    ("wave", "mitigate_inverse_crime", True), ("wave", "mitigate_inverse_crime", False),
    ("wave", "final_time", 1.0), ("wave", "rho", 1.0),
])
def test_cli_model_key_of_other_kind_exit_2(tmp_path, capsys, config, key, value):
    make = _linear_config if config == "linear" else _wave_config
    cfg = make(tmp_path / "out")
    cfg["model"][key] = value
    path = _write_config(tmp_path, cfg)
    assert cli_main(["truth", "--config", path]) == 2
    assert f"config.model.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["linear_small.json", "wave1d_small.json"])
def test_cli_retired_lowrank_threshold_exit_2(tmp_path, capsys, name):
    # the retention threshold is the lanczos_eigs default, not a config key
    path = _bundled_with(tmp_path, name, ("lowrank", "trunc_threshold"), 0.1)
    assert cli_main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config.lowrank.trunc_threshold: unknown key" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _bundled_wave(outdir):
    cfg = json.loads((CONFIG_DIR / "wave1d_small.json").read_text())
    cfg["output"]["directory"] = str(outdir)
    return cfg


def test_cli_unstable_dt_exit_2_before_writing(tmp_path, capsys):
    cfg = _bundled_wave(tmp_path / "out")
    cfg["model"]["dt"] = 0.01
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config.model.dt: dt = 0.005 violates the stability bound" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["truth", "prior_mean"])
def test_stability_checked_on_truth_and_prior_mean(tmp_path, field):
    # the trimmed wave config sits below the bound for wavespeeds up to 1.25,
    # on its own mesh and on the data's, where h and dt are halved: the truth
    # is checked on the data mesh, the prior mean on the inversion's
    cfg = _wave_config(tmp_path / "out")
    fast = {"kind": "constant", "value": 1.3}
    if field == "truth":
        cfg["truth"] = fast
    else:
        cfg["prior"]["mean"] = fast
    dt = r"0\.005" if field == "truth" else r"0\.01"
    with pytest.raises(ConfigError, match=rf"config\.model\.dt: dt = {dt} violates"):
        validate_config(cfg)


@pytest.mark.parametrize("field,path,value", [("mean", "config.prior.mean", -1.0),
                                               ("truth", "config.truth", 0.0)])
def test_cli_nonpositive_wavespeed_exit_2_before_writing(tmp_path, capsys, field, path, value):
    cfg = _bundled_wave(tmp_path / "out")
    spec = {"kind": "constant", "value": value}
    if field == "mean":
        cfg["prior"]["mean"] = spec
    else:
        cfg["truth"] = spec
    assert cli_main(["run", "--config", _write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {path}: wavespeed must be strictly positive" in err
    assert not (tmp_path / "out").exists()


def test_map_log_goes_to_the_linbayes_logger(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="linbayes"):
        art = run_pipeline(_linear_config(tmp_path / "out"), stages=["truth", "data", "map"])
    logged = [r.getMessage() for r in caplog.records if r.name == "linbayes.map_solver"]
    assert logged == (Path(art.outdir) / "map_log.txt").read_text().splitlines()


def test_incomplete_spectrum_recorded_and_logged(tmp_path, caplog):
    cfg = _linear_config(tmp_path / "out")
    cfg["lowrank"]["r_max"] = 2
    with caplog.at_level(logging.WARNING, logger="linbayes"):
        art = run_pipeline(cfg, stages=["truth", "data", "map", "spectrum"])
    entry = art.manifest["stages"]["spectrum"]
    assert entry["spectrum_incomplete"] and "r_max = 2" in entry["diagnostic"]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("linbayes.pipeline", logging.WARNING, f"spectrum: {entry['diagnostic']}")]


def test_cli_verbose_prints_map_log(tmp_path, capsys):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path, "--verbose"]) == 0
    log = (tmp_path / "out" / "map_log.txt").read_text()
    assert log in capsys.readouterr().out
    assert cli_main(["run", "--config", path]) == 0
    assert log.splitlines()[0] not in capsys.readouterr().out


def test_cli_verbose_prints_stage_costs(tmp_path, capsys):
    # the counters each solving stage records in its manifest entry, printed
    # through the pipeline's logger; the data come from one forward solve of
    # the refined twin
    path = _write_config(tmp_path, _wave_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path, "--verbose"]) == 0
    out = capsys.readouterr().out
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert stages["data"]["forward_solves"] == 1
    solves = ("forward_solves", "jacobian_builds", "stiffness_solves")
    expected = {
        "data": ("forward_solves",),
        "map": (*solves, "newton_iters", "cg_iters_total"),
        "spectrum": (*solves, "lanczos_iterations"),
        "variance": solves,
        "sample-prior": solves,
        "sample-posterior": solves,
    }
    for stage, keys in expected.items():
        line = f"{stage}: " + ", ".join(f"{key} {stages[stage][key]}" for key in keys)
        assert line in out.splitlines()
    assert stages["map"]["newton_iters"] >= 1 and stages["spectrum"]["lanczos_iterations"] >= 1
    # K solves: q columns for X = K^-1 J^T per Newton step and spectrum, two
    # per Newton step to whiten and unwhiten, two per Lanczos matvec; none in CG
    q = len((tmp_path / "out" / "observations.csv").read_text().splitlines()) - 1
    assert stages["map"]["stiffness_solves"] == stages["map"]["newton_iters"] * (q + 2)
    spectrum = stages["spectrum"]
    assert spectrum["stiffness_solves"] == 2 * spectrum["lanczos_iterations"] + q
    # one per eigenvector to map it by the prior square root, none for the
    # prior variance field; one per draw.  The stages of one call share the
    # posterior, so only the variance stage maps the eigenvectors
    rank = len(spectrum["lambdas"])
    assert stages["variance"]["stiffness_solves"] == rank
    assert stages["sample-prior"]["stiffness_solves"] == stages["sample-prior"]["count"]
    assert stages["sample-posterior"]["stiffness_solves"] == stages["sample-posterior"]["count"]
    assert cli_main(["sample-posterior", "--config", path]) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert (stages["sample-posterior"]["stiffness_solves"]
            == rank + stages["sample-posterior"]["count"])
    for stage in ("variance", "sample-prior", "sample-posterior"):
        assert stages[stage]["forward_solves"] == stages[stage]["jacobian_builds"] == 0
    assert cli_main(["run", "--config", path]) == 0
    assert "forward_solves" not in capsys.readouterr().out
