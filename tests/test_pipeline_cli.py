import csv
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import linbayes as lb
from linbayes.cli import main as cli_main
from linbayes.errors import ConfigError, MissingArtifactError
from linbayes.pipeline import (build_problem, load_config, read_field_csv, run_pipeline,
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
    del cfg["model"]["cfl"], cfg["model"]["rho"], cfg["model"]["source"]["amplitude"]
    wave = validate_config(cfg).wave
    source = lb.SourceSpec(**cfg["model"]["source"])
    assert wave == lb.WaveConfig(mesh=wave.mesh, final_time=1.0, dt=0.01, source=source)


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
    pytest.param(_on_wave(lambda c: c["observation"].__setitem__("sample_times", [0.5, 0.2])),
                 "config.observation: sample times", id="sample-times"),
    pytest.param(_on_wave(lambda c: c["model"].__setitem__("cfl", 0.7)),
                 "config.model: cfl", id="cfl"),
    pytest.param(_on_wave(lambda c: c["model"].__setitem__("dt", 0.003)),
                 "config.model: final_time/dt", id="steps"),
    pytest.param(_on_wave(lambda c: c["model"]["source"].__setitem__("position", 5.0)),
                 "config.model: source position", id="source"),
    pytest.param(_on_wave(lambda c: c["observation"].__setitem__("receivers", [7.0])),
                 "config.observation: receiver 7.0", id="receiver"),
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
    pytest.param(lambda c: c["map_solver"].__setitem__("grad_tol_rel", float("nan")),
                 "config.map_solver.grad_tol_rel", id="nan-grad-tol"),
]


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda c: c.__setitem__("unknown_top", 1), "unknown_top"),
    (lambda c: c["observation"].__setitem__("noise_sigma", -0.1), "noise_sigma"),
    (lambda c: c["mesh"].__setitem__("counts", [0, 3]), "counts"),
    (lambda c: c["seeds"].pop("lanczos"), "lanczos"),
    (lambda c: c["prior"]["anisotropy"].__setitem__("kind", "diagonal"), "anisotropy"),
    (lambda c: c.__setitem__("schema_version", 99), "schema_version"),
    (lambda c: c["lowrank"].__setitem__("r_max", "20"), "r_max"),
    (lambda c: c["map_solver"].__setitem__("max_cg_iters", -1.5), "max_cg_iters"),
    (lambda c: c["output"].__setitem__("exact_mass_sqrt", True), "exact_mass_sqrt"),
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
    other = run_pipeline(_linear_config(tmp_path / "b"), stages=["truth", "data"],
                         seed_overrides={"data_noise": 999})
    f1 = base.manifest["stages"]["data"]["files"]["observations.csv"]
    f2 = other.manifest["stages"]["data"]["files"]["observations.csv"]
    assert f1 != f2
    with pytest.raises(ConfigError, match="data"):
        run_pipeline(_linear_config(tmp_path / "c"), seed_overrides={"data": 999})


def test_stage_composition_matches_full_run(tmp_path):
    full = run_pipeline(_linear_config(tmp_path / "full"))
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
        "model": {"kind": "wave1d", "final_time": 1.0, "dt": 0.01, "cfl": 0.5,
                  "rho": 1.0,
                  "source": {"position": 0.25, "width": 0.08, "time_center": 0.2,
                             "time_std": 0.06, "amplitude": 25.0},
                  "mitigate_inverse_crime": True},
        "truth": {"kind": "sum", "terms": [
            {"kind": "constant", "value": 1.0},
            {"kind": "gaussian_bump", "center": [0.45], "width": 0.08,
             "amplitude": 0.08}]},
        "observation": {"noise_sigma": 0.002, "receivers": [0.65],
                        "sample_times": {"start": 0.01, "stop": 1.0, "count": 60},
                        "fourier_truncation": 7},
        "map_solver": {"grad_tol_rel": 1e-5, "max_cg_iters": 60},
        "lowrank": {"r_max": 10, "eig_tol": 1e-6, "trunc_threshold": 0.1},
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
    # inverse-crime mitigation: data fidelity halves dt, so 200 steps
    assert len(rows) == 201
    pv, qv = (np.array([float(r[-1]) for r in
                        list(csv.reader((outdir / name).read_text().splitlines()))[1:]])
              for name in ("prior_variance.csv", "posterior_variance.csv"))
    assert np.all(qv <= pv + 1e-14)
    assert len(art.manifest["stages"]["spectrum"]["lambdas"]) >= 1


def test_map_and_spectrum_record_solve_counts(tmp_path):
    # bundled wave config: one Jacobian per gradient (the initial one and one
    # per Newton iteration), then one at the MAP point for the spectrum
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
    assert (spectrum["forward_solves"], spectrum["jacobian_builds"]) == (1, 1)
    # an explicit linear map runs no PDE solve
    art = run_pipeline(_linear_config(tmp_path / "linear"),
                       stages=["truth", "data", "map", "spectrum"])
    for stage in ("map", "spectrum"):
        entry = art.manifest["stages"][stage]
        assert (entry["forward_solves"], entry["jacobian_builds"]) == (0, 0)


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


def test_failure_leaves_note_and_artifacts(tmp_path):
    cfg = _linear_config(tmp_path / "run")
    cfg["map_solver"]["grad_tol_rel"] = 1e-300  # unreachable: forces failure
    with pytest.raises(lb.SolverFailure):
        run_pipeline(cfg)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failure"]["stage"] == "map"
    assert (tmp_path / "run" / "map.csv").exists()
    assert (tmp_path / "run" / "observations.csv").exists()


# --- command-line interface -------------------------------------------------------


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
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


def test_cli_solver_failure_exit_3(tmp_path):
    cfg = _linear_config(tmp_path / "out")
    cfg["map_solver"]["grad_tol_rel"] = 1e-300
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 3


def test_cli_locked_directory_exit_4(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".linbayes.lock").write_text("held")
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["run", "--config", path]) == 4


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no process
    return child.pid


def test_cli_reclaims_the_lock_of_a_dead_run(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".linbayes.lock").write_text(str(_dead_pid()))
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["run", "--stage", "truth", "--config", path]) == 0
    assert (out / "truth.csv").exists()
    assert not [f for f in os.listdir(out) if f.startswith(".linbayes.lock")]


@pytest.mark.parametrize("content", ["live", "-7", " 1", "dead-while-reclaiming"])
def test_cli_lock_not_of_a_dead_pid_exit_4(tmp_path, content):
    # a live pid, non-pid text, or a dead pid another run is reclaiming
    out = tmp_path / "out"
    out.mkdir()
    if content == "live":
        content = str(os.getpid())
    elif content == "dead-while-reclaiming":
        content = str(_dead_pid())
        (out / ".linbayes.lock.reclaim").write_text("")
    (out / ".linbayes.lock").write_text(content)
    path = _write_config(tmp_path, _linear_config(out))
    assert cli_main(["run", "--stage", "truth", "--config", path]) == 4
    assert (out / ".linbayes.lock").read_text() == content
    assert not (out / "truth.csv").exists()


@pytest.mark.parametrize("section,key,value", [
    ("map_solver", "forcing_exponent", 0.5), ("map_solver", "cg_tol_fixed", 1e-12),
    ("lowrank", "max_iters", 64)])
def test_cli_removed_config_key_exit_2(tmp_path, capsys, section, key, value):
    # every Gauss-Newton step is solved exactly, so the forcing keys are gone;
    # the Lanczos iteration cap is derived from r_max
    cfg = _linear_config(tmp_path / "out")
    cfg[section][key] = value
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 2
    assert f"config.{section}.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_upstream_exit_5(tmp_path):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["variance", "--config", path]) == 5


@pytest.mark.parametrize("argv,flag", [
    (["sample-prior", "--count", "-1"], "--count"),
    (["sample-prior", "--count", "0"], "--count"),
    (["sample-prior", "--seed", "-3"], "--seed"),
    (["run", "--seed-lanczos", "-1"], "--seed-lanczos"),
], ids=["count-negative", "count-zero", "seed-negative", "seed-lanczos-negative"])
def test_cli_out_of_range_override_exit_2(tmp_path, capsys, argv, flag):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(argv + ["--config", path]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mutate,path_fragment", CONSTRUCTOR_REJECTS)
def test_cli_constructor_reject_exit_2(tmp_path, capsys, mutate, path_fragment):
    cfg = _linear_config(tmp_path / "out")
    mutate(cfg)
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--stage", "truth", "--config", path]) == 2
    err = capsys.readouterr().err
    assert path_fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sample_prior_reproducible(tmp_path):
    path = _write_config(tmp_path, _linear_config(tmp_path / "ignored"))
    assert cli_main(["sample-prior", "--config", path, "--out",
                     str(tmp_path / "s1"), "--count", "4", "--seed", "7"]) == 0
    assert cli_main(["sample-prior", "--config", path, "--out",
                     str(tmp_path / "s2"), "--count", "4", "--seed", "7"]) == 0
    for k in range(4):
        name = f"prior_sample_{k:03d}.csv"
        assert (tmp_path / "s1" / name).read_bytes() == \
            (tmp_path / "s2" / name).read_bytes()
    assert not (tmp_path / "s1" / "prior_sample_004.csv").exists()


def test_rerun_with_fewer_draws_deletes_the_orphans(tmp_path):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    out = tmp_path / "out"
    assert cli_main(["sample-prior", "--config", path, "--count", "4"]) == 0
    assert len(list(out.glob("prior_sample_*.csv"))) == 4
    assert cli_main(["sample-prior", "--config", path, "--count", "2"]) == 0
    files = json.loads((out / "manifest.json").read_text())["stages"]["sample-prior"]["files"]
    assert sorted(files) == ["prior_sample_000.csv", "prior_sample_001.csv"]
    assert sorted(p.name for p in out.glob("prior_sample_*.csv")) == sorted(files)


def test_cli_stage_flag_runs_single_stage(tmp_path):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path, "--stage", "truth"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert list(manifest["stages"]) == ["truth"]


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


# keys of the other model kind, refused per kind
@pytest.mark.parametrize("config,key,value", [
    ("linear", "cfl", 0.5), ("linear", "final_time", 1.0),
    ("linear", "source", {"position": 0.25}),
    ("wave", "q", 5), ("wave", "seed", 1), ("wave", "scale", 1.0),
])
def test_cli_model_key_of_other_kind_exit_2(tmp_path, capsys, config, key, value):
    make = _linear_config if config == "linear" else _wave_config
    cfg = make(tmp_path / "out")
    cfg["model"][key] = value
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--stage", "truth", "--config", path]) == 2
    assert f"config.model.{key}: unknown key" in capsys.readouterr().err
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
    # the trimmed wave config sits below the bound for wavespeeds up to 1.25
    cfg = _wave_config(tmp_path / "out")
    cfg["model"]["mitigate_inverse_crime"] = False
    fast = {"kind": "constant", "value": 1.3}
    if field == "truth":
        cfg["truth"] = fast
    else:
        cfg["prior"]["mean"] = fast
    with pytest.raises(ConfigError, match=r"config\.model\.dt: dt = 0\.01 violates"):
        validate_config(cfg)


def test_map_log_goes_to_the_linbayes_logger(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="linbayes"):
        art = run_pipeline(_linear_config(tmp_path / "out"), stages=["truth", "data", "map"])
    logged = [r.getMessage() for r in caplog.records if r.name == "linbayes"]
    assert logged == (Path(art.outdir) / "map_log.txt").read_text().splitlines()


def test_cli_verbose_prints_map_log(tmp_path, capsys):
    path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path, "--verbose"]) == 0
    log = (tmp_path / "out" / "map_log.txt").read_text()
    assert log in capsys.readouterr().out
    assert cli_main(["run", "--config", path]) == 0
    assert log.splitlines()[0] not in capsys.readouterr().out


def test_cli_verbose_prints_stage_costs(tmp_path, capsys):
    # the counters each solving stage records in its manifest entry, printed
    # through the pipeline's logger; under inverse-crime mitigation the data
    # come from one forward solve of the refined model
    path = _write_config(tmp_path, _wave_config(tmp_path / "out"))
    assert cli_main(["run", "--config", path, "--verbose"]) == 0
    out = capsys.readouterr().out
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert stages["data"]["forward_solves"] == 1
    expected = {
        "data": ("forward_solves",),
        "map": ("forward_solves", "jacobian_builds", "newton_iters", "cg_iters_total"),
        "spectrum": ("forward_solves", "jacobian_builds", "lanczos_iterations"),
    }
    for stage, keys in expected.items():
        line = f"{stage}: " + ", ".join(f"{key} {stages[stage][key]}" for key in keys)
        assert line in out.splitlines()
    assert stages["map"]["newton_iters"] >= 1 and stages["spectrum"]["lanczos_iterations"] >= 1
    assert cli_main(["run", "--config", path]) == 0
    assert "forward_solves" not in capsys.readouterr().out
