"""scripts/compare_artifacts.py: two output directories compared file by file."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import linbayes as lb
from linbayes.pipeline import run_pipeline, write_field_csv

_SPEC = importlib.util.spec_from_file_location(
    "compare_artifacts",
    Path(__file__).resolve().parent.parent / "scripts" / "compare_artifacts.py")
compare_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_artifacts)

MESH = lb.build_mesh(1, 4, (0.0, 1.0))
VALUES = np.array([1.0, -2.0, 3.0, 0.5, 0.25])


def _dirs(root, new_values, name="map.csv"):
    """Two output directories under ``root``: the field file ``name`` holds
    VALUES in the old one and ``new_values`` in the new one."""
    old, new = root / "old", root / "new"
    for path, values in ((old, VALUES), (new, new_values)):
        path.mkdir(parents=True)
        write_field_csv(str(path / name), MESH, values)
        (path / "map_log.txt").write_text("iter 0\n")
    return str(old), str(new)


def _run(capsys, *argv):
    code = compare_artifacts.main(list(argv))
    return code, dict(reversed(line.rsplit(" ", 1)) for line in
                      capsys.readouterr().out.splitlines())


def test_identical_directories_pass(tmp_path, capsys):
    code, out = _run(capsys, *_dirs(tmp_path, VALUES))
    assert code == 0
    assert out == {"map.csv": "identical", "map_log.txt": "identical"}


def test_value_change_reported_as_relative_norm(tmp_path, capsys):
    new_values = VALUES.copy()
    new_values[2] += 2.0**-40  # exact, about 9.1e-13
    old, new = _dirs(tmp_path, new_values)
    code, out = _run(capsys, old, new)
    assert code == 1 and out["map.csv"] == f"{2.0**-40 / np.linalg.norm(VALUES):.3e}"
    assert _run(capsys, old, new, "--tol", "1e-12")[0] == 0
    assert _run(capsys, old, new, "--tol", "1e-15")[0] == 1


def test_eigenvectors_compared_up_to_sign(tmp_path, capsys):
    code, out = _run(capsys, *_dirs(tmp_path / "eig", -VALUES, name="eigenvector_000.csv"))
    assert code == 0 and float(out["eigenvector_000.csv"]) == 0.0
    # any other field keeps its sign
    code, out = _run(capsys, *_dirs(tmp_path / "map", -VALUES))
    assert code == 1 and float(out["map.csv"]) == 2.0


def test_one_sided_and_non_numeric_files_fail(tmp_path, capsys):
    old, new = _dirs(tmp_path, VALUES)
    (Path(new) / "extra.csv").write_text("index,value\r\n0,1\r\n")
    (Path(new) / "map_log.txt").write_text("iter 1\n")
    code, out = _run(capsys, old, new)
    assert code == 1
    assert out == {"extra.csv": "only in NEW", "map.csv": "identical", "map_log.txt": "differs"}
    # ignored names are not compared
    assert _run(capsys, old, new, "--ignore", "extra.*", "--ignore", "map_log.txt") == (
        0, {"map.csv": "identical"})


def test_rows_that_move_are_a_difference(tmp_path, capsys):
    old, new = _dirs(tmp_path, VALUES)
    write_field_csv(str(Path(new) / "map.csv"), lb.build_mesh(1, 4, (0.0, 2.0)), VALUES)
    assert _run(capsys, old, new) == (1, {"map.csv": "differs", "map_log.txt": "identical"})


def _manifest(directory, stages):
    """A manifest in ``directory`` that echoes a config naming it."""
    (Path(directory) / "manifest.json").write_text(json.dumps(
        {"schema_version": 1, "config": {"output": {"directory": directory}},
         "stages": stages}))


def test_manifests_compared_by_stage_entries_without_timings(tmp_path, capsys):
    old, new = _dirs(tmp_path, VALUES)
    entry = {"files": {"map.csv": "ab"}, "newton_iters": 4, "map_gradnorm_reduction": math.nan}
    _manifest(old, {"map": {**entry, "timing_s": 0.5}, "truth": {"files": {}, "timing_s": 0.1}})
    # the config echoes and the timings differ, NaN equals NaN
    _manifest(new, {"map": {**entry, "timing_s": 0.7}, "truth": {"files": {}, "timing_s": 0.2}})
    assert _run(capsys, old, new) == (0, {
        "manifest.json": "identical", "map.csv": "identical", "map_log.txt": "identical"})
    # each stage on one side only and each stage key that differs is named
    _manifest(new, {"map": {**entry, "newton_iters": 5, "files": {"map.csv": "cd"}},
                    "variance": {"files": {}}})
    code, out = _run(capsys, old, new)
    assert code == 1
    assert out == {"manifest.json:map.files": "differs",
                   "manifest.json:map.newton_iters": "differs",
                   "manifest.json:truth": "only in OLD", "manifest.json:variance": "only in NEW",
                   "map.csv": "identical", "map_log.txt": "identical"}
    assert _run(capsys, old, new, "--ignore", "manifest.json")[0] == 0


def test_two_runs_of_one_config_compare_identical(tmp_path, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "linear_small.json"
    for side in ("old", "new"):
        run_pipeline(config, outdir=str(tmp_path / side))
    code, out = _run(capsys, str(tmp_path / "old"), str(tmp_path / "new"))
    assert code == 0 and set(out.values()) == {"identical"}
    assert "manifest.json" in out and len(out) == 28  # 26 artifacts, the lock file
