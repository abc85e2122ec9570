"""scripts/run_linear_demo.py and scripts/run_wave_demo.py, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from linbayes.pipeline import PIPELINE_STAGES, load_config, read_field_csv

ROOT = Path(__file__).resolve().parent.parent


def _demo(name, out):
    """The summary lines a demo prints to stdout (its MAP log goes to stderr),
    and the manifest of the run it made in ``out``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--out", str(out)],
                          env=env, capture_output=True, text=True, check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    return done.stdout.splitlines(), manifest["stages"]


def test_linear_demo_prints_its_summary(tmp_path):
    lines, stages = _demo("run_linear_demo.py", tmp_path / "linear")
    lambdas = stages["spectrum"]["lambdas"]
    assert lines[:4] == [
        "", f"output directory: {tmp_path / 'linear'}",
        f"map converged: True (gradient reduction "
        f"{stages['map']['map_gradnorm_reduction']:.2e})",
        f"retained eigenvalues ({len(lambdas)}): " + ", ".join(f"{v:.3g}" for v in lambdas)]
    assert len(lambdas) == 10
    timings = json.loads("\n".join(lines[4:]))
    assert timings == {stage: stages[stage]["timing_s"] for stage in PIPELINE_STAGES}


def test_wave_demo_prints_its_summary(tmp_path):
    out = tmp_path / "wave"
    lines, stages = _demo("run_wave_demo.py", out)
    mesh = load_config(ROOT / "configs" / "wave1d_small.json").mesh
    truth, m_map, prior_var, post_var = (
        read_field_csv(out / name, mesh)
        for name in ("truth.csv", "map.csv", "prior_variance.csv", "posterior_variance.csv"))
    error = np.linalg.norm(m_map - truth) / np.linalg.norm(truth)
    prior_sd, post_sd = np.sqrt(prior_var).mean(), np.sqrt(post_var).mean()
    assert lines == [
        "", f"output directory: {out}",
        f"map converged: True in {stages['map']['newton_iters']} newton iterations",
        f"reconstruction rel error: {error:.3e}",
        "retained eigenvalues: " + ", ".join(f"{v:.3g}" for v in stages["spectrum"]["lambdas"]),
        f"mean std reduction: prior {prior_sd:.4f} -> posterior {post_sd:.4f}"]
    # the data inform the field: the MAP point is near the truth and the
    # posterior is tighter than the prior
    assert error < 0.05 and post_sd < prior_sd
