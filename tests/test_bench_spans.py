"""bench/spans.py: every binding it patches exists, is traced and is put back.

The benchmark traces linbayes from outside the package by patching about
thirty bindings (``linbayes.pipeline.find_map``, ``PriorModel.solve_stiffness``,
...).  A rename in the package would break every traced benchmark run, so a
tiny linear and a tiny wave run go through ``instrument`` here, and each
must give every row of the per-call table, which ``BENCHMARK.json`` reports
as the ``call.*`` metrics, at least one value.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import linbayes.map_solver
import linbayes.models.wave1d
import linbayes.pipeline
import linbayes.prior
from linbayes.fem import MassSpace
from linbayes.lowrank import LowRankPosterior
from linbayes.models import ForwardModel, LinearMapModel, WaveModel
from linbayes.prior import PriorModel

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_spans", _ROOT / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

# every namespace whose bindings instrument() may patch
_OWNERS = (linbayes.map_solver, linbayes.models.wave1d, linbayes.pipeline, linbayes.prior,
           MassSpace, LowRankPosterior, ForwardModel, LinearMapModel, WaveModel, PriorModel)
# the spans, and below the count, that bench/test_bench.py's smoke runs need
_REQUIRED = {"stage.map", "fem.k_solve", "models.observe", "models.jacobian",
             "map_solver.find_map", "lowrank.lanczos", "lowrank.hessian_matvec"}


def _bindings():
    """What each name resolves to, inherited attributes included."""
    out = {(owner.__name__, name): getattr(owner, name)
           for owner in _OWNERS for name in dir(owner) if not name.startswith("__")}
    out.update({("_STAGE_FNS", stage): fn for stage, fn in linbayes.pipeline._STAGE_FNS.items()})
    return out


@pytest.mark.parametrize("name", ["linear_small.json", "wave1d_small.json"])
def test_instrument_traces_a_run_and_restores_every_binding(tmp_path, name):
    cfg = json.loads((_ROOT / "configs" / name).read_text())
    cfg["output"]["sample_count"] = 2
    before = _bindings()
    with spans.instrument(spans.Tracer()) as tracer:
        patched = {key for key, value in _bindings().items() if before.get(key) is not value}
        linbayes.pipeline.run_pipeline(cfg, outdir=str(tmp_path / "out"))
    after = _bindings()
    assert len(patched) >= 30
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {sp.name for sp in tracer.spans}
    assert _REQUIRED <= names
    totals = spans.layer_totals(tracer.spans)
    assert totals["stage.map.calls"] == 1
    assert totals["map_solver.find_map.cg_iters"] > 0
    rows = {metric: values for _, metric, values, _ in spans.call_rows(tracer.spans)}
    assert all(rows.values()), {metric: len(values) for metric, values in rows.items()}
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared if m["name"].startswith("call.")} <= rows.keys()
