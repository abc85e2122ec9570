"""Span tracing of linbayes from outside the package.

``instrument(tracer)`` wraps the public calls into each layer by patching the
binding the caller looks up (``linbayes.pipeline.find_map``,
``PriorModel.solve_stiffness``, ...) for the duration of a ``with`` block;
nothing in ``src/`` changes.  Spans hold a name, start, end, parent and run
id and stay in memory; ``layer_metrics``, ``coverage`` and ``call_rows``
reduce them when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
import weakref

import numpy as np

import linbayes.map_solver as map_solver_mod
import linbayes.models.wave1d as wave1d_mod
import linbayes.pipeline as pipeline_mod
import linbayes.prior as prior_mod
from linbayes.fem import MassSpace
from linbayes.lowrank import LowRankPosterior
from linbayes.models import ForwardModel, LinearMapModel, WaveModel
from linbayes.prior import PriorModel

LAYERS = ("fem", "prior", "models", "map_solver", "lowrank", "pipeline")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order (single thread)."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._last_param = weakref.WeakKeyDictionary()

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def inside(self, name) -> bool:
        """True when the innermost open span is named ``name``."""
        return bool(self._stack) and self.spans[self._stack[-1]].name == name

    def forward_miss(self, model, m) -> bool:
        """True when ``model`` is called at a parameter other than its last one."""
        m = np.asarray(m, dtype=float)
        last = self._last_param.get(model)
        if last is not None and np.array_equal(last, m):
            return False
        self._last_param[model] = m.copy()
        return True


def _cols(a):
    a = np.asarray(a)
    return a.shape[1] if a.ndim == 2 else 1


def _wrap(tracer, name, fn, before=None, after=None):
    """Time ``fn`` in a span; ``before(sp, *args)`` and ``after(sp, out, *args)``
    attach attributes outside the timed call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            if before is not None:
                before(sp, *args, **kwargs)
            out = fn(*args, **kwargs)
        if after is not None:
            after(sp, out, *args, **kwargs)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every traced binding for the duration of the block."""
    with contextlib.ExitStack() as stack:

        def patch(owner, attr, make):
            old = getattr(owner, attr)
            setattr(owner, attr, make(old))
            stack.callback(setattr, owner, attr, old)

        def span(name, before=None, after=None):
            return lambda fn: _wrap(tracer, name, fn, before, after)

        def cols(sp, _self, rhs, *a, **k):
            sp.attrs["cols"] = _cols(rhs)

        # fem: the K and M solves and the assembly done while building a prior
        patch(PriorModel, "solve_stiffness", span("fem.k_solve", before=cols))
        patch(MassSpace, "solve", span("fem.m_solve", before=cols))
        patch(prior_mod, "assemble_mass", span("fem.assemble"))
        patch(prior_mod, "assemble_prior_stiffness", span("fem.assemble"))
        patch(wave1d_mod, "assemble_mass", span("fem.assemble"))

        # prior
        patch(PriorModel, "apply_covariance", span("prior.apply_covariance"))
        patch(PriorModel, "apply_precision", span("prior.apply_precision"))

        def points(sp, _self, pts, *a, **k):
            sp.attrs["points"] = np.atleast_2d(np.asarray(pts)).shape[0]

        patch(PriorModel, "pointwise_variance",
              span("prior.pointwise_variance", before=points))
        patch(PriorModel, "sample", span("prior.sample", before=cols))

        # models: a call at a new parameter is a forward solve (a cache miss)
        def model_call(kind):
            def before(sp, model, m, *a, **k):
                pde = isinstance(model, WaveModel)
                if tracer.forward_miss(model, m):
                    sp.attrs["forward"] = 1
                    sp.attrs["pde"] = int(pde)
                if kind != "observe":
                    sp.attrs["pde"] = sp.attrs.get("pde", 0) + int(pde)
            return before

        for cls in (WaveModel, LinearMapModel):
            patch(cls, "observe", span("models.observe", before=model_call("observe")))
            patch(cls, "apply_jacobian",
                  span("models.jacobian", before=model_call("jacobian")))
            patch(cls, "apply_jacobian_adjoint",
                  span("models.jacobian_adjoint", before=model_call("adjoint")))
        patch(WaveModel, "receiver_series",
              span("models.receiver_series", before=model_call("observe")))
        patch(ForwardModel, "gauss_newton_hessian_action", span("models.gn_hessian"))

        # map_solver
        def map_result(sp, result, *a, **k):
            sp.attrs["newton_iters"] = result.newton_iters
            sp.attrs["cg_iters"] = result.cg_iters_total

        patch(pipeline_mod, "find_map", span("map_solver.find_map", after=map_result))
        patch(map_solver_mod, "objective", span("map_solver.objective"))
        patch(map_solver_mod, "gradient", span("map_solver.gradient"))

        # lowrank
        def eig_result(sp, eig, *a, **k):
            sp.attrs["iters"] = eig.iterations
            sp.attrs["rank"] = eig.rank

        patch(pipeline_mod, "lanczos_eigs", span("lowrank.lanczos", after=eig_result))
        patch(pipeline_mod, "prior_preconditioned_hessian",
              lambda fn: functools.wraps(fn)(
                  lambda *a, **k: _wrap(tracer, "lowrank.hessian_matvec", fn(*a, **k))))
        patch(pipeline_mod, "LowRankPosterior", span("lowrank.posterior_build"))
        patch(LowRankPosterior, "pointwise_variance", span("lowrank.pointwise_variance"))
        patch(LowRankPosterior, "sample", span("lowrank.sample"))

        # pipeline: stages, problem assembly, CSV and checksum I/O
        def file_bytes(sp, out, path, *a, **k):
            sp.attrs["bytes"] = os.path.getsize(path)

        # a field file's span covers formatting its rows as well; the writer
        # it calls then opens no second span for the same file
        def csv_writer(fn):
            traced = _wrap(tracer, "pipeline.csv_write", fn, after=file_bytes)
            return functools.wraps(fn)(
                lambda *a, **k: fn(*a, **k) if tracer.inside("pipeline.csv_write")
                else traced(*a, **k))

        patch(pipeline_mod, "build_problem", span("pipeline.build_problem"))
        patch(pipeline_mod, "write_field_csv", span("pipeline.csv_write", after=file_bytes))
        patch(pipeline_mod, "_write_csv", csv_writer)
        patch(pipeline_mod, "read_field_csv", span("pipeline.csv_read"))
        patch(pipeline_mod, "read_vector_csv", span("pipeline.csv_read"))
        patch(pipeline_mod, "sha256_file", span("pipeline.sha256", after=file_bytes))
        table = pipeline_mod._STAGE_FNS
        for stage, fn in list(table.items()):
            table[stage] = _wrap(tracer, f"stage.{stage}", fn)
            stack.callback(table.__setitem__, stage, fn)
        yield tracer


# ---------------------------------------------------------------------------
# reduction of spans to metrics


def _children(spans):
    kids = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            kids[sp.parent].append(i)
    return kids


def _self_time(spans, kids, i):
    return spans[i].duration - sum(spans[c].duration for c in kids[i])


def _matches(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


def _ancestor_names(spans):
    """Names of each span's ancestors; parents are recorded before children."""
    out = []
    for sp in spans:
        out.append(out[sp.parent] + (spans[sp.parent].name,) if sp.parent >= 0 else ())
    return out


def covered(spans, ancestors, within, prefix) -> float:
    """Time inside spans named ``within`` covered by spans matching ``prefix``.

    Only the outermost matching spans count, so nested spans of one layer
    are not counted twice; spans of one thread never overlap otherwise.
    """
    total = 0.0
    for sp, up in zip(spans, ancestors):
        if (_matches(sp.name, prefix) and within in up
                and not any(_matches(n, prefix) for n in up)):
            total += sp.duration
    return total


def layer_totals(spans) -> dict:
    """Per-layer counts and times of one traced run (see the README)."""
    kids = _children(spans)
    t = {}

    def add(key, v):
        t[key] = t.get(key, 0) + v

    for i, sp in enumerate(spans):
        name, a = sp.name, sp.attrs
        add(f"{name}.calls", 1)
        add(f"{name}.s", sp.duration)
        for key in ("cols", "points", "bytes", "newton_iters", "cg_iters",
                    "iters", "rank"):
            if key in a:
                add(f"{name}.{key}", a[key])
        add("models.forward.count", a.get("forward", 0))
        add("models.pde_solves", a.get("pde", 0))
        if name in ("map_solver.find_map", "lowrank.lanczos"):
            add(f"{name}.self_s", _self_time(spans, kids, i))
    return t


STAGE_GROUPS = {
    "map": ("stage.map",),
    "spectrum": ("stage.spectrum",),
    "variance": ("stage.variance",),
    "sample": ("stage.sample-prior", "stage.sample-posterior"),
}

# (stage group, span prefix) pairs reported as coverage shares
COVERAGE = (
    ("map", "models"), ("map", "prior"), ("spectrum", "models"),
    ("spectrum", "lowrank.hessian_matvec"), ("variance", "fem.k_solve"),
    ("sample", "fem.k_solve"), ("sample", "pipeline.csv_write"),
)


def coverage(span_lists) -> dict:
    """Share of each stage's wall time covered by layer spans, keyed by
    (stage group, span prefix); prefix ``all`` is the union of all layers.

    ``span_lists`` holds one span list per traced run (parents index into
    their own list)."""
    covered_s, wall_s = {}, {}
    for spans in span_lists:
        ancestors = _ancestor_names(spans)
        for group, names in STAGE_GROUPS.items():
            wall_s[group] = wall_s.get(group, 0.0) + sum(
                sp.duration for sp in spans if sp.name in names)
            prefixes = LAYERS + tuple(p for g, p in COVERAGE
                                      if g == group and p not in LAYERS)
            for prefix in prefixes:
                covered_s[(group, prefix)] = covered_s.get((group, prefix), 0.0) + sum(
                    covered(spans, ancestors, n, prefix) for n in names)
            covered_s[(group, "all")] = covered_s.get((group, "all"), 0.0) + sum(
                sp.duration for sp in spans
                if sp.parent >= 0 and spans[sp.parent].name in names)
    return {key: v / wall_s[key[0]] for key, v in covered_s.items() if wall_s[key[0]] > 0}


# per-layer metrics read directly from the span totals, and those renamed
LAYER_METRICS = (
    "fem.k_solve.calls", "fem.k_solve.cols", "fem.k_solve.s",
    "fem.m_solve.calls", "fem.m_solve.cols", "fem.m_solve.s", "fem.assemble.s",
    "prior.apply_covariance.calls", "prior.apply_covariance.s",
    "prior.apply_precision.calls", "prior.apply_precision.s",
    "prior.pointwise_variance.points", "prior.pointwise_variance.s",
    "prior.sample.cols", "prior.sample.s",
    "models.forward.count", "models.observe.calls", "models.observe.s",
    "models.jacobian.calls", "models.jacobian.s",
    "models.jacobian_adjoint.calls", "models.jacobian_adjoint.s",
    "models.gn_hessian.calls", "models.pde_solves",
    "map_solver.find_map.s", "map_solver.find_map.self_s",
    "map_solver.objective.calls", "map_solver.objective.s",
    "map_solver.gradient.calls", "map_solver.gradient.s",
    "lowrank.lanczos.s", "lowrank.lanczos.self_s", "lowrank.lanczos.iters",
    "lowrank.hessian_matvec.s", "lowrank.posterior_build.s",
    "lowrank.pointwise_variance.s", "lowrank.sample.s",
    "pipeline.build_problem.s", "pipeline.csv_write.bytes", "pipeline.csv_write.s",
    "pipeline.csv_read.s", "pipeline.sha256.bytes", "pipeline.sha256.s",
)
RENAMED = {
    "map_solver.newton_iters": "map_solver.find_map.newton_iters",
    "map_solver.cg_iters": "map_solver.find_map.cg_iters",
    "lowrank.hessian_matvecs": "lowrank.hessian_matvec.calls",
    "lowrank.rank": "lowrank.lanczos.rank",
    "pipeline.csv_write.files": "pipeline.csv_write.calls",
    "pipeline.csv_read.files": "pipeline.csv_read.calls",
}


def layer_metrics(rep_spans) -> dict:
    """Per-layer metrics: the median over traced runs of each run's totals."""
    reps = [layer_totals(s) for s in rep_spans]
    t = {k: statistics.median(r.get(k, 0) for r in reps) for k in set().union(*reps)}
    out = {k: t.get(k, 0) for k in LAYER_METRICS}
    out.update({k: t.get(v, 0) for k, v in RENAMED.items()})
    steps_tried = t.get("map_solver.objective.calls", 0) - t.get("map_solver.find_map.calls", 0)
    out["map_solver.step_accept_ratio"] = (
        out["map_solver.newton_iters"] / steps_tried if steps_tried else 0.0)
    out["lowrank.rank_per_matvec"] = (
        out["lowrank.rank"] / out["lowrank.hessian_matvecs"]
        if out["lowrank.hessian_matvecs"] else 0.0)
    return out


def _per_call(spans, name, where=lambda sp: True, per=None):
    return [sp.duration / (sp.attrs.get(per, 1) if per else 1)
            for sp in spans if sp.name == name and where(sp)]


# rows of the per-call table: (label, metric name, values, unit scale)
def call_rows(spans):
    single = lambda sp: sp.attrs.get("cols", 1) == 1  # noqa: E731
    fresh = lambda sp: "forward" in sp.attrs          # noqa: E731
    cached = lambda sp: "forward" not in sp.attrs     # noqa: E731
    return (
        ("forward solve (observe at a new point)", "call.forward_ms",
         _per_call(spans, "models.observe", fresh), 1e3),
        ("J.v (incremental forward)", "call.jacobian_ms",
         _per_call(spans, "models.jacobian", cached), 1e3),
        ("J^T.y (adjoint sweep)", "call.jacobian_adjoint_ms",
         _per_call(spans, "models.jacobian_adjoint", cached), 1e3),
        ("K solve, 1 column", "call.k_solve_col_ms",
         _per_call(spans, "fem.k_solve", single), 1e3),
        ("K solve, per column of a block", "call.k_solve_block_col_ms",
         _per_call(spans, "fem.k_solve", lambda sp: not single(sp), per="cols"), 1e3),
        ("M solve, per column", "call.m_solve_col_ms",
         _per_call(spans, "fem.m_solve", per="cols"), 1e3),
        ("Hessian matvec", "call.hessian_matvec_ms",
         _per_call(spans, "lowrank.hessian_matvec"), 1e3),
        ("Lanczos run", "call.lanczos_ms", _per_call(spans, "lowrank.lanczos"), 1e3),
        ("pointwise variance field", "call.pointwise_variance_ms",
         _per_call(spans, "lowrank.pointwise_variance"), 1e3),
    )


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3
