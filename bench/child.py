"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with BLAS threads pinned to 1 and ``src`` on the path.
Prints a human-readable report and, as its last line, the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from linbayes.pipeline import PIPELINE_STAGES, build_problem, load_config, run_pipeline

import checks
import refspeed
import spans
from workloads import DRAW_COUNT, make_config

# Whole untraced runs take at most this share of the budget, so that the
# short stages, whose single runs spread most, get the rest for re-runs.
WHOLE_SHARE = 0.6
# a whole untraced run, one run_pipeline call per step
WHOLE_STEPS = (("truth", "data"), ("map",), ("spectrum",), ("variance",),
               ("sample-prior", "sample-posterior"))
STAGE_ORDER = ("map", "spectrum", "variance", "sample-prior", "sample-posterior")
STAGE_METRICS = {
    "map_s": ("map",),
    "spectrum_s": ("spectrum",),
    "variance_s": ("variance",),
    "sample_s": ("sample-prior", "sample-posterior"),
}


def git_sha(repo):
    if not os.path.exists(os.path.join(repo, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(repo, seed):
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "git_sha": git_sha(repo),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


class Ledger:
    """Attempted and failed stage runs, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, stages, problems, raised=None):
        self.attempted += len(stages)
        for stage in stages:
            found = list(problems.get(stage, []))
            if raised is not None and not found:
                found = [raised]
            if found:
                self.failed += 1
                self.problems.extend(f"{label} {stage}: {p}" for p in found)


class Run:
    """Executes stage runs for one workload, checks them and keeps samples.

    Times are kept as measured, with the interval they were measured in;
    ``scaled`` puts them in reference-speed seconds at the end, when the
    sampler's kernels on both sides of every interval are in.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.ledger = Ledger()
        self.stage_s = {}     # stage -> seconds per execution, as measured
        self.last_cost = {}   # stage tuple -> seconds its last call took, set-up included
        self.calls = []       # (label, start, end, {stage: seconds}) of every call
        self.setups = []      # (start, end) of every set-up
        self.reference = {}   # (config, stage) -> checksums of the first execution

    def execute(self, label, config_path, outdir, stages, traced=False):
        """Run ``stages`` in one ``run_pipeline`` call after one set-up as a
        user pays it (``load_config`` plus ``build_problem``); returns
        (wall, spans)."""
        called = time.perf_counter()
        build_problem(load_config(config_path))
        start = time.perf_counter()
        self.setups.append((called, start))
        with spans.instrument(self.tracer) if traced else contextlib.nullcontext():
            try:
                manifest = run_pipeline(config_path, outdir=outdir, stages=stages).manifest
                err = None
            except Exception as exc:  # a failed stage run is counted, not fatal
                manifest, err = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.last_cost[tuple(stages)] = end - called
        run_spans, self.tracer.spans = self.tracer.spans, []
        problems = {}
        if manifest is not None:
            timings = {s: manifest["stages"][s]["timing_s"] for s in stages}
            self.calls.append((label, start, end, timings))
            problems = checks.check_stages(outdir, stages)
            for s in stages:
                sums = checks.stage_checksums(manifest, s)
                if sums != self.reference.setdefault((config_path, s), sums):
                    problems[s].append("checksums differ from the first run of this config")
                self.stage_s.setdefault(s, []).append(timings[s])
        self.ledger.record(label, stages, problems, err)
        return end - start, run_spans

    def scaled(self, sampler):
        """(stage -> seconds per execution, set-up seconds, label -> seconds
        of its calls), in reference-speed seconds."""
        stage_s, by_label = {}, {}
        for label, start, end, timings in self.calls:
            share, factor = sampler.scale(start, end)
            for s, t in timings.items():
                stage_s.setdefault(s, []).append(t * share * factor)
            by_label[label] = by_label.get(label, 0.0) + (end - start) * share * factor
        setup_s = [(end - start) * math.prod(sampler.scale(start, end))
                   for start, end in self.setups]
        return stage_s, setup_s, by_label


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--repo", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    budget, traced = args.seconds, bool(args.trace)

    def config_for(k):
        path = os.path.join(args.workdir, f"config{k}.json")
        if not os.path.exists(path):
            cfg = make_config(args.workload, args.repo, args.seed, k,
                              os.path.join(args.workdir, "out"))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)
        return path

    print("env " + json.dumps(environment(args.repo, args.seed), sort_keys=True))
    run = Run(spans.Tracer())

    def first_checks(outdir):
        """Dense closed-form and draw-variance checks of the first whole run."""
        if args.workload != "linear2d":
            return
        with open(config_for(0), encoding="utf-8") as fh:
            problems = checks.check_linear_dense(json.load(fh), outdir)
        problems.update(checks.check_draws(outdir, DRAW_COUNT))
        run.ledger.record("whole0 dense", list(problems), problems)

    start = time.perf_counter()
    whole = []
    if traced:
        # pairs of whole runs, one untraced and one traced, each pair with its
        # own config, each run one run_pipeline call, until the budget is
        # spent; no sampler, so that spans time linbayes alone
        while True:
            n = len(whole)
            k, rep_traced = n // 2, n % 2 == 1
            outdir = os.path.join(args.workdir, f"whole{n}")
            run.tracer.run = n
            wall, rep_spans = run.execute(f"whole{n}", config_for(k), outdir,
                                          PIPELINE_STAGES, traced=rep_traced)
            if n == 0:
                first_checks(outdir)
            shutil.rmtree(outdir, ignore_errors=True)
            whole.append({"traced": rep_traced, "run_s": wall, "spans": rep_spans})
            if rep_traced and time.perf_counter() - start + 2 * wall > budget:
                break
    else:
        with refspeed.Sampler() as sampler:
            count = _untraced(run, budget, start, config_for, first_checks, args.workdir)
        stage_s, setup_s, by_label = run.scaled(sampler)
        whole = [{"traced": False, "run_s": by_label[f"whole{n}"]}
                 for n in range(count) if f"whole{n}" in by_label]
    elapsed = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload}: {len(whole)} whole runs in {elapsed:.1f} s; "
          f"{len(run.setups)} set-ups")
    for r in whole:
        print(f"  run_s={r['run_s']:.3f} traced={int(r['traced'])}")
    if traced:
        metrics = _trace_metrics([r for r in whole if r["traced"]],
                                 [r for r in whole if not r["traced"]])
    else:
        kernels = [d for _, d in sampler.samples]
        print(f"  reference kernel: n={len(kernels)} median={statistics.median(kernels):.4f} "
              f"min={min(kernels):.4f} max={max(kernels):.4f} s, "
              f"{sum(kernels) / elapsed:.3f} of the run; below, seconds as measured "
              f"and at {refspeed.REFERENCE_S} s per kernel")
        for s, values in stage_s.items():
            print(f"  {s:17s} n={len(values):3d} "
                  f"measured median={statistics.median(run.stage_s[s]):.4f} "
                  f"scaled median={statistics.median(values):.4f} "
                  f"min={min(values):.4f} max={max(values):.4f}")
        med = {s: statistics.median(v) for s, v in stage_s.items()}
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if whole:
            metrics["run_s"] = (statistics.median(r["run_s"] for r in whole), "s")
        for name, stages in STAGE_METRICS.items():
            if all(s in med for s in stages):
                metrics[name] = (sum(med[s] for s in stages), "s")

    ledger = run.ledger
    print(f"ops: attempted {ledger.attempted} stage runs, failed {ledger.failed}, "
          f"ops_failed {ledger.failed / ledger.attempted:.4f}")
    for p in ledger.problems:
        print("  FAILED " + p)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _untraced(run, budget, start, config_for, first_checks, workdir):
    """Whole runs, each with the config of its index and one call per step
    of WHOLE_STEPS: one, and another while it fits in WHOLE_SHARE of the
    budget.  Then single-stage runs on the last whole run's output directory,
    round robin over the stages short enough to be sampled again, so the
    samples of every stage spread over the rest of the budget.  Returns the
    number of whole runs."""
    outdir = None
    n = 0
    while True:
        began = time.perf_counter()
        if outdir is not None:
            shutil.rmtree(outdir, ignore_errors=True)
        outdir = os.path.join(workdir, f"whole{n}")
        for step in WHOLE_STEPS:
            run.execute(f"whole{n}", config_for(n), outdir, step)
        if n == 0:
            first_checks(outdir)
        n += 1
        now = time.perf_counter()
        if now - start + now - began > WHOLE_SHARE * budget:
            break

    config_path = config_for(n - 1)
    short = sorted((s for s in STAGE_ORDER
                    if s in run.stage_s and statistics.median(run.stage_s[s]) <= budget / 10),
                   key=lambda s: statistics.median(run.stage_s[s]))
    while short:
        stage = short.pop(0)
        expected = run.last_cost.get((stage,), run.stage_s[stage][-1])
        if time.perf_counter() - start + expected > budget:
            continue  # dropped: it no longer fits
        run.execute(f"single-{stage}", config_path, outdir, (stage,))
        short.append(stage)
    return n


def _trace_metrics(traced_reps, plain_reps):
    rep_spans = [r["spans"] for r in traced_reps]
    all_spans = [sp for s in rep_spans for sp in s]
    metrics = {k: (v, _unit(k)) for k, v in spans.layer_metrics(rep_spans).items()}

    print("per call (traced runs)        median        p25        p75      n")
    for label, name, values, scale in spans.call_rows(all_spans):
        if not values:
            print(f"  {label:34s}         -")
            continue
        q1, q2, q3 = spans.quartiles(values)
        print(f"  {label:34s} {q2 * scale:9.3f} {q1 * scale:9.3f} {q3 * scale:9.3f} "
              f"{len(values):6d}  ms")
        metrics[name] = (q2 * scale, "ms")

    print("share of stage wall time covered by layer spans")
    for (group, prefix), share in sorted(spans.coverage(rep_spans).items()):
        print(f"  {group:9s} {prefix:24s} {share:6.3f}")
        if (group, prefix) in spans.COVERAGE or prefix == "all":
            metrics[f"cover.{group}.{prefix}"] = (share, "share")

    traced_s = statistics.median(r["run_s"] for r in traced_reps)
    plain_s = statistics.median(r["run_s"] for r in plain_reps)
    print(f"tracing overhead: traced run_s {traced_s:.3f} - untraced run_s {plain_s:.3f}")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("per_matvec"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
