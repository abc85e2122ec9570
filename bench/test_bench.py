"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The two smoke runs take under a minute each: one whole run, and on ``wave1d``
an untraced and a traced one.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

from linbayes.pipeline import validate_config  # noqa: E402

import refspeed  # noqa: E402
import scaling  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, linear2d_config, make_config  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in BENCH["workloads"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_generation_is_deterministic_per_seed(name):
    a = make_config(name, REPO, 7, 0, "out/x")
    assert a == make_config(name, REPO, 7, 0, "out/x")
    assert a["seeds"] != make_config(name, REPO, 8, 0, "out/x")["seeds"]
    assert a["seeds"] != make_config(name, REPO, 7, 1, "out/x")["seeds"]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
@pytest.mark.parametrize("k", [0, 5])
def test_generated_configs_validate(name, seed, k):
    validate_config(make_config(name, REPO, seed, k, "out/x"))


@pytest.mark.parametrize("n", scaling.SIZES)
def test_scaling_configs_validate(n):
    validate_config(linear2d_config(REPO, 1, counts=(n, n)))


def test_count_pass_repeats_exactly():
    first = scaling.count_pass(REPO, 5)
    assert first == scaling.count_pass(REPO, 5)
    for row in first.values():
        assert row["lowrank.rank"] > 0 and row["map_solver.cg_iters"] > 0


def test_span_self_time_and_coverage():
    def span(name, start, end, parent):
        sp = spans.Span(name, start, parent, 1)
        sp.end = end
        return sp

    tree = [span("stage.map", 0.0, 10.0, -1),
            span("map_solver.find_map", 1.0, 9.0, 0),
            span("models.jacobian", 2.0, 5.0, 1),
            span("models.observe", 3.0, 4.0, 2),
            span("prior.apply_covariance", 6.0, 8.0, 1),
            span("fem.k_solve", 6.5, 7.5, 4)]
    totals = spans.layer_totals(tree)
    assert totals["map_solver.find_map.self_s"] == pytest.approx(3.0)
    cover = spans.coverage([tree, []])
    assert cover[("map", "models")] == pytest.approx(0.3)  # nested span not recounted
    assert cover[("map", "fem")] == pytest.approx(0.1)
    assert cover[("map", "all")] == pytest.approx(0.8)


def test_sampler_scale_takes_out_kernel_time():
    sampler = refspeed.Sampler()
    sampler.samples = [(0.0, 0.04), (0.5, 0.04), (1.0, 0.04), (10.0, 0.01)]
    # two kernels inside [0, 1), whose mean gives the speed
    share, factor = sampler.scale(0.0, 1.0)
    assert share == pytest.approx(0.92)
    assert factor == pytest.approx(refspeed.REFERENCE_S / 0.04)
    # nothing near: the four nearest kernels
    assert sampler.scale(5.0, 5.1)[1] == pytest.approx(refspeed.REFERENCE_S / 0.0325)


def test_sampler_interrupts_a_busy_loop_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refspeed.Sampler() as sampler:
        end = time.perf_counter() + 3 * refspeed.INTERVAL_S + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=400)


@pytest.mark.parametrize("workload,trace", [("wave1d", 1), ("linear2d", 0)])
def test_smoke_run_passes_checks(workload, trace):
    proc = _bench(REPO, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "wave1d", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
