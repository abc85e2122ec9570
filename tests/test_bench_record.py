"""scripts/bench.py: bench/run.py outputs into one BENCH_pr<N>.json record."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENV = {"blas_threads": {"OMP_NUM_THREADS": "1"}, "cpu_model": "cpu", "git_sha": "abc",
       "nproc": 2, "numpy": "2.0", "python": "3.11", "scipy": "1.14", "seed": 1}


def _output(metrics, env=ENV, workload="linear2d"):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    return "\n".join([f"env {json.dumps(env)}", f"workload {workload}: 1 whole runs",
                      "  map  n=3 measured median=0.1", json.dumps(result)]) + "\n"


def test_record_splits_end_to_end_and_per_layer(tmp_path):
    paths = []
    for i, metrics in enumerate([{"run_s": 1.5, "sample_s": 0.8},
                                 {"fem.k_solve.s": 0.1, "pipeline.csv_write.s": 0.4}]):
        paths.append(tmp_path / f"run{i}.txt")
        paths[-1].write_text(_output(metrics))
    out = tmp_path / "BENCH_pr42.json"
    assert bench_record.main(["--pr", "42", "--out", str(out)] + list(map(str, paths))) == 0
    record = json.loads(out.read_text())
    assert (record["pr"], record["git_sha"], record["numpy"]) == (42, "abc", "2.0")
    assert record["blas_threads"] == {"OMP_NUM_THREADS": "1"}
    entry = record["workloads"]["linear2d"]
    assert entry["end_to_end"] == {"run_s": {"value": 1.5, "unit": "s"},
                                   "sample_s": {"value": 0.8, "unit": "s"}}
    assert set(entry["per_layer"]) == {"fem.k_solve.s", "pipeline.csv_write.s"}
    assert (entry["attempted"], entry["failed"]) == (6, 0)


def test_record_refuses_mixed_commits_and_broken_output():
    runs = [bench_record.parse_result(_output({"run_s": 1.0})),
            bench_record.parse_result(_output({"run_s": 1.0}, env={**ENV, "git_sha": "def"}))]
    with pytest.raises(ValueError, match="different commits"):
        bench_record.collect(runs, 6)
    with pytest.raises(ValueError, match="not the output"):
        bench_record.parse_result("bench: child exited with code 1 and no result\n")
