#!/usr/bin/env python3
"""Collect ``bench/run.py`` results into one ``BENCH_pr<N>.json`` record.

    python3 bench/run.py --workload linear2d --seed 1 --seconds 55 --trace 0 > linear2d-0.txt
    python3 bench/run.py --workload linear2d --seed 1 --seconds 55 --trace 1 > linear2d-1.txt
    python3 scripts/bench.py --pr N linear2d-0.txt linear2d-1.txt wave1d-*.txt

Each input is the standard output of one ``bench/run.py`` run.  From it this
script reads only three lines: the ``env`` line (git SHA, Python, numpy and
scipy versions, BLAS thread setting), the ``workload <name>:`` line, and the
JSON result on the last line.  Metrics without a dot in their name
(``run_s``, ``map_s``, ..., ``peak_rss_mb``) are the end-to-end medians of an
untraced run; dotted ones (``fem.k_solve.s``, ...) are the per-layer figures
of a traced run.  Every input must come from the same commit.  The record
is written to ``BENCH_pr<N>.json`` in the current directory, or ``--out``.
"""

import argparse
import json
import sys

SCHEMA = 1
ENV_KEYS = ("git_sha", "python", "numpy", "scipy", "blas_threads", "nproc", "cpu_model")


def parse_result(text, name="<input>") -> dict:
    """The env, workload name and JSON result of one ``bench/run.py`` output."""
    lines = text.rstrip("\n").split("\n")
    env = [json.loads(ln[4:]) for ln in lines if ln.startswith("env {")]
    workload = [ln.split()[1].rstrip(":") for ln in lines if ln.startswith("workload ")]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if len(env) != 1 or len(workload) != 1 or not isinstance(result, dict) \
            or "metrics" not in result:
        raise ValueError(f"{name}: not the output of one bench/run.py run")
    return {"env": env[0], "workload": workload[0], "result": result}


def collect(runs, pr) -> dict:
    """One record from the parsed outputs of runs of one commit."""
    envs = {json.dumps({k: r["env"].get(k) for k in ENV_KEYS}, sort_keys=True)
            for r in runs}
    if len(envs) != 1:
        raise ValueError("the inputs come from different commits or environments")
    record = {"schema": SCHEMA, "pr": pr, **json.loads(envs.pop()), "workloads": {}}
    for run in runs:
        entry = record["workloads"].setdefault(run["workload"], {
            "seed": run["env"].get("seed"), "end_to_end": {}, "per_layer": {},
            "attempted": 0, "failed": 0})
        result = run["result"]
        entry["attempted"] += result.get("attempted", 0)
        entry["failed"] += result.get("failed", 0)
        for metric, value in result["metrics"].items():
            kind = "per_layer" if "." in metric else "end_to_end"
            entry[kind][metric] = {"value": value["value"], "unit": value["unit"]}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number N of BENCH_prN.json")
    ap.add_argument("--out", default=None, help="output path (default BENCH_pr<N>.json)")
    ap.add_argument("results", nargs="+", help="saved outputs of bench/run.py")
    args = ap.parse_args(argv)
    try:
        runs = []
        for path in args.results:
            with open(path, "r", encoding="utf-8") as fh:
                runs.append(parse_result(fh.read(), path))
        record = collect(runs, args.pr)
    except (OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out = args.out or f"BENCH_pr{args.pr}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = sum(w["failed"] for w in record["workloads"].values())
    print(f"wrote {out}: {len(runs)} runs of {', '.join(sorted(record['workloads']))}, "
          f"{failed} failed stage runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
