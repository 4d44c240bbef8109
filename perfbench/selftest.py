"""Smoke test of the benchmark itself, at tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that each workload writes its job records, that a corrupted result counts
as a failure, and that the untraced and traced runs of one seed compute
identical values.  Exits 1 on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import run

SEED = 7


def _fail(msg: str):
    sys.exit(f"selftest FAILED: {msg}")


def _tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        _fail(f"{workload} trace {trace} exited {out.returncode}: {out.stderr[-500:]}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT_DIR, f"{workload}-seed{SEED}-trace{trace}-tiny.json")
    with open(path) as fh:
        return line, json.load(fh)


def check_runs(spec: dict):
    for workload in run.WORKLOADS:
        runs = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line, records = _tiny_run(workload, trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{workload}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"]:
                _fail(f"{workload} trace {trace}: checks failed on a clean run")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                _fail(f"{workload} trace {trace}: metrics {got} != {want}")
            recs = records["records"]
            if not recs or any("seconds" not in r or not r["values"] for r in recs):
                _fail(f"{workload} trace {trace}: missing job records")
            runs[trace] = {(r["round"], r["job"]): r["values"] for r in recs}
        common = runs[0].keys() & runs[1].keys()
        if not common or any(runs[0][k] != runs[1][k] for k in common):
            _fail(f"{workload}: traced and untraced values differ")
        print(f"ok {workload}: metrics, units, records, traced == untraced")


def check_corruption():
    """A witness whose value is off by 1e-6 counts as one failed job."""
    run._import_numindex()
    wl = run._make_workload("radius-mix", tiny=True)
    job = wl.jobs(SEED, 0)[0]
    clean = run._run_job(wl, job, 0, 0)
    bad = run._run_job(wl, job, 0, 1)
    est = bad[0]["result"]["radius"]
    bad[0]["result"]["radius"] = dataclasses.replace(est, value=est.value + 1e-6)
    records = clean + bad
    run._check(wl, records)
    if clean[0]["failures"] or len(bad[0]["failures"]) != 1:
        _fail(f"corruption check: {clean[0]['failures']} / {bad[0]['failures']}")
    metrics = run._end_to_end(wl, records, 1.0, 1.0, 1.0)
    if metrics["pass_frac"][0] != 0.5:
        _fail(f"corrupted job not counted: pass_frac {metrics['pass_frac'][0]}")
    print("ok corrupted witness value counted as a failure")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_corruption()
    check_runs(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
