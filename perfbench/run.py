"""numindex benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload radius-mix --seed 1 --seconds 20 --trace 0

Workloads (workloads.py says how the inputs derive from ``--seed``):

* radius-mix     op_norm and numerical_radius at budget 16 on the four
                 landmark spaces and 42 random p-sum trees of a fixed corpus
                 whose operators the seed perturbs, plus the grid oracle on
                 the small ones.  Wide restart batches, every descriptor
                 parsed anew: the L0 kernels and the ascent loop.
* index-search   twelve index-estimate specs at budget 16, twice, with
                 search seeds from the seed (all four descent variants, both
                 exact backends, the complex Hilbert case).  Thousands of
                 narrow radius/op_norm calls on a few descriptors.
* verify-suites  ``numindex verify --suite all`` through ``cli.main``: the
                 L4 path, where suites build cases and the CLI writes
                 reports.

An untraced run (``--trace 0``) runs whole rounds of jobs, one job after
another, for as long as the next round is expected to end within
``--seconds`` and at least the workload's minimum number of rounds; then
it checks every result and prints the end-to-end metrics.  A
traced run (``--trace 1``) runs round 0 untraced, installs the wrappers of
tracing.py and runs the first rounds again, and prints the per-layer
metrics.  The last stdout line is the JSON result; job records, the
machine block and (traced) spans go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# one BLAS/OpenMP thread, and numindex's own thread pool off, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NUMINDEX_THREADS", None)

import argparse
import json
import platform
import resource
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("radius-mix", "index-search", "verify-suites")
#: setup is repeated in this many fresh processes besides the run's own
SETUP_PROBES = 2
#: reported for a value metric that the workload does not produce, so
#: that every workload prints every end-to-end metric
NOT_APPLICABLE = 1.0
VALUE_METRICS = ("radius_value_mean", "opnorm_value_mean", "index_rescored_mean")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs per round and one round (self-test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time and exit (setup probes)")
    return ap.parse_args(argv)


def _import_numindex():
    if not os.path.isfile(os.path.join(SRC, "numindex", "__init__.py")):
        sys.exit(f"error: numindex sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import numindex
    if os.path.dirname(os.path.dirname(os.path.abspath(numindex.__file__))) != SRC:
        sys.exit(f"error: numindex imported from {numindex.__file__}, not {SRC}")


def _make_workload(name: str, tiny: bool):
    import workloads
    cls = {"radius-mix": workloads.RadiusMix, "index-search": workloads.IndexSearch,
           "verify-suites": workloads.VerifySuites}[name]
    return cls(OUT_DIR, tiny) if name == "verify-suites" else cls(tiny)


def _run_job(wl, job, r, i, tracer=None):
    if tracer is not None:
        tracer.job = f"{r}.{i}"
    t0 = time.perf_counter()
    try:
        recs = wl.run(job)
    except Exception as exc:          # a failing job is counted, not fatal
        recs = [{"space": str(job.get("space", "")), "result": None, "values": {},
                 "seconds": time.perf_counter() - t0,
                 "error": f"{type(exc).__name__}: {exc}"}]
    for rec in recs:
        rec.update(round=r, job=i)
    return recs


def _timed_round(wl, jobs, r, tracer=None):
    t0 = time.perf_counter()
    records = [rec for i, job in enumerate(jobs) for rec in _run_job(wl, job, r, i, tracer)]
    return records, time.perf_counter() - t0


def _measure(wl, rounds, seed, seconds):
    """Closed loop over whole rounds: the first ``min_rounds`` always, then
    another while it is expected to end within ``seconds`` (so that a
    partial round never skews the job mix).  Returns (records, wall)."""
    records = []
    t0 = time.perf_counter()
    r = 0
    while True:
        jobs = rounds[r] if r < len(rounds) else wl.jobs(seed, r)
        recs, _ = _timed_round(wl, jobs, r)
        records.extend(recs)
        r += 1
        elapsed = time.perf_counter() - t0
        if r >= wl.min_rounds and elapsed * (r + 1) / r > seconds:
            return records, elapsed


def _check(wl, records):
    for rec in records:
        if "error" in rec:
            rec["failures"] = [rec["error"]]
            continue
        try:
            rec["failures"] = wl.check(rec)
        except Exception as exc:
            rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]


def _setup_probes(args):
    """Set-up time of fresh processes, each importing and warming up anew."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _machine(load_start):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _job_quantiles(secs):
    """Harrell-Davis estimates of the median and the 90th percentile: a
    weighted mean over all order statistics, steadier than the one or two
    order statistics that plain interpolation uses."""
    if len(secs) == 1:
        return secs[0], secs[0]
    from scipy.stats.mstats import hdquantiles
    q50, q90 = hdquantiles(secs, prob=[0.5, 0.9])
    return float(q50), float(q90)


def _end_to_end(wl, records, wall, setup_s, rss_mb):
    secs = [r["seconds"] for r in records]
    p50, p90 = _job_quantiles(secs)
    failed = sum(1 for r in records if r["failures"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(records) / wall, "1/s"),
        "job_s_p50": (p50, "s"),
        "job_s_p90": (p90, "s"),
        "pass_frac": ((len(records) - failed) / len(records), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    first = [r for r in records if r["round"] < wl.min_rounds and "error" not in r]
    values = wl.value_metrics(first) if first else {}
    for name in VALUE_METRICS:
        metrics[name] = (values.get(name, NOT_APPLICABLE), "1")
    return metrics


def _traced(wl, seed):
    """Round 0 untraced, then the first ``min_rounds`` rounds traced.
    Returns (records, wall of traced round 0, per-layer metrics, spans)."""
    ref, ref_wall = _timed_round(wl, wl.jobs(seed, 0), 0)
    import tracing
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        records, wall = _timed_round(wl, wl.jobs(seed, 0), 0, tracer)
        for r in range(1, wl.min_rounds):
            records += _timed_round(wl, wl.jobs(seed, r), r, tracer)[0]
    finally:
        uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (wall / ref_wall - 1.0, "1")
    if [r["values"] for r in ref] != [r["values"] for r in records[:len(ref)]]:
        records[0]["error"] = "traced values differ from untraced"
    return records, wall, metrics, tracer.spans


def main(argv=None) -> int:
    args = _parse(argv)
    load_start = list(os.getloadavg())
    _import_numindex()
    wl = _make_workload(args.workload, args.tiny)
    os.makedirs(OUT_DIR, exist_ok=True)
    rounds = [wl.jobs(args.seed, r) for r in range(wl.min_rounds)]
    wl.warmup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny}
    if args.trace:
        records, wall, metrics, result["spans"] = _traced(wl, args.seed)
        _check(wl, records)
        gaps = [r["values"]["rescored_ratio"] - r["values"]["upper_bound"]
                for r in records if "rescored_ratio" in r["values"]]
        metrics["index.honesty_gap"] = (sum(gaps) / len(gaps) if gaps else 0.0, "1")
    else:
        records, wall = _measure(wl, rounds, args.seed, args.seconds)
        # before the checks and the statistics load code of their own
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _check(wl, records)
        setups = [setup_s] + ([] if args.tiny else _setup_probes(args))
        metrics = _end_to_end(wl, records, wall, statistics.median(setups), rss_mb)
        result["setup_samples_s"] = setups

    failed = sum(1 for r in records if r["failures"])
    result.update(machine=_machine(load_start), wall_s=wall,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  records=[{k: v for k, v in r.items() if k != "result"} for r in records])
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                 f"{'-tiny' if args.tiny else ''}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=_jsonable)
    for rec in records:
        for msg in rec["failures"]:
            print(f"check failed: round {rec['round']} job {rec['job']} "
                  f"{rec['space']}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def _jsonable(o):
    if hasattr(o, "item"):
        return o.item()
    return str(o)


if __name__ == "__main__":
    sys.exit(main())
