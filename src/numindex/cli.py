"""Command-line entry point and report emission.

Subcommands: ``radius``, ``index``, ``mp``, ``sweep``, ``verify``.
Single computations and suite reports are JSON; sweeps and curves are
CSV.  Every output file gets a sibling ``<name>.manifest.json`` whose
``config`` is the parsed command line; manifests are reproducible except
for timestamps.  The CLI interprets no flag itself: each one is handed
to the library, which rejects a backend its quantity lacks, and the flags
that pick an estimator are mutually exclusive.

Exit codes: 0 = all checks passed, 1 = suite violation, 2 = input error
(a bad flag, environment variable or input file, or an output path that
cannot be written, which is checked before any work).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .index import (absolute_index_estimate, mp_constant, mp_curve,
                    poly_index_estimate, rank_r_index_estimate)
from .operators import operator_from_json
from .radius import absolute_radius, numerical_radius
from .spaces import SpaceError, lp, parse_descriptor, scalar, tower
from .suites import (SuiteReport, bounds_check, duality_check, gcc_check,
                     lcc_check, monotone_sweep, sum_index_check)

DEFAULT_SEED = 20240801

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

#: most points a sweep range expands to
RANGE_POINT_CAP = 10_000


class InputError(ValueError):
    pass


def _default_seed() -> int:
    env = os.environ.get("NUMINDEX_SEED")
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError as exc:
        raise InputError(f"NUMINDEX_SEED must be an integer, got {env!r}") from exc


def _manifest(args, started: float, summary: dict,
              counters: dict | None = None) -> dict:
    return {"artifact_version": __version__,
            "config": {k: v for k, v in vars(args).items() if k != "fn"},
            "started_at": started,
            "ended_at": time.time(),
            "counters": counters or {},
            "summary": summary}


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_outputs(*paths):
    """Reject, before any work, an output path or its manifest that names a
    directory or lies in a missing one, so a failed run prints and writes nothing."""
    for path in filter(None, paths):
        for target in (path, path + ".manifest.json"):
            if os.path.isdir(target) or not os.path.isdir(os.path.dirname(target) or "."):
                raise InputError(f"cannot write {target}: a directory, or in a missing one")


def _emit(args, payload: dict, started: float, counters: dict | None = None):
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, payload)
        _write_json(args.out + ".manifest.json",
                    _manifest(args, started, {"output": args.out}, counters))


def _load_space(args) -> "SpaceDescriptor":
    try:
        return parse_descriptor(args.space)
    except SpaceError as exc:
        raise InputError(f"bad --space: {exc}") from exc


def _check_counts(args, budget_used: bool = True):
    """Reject a negative polynomial degree, a suite case count below 1, a
    budget below 1 where the budget steers the result, and a grid resolution
    below 1 where the grid runs."""
    if budget_used and args.budget < 1:
        raise InputError(f"--budget must be >= 1, got {args.budget}")
    if getattr(args, "poly_k", 0) < 0:
        raise InputError(f"--poly-k must be >= 0, got {args.poly_k}")
    if getattr(args, "cases", 1) < 1:
        raise InputError(f"--cases must be >= 1, got {args.cases}")
    if getattr(args, "method", None) == "grid" and args.resolution < 1:
        raise InputError(f"--resolution must be >= 1, got {args.resolution}")


def cmd_radius(args) -> int:
    started = time.time()
    _check_outputs(args.out)
    desc = _load_space(args)
    _check_counts(args, args.method in ("auto", "ascent"))
    try:
        with open(args.matrix) as fh:
            T = operator_from_json(fh.read(), desc, max(args.poly_k, 1))
    except FileNotFoundError as exc:
        raise InputError(f"matrix file not found: {args.matrix}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad --matrix file {args.matrix}: {exc}") from exc
    radius = absolute_radius if args.absolute else numerical_radius
    est = radius(T, method=args.method, budget=args.budget, rng=args.seed,
                 resolution=args.resolution)
    payload = {"command": "radius",
               "space": args.space,
               "value": est.value,
               "method": est.method,
               "guarantee": est.guarantee,
               "witness": {"x": _num_list(est.witness.x),
                           "xstar": _num_list(est.witness.xstar),
                           "slack": est.witness.slack},
               "seed": args.seed}
    _emit(args, payload, started, {"evals": est.evals})
    return EXIT_OK


def _num_list(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return [[float(z.real), float(z.imag)] for z in arr]
    return [float(v) for v in arr]


def cmd_index(args) -> int:
    started = time.time()
    _check_outputs(args.out)
    desc = _load_space(args)
    _check_counts(args)
    if args.absolute:
        est = absolute_index_estimate(desc, budget=args.budget, rng=args.seed)
    elif args.rank is not None:
        est = rank_r_index_estimate(desc, args.rank, budget=args.budget,
                                    rng=args.seed)
    else:
        # order 1 is the numerical index itself
        est = poly_index_estimate(desc, max(args.poly_k, 1), budget=args.budget,
                                  rng=args.seed)
    payload = {"command": "index",
               "space": args.space,
               "upper_bound_best_found": est.upper_bound,
               "radius_method": est.radius_method,
               "restarts_used": est.restarts_used,
               "theoretical_bounds": dataclasses.asdict(est.bounds),
               "seed": args.seed}
    _emit(args, payload, started, {"ratio_evals": est.restarts_used})
    return EXIT_OK


def cmd_mp(args) -> int:
    started = time.time()
    _check_outputs(args.emit_curve, args.out)
    if not 1 <= args.p < math.inf:
        raise InputError("--p must be a finite number >= 1")
    res = mp_constant(args.p)
    payload = {"command": "mp", "p": res.p, "value": res.value,
               "argmax_t": res.argmax_t}
    if args.emit_curve:
        ts = np.linspace(0.0, 1.0, 1001)
        vals = mp_curve(args.p, ts)
        with open(args.emit_curve, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "value"])
            for t, v in zip(ts, vals):
                w.writerow([f"{t:.6f}", f"{v:.12f}"])
            w.writerow(["max", f"{res.value:.12f}"])
        _write_json(args.emit_curve + ".manifest.json",
                    _manifest(args, started, {"output": args.emit_curve}))
    _emit(args, payload, started)
    return EXIT_OK


def _parse_range(text: str) -> list[float]:
    """``a..b`` (step 1) or ``a..b:step``: finite, of at most RANGE_POINT_CAP points."""
    try:
        if ".." not in text:
            return [float(text)]
        lo, rest = text.split("..", 1)
        step = 1.0
        if ":" in rest:
            hi, step_s = rest.split(":", 1)
            step = float(step_s)
        else:
            hi = rest
        lo, hi = float(lo), float(hi)
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise ValueError
    except ValueError as exc:
        raise InputError(f"bad range {text!r}") from exc
    if step < 1e-12:     # points are rounded to 12 decimals, so they would repeat
        raise InputError(f"range {text!r} steps below the 1e-12 grain of its points")
    out = []
    v = lo
    while v <= hi + 1e-12:
        # a step below the spacing of floats near v never advances it
        if len(out) == RANGE_POINT_CAP:
            raise InputError(f"range {text!r} has more than {RANGE_POINT_CAP} points")
        out.append(round(v, 12))
        v += step
    return out


def cmd_sweep(args) -> int:
    started = time.time()
    out = args.out or "sweep.csv"
    _check_outputs(out)
    _check_counts(args)
    ps = _parse_range(args.p)
    ms = _parse_range(args.m)
    if not all(m.is_integer() and m >= 1 for m in ms):
        raise InputError(f"--m must be a range of integers >= 1, got {args.m!r}")
    rows = []
    for p in ps:
        report = monotone_sweep(p, map(int, ms), budget=args.budget, seed=args.seed)
        # mp_constant takes finite p only; the cell stays empty at p = inf
        mp = "" if p == math.inf else f"{mp_constant(p).value:.9f}"
        rows += [{"p": p, "m": m, "index_upper_bound": f"{val:.9f}", "mp": mp}
                 for m, val in report.extra["trajectory"]]
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["p", "m", "index_upper_bound", "mp"])
        w.writeheader()
        w.writerows(rows)
    _write_json(out + ".manifest.json",
                _manifest(args, started, {"rows": len(rows), "output": out}))
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


VERIFY_SUITES = ("lcc", "gcc", "sums", "duality", "bounds")


def _run_suite(name: str, args, duality_space) -> SuiteReport:
    seed, cases, budget = args.seed, args.cases, args.budget
    if name == "lcc":
        return lcc_check(tower([3.0, 3.0]), m=1, j=1, cases=cases, seed=seed,
                         budget=budget)
    if name == "gcc":
        return gcc_check(lp(1.5, 3), subset=(0, 1), cases=cases, seed=seed,
                         budget=budget)
    if name == "sums":
        return sum_index_check([scalar(), scalar()], mode="linf",
                               budget=max(budget, 60), seed=seed)
    if name == "duality":
        return duality_check(duality_space, cases=cases, budget=budget, seed=seed,
                             index_budget=max(budget, 60))
    return bounds_check([1.5, 3.0], [2], budget=max(budget, 100), seed=seed)


def cmd_verify(args) -> int:
    started = time.time()
    _check_counts(args)
    names = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    if args.space and "duality" not in names:
        raise InputError(f"--space is read only by the duality suite, "
                         f"which --suite {args.suite} does not run")
    duality_space = _load_space(args) if args.space else lp(3, 2)
    outdir = args.out or "reports"
    os.makedirs(outdir, exist_ok=True)
    _check_outputs(*(os.path.join(outdir, f"{name}.json") for name in names))
    all_passed = True
    for name in names:
        report = _run_suite(name, args, duality_space)
        path = os.path.join(outdir, f"{name}.json")
        _write_json(path, report.to_dict())
        _write_json(path + ".manifest.json",
                    _manifest(args, started,
                              {"suite": name, "passed": report.passed,
                               "max_violation": report.max_violation}))
        status = "pass" if report.passed else "FAIL"
        print(f"{name}: {status} (max violation {report.max_violation:.3e}, "
              f"tolerance {report.tolerance:.0e})")
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="numindex",
        description="Numerical radii and numerical-index estimates on "
                    "finite-dimensional p-sum Banach spaces.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, budget=64):
        sp.add_argument("--seed", type=int,
                        help="root seed (default: env NUMINDEX_SEED, else "
                             f"{DEFAULT_SEED})")
        sp.add_argument("--budget", type=int, default=budget,
                        help="restart / evaluation budget")
        sp.add_argument("--out", help="output file (JSON) or directory (verify)")

    sp = sub.add_parser("radius", help="numerical radius of one operator")
    sp.add_argument("--space", required=True, help="descriptor text, e.g. lp(p=2,dim=2)")
    sp.add_argument("--matrix", required=True, help="operator JSON file")
    sp.add_argument("--method", default="auto",
                    choices=["auto", "ascent", "enumerate", "grid"])
    sp.add_argument("--resolution", type=int, default=2000)
    estimator = sp.add_mutually_exclusive_group()
    estimator.add_argument("--absolute", action="store_true",
                           help="absolute numerical radius instead of nu")
    estimator.add_argument("--poly-k", type=int, default=0,
                           help="treat the matrix file as a degree-k tensor "
                                "(k <= 1: the operator)")
    common(sp)
    sp.set_defaults(fn=cmd_radius)

    sp = sub.add_parser("index", help="numerical-index upper bound")
    sp.add_argument("--space", required=True)
    estimator = sp.add_mutually_exclusive_group()
    estimator.add_argument("--rank", type=int, help="rank-r index")
    estimator.add_argument("--absolute", action="store_true", help="absolute index")
    estimator.add_argument("--poly-k", type=int, default=0,
                           help="polynomial index of order k (k <= 1: the index)")
    common(sp, budget=200)
    sp.set_defaults(fn=cmd_index)

    sp = sub.add_parser("mp", help="the constant M_p")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--emit-curve", help="write the (t, value) curve as CSV")
    sp.add_argument("--out", help="output file (JSON)")
    sp.set_defaults(fn=cmd_mp)

    sp = sub.add_parser("sweep", help="index sweeps over (p, m) grids")
    sp.add_argument("--p", required=True, help="value or range a..b[:step]")
    sp.add_argument("--m", default="2..4", help="integer range a..b")
    common(sp, budget=120)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=VERIFY_SUITES + ("all",))
    sp.add_argument("--space", help="descriptor for the duality suite")
    sp.add_argument("--cases", type=int, default=20)
    common(sp, budget=24)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if vars(args).get("seed", 0) is None:   # a command that takes --seed, run without it
            args.seed = _default_seed()
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags already
        return int(exc.code or 0)
    except (InputError, SpaceError, OSError) as exc:
        # OSError: a path that cannot be read or written, e.g. --out in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
