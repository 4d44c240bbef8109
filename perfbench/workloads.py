"""Seeded inputs and job runners of the three benchmark workloads.

A workload is a sequence of rounds.  Round ``r`` of a run with seed ``s``
is generated from ``(s, r)`` and the fixed tables below, so the same seed
gives the same jobs; every job parses its descriptor anew.  numindex
receives only what is generated here: descriptor text, matrices, budgets
and integer seeds.  A job returns one or more records; each record holds the job's
wall time and its computed values.  Checks run after the timed loop, on
the results kept in ``record["result"]``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

import numindex as ni
from numindex import cli
from numindex.radius import poly_norm

import checks

P_CHOICES = (1.25, 1.5, 2.0, 3.0, 4.0)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _gaussian(rng, d: int, field: str) -> np.ndarray:
    g = rng.standard_normal((d, d))
    if field == ni.COMPLEX:
        g = g + 1j * rng.standard_normal((d, d))
    return g / np.linalg.norm(g)


def _split(rng, n: int, parts: int) -> list[int]:
    """Random composition of n into ``parts`` positive integers."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    return list(np.diff(np.concatenate([[0], cuts, [n]])).astype(int))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# radius-mix
# ---------------------------------------------------------------------------

LANDMARKS = (ni.lp(3, 2), ni.lp(1.5, 3), ni.lp(2, 2, ni.COMPLEX),
             ni.tower([3, 1.5], [2, 1, 2]))

#: Random-tree slots of one corpus block: (shape, field, total dimensions).
#: Two thirds of the jobs are small flat spaces, so that the median job is
#: well inside the cheap cluster and the 90th percentile inside the tail of
#: towers, psums and larger spaces.
TREE_SLOTS = ((("flat", ni.REAL, (2,)), ("flat", ni.REAL, (3,)),
               ("flat", ni.COMPLEX, (2,))) * 3 +
              (("flat", ni.REAL, (4, 5)), ("flat", ni.COMPLEX, (3,)),
               ("psum", ni.REAL, (3, 4, 5)), ("psum", ni.COMPLEX, (3,)),
               ("tower", ni.REAL, (3, 4, 5))))

#: The spaces, base operators and restart seeds come from this fixed seed:
#: the landmarks once and CORPUS_BLOCKS blocks of one tree per slot, 46
#: distinct spaces.  The run's --seed perturbs every base operator by
#: PERTURBATION of its Frobenius norm.  The number of objective
#: evaluations of an ascent is chaotic in its input: redrawn operators or
#: restart seeds changed it twofold for single jobs and made whole-run
#: throughput differ by half between seeds, so all seeds share one corpus.
CORPUS_SEED = 1503
CORPUS_BLOCKS = 3
PERTURBATION = 0.02

RADIUS_BUDGET = 16
GRID_RESOLUTION = 2000
#: warm-up space: p = 2.5 is outside P_CHOICES, so no job shares it
WARMUP_SPACE = ni.lp(2.5, 2)


def _random_tree(rng, shape: str, field: str, dims):
    def p():
        return float(rng.choice(P_CHOICES))
    n = int(rng.choice(dims))
    if shape == "flat":
        return ni.lp(p(), n, field)
    if shape == "psum":
        blocks = _split(rng, n, 2 if n <= 3 else 3)
        return ni.psum(p(), [ni.lp(p(), b, field) for b in blocks], field)
    return ni.tower([p(), p()], _split(rng, n, 3), field)


def _grid_eligible(desc) -> bool:
    cap = 2 if desc.field == ni.COMPLEX else 3
    return desc.total_dim <= cap


def _warm_radius():
    T = ni.Operator(np.array([[0.6, -0.3], [0.2, 0.7]]), WARMUP_SPACE)
    ni.op_norm(T, budget=4, rng=0)
    ni.numerical_radius(T, budget=4, rng=0)
    ni.radius_grid_oracle(T, 200)


def _corpus() -> list[tuple]:
    """(descriptor, unit-Frobenius base operator, restart seeds) for every
    job of a round."""
    rng = _rng(CORPUS_SEED)
    spaces = list(LANDMARKS) + [_random_tree(rng, *slot) for _ in range(CORPUS_BLOCKS)
                                for slot in TREE_SLOTS]
    return [(d, _gaussian(rng, d.total_dim, d.field), (_int_seed(rng), _int_seed(rng)))
            for d in spaces]


class RadiusMix:
    min_rounds = 1

    def __init__(self, tiny: bool = False):
        self.corpus = _corpus()[:3 if tiny else None]

    def jobs(self, seed: int, r: int) -> list[dict]:
        rng = _rng(seed, 1, r)
        jobs = []
        for d, base, restarts in self.corpus:
            m = base + PERTURBATION * _gaussian(rng, d.total_dim, d.field)
            jobs.append({"space": ni.descriptor_to_text(d), "field": d.field,
                         "matrix": m / np.linalg.norm(m), "rng": restarts,
                         "grid": _grid_eligible(d)})
        return jobs

    def warmup(self):
        _warm_radius()

    def run(self, job: dict) -> list[dict]:
        def work():
            desc = ni.parse_descriptor(job["space"], field=job["field"])
            T = ni.Operator(job["matrix"], desc)
            out = {"T": T,
                   "opnorm": ni.op_norm(T, budget=RADIUS_BUDGET, rng=job["rng"][0]),
                   "radius": ni.numerical_radius(T, budget=RADIUS_BUDGET,
                                                 rng=job["rng"][1])}
            if job["grid"]:
                out["grid"] = ni.radius_grid_oracle(T, GRID_RESOLUTION)
            return out
        res, secs = _timed(work)
        values = {"nu": res["radius"].value, "opnorm": res["opnorm"].value,
                  "method": res["radius"].method, "evals": res["radius"].evals}
        if "grid" in res:
            values["grid"] = res["grid"].value
        return [{"space": job["space"], "seconds": secs, "values": values,
                 "result": res}]

    def check(self, rec: dict) -> list[str]:
        res, failures = rec["result"], []
        T = res["T"]
        checks.radius_witness(failures, "nu witness", T, res["radius"])
        checks.opnorm_witness(failures, "op_norm witness", T, res["opnorm"])
        if "grid" in res:
            checks.radius_witness(failures, "grid witness", T, res["grid"])
            if res["radius"].value < res["grid"].value - checks.ESTIMATE_TOL:
                failures.append(f"ascent {res['radius'].value!r} below grid "
                                f"{res['grid'].value!r}")
        if checks.uniform_p(T.descriptor) == 2.0:
            checks.hilbert_closed_form(failures, "nu", T, res["radius"].value)
        return failures

    def value_metrics(self, records: list[dict]) -> dict:
        return {"radius_value_mean": float(np.mean([r["values"]["nu"] for r in records])),
                "opnorm_value_mean": float(np.mean([r["values"]["opnorm"] for r in records]))}


# ---------------------------------------------------------------------------
# index-search
# ---------------------------------------------------------------------------

#: (estimator, descriptor text, extra arguments)
INDEX_SPECS = (
    ("numerical", "lp(p=1.5,dim=3)", {}),
    ("numerical", "lp(p=1,dim=3)", {}),
    ("rank", "lp(p=3,dim=2)", {"r": 1}),
    ("numerical", "lp(p=2,dim=2,field=complex)", {}),
    ("numerical", "lp(p=inf,dim=3)", {}),
    ("absolute", "lp(p=3,dim=2)", {}),
    ("numerical", "psum(p=1.5,[lp(p=3,dim=2),lp(p=2,dim=1)])", {}),
    ("numerical", "lp(p=2,dim=2)", {}),
    ("poly", "lp(p=3,dim=2)", {"k": 2}),
    ("numerical", "lp(p=4,dim=2,field=complex)", {}),
    ("rank", "lp(p=1.5,dim=2)", {"r": 2}),
    ("numerical", "lp(p=3,dim=2)", {}),
)

INDEX_BUDGET = 16
RESCORE_RADIUS_BUDGET = 64
RESCORE_OPNORM_BUDGET = 16


def _index_call(kind: str, desc, budget: int, rng: int, args: dict):
    if kind == "numerical":
        return ni.numerical_index_estimate(desc, budget=budget, rng=rng)
    if kind == "rank":
        return ni.rank_r_index_estimate(desc, args["r"], budget=budget, rng=rng)
    if kind == "absolute":
        return ni.absolute_index_estimate(desc, budget=budget, rng=rng)
    return ni.poly_index_estimate(desc, args["k"], budget=budget, rng=rng)


#: fast specs of the self-test: both exact backends and the Hilbert exit
TINY_SPECS = (1, 4, 7)


class IndexSearch:

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.min_rounds = 1 if tiny else 2

    def jobs(self, seed: int, r: int) -> list[dict]:
        rng = _rng(seed, 2, r)
        jobs = [{"kind": kind, "space": text, "args": args,
                 "rng": _int_seed(rng), "rescore_rng": _int_seed(rng)}
                for kind, text, args in INDEX_SPECS]
        return [jobs[i] for i in TINY_SPECS] if self.tiny else jobs

    def warmup(self):
        ni.numerical_index_estimate(WARMUP_SPACE, budget=3, rng=0)

    def run(self, job: dict) -> list[dict]:
        def work():
            desc = ni.parse_descriptor(job["space"])
            return _index_call(job["kind"], desc, INDEX_BUDGET, job["rng"], job["args"])
        est, secs = _timed(work)
        values = {"upper_bound": est.upper_bound, "method": est.radius_method,
                  "restarts_used": est.restarts_used,
                  "lower_bound": est.lower_bound_theoretical}
        return [{"space": f"{job['kind']}{job['args'] or ''} {job['space']}",
                 "seconds": secs, "values": values,
                 "result": {"job": job, "estimate": est}}]

    def check(self, rec: dict) -> list[str]:
        job, est = rec["result"]["job"], rec["result"]["estimate"]
        W, failures = est.witness_operator, []
        lb = est.lower_bound_theoretical - checks.INDEX_LB_SLACK
        if est.upper_bound < lb:
            failures.append(f"reported {est.upper_bound!r} below theoretical bound {lb!r}")
        p = checks.uniform_p(W.descriptor)
        if p in (1.0, math.inf) and abs(est.upper_bound - 1.0) > 1e-12:
            failures.append(f"l1/linf index {est.upper_bound!r} is not 1")
        if p == 2.0 and W.field == ni.REAL and est.upper_bound > 1e-6:
            failures.append(f"real Hilbert index {est.upper_bound!r} above 1e-6")
        if job["kind"] == "rank" and np.linalg.matrix_rank(W.matrix) > job["args"]["r"]:
            failures.append(f"witness rank above {job['args']['r']}")
        if rec["round"] < self.min_rounds:
            self._rescore(rec, failures)
        return failures

    def _rescore(self, rec: dict, failures: list[str]):
        """Re-score the witness at radius budget 64 and op_norm budget 16 and
        add the values to the record.  Only the first ``min_rounds`` rounds,
        the jobs that index_rescored_mean averages, are re-scored: re-scoring
        costs a third of the search itself."""
        job, est = rec["result"]["job"], rec["result"]["estimate"]
        W, kind, rng = est.witness_operator, job["kind"], job["rescore_rng"]
        if kind == "poly":
            nrm, _ = poly_norm(W, budget=RESCORE_OPNORM_BUDGET, rng=rng)
            nu = ni.poly_radius(W, budget=RESCORE_RADIUS_BUDGET, rng=rng)
            checks.pairing_witness(failures, "re-scored nu witness", W.descriptor,
                                   nu, checks.poly_image(W))
        else:
            on = ni.op_norm(W, budget=RESCORE_OPNORM_BUDGET, rng=rng)
            checks.opnorm_witness(failures, "re-scored op_norm witness", W, on)
            nrm = on.value
            if kind == "absolute":
                nu = ni.absolute_radius(W, budget=RESCORE_RADIUS_BUDGET, rng=rng)
                checks.absolute_witness(failures, "re-scored witness", W, nu)
            else:
                nu = ni.numerical_radius(W, budget=RESCORE_RADIUS_BUDGET, rng=rng)
                checks.radius_witness(failures, "re-scored nu witness", W, nu)
        rescored = nu.value / nrm
        rec["values"].update(rescored_nu=nu.value, rescored_norm=nrm,
                             rescored_ratio=rescored)
        lb = est.lower_bound_theoretical - checks.INDEX_LB_SLACK
        if rescored < lb:
            failures.append(f"re-scored {rescored!r} below theoretical bound {lb!r}")

    def value_metrics(self, records: list[dict]) -> dict:
        return {"index_rescored_mean": float(np.mean(
            [r["values"]["rescored_ratio"] for r in records]))}


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

VERIFY_CASES = 1
SUITES = cli.VERIFY_SUITES


class _LineClock(io.TextIOBase):
    """Stdout stand-in that timestamps each line the CLI prints."""

    def __init__(self):
        self.lines = []
        self._buf = ""

    def write(self, text: str) -> int:
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class VerifySuites:
    """One job is one ``numindex verify --suite all`` call; the time of
    each suite, read from the line the CLI prints when it finishes, goes
    into the record."""

    min_rounds = 1

    def __init__(self, out_dir: str, tiny: bool = False):
        self.out_dir = out_dir
        self.suites = ("sums",) if tiny else SUITES

    def jobs(self, seed: int, r: int) -> list[dict]:
        return [{"seed": _int_seed(_rng(seed, 3, r)),
                 "out": os.path.join(self.out_dir, f"verify-{seed}-{r}")}]

    def warmup(self):
        _warm_radius()
        cli.build_parser()

    def run(self, job: dict) -> list[dict]:
        suite = "all" if self.suites == SUITES else self.suites[0]
        argv = ["verify", "--suite", suite, "--cases", str(VERIFY_CASES),
                "--seed", str(job["seed"]), "--out", job["out"]]
        clock, stdout = _LineClock(), sys.stdout
        sys.stdout = clock
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            secs = time.perf_counter() - t0
            sys.stdout = stdout
        suite_s, prev = {}, t0
        for t, line in clock.lines:
            name = line.split(":", 1)[0]
            if name in self.suites:
                suite_s[name] = t - prev
                prev = t
        digests = {}
        for name in self.suites:
            path = os.path.join(job["out"], f"{name}.json")
            if os.path.exists(path):
                digests[name] = _sha256(path)
        return [{"space": " ".join(argv[:-2]), "seconds": secs,
                 "suite_seconds": suite_s,
                 "values": {"exit_code": rc, "report_sha256": digests},
                 "result": {"rc": rc, "out": job["out"]}}]

    def check(self, rec: dict) -> list[str]:
        failures = []
        if rec["result"]["rc"] != 0:
            failures.append(f"verify exited {rec['result']['rc']}")
        for name in self.suites:
            path = os.path.join(rec["result"]["out"], f"{name}.json")
            if not os.path.exists(path):
                failures.append(f"no {name} report")
                continue
            with open(path) as fh:
                if not json.load(fh)["passed"]:
                    failures.append(f"suite {name} failed")
        return failures

    def value_metrics(self, records: list[dict]) -> dict:
        return {}
