"""Verification suites for the structural radius/index theorems.

Each suite computes both sides of an equality (or inequality) through
independent code paths -- separate descriptors, separate radius calls --
and records the worst observed violation.  A suite passes when that
violation stays below its declared tolerance.  Everything is
deterministic given (config, seed): per-case generators come from a
counter-based seed split, so a case does not depend on the cases run
before it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .index import mp_constant, numerical_index_estimate
from .operators import Operator, adjoint, compose_with_projection, op_norm
from .radius import numerical_radius
from .spaces import (SpaceDescriptor, DegenerateInput, descriptor_to_text,
                     dual_descriptor, gaussian, lp, psum, summand, tower_levels)

#: violation tolerances by backend mix
TOL_ENUMERATION = 1e-9
TOL_ASCENT = 1e-4
TOL_INDEX = 0.05

#: largest total dimension the sum and monotone suites accept
DIM_CAP = 6
#: bounds suite: how far below M_p/2 an estimate may fall (a violation),
#: and how far above M_p it may rise before the soft check logs it
HARD_SLACK = 0.02
SOFT_SLACK = 0.05
#: monotone suite: rise of n(lp^m) from m to the next m tolerated
MONOTONE_SLACK = 0.02


def case_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based seed split: independent stream per (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class SuiteReport:
    suite: str
    descriptors: list[str]
    tolerance: float
    seed: int
    cases: list[dict] = field(default_factory=list)
    max_violation: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def add(self, record: dict):
        self.cases.append(record)
        v = record.get("violation")
        if v is not None:
            self.max_violation = max(self.max_violation, float(v))

    def to_dict(self) -> dict:
        return {**asdict(self), "cases_run": len(self.cases), "passed": self.passed}


def _suite_tolerance(desc: SpaceDescriptor) -> float:
    return TOL_ENUMERATION if desc.is_l1_linf else TOL_ASCENT


def _report(suite: str, descs, seed: int) -> SuiteReport:
    """An empty report on ``descs`` at the coarsest of their tolerances."""
    return SuiteReport(suite, [descriptor_to_text(d) for d in descs],
                       max(map(_suite_tolerance, descs)), seed)


def _invariance_cases(report: SuiteReport, space: SpaceDescriptor, views,
                      cases: int, seed: int, budget: int, record) -> SuiteReport:
    """nu(L) against nu(V(L)) for every view V of ``views``, case by case.
    Case i draws L on ``space`` from ``case_rng(seed, i)``, scores L from
    ``case_rng(seed, i, 1)`` and the k-th view from ``case_rng(seed, i, k + 1)``;
    ``record`` names the values in the case record, and the violation is
    max_k |nu_k - nu(L)|."""
    if cases < 1:
        # a suite of no cases would pass with nothing checked
        raise DegenerateInput(f"cases must be >= 1, got {cases}")
    for i in range(cases):
        L = _random_operator(space, case_rng(seed, i))
        maps = [L] + [view(L) for view in views]
        vals = [numerical_radius(T, budget=budget, rng=case_rng(seed, i, k)).value
                for k, T in enumerate(maps, 1)]
        report.add({"case": i, **record(vals),
                    "violation": max(abs(v - vals[0]) for v in vals)})
    return report


def _random_operator(desc: SpaceDescriptor, rng) -> Operator:
    g = gaussian(desc, rng)
    T = Operator(g, desc)
    nrm = op_norm(T, budget=8, rng=rng)
    return Operator(g / nrm.value, desc)


def lcc_check(tower: SpaceDescriptor, m: int, j: int, cases: int = 50,
              seed: int = 0, budget: int = 32) -> SuiteReport:
    """Projection invariance along a tower: nu(L) on level m equals
    nu(L o Q_{m,k}) on each level m+k, k = 1..j."""
    levels = tower_levels(tower)
    if m < 1 or j < 1 or m + j > len(levels):
        raise DegenerateInput(f"tower has {len(levels)} levels; asked for m={m}, "
                              f"j={j} (both >= 1)")
    x_m = levels[m - 1]
    return _invariance_cases(
        _report("lcc", [tower, x_m], seed), x_m,
        [partial(_embed_first, levels=levels[m:m + k]) for k in range(1, j + 1)],
        cases, seed, budget, lambda vals: {"values": vals})


def _embed_first(L: Operator, levels) -> Operator:
    """L composed with the first-block projection of each tower level of
    ``levels`` in turn, innermost first: L on level m lands on the level
    m + len(levels), whose leading leaf coordinates it occupies."""
    for big in levels:
        L = compose_with_projection(L, big, (0,))
    return L


def gcc_check(sum_space: SpaceDescriptor, subset, cases: int = 50,
              seed: int = 0, budget: int = 32) -> SuiteReport:
    """Block-projection invariance on a p-sum: nu(L o P_W) on the full
    space equals nu(L) on the block Z_W."""
    block, _ = summand(sum_space, subset)
    return _invariance_cases(
        _report("gcc", [sum_space, block], seed), block,
        [partial(compose_with_projection, desc=sum_space, keep=subset)],
        cases, seed, budget,
        lambda vals: {"block": vals[0], "full": vals[1]})


def sum_index_check(summands, mode: str = "linf", budget: int = 120,
                    seed: int = 0) -> SuiteReport:
    """Index of an l1/linf sum against the minimum summand index.  Both
    sides are best-found upper bounds, so the tolerance is coarse."""
    summands = list(summands)
    if mode not in ("l1", "linf"):
        raise DegenerateInput("mode must be l1 or linf")
    p = 1.0 if mode == "l1" else math.inf
    total = sum(s.total_dim for s in summands)
    if total > DIM_CAP:
        raise DegenerateInput(f"total dimension {total} exceeds cap {DIM_CAP}")
    if len(summands) == 1:
        sum_desc = summands[0]
    else:
        sum_desc = psum(p, summands)
    report = SuiteReport("sums", [descriptor_to_text(sum_desc)], TOL_INDEX, seed)
    summand_vals = []
    embedded = []
    for i, s in enumerate(summands):
        est = numerical_index_estimate(s, budget=budget, rng=case_rng(seed, i))
        summand_vals.append(est.upper_bound)
        if len(summands) > 1:
            # the sum attains inf_i n(X_i) on block operators: seed the sum
            # search with each summand witness composed with its projection
            embedded.append(compose_with_projection(est.witness_operator, sum_desc, (i,)))
    est_sum = numerical_index_estimate(sum_desc, budget=budget,
                                       rng=case_rng(seed, len(summands)),
                                       extra_starts=embedded)
    diff = abs(est_sum.upper_bound - min(summand_vals))
    report.add({"case": 0, "sum_index": est_sum.upper_bound,
                "summand_indices": summand_vals, "violation": diff})
    report.extra["note"] = "both sides are best-found upper bounds"
    return report


def monotone_sweep(p: float, m_values, budget: int = 120,
                   seed: int = 0) -> SuiteReport:
    """Estimated n(lp^m) along m; checks the nonincreasing trend.  The
    best witness from level m seeds level m+1 (embedded through the block
    projection), which keeps the estimates structurally monotone."""
    m_values = list(m_values)
    if not m_values:
        raise DegenerateInput("empty m range")
    if max(m_values) > DIM_CAP:
        raise DegenerateInput(f"m={max(m_values)} exceeds dimension cap {DIM_CAP}")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        # the check runs from each m to the next, so it needs them rising
        raise DegenerateInput(f"m values must be strictly increasing, got {m_values}")
    descs = [lp(p, m) for m in m_values]          # every level checked before a search
    report = SuiteReport("monotone", [f"lp(p={p},m={m_values})"], MONOTONE_SLACK, seed)
    prev_val, prev_witness, prev_m = None, None, None
    trajectory = []
    for k, (m, desc) in enumerate(zip(m_values, descs)):
        extra = []
        if prev_witness is not None:
            extra.append(compose_with_projection(prev_witness, desc, range(prev_m)))
        est = numerical_index_estimate(desc, budget=budget,
                                       rng=case_rng(seed, k),
                                       extra_starts=extra)
        violation = (max(est.upper_bound - prev_val - MONOTONE_SLACK, 0.0)
                     if prev_val is not None else 0.0)
        report.add({"case": k, "m": m, "index_upper_bound": est.upper_bound,
                    "violation": violation})
        trajectory.append((m, est.upper_bound))
        prev_val, prev_witness, prev_m = est.upper_bound, est.witness_operator, m
    report.extra["trajectory"] = trajectory
    return report


def duality_check(desc: SpaceDescriptor, cases: int = 50, budget: int = 32,
                  seed: int = 0, index_budget: int = 80) -> SuiteReport:
    """nu(T*) = nu(T) case by case, plus the coarse index comparison
    n(X*) <= n(X) (equality at finite dimension) on best-found bounds.  Where
    every exponent of X lies in (1, 2], one below 2, the radius engine
    ascends nu(T) on (X*, T*) as well, so both sides search one landscape
    from their own starts, and the check rests on each side's value
    re-derived from a norming pair of its own space."""
    report = _invariance_cases(
        _report("duality", [desc, dual_descriptor(desc)], seed), desc, [adjoint],
        cases, seed, budget, lambda vals: {"radius": vals[0], "radius_adjoint": vals[1]})
    n_primal = numerical_index_estimate(desc, budget=index_budget,
                                        rng=case_rng(seed, 10_001)).upper_bound
    n_dual = numerical_index_estimate(dual_descriptor(desc), budget=index_budget,
                                      rng=case_rng(seed, 10_002)).upper_bound
    report.extra["index_primal"] = n_primal
    report.extra["index_dual"] = n_dual
    report.extra["index_gap_ok"] = bool(n_dual <= n_primal + TOL_INDEX)
    if not report.extra["index_gap_ok"]:
        report.max_violation = max(report.max_violation, report.tolerance * 2)
    return report


def bounds_check(p_list, m_list, budget: int = 150, seed: int = 0) -> SuiteReport:
    """Real lp^m index estimates against their interval, [M_p/2, M_p] for
    m >= 2 and [1, 1] on the scalar line: the lower side is a hard check on
    estimator sanity; closeness to the upper side from above is soft
    (optimizer quality, logged only).  Every p and m is checked before the
    first search."""
    p_list, m_list = list(p_list), list(m_list)
    if not p_list or not m_list:
        raise DegenerateInput(f"bounds_check needs some p and some m, got "
                              f"p={p_list}, m={m_list}")
    bad = [f"p={p!r}" for p in p_list if not 1.0 <= p < math.inf]
    bad += [f"m={m!r}" for m in m_list if not (isinstance(m, (int, np.integer)) and m >= 1)]
    if bad:
        raise DegenerateInput(f"bounds_check needs finite p >= 1 and integer m >= 1, "
                              f"got {', '.join(bad)}")
    report = SuiteReport("bounds", [f"lp(p={p});m={m_list}" for p in p_list],
                         HARD_SLACK, seed)
    k = 0
    curve = []
    for p in p_list:
        mp = mp_constant(p)
        for m in m_list:
            desc = lp(p, m)
            est = numerical_index_estimate(desc, budget=budget,
                                           rng=case_rng(seed, k))
            hard = max(est.bounds.lower - HARD_SLACK - est.upper_bound, 0.0)
            soft_ok = est.upper_bound <= est.bounds.upper + SOFT_SLACK
            report.add({"case": k, "p": p, "m": m, "mp": mp.value,
                        "index_upper_bound": est.upper_bound,
                        "soft_upper_ok": bool(soft_ok),
                        "violation": hard})
            curve.append((p, m, est.upper_bound, mp.value))
            k += 1
    report.extra["curve"] = curve
    return report
