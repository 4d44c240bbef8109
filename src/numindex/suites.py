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
from dataclasses import dataclass, field

import numpy as np

from .index import _gaussian, mp_constant, numerical_index_estimate
from .operators import (Operator, adjoint, compose_with_projection,
                        coordinate_projection, op_norm)
from .radius import numerical_radius
from .spaces import (SpaceDescriptor, DegenerateInput, descriptor_to_text,
                     dual_descriptor, lp, psum, tower_levels)

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
        return {"suite": self.suite,
                "descriptors": self.descriptors,
                "tolerance": self.tolerance,
                "seed": self.seed,
                "cases_run": len(self.cases),
                "max_violation": self.max_violation,
                "passed": self.passed,
                "cases": self.cases,
                "extra": self.extra}


def _suite_tolerance(desc: SpaceDescriptor) -> float:
    u = desc.uniform_exponent
    return TOL_ENUMERATION if u in (1.0, math.inf) else TOL_ASCENT


def _random_operator(desc: SpaceDescriptor, rng) -> Operator:
    g = _gaussian(desc, rng)
    T = Operator(g, desc)
    nrm = op_norm(T, budget=8, rng=rng)
    return Operator(g / nrm.value, desc)


def lcc_check(tower: SpaceDescriptor, m: int, j: int, cases: int = 50,
              seed: int = 0, budget: int = 32) -> SuiteReport:
    """Projection invariance along a tower: nu(L) on level m versus
    nu(L o Q_{m,j}) on level m+j, plus the one-sided level monotonicity."""
    levels = tower_levels(tower)
    if not (1 <= m <= len(levels)) or m + j > len(levels):
        raise DegenerateInput(
            f"tower has {len(levels)} levels; asked for m={m}, j={j}")
    x_m = levels[m - 1]
    tol = max(_suite_tolerance(tower), _suite_tolerance(x_m))
    report = SuiteReport("lcc", [descriptor_to_text(tower),
                                 descriptor_to_text(x_m)], tol, seed)

    for i in range(cases):
        L = _random_operator(x_m, case_rng(seed, i))
        v_small = numerical_radius(L, budget=budget, rng=case_rng(seed, i, 1)).value
        vals = [v_small]
        for jj in range(1, j + 1):
            big = levels[m + jj - 1]
            embedded = _embed_top_left(L, big)
            vals.append(numerical_radius(embedded, budget=budget,
                                         rng=case_rng(seed, i, 1 + jj)).value)
        # equality across all levels, and the increasing-sequence direction
        violation = max(abs(v - v_small) for v in vals)
        monotone_defect = max(max(vals[k] - vals[k + 1] - tol, 0.0)
                              for k in range(len(vals) - 1)) if len(vals) > 1 else 0.0
        report.add({"case": i, "values": vals,
                    "violation": max(violation, monotone_defect)})
    return report


def _embed_top_left(L: Operator, big: SpaceDescriptor) -> Operator:
    """L on the first-child block of ``big`` composed with the projection
    onto that block (tower levels share the leading leaf coordinates)."""
    Q = coordinate_projection(big, keep=(0,))
    if Q.sub_descriptor != L.descriptor:
        # level descriptor nests deeper than one projection step
        inner = _embed_top_left(L, Q.sub_descriptor)
        return compose_with_projection(inner, Q)
    return compose_with_projection(L, Q)


def gcc_check(sum_space: SpaceDescriptor, subset, cases: int = 50,
              seed: int = 0, budget: int = 32) -> SuiteReport:
    """Block-projection invariance on a p-sum: nu(L o P_W) on the full
    space equals nu(L) on the block Z_W."""
    Q = coordinate_projection(sum_space, subset)
    z_w = Q.sub_descriptor
    tol = max(_suite_tolerance(sum_space), _suite_tolerance(z_w))
    report = SuiteReport("gcc", [descriptor_to_text(sum_space),
                                 descriptor_to_text(z_w)], tol, seed)

    for i in range(cases):
        L = _random_operator(z_w, case_rng(seed, i))
        v_block = numerical_radius(L, budget=budget, rng=case_rng(seed, i, 1)).value
        LQ = compose_with_projection(L, Q)
        v_full = numerical_radius(LQ, budget=budget, rng=case_rng(seed, i, 2)).value
        report.add({"case": i, "block": v_block, "full": v_full,
                    "violation": abs(v_block - v_full)})
    return report


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
        if len(summands) > 1 and isinstance(est.witness_operator, Operator):
            # the sum attains inf_i n(X_i) on block operators: seed the sum
            # search with each summand witness composed with its projection
            Q = coordinate_projection(sum_desc, (i,))
            embedded.append(compose_with_projection(est.witness_operator, Q))
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
    report = SuiteReport("monotone", [f"lp(p={p},m={m_values})"], MONOTONE_SLACK, seed)
    prev_val, prev_witness, prev_m = None, None, None
    trajectory = []
    for k, m in enumerate(m_values):
        desc = lp(p, m)
        extra = []
        if prev_witness is not None and m > prev_m:
            Q = coordinate_projection(desc, keep=tuple(range(prev_m)))
            extra.append(compose_with_projection(prev_witness, Q))
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
    n(X*) <= n(X) (equality at finite dimension) on best-found bounds."""
    tol = max(_suite_tolerance(desc), _suite_tolerance(dual_descriptor(desc)))
    report = SuiteReport("duality", [descriptor_to_text(desc),
                                     descriptor_to_text(dual_descriptor(desc))],
                         tol, seed)

    for i in range(cases):
        T = _random_operator(desc, case_rng(seed, i))
        v = numerical_radius(T, budget=budget, rng=case_rng(seed, i, 1)).value
        v_star = numerical_radius(adjoint(T), budget=budget,
                                  rng=case_rng(seed, i, 2)).value
        report.add({"case": i, "radius": v, "radius_adjoint": v_star,
                    "violation": abs(v - v_star)})
    n_primal = numerical_index_estimate(desc, budget=index_budget,
                                        rng=case_rng(seed, 10_001)).upper_bound
    n_dual = numerical_index_estimate(dual_descriptor(desc), budget=index_budget,
                                      rng=case_rng(seed, 10_002)).upper_bound
    report.extra["index_primal"] = n_primal
    report.extra["index_dual"] = n_dual
    report.extra["index_gap_ok"] = bool(n_dual <= n_primal + TOL_INDEX)
    if not report.extra["index_gap_ok"]:
        report.max_violation = max(report.max_violation, tol * 2)
    return report


def bounds_check(p_list, m_list, budget: int = 150, seed: int = 0) -> SuiteReport:
    """Real lp^m index estimates against the M_p interval: the lower bound
    M_p/2 is a hard check on estimator sanity; closeness to M_p from above
    is soft (optimizer quality, logged only)."""
    report = SuiteReport("bounds", [f"lp(p={p});m={list(m_list)}" for p in p_list],
                         HARD_SLACK, seed)
    k = 0
    curve = []
    for p in p_list:
        if p == math.inf:
            raise DegenerateInput("bounds_check needs finite p")
        mp = mp_constant(p)
        for m in m_list:
            desc = lp(p, m)
            est = numerical_index_estimate(desc, budget=budget,
                                           rng=case_rng(seed, k))
            if m >= 2:
                hard = max(mp.value / 2.0 - HARD_SLACK - est.upper_bound, 0.0)
                soft_ok = est.upper_bound <= mp.value + SOFT_SLACK
            else:
                hard, soft_ok = 0.0, True
            report.add({"case": k, "p": p, "m": m, "mp": mp.value,
                        "index_upper_bound": est.upper_bound,
                        "soft_upper_ok": bool(soft_ok),
                        "violation": hard})
            curve.append((p, m, est.upper_bound, mp.value))
            k += 1
    report.extra["curve"] = curve
    return report
