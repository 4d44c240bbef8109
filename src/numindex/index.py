"""Numerical-index estimation and the theoretical comparison bounds.

The index n(X) = inf { nu(T) : ||T|| = 1 } is a nonconvex min over a
nonconvex max; every value reported here is the best-found *upper bound*,
never the true index.  Lower anchors come only from the known theoretical
bounds (see :func:`theoretical_bounds`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import minimize_scalar

from . import operators as ops
from .operators import (HomogeneousPolynomial, Operator, _as_rng, coefficients,
                        op_norm_stack, poly_shape, rank_one)
from .radius import absolute_radius_stack, poly_norm_stack, radius_stack
from .spaces import (COMPLEX, DegenerateInput, SpaceDescriptor,
                     dual_descriptor, unit_sphere_sample)

INV_E = 1.0 / math.e

#: restart budget handed to each radius evaluation inside the index search,
#: kept small for speed.  A reported value re-derives from its witness
#: operator only at the search's own budgets: re-scored at a larger radius
#: budget the ratio can rise, since the search keeps its luckiest
#: underestimate of nu
RADIUS_BUDGET_IN_SEARCH = 6

#: a ratio this small cannot be improved; stop searching
EARLY_EXIT = 1e-9

#: most descent perturbations scored in one stacked call
SPECULATIVE_BATCH = 32


@dataclass(frozen=True)
class MpResult:
    p: float
    value: float
    argmax_t: float


def mp_curve(p: float, t):
    """|t^{p-1} - t| / (1 + t^p) at a scalar or at every entry of an array
    t in [0, 1]; finite for every finite p >= 1."""
    return abs(t ** (p - 1.0) - t) / (1.0 + t ** p)


def mp_constant(p: float, grid_points: int = 100_000) -> MpResult:
    """M_p = sup over t in [0,1] of |t^{p-1} - t| / (1 + t^p).

    Dense scan plus bounded local refinement; deterministic.  M_2 = 0 and
    M_1 = 1 (attained at t = 0).
    """
    if not (1.0 <= p < math.inf):
        raise DegenerateInput("mp_constant needs finite p >= 1")
    ts = np.linspace(0.0, 1.0, grid_points + 1)
    vals = mp_curve(p, ts)
    k = int(np.argmax(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, grid_points)]
    res = minimize_scalar(lambda t: -mp_curve(p, t), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    t_best, v_best = float(res.x), float(-res.fun)
    if vals[k] >= v_best:    # endpoints (e.g. t=0 at p=1) beat the interior
        t_best, v_best = float(ts[k]), float(vals[k])
    return MpResult(p, v_best, t_best)


@dataclass(frozen=True)
class BoundsInterval:
    lower: float
    upper: float
    lower_tag: str
    upper_tag: str
    note: str = ""


def theoretical_bounds(desc: SpaceDescriptor) -> BoundsInterval:
    """Tightest known interval for n(X) given the descriptor and its field;
    a tree whose exponents all agree counts as the flat lp it is isometric to."""
    p = desc.uniform_exponent
    if desc.total_dim == 1:
        return BoundsInterval(1.0, 1.0, "scalar-field", "scalar-field",
                              "one-dimensional space has index 1")
    if p in (1.0, math.inf):
        return BoundsInterval(1.0, 1.0, "sum-of-scalar-lines",
                              "sum-of-scalar-lines",
                              "l1/linf sums of index-1 summands have index 1")
    if desc.field == COMPLEX:
        return BoundsInterval(INV_E, 1.0, "complex-space-general",
                              "index-range", "")
    if p is not None:
        mp = mp_constant(p)
        note = "real Hilbert space: index 0" if p == 2.0 else ""
        return BoundsInterval(mp.value / 2.0, mp.value,
                              "real-lp-half-mp", "real-lp-mp", note)
    return BoundsInterval(0.0, 1.0, "real-space-general", "index-range", "")


@dataclass(frozen=True)
class IndexEstimate:
    upper_bound: float
    witness_operator: object          # Operator or HomogeneousPolynomial
    restarts_used: int
    radius_method: str
    lower_bound_theoretical: float
    lower_bound_tag: str
    field: str
    target: float | None = None       # closed-form comparison value, if any


def _eval_rng(T):
    """Generator keyed to the coefficients of an operator or polynomial, so
    its ratio is a pure function of it: re-encountering a witness (warm
    starts, embedded summand witnesses, rank chains) reproduces its ratio
    exactly instead of re-rolling the evaluation noise."""
    digest = hashlib.blake2b(coefficients(T).tobytes(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _ratios(Ts, norms, norm_budget: int, radii, radius_budget: int) -> list:
    """(nu(T) / ||T||, radius method) of every operator or polynomial of a
    stack sharing one descriptor, or None where ||T|| vanishes.  Member k's
    norm and then its radius draw from its own ``_eval_rng``;
    ``norms(Ts, budget, rngs)`` and ``radii(Ts, budget, rngs)`` are the
    stacked norm and radius estimators."""
    erngs = [_eval_rng(T) for T in Ts]
    values = [n.value for n in norms(Ts, norm_budget, erngs)]
    live = [k for k, n in enumerate(values) if n >= 1e-13]
    out = [None] * len(Ts)
    if live:
        nus = radii([Ts[k] for k in live], radius_budget, [erngs[k] for k in live])
        for k, nu in zip(live, nus):
            out[k] = (nu.value / values[k], nu.method)
    return out


def _gaussian(desc: SpaceDescriptor, rng, shape=None) -> np.ndarray:
    """Gaussian entries of the field of ``desc``, d x d by default."""
    shape = shape or (desc.total_dim,) * 2
    g = rng.standard_normal(shape)
    if desc.field == COMPLEX:
        g = g + 1j * rng.standard_normal(shape)
    return g


def _start_portfolio(desc: SpaceDescriptor, rng, dense: int = 4):
    """Structured candidate operators: antisymmetric, shifts, rank-one,
    dense Gaussian.  Order is deterministic."""
    d = desc.total_dim
    out = []
    g = _gaussian(desc, rng)
    out.append(Operator((g - g.T) / 2.0, desc))           # antisymmetric
    if d >= 2:
        shift = np.zeros((d, d))
        for i in range(d - 1):
            shift[i, i + 1] = 1.0
        out.append(Operator(shift.astype(desc.dtype), desc))   # nilpotent shift
        cyc = np.roll(np.eye(d), 1, axis=1)
        cyc[:, 0] *= -1.0                                  # signed permutation
        out.append(Operator(cyc.astype(desc.dtype), desc))
    ddual = dual_descriptor(desc)
    out.append(rank_one(desc, unit_sphere_sample(ddual, rng),
                        unit_sphere_sample(desc, rng)))
    for _ in range(dense):
        out.append(Operator(_gaussian(desc, rng), desc))
    return out


def _perturb_dense(T: Operator, scale: float, noise: np.ndarray) -> Operator:
    base = max(np.abs(T.matrix).max(), 1e-6)
    return Operator(T.matrix + scale * base * noise, T.descriptor)


def _after_fail(scale: float, fails: int):
    """Step schedule of the descent: halve the scale after 8 failures in a row."""
    return (scale * 0.5, 0) if fails + 1 >= 8 else (scale, fails + 1)


def _minimize_ratio(candidates, draw, perturb, ratios, budget: int, rng):
    """Evaluate the candidate portfolio, then refine the best by random
    perturbation descent with shrinking step.  ``ratios`` scores a list of
    candidates; ``draw(rng)`` draws the noise of one perturbation and
    ``perturb(T, scale, noise)`` applies it.  ``budget`` (>= 1) counts ratio
    evaluations.  When the candidate list does not depend on the budget (the
    numerical, rank and absolute searches), the evaluation sequence for
    budget B is a prefix of the sequence for budget 2B under a shared seed,
    so enlarging the budget never raises the reported bound; the polynomial
    search draws more random starts for a larger budget.

    The portfolio is scored in one call.  The descent is speculative: it
    draws the next perturbations as if all of them will fail, scores them
    in one call and keeps the outcomes up to the first accepted or
    degenerate one; the rest are rebuilt around the new best from the noise
    already drawn.  A ratio is a pure function of its candidate, so the
    result equals that of a one-at-a-time descent bit for bit (``rng`` may
    end up advanced past the last draw used)."""
    if budget < 1:
        raise DegenerateInput("budget must be >= 1")
    best = None          # (ratio, candidate, method)
    evals = 0
    for T, r in zip(candidates, ratios(candidates[:budget])):
        evals += 1
        if r is not None and (best is None or r[0] < best[0] - 1e-15):
            best = (r[0], T, r[1])
        if best is not None and best[0] < EARLY_EXIT:
            return best, evals
    if best is None:
        raise DegenerateInput("no usable candidate operator")
    scale, fails, noise = 0.3, 0, []
    while evals < budget and scale > 1e-6 and best[0] >= EARLY_EXIT:
        scales, s, f = [], scale, fails
        while len(scales) < min(budget - evals, SPECULATIVE_BATCH) and s > 1e-6:
            scales.append(s)
            s, f = _after_fail(s, f)
        noise += [draw(rng) for _ in range(len(scales) - len(noise))]
        batch = [perturb(best[1], s, z) for s, z in zip(scales, noise)]
        for T2, r in zip(batch, ratios(batch)):
            evals += 1
            noise.pop(0)
            if r is None:
                break
            if r[0] < best[0] - 1e-15:
                best, fails = (r[0], T2, r[1]), 0
                break
            scale, fails = _after_fail(scale, fails)
    return best, evals


def numerical_index_estimate(desc: SpaceDescriptor, budget: int = 200,
                             rng=None, extra_starts=()) -> IndexEstimate:
    """Best-found upper bound of n(X) with its witness operator."""
    rng = _as_rng(rng)
    bounds = theoretical_bounds(desc)
    if desc.total_dim == 1:
        return IndexEstimate(1.0, ops.identity(desc), 0, "exact",
                             bounds.lower, bounds.lower_tag, desc.field)
    candidates = list(extra_starts) + _start_portfolio(desc, rng)
    best, evals = _minimize_ratio(
        candidates, partial(_gaussian, desc), _perturb_dense,
        lambda Ts: _ratios(Ts, op_norm_stack, 4, radius_stack, RADIUS_BUDGET_IN_SEARCH),
        budget, rng)
    return IndexEstimate(float(best[0]), best[1], evals, best[2],
                         bounds.lower, bounds.lower_tag, desc.field)


def rank_r_index_estimate(desc: SpaceDescriptor, r: int, budget: int = 200,
                          rng=None, extra_starts=()) -> IndexEstimate:
    """Upper bound of the rank-r index n_r(X); candidates and perturbations
    act on rank-one factor pairs so the rank constraint holds exactly.  An
    extra start is factored by its SVD; one of rank above r is rejected."""
    d = desc.total_dim
    if not (1 <= r <= d):
        raise DegenerateInput(f"rank {r} out of range 1..{d}")
    rng = _as_rng(rng)
    ddual = dual_descriptor(desc)
    factors = {}         # matrix bytes -> rank-one factor pairs (f, y)

    def factored(pairs) -> Operator:
        T = Operator(sum(np.outer(y, f) for f, y in pairs), desc)
        factors[T.matrix.tobytes()] = pairs
        return T

    def perturb(T: Operator, scale: float, noise) -> Operator:
        return factored([(f + scale * df, y + scale * dy) for (f, y), (df, dy)
                         in zip(factors[T.matrix.tobytes()], noise)])

    for T in extra_starts:
        if np.linalg.matrix_rank(T.matrix) > r:
            raise DegenerateInput(f"extra start of rank above {r}")
        u, s, vh = np.linalg.svd(T.matrix)
        factors[T.matrix.tobytes()] = [(vh[i], s[i] * u[:, i]) for i in range(r)]
    candidates = list(extra_starts) + [
        factored([(unit_sphere_sample(ddual, rng), unit_sphere_sample(desc, rng))
                  for _ in range(r)]) for _ in range(8)]
    best, evals = _minimize_ratio(
        candidates, lambda _rng: [_gaussian(desc, _rng, (2, d)) for _ in range(r)],
        perturb, lambda Ts: _ratios(Ts, op_norm_stack, 4, radius_stack,
                                    RADIUS_BUDGET_IN_SEARCH),
        budget, rng)
    if r == 1:
        lb, tag = INV_E, "rank-one-lower-bound"
    else:
        b = theoretical_bounds(desc)
        lb, tag = b.lower, b.lower_tag
    return IndexEstimate(float(best[0]), best[1], evals, best[2], lb, tag,
                         desc.field)


def absolute_index_estimate(desc: SpaceDescriptor, budget: int = 200,
                            rng=None) -> IndexEstimate:
    """Upper bound of the absolute index |n| on flat lp^m, 1 < p < inf,
    reported next to the closed-form target 1 / (p^{1/p} q^{1/q})."""
    if not desc.is_flat or not (1.0 < desc.p < math.inf) or desc.total_dim < 2:
        raise DegenerateInput("absolute index needs flat lp^m, 1 < p < inf, m >= 2")
    rng = _as_rng(rng)
    p = desc.p
    q = p / (p - 1.0)
    target = 1.0 / (p ** (1.0 / p) * q ** (1.0 / q))
    best, evals = _minimize_ratio(
        _start_portfolio(desc, rng), partial(_gaussian, desc), _perturb_dense,
        lambda Ts: _ratios(Ts, op_norm_stack, 8, absolute_radius_stack,
                           RADIUS_BUDGET_IN_SEARCH),
        budget, rng)
    b = theoretical_bounds(desc)
    return IndexEstimate(float(best[0]), best[1], evals, best[2],
                         b.lower, b.lower_tag, desc.field, target=target)


def poly_index_estimate(desc: SpaceDescriptor, k: int, budget: int = 60,
                        rng=None) -> IndexEstimate:
    """Upper bound of the order-k polynomial index over random symmetric
    coefficient tensors with perturbation descent.  The candidates are the
    structured portfolio at k = 1, then random tensors up to
    ``max(budget // 4, 2)`` candidates in all."""
    shape = poly_shape(desc, k)
    rng = _as_rng(rng)
    candidates = []
    if k == 1:
        # order 1 is the classical index; reuse the structured portfolio
        candidates = [HomogeneousPolynomial(1, T.matrix, desc)
                      for T in _start_portfolio(desc, rng)]
    candidates += [HomogeneousPolynomial(k, _gaussian(desc, rng, shape), desc)
                   for _ in range(max(budget // 4, 2) - len(candidates))]
    best, evals = _minimize_ratio(
        candidates, partial(_gaussian, desc, shape=shape),
        lambda P, scale, noise: HomogeneousPolynomial(k, P.tensor + scale * noise, desc),
        lambda Ps: _ratios(Ps, poly_norm_stack, RADIUS_BUDGET_IN_SEARCH,
                           partial(radius_stack, method="ascent"),
                           RADIUS_BUDGET_IN_SEARCH),
        budget, rng)
    bounds = theoretical_bounds(desc)
    lb = bounds.lower if k == 1 else 0.0
    tag = bounds.lower_tag if k == 1 else "polynomial-range"
    return IndexEstimate(float(best[0]), best[1], evals, best[2], lb, tag,
                         desc.field)
