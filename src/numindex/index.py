"""Numerical-index estimation and the theoretical comparison bounds.

The index n(X) = inf { nu(T) : ||T|| = 1 } is a nonconvex min over a
nonconvex max; every value reported here is the best-found *upper bound*,
never the true index.  Each estimate carries the tightest known interval of
the quantity it bounds; lower anchors come only from theorems (see
:func:`theoretical_bounds`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import operators as ops
from .operators import Operator, op_norm_stack, poly_shape, rank_one
from .radius import radius_stack
from .spaces import (COMPLEX, DegenerateInput, SpaceDescriptor,
                     dual_descriptor, gaussian, unit_sphere_sample)

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

#: candidates of the polynomial search, the same count at every budget
POLY_STARTS = 4


@dataclass(frozen=True)
class MpResult:
    p: float
    value: float
    argmax_t: float


def mp_curve(p: float, t):
    """|t^{p-1} - t| / (1 + t^p) at a scalar or at every entry of an array
    t in [0, 1]; finite for every finite p >= 1."""
    return abs(t ** (p - 1.0) - t) / (1.0 + t ** p)


@lru_cache(maxsize=256, typed=True)
def mp_constant(p: float) -> MpResult:
    """M_p = sup over t in [0,1] of |t^{p-1} - t| / (1 + t^p).

    Two deterministic scans: [0, 1] at 100,001 points, then the two grid
    steps around its best point at 10,001 points, clipped to [0, 1].  The
    second scan is centred on that point, so it never ends below the first,
    and an endpoint maximum (M_1 = 1 at t = 0) needs no special case.  A
    pure function of ``p`` (and of its type, which the result records), so
    each exponent is scanned once per process.
    """
    if not (1.0 <= p < math.inf):
        raise DegenerateInput("mp_constant needs finite p >= 1")
    t, half = 0.5, 0.5
    for n in (100_001, 10_001):
        ts = np.clip(t + half * np.linspace(-1.0, 1.0, n), 0.0, 1.0)
        vals = mp_curve(p, ts)
        k = int(np.argmax(vals))
        t, half = ts[k], 2.0 * half / (n - 1)
    return MpResult(p, float(vals[k]), float(t))


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
    if desc.is_l1_linf:
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
    witness_operator: Operator        # a map of the searched degree
    restarts_used: int
    radius_method: str
    bounds: BoundsInterval            # known interval of the estimated quantity

    @property
    def lower_bound_theoretical(self) -> float:
        return self.bounds.lower


def _eval_rng(T):
    """Generator keyed to the coefficients of a map of any degree, so
    its ratio is a pure function of it: re-encountering a witness (warm
    starts, embedded summand witnesses, a witness re-scored at the search's
    budgets) reproduces its ratio exactly instead of re-rolling the
    evaluation noise.  The key is the bytes of the coefficients plus 0.0,
    which turns an entry of -0.0 into +0.0, so maps equal as numbers draw
    the same noise."""
    digest = hashlib.blake2b((T.matrix + 0.0).tobytes(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _ratios(Ts, norm_budget: int, radii) -> list:
    """(nu(T) / ||T||, radius method) of every operator or polynomial of a
    stack sharing one descriptor, or None where ||T|| vanishes.  Member k's
    norm (:func:`~numindex.operators.op_norm_stack`) and then its radius
    draw from its own ``_eval_rng``; ``radii(Ts, budget, rngs)`` is the
    stacked radius estimator, run at ``RADIUS_BUDGET_IN_SEARCH``."""
    erngs = [_eval_rng(T) for T in Ts]
    values = [n.value for n in op_norm_stack(Ts, norm_budget, erngs)]
    live = [k for k, n in enumerate(values) if n >= 1e-13]
    out = [None] * len(Ts)
    if live:
        nus = radii([Ts[k] for k in live], RADIUS_BUDGET_IN_SEARCH,
                    [erngs[k] for k in live])
        for k, nu in zip(live, nus):
            out[k] = (nu.value / values[k], nu.method)
    return out


def _start_portfolio(desc: SpaceDescriptor, rng):
    """Structured candidate operators: antisymmetric, shifts, rank-one, four
    dense Gaussian.  Order is deterministic."""
    d = desc.total_dim
    out = []
    g = gaussian(desc, rng)
    out.append(Operator((g - g.T) / 2.0, desc))           # antisymmetric
    if d >= 2:
        out.append(Operator(np.eye(d, k=1, dtype=desc.dtype), desc))   # nilpotent shift
        cyc = np.roll(np.eye(d), 1, axis=1)
        cyc[:, 0] *= -1.0                                  # signed permutation
        out.append(Operator(cyc.astype(desc.dtype), desc))
    ddual = dual_descriptor(desc)
    out.append(rank_one(desc, unit_sphere_sample(ddual, rng),
                        unit_sphere_sample(desc, rng)))
    for _ in range(4):
        out.append(Operator(gaussian(desc, rng), desc))
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
    evaluations.  No search's candidate list depends on the budget, so the
    evaluation sequence for budget B is a prefix of the sequence for budget
    2B under a shared seed, and enlarging the budget never raises the
    reported bound.

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
    if budget < 1:
        raise DegenerateInput("budget must be >= 1")
    rng = np.random.default_rng(rng)
    bounds = theoretical_bounds(desc)
    if desc.total_dim == 1:
        return IndexEstimate(1.0, ops.identity(desc), 0, "exact", bounds)
    candidates = list(extra_starts) + _start_portfolio(desc, rng)
    best, evals = _minimize_ratio(
        candidates, partial(gaussian, desc), _perturb_dense,
        lambda Ts: _ratios(Ts, 4, radius_stack),
        budget, rng)
    return IndexEstimate(float(best[0]), best[1], evals, best[2], bounds)


def rank_r_index_estimate(desc: SpaceDescriptor, r: int, budget: int = 200,
                          rng=None) -> IndexEstimate:
    """Upper bound of the rank-r index n_r(X); candidates and perturbations
    act on rank-one factor pairs so the rank constraint holds exactly."""
    d = desc.total_dim
    if not (1 <= r <= d):
        raise DegenerateInput(f"rank {r} out of range 1..{d}")
    rng = np.random.default_rng(rng)
    ddual = dual_descriptor(desc)

    def operator(F) -> Operator:
        # the operator of the (r, 2, d) factor pairs (f, y)
        return Operator(sum(np.outer(y, f) for f, y in F), desc)

    candidates = [np.array([(unit_sphere_sample(ddual, rng), unit_sphere_sample(desc, rng))
                            for _ in range(r)]) for _ in range(8)]
    best, evals = _minimize_ratio(
        candidates, lambda _rng: np.array([gaussian(desc, _rng, (2, d)) for _ in range(r)]),
        lambda F, scale, noise: F + scale * noise,
        lambda Fs: _ratios([operator(F) for F in Fs], 4, radius_stack),
        budget, rng)
    # n_r(X) >= n(X), and n_1(X) >= 1/e on every space
    n = theoretical_bounds(desc)
    lb, tag = n.lower, n.lower_tag
    if r == 1 and INV_E >= lb:
        lb, tag = INV_E, "rank-one-lower-bound"
    return IndexEstimate(float(best[0]), operator(best[1]), evals, best[2],
                         BoundsInterval(lb, 1.0, tag, "index-range"))


def absolute_index_estimate(desc: SpaceDescriptor, budget: int = 200,
                            rng=None) -> IndexEstimate:
    """Upper bound of the absolute index |n| on flat lp^m, 1 < p < inf.  It
    lies above n(X), since |nu| >= nu, and at most 1 / (p^{1/p} q^{1/q}):
    the shift x -> x_2 e_1 has norm 1 and absolute radius
    sup |x_1|^{p-1} |x_2|, which is that value by weighted AM-GM."""
    if not desc.is_flat or not (1.0 < desc.p < math.inf) or desc.total_dim < 2:
        raise DegenerateInput("absolute index needs flat lp^m, 1 < p < inf, m >= 2")
    rng = np.random.default_rng(rng)
    p = desc.p
    q = p / (p - 1.0)
    best, evals = _minimize_ratio(
        _start_portfolio(desc, rng), partial(gaussian, desc), _perturb_dense,
        lambda Ts: _ratios(Ts, 8, partial(radius_stack, absolute=True)),
        budget, rng)
    n = theoretical_bounds(desc)
    shift = 1.0 / (p ** (1.0 / p) * q ** (1.0 / q))
    return IndexEstimate(float(best[0]), best[1], evals, best[2],
                         BoundsInterval(n.lower, shift, n.lower_tag, "rank-one-shift"))


def poly_index_estimate(desc: SpaceDescriptor, k: int, budget: int = 60,
                        rng=None) -> IndexEstimate:
    """Upper bound of the order-k polynomial index.  Order 1 is the
    numerical index n(X) itself, so k = 1 returns
    :func:`numerical_index_estimate`; for k >= 2 the search runs perturbation
    descent over random symmetric coefficient tensors from ``POLY_STARTS``
    candidates, whatever the budget.  A bad degree is rejected before any
    draw."""
    shape = poly_shape(desc, k)
    if k == 1:
        return numerical_index_estimate(desc, budget, rng)
    rng = np.random.default_rng(rng)
    candidates = [Operator(gaussian(desc, rng, shape), desc) for _ in range(POLY_STARTS)]
    best, evals = _minimize_ratio(
        candidates, partial(gaussian, desc, shape=shape),
        lambda P, scale, noise: Operator(P.matrix + scale * noise, desc),
        lambda Ps: _ratios(Ps, RADIUS_BUDGET_IN_SEARCH, radius_stack),
        budget, rng)
    return IndexEstimate(float(best[0]), best[1], evals, best[2],
                         BoundsInterval(0.0, 1.0, "polynomial-range", "index-range"))
