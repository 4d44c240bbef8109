"""Numerical radius, absolute numerical radius and polynomial radius.

Three backends behind one entry point:

* ``ascent``    -- multi-start sphere maximization of |J(x) . Tx| over the
                   dense all-coordinates-nonzero set, where the canonical
                   norming functional J is a closed form of x;
* ``enumerate`` -- exact finite enumeration on flat l1 / linf spaces;
* ``grid``      -- brute-force dense sphere sweep of an operator or
                   polynomial for small dimensions, used as the independent
                   oracle; on l1 / linf it maximizes over the dual face at
                   every grid point.

Every estimate carries a norming-pair witness from which the value can be
re-derived, so reported values are certified lower bounds of the radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import (HomogeneousPolynomial, Operator, OperatorNormEstimate,
                        _apply_rows, _as_rng, operator_stack, poly_apply)
from .optimize import maximize_stack
from .spaces import (COMPLEX, DegenerateInput, NormingPair, SpaceDescriptor,
                     conj_sign, eval_pair, phase)

#: default restart budget for the ascent backend
DEFAULT_RESTARTS = 64

GRID_DIM_CAP_REAL = 3
GRID_DIM_CAP_COMPLEX = 2


class BudgetExceeded(ValueError):
    """Grid oracle requested beyond its dimension cap."""


@dataclass(frozen=True)
class RadiusEstimate:
    value: float
    witness: NormingPair
    method: str               # ascent | enumerate | grid
    guarantee: str            # certified-lower-bound | exact-enumeration
    evals: int


def _estimate_at(T, x: np.ndarray, method: str, guarantee: str, evals: int,
                 xstar: np.ndarray | None = None) -> RadiusEstimate:
    """Estimate re-derived from the witness pair at x: through the canonical
    J at x / ||x||, or with the given unit x and functional ``xstar``."""
    pair = (NormingPair.at(T.descriptor, x) if xstar is None
            else NormingPair.of(T.descriptor, x, xstar))
    image = T.matrix @ pair.x if isinstance(T, Operator) else poly_apply(T, pair.x)
    value = abs(eval_pair(pair.xstar, image))
    return RadiusEstimate(float(value), pair, method, guarantee, evals)


def radius_objective(T):
    """Unit rows x of problem k -> |J(x) . T_k(x)|, the quantity whose sup
    over Pi(X) is nu(T_k); ``T`` is one operator or polynomial, or a stack of
    them sharing a descriptor and degree."""
    desc, m = operator_stack(T)
    plan = desc.plan

    def g(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        f, _ = plan.norming(x)
        return np.abs(np.sum(f * _apply_rows(m, x, k), axis=1))

    return g


def numerical_radius(T: Operator, method: str = "auto",
                     budget: int = DEFAULT_RESTARTS,
                     rng=None, resolution: int = 2000,
                     extra_starts=()) -> RadiusEstimate:
    """Supremum estimate of |x*(Tx)| over norming pairs.

    ``auto`` dispatch: flat (or uniformly nested) l1/linf -> enumerate;
    everything else -> ascent.  The grid backend must be requested
    explicitly and is capped at small dimension.
    """
    desc = T.descriptor
    if method == "auto":
        method = _auto_method(desc)
    if method == "enumerate":
        return radius_enumerate(T)
    if method == "grid":
        return radius_grid_oracle(T, resolution)
    if method == "ascent":
        return radius_ascent(T, budget=budget, rng=rng, extra_starts=extra_starts)
    raise ValueError(f"unknown radius method {method!r}")


def _auto_method(desc: SpaceDescriptor) -> str:
    """Flat (or uniformly nested) l1/linf -> enumerate; everything else -> ascent."""
    return "enumerate" if desc.uniform_exponent in (1.0, math.inf) else "ascent"


def radius_ascent(T: Operator, budget: int = DEFAULT_RESTARTS, rng=None,
                  extra_starts=()) -> RadiusEstimate:
    """Multi-start local maximization of |J(x) . Tx| over the unit sphere."""
    return radius_stack([T], budget, [_as_rng(rng)], extra_starts, "ascent")[0]


def radius_stack(Ts, budget: int, rngs, extra_starts=(),
                 method: str = "auto") -> list[RadiusEstimate]:
    """``numerical_radius`` (auto or ascent) of every operator of a stack
    sharing one descriptor, operator k drawing from ``rngs[k]``; the ascents
    run as one batch and equal the one-operator calls bit for bit.  With
    ``method="ascent"`` the stack may hold polynomials of one degree
    instead (:func:`poly_radius`)."""
    if method == "auto" and _auto_method(Ts[0].descriptor) == "enumerate":
        return [radius_enumerate(T) for T in Ts]
    found = maximize_stack(Ts[0].descriptor, radius_objective(Ts), rngs,
                           restarts=budget, extra_starts=extra_starts)
    return [_estimate_at(T, x, "ascent", "certified-lower-bound", evals)
            for T, (x, _, evals) in zip(Ts, found)]


# ---------------------------------------------------------------------------
# exact enumeration on flat l1 / linf
# ---------------------------------------------------------------------------

def radius_enumerate(T: Operator) -> RadiusEstimate:
    """Exact nu(T) on spaces isometric to flat l1 or linf.

    These spaces have numerical index 1, so nu(T) = ||T||: the largest
    column sum of |T_ij| on l1^m, the largest row sum on linf^m.  The witness
    attains it: on l1^m x = e_i at the best column i with the face
    functional aligned with that column entrywise; on linf^m dually, the
    functional e_i at the best row i with x aligned with that row.
    """
    desc = T.descriptor
    p = desc.uniform_exponent
    if p not in (1.0, math.inf):
        raise DegenerateInput("enumeration needs a flat (or uniformly nested) "
                              "l1/linf descriptor")
    m = T.matrix
    d = desc.total_dim
    # l1: x = e_i with the face functional aligned with column i;
    # linf dually: f = e_i with x aligned with row i
    lines = m.T if p == 1 else m
    vals = np.abs(lines).sum(axis=1)
    i = int(np.argmax(vals))
    e = np.zeros(d, dtype=desc.dtype)
    e[i] = 1.0
    aligned = np.conj(phase(lines[i])) * phase(m[i, i])
    aligned[i] = 1.0
    x, f = (e, aligned) if p == 1 else (aligned, e)
    return RadiusEstimate(float(vals[i]), NormingPair.of(desc, x, f), "enumerate",
                          "exact-enumeration", d)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def radius_grid_oracle(T, resolution: int = 2000) -> RadiusEstimate:
    """Deterministic dense sphere sweep of an operator or polynomial;
    independent lower-bound oracle.

    Real descriptors up to dimension 3, complex up to dimension 2.  On
    real 2-dim spaces the value never decreases when the resolution doubles
    (those angle grids are nested; the others are not).  On spaces
    isometric to flat l1 / linf every grid point scores the best functional
    of its dual face, and the winner's is the witness.
    """
    desc, m = operator_stack(T)
    p = desc.uniform_exponent
    if p not in (1.0, math.inf):
        _, x, n = _grid_sweep(desc, resolution, radius_objective(T))
        return _estimate_at(T, x, "grid", "certified-lower-bound", n)

    def face(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        y = _apply_rows(m, x, k)
        return np.abs(np.sum(_face_functional(p, x, y) * y, axis=1))

    _, x, n = _grid_sweep(desc, resolution, face)
    f = _face_functional(p, x[None], _apply_rows(m, x[None], None))[0]
    return _estimate_at(T, x, "grid", "certified-lower-bound", n, xstar=f)


def _face_functional(p: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows f of the dual face at the unit rows x of a space isometric to
    flat l1 (p = 1) or linf that maximize |f . y_b|: at p = 1 the sign of x
    on its support and, off it, the sign of y turned to the phase of the
    support's sum; at p = inf the extreme functional at the max-modulus
    coordinate of x with the largest |y_i|, the first one on ties."""
    a = np.abs(x)
    f = conj_sign(x, a)
    if p == 1:
        s = phase(np.sum(f * y, axis=1, keepdims=True))
        return np.where(a > 0, f, np.conj(phase(y)) * s)
    top = a >= a.max(axis=1, keepdims=True) - 1e-15
    i = np.argmax(np.where(top, np.abs(y), -1.0), axis=1)
    return f * (np.arange(x.shape[1]) == i[:, None])


def _complex_grid(resolution: int) -> np.ndarray:
    # an even angle count puts t = pi/4, the corners |x1| = |x2| of the
    # linf ball, on the grid
    n = max(int(math.isqrt(resolution)), 8)
    n += n % 2
    t = np.linspace(0.0, np.pi / 2, n + 1)
    ph = np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False)
    TT, PP = np.meshgrid(t, ph, indexing="ij")
    # global phase fixed: first coordinate real nonnegative
    return np.column_stack([np.cos(TT).ravel().astype(complex),
                            (np.sin(TT) * np.exp(1j * PP)).ravel()])


def _grid_sweep(desc: SpaceDescriptor, resolution: int, objective):
    """(value, point, grid size) of the best row of a batched objective over
    the direction grid normalized onto the unit sphere; the first maximal
    row wins."""
    xs = _grid_points(desc, resolution).astype(desc.dtype)
    xs = xs / desc.plan.norm(xs)[:, None]
    vals = objective(xs, np.zeros(len(xs), dtype=int))
    k = int(np.argmax(vals))
    return float(vals[k]), xs[k], len(xs)


# ---------------------------------------------------------------------------
# absolute numerical radius
# ---------------------------------------------------------------------------

def absolute_radius_objective(T):
    """Unit rows x (flat lp^m) of problem k -> sum_i |x_i|^{p-1} |(T_k x)_i|
    (weight 1 at p=1); ``T`` is one operator or a stack sharing a descriptor."""
    desc, m = operator_stack(T)
    pm1 = desc.p - 1.0

    def h(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        return (np.abs(x) ** pm1 * np.abs(_apply_rows(m, x, k))).sum(axis=1)

    return h


def _ascent_or_grid(method: str, quantity: str) -> str:
    """``method`` of an estimator with only the ascent (alias ``auto``) and
    grid backends; any other backend is rejected by name."""
    if method not in ("auto", "ascent", "grid"):
        raise DegenerateInput(f"the {quantity} has no {method!r} backend; "
                              f"choose auto, ascent or grid")
    return method


def absolute_radius(T: Operator, budget: int = DEFAULT_RESTARTS, rng=None,
                    method: str = "ascent", resolution: int = 2000,
                    extra_starts=()) -> RadiusEstimate:
    """Absolute numerical radius |nu|(T) on a flat lp^m, 1 <= p < inf."""
    desc = T.descriptor
    if not desc.is_flat or desc.p == math.inf:
        raise DegenerateInput("absolute radius needs a flat lp^m with finite p")
    if _ascent_or_grid(method, "absolute radius") == "grid":
        val, x, n = _grid_sweep(desc, resolution, absolute_radius_objective(T))
        return RadiusEstimate(val, NormingPair.at(desc, x), "grid",
                              "certified-lower-bound", n)
    return absolute_radius_stack([T], budget, [_as_rng(rng)], extra_starts)[0]


def absolute_radius_stack(Ts, budget: int, rngs, extra_starts=()) -> list[RadiusEstimate]:
    """Ascent :func:`absolute_radius` of every operator of a stack sharing one
    flat lp^m descriptor, 1 <= p < inf."""
    desc = Ts[0].descriptor
    found = maximize_stack(desc, absolute_radius_objective(Ts), rngs,
                           restarts=budget, extra_starts=extra_starts)
    return [RadiusEstimate(val, NormingPair.at(desc, x), "ascent",
                           "certified-lower-bound", evals) for x, val, evals in found]


# ---------------------------------------------------------------------------
# polynomial numerical radius
# ---------------------------------------------------------------------------

def poly_radius(P: HomogeneousPolynomial, budget: int = DEFAULT_RESTARTS,
                rng=None, method: str = "ascent",
                resolution: int = 2000) -> RadiusEstimate:
    """nu(P) = sup |J(x) . P(x)| over the unit sphere; the ascent is the
    one-polynomial case of :func:`radius_stack`, the grid
    :func:`radius_grid_oracle`."""
    if _ascent_or_grid(method, "polynomial radius") == "grid":
        return radius_grid_oracle(P, resolution)
    return radius_stack([P], budget, [_as_rng(rng)], method="ascent")[0]


def poly_norm(P: HomogeneousPolynomial, budget: int = DEFAULT_RESTARTS,
              rng=None):
    """(sup ||P(x)|| over the unit sphere, attaining x): a certified lower
    bound, the one-polynomial case of :func:`poly_norm_stack`."""
    est = poly_norm_stack([P], budget, [_as_rng(rng)])[0]
    return est.value, est.witness


def poly_norm_stack(Ps, budget: int, rngs) -> list[OperatorNormEstimate]:
    """sup ||P_k(x)|| over the unit sphere of every polynomial of a stack
    sharing one descriptor and degree, P_k drawing its ascent starts from
    ``rngs[k]``; each equals its one-polynomial call bit for bit.  The
    ascent has no fixed-point defect, so the estimates report ``nan``."""
    desc, m = operator_stack(Ps)

    def g(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        return desc.plan.norm(_apply_rows(m, x, k))

    return [OperatorNormEstimate(val, x, "ascent", math.nan)
            for x, val, _ in maximize_stack(desc, g, rngs, restarts=budget)]


def _grid_points(desc: SpaceDescriptor, resolution: int) -> np.ndarray:
    """Direction grid of the grid oracle.  Real grids always include the
    +-1/0 kink directions so the sweep is sharp at the extreme points of
    l1/linf balls; complex grids fix the global phase."""
    if resolution < 1:
        raise DegenerateInput(f"grid resolution must be >= 1, got {resolution}")
    d = desc.total_dim
    cap = GRID_DIM_CAP_COMPLEX if desc.field == COMPLEX else GRID_DIM_CAP_REAL
    if d > cap:
        raise BudgetExceeded(
            f"grid oracle capped at dimension {cap} for {desc.field} spaces")
    if desc.field == COMPLEX:
        return _complex_grid(resolution) if d == 2 else np.ones((1, 1), dtype=complex)
    corners = np.array([c for c in itertools.product((-1.0, 0.0, 1.0), repeat=d)
                        if any(c)])
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        xs = np.column_stack([np.cos(th), np.sin(th)])
    else:
        n = max(int(math.isqrt(resolution)) + 1, 16)
        th = np.linspace(0.0, np.pi, n + 1)
        ph = np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        xs = np.column_stack([(np.sin(TH) * np.cos(PH)).ravel(),
                              (np.sin(TH) * np.sin(PH)).ravel(),
                              np.cos(TH).ravel()])
        xs = xs[np.abs(xs).sum(axis=1) > 1e-12]
    return np.vstack([xs, corners])
