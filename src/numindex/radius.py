"""Numerical radius, absolute numerical radius and polynomial radius.

One engine, :func:`radius_stack`, for a stack of operators or homogeneous
polynomials, both pairings and three backends; :func:`numerical_radius`,
:func:`absolute_radius` and the grid oracle are its one-member calls.  The
degree of the map, not its class, decides which backends apply:

* ``ascent``    -- multi-start sphere maximization over the unit sphere, of
                   X* for T* where that side is smooth (:func:`_ascent_side`);
* ``enumerate`` -- exact finite enumeration on flat l1 / linf spaces, for
                   the numerical radius of every degree-1 map;
* ``grid``      -- dense sweep of a nested mesh of at most two angles
                   (real dimension <= 3, complex <= 2), the independent
                   oracle; its value never falls when the resolution doubles.

At every unit x one rule, :func:`_functional`, picks the norming functional
x*: on spaces isometric to flat l1 / linf, where a corner of the ball has a
whole face of them, the one that maximizes |x*(Tx)|, and the canonical J(x)
elsewhere.  One scale-invariant objective, :func:`radius_objective`, scores
|x*(Tx)| or, for the absolute radius, sum_i |x*_i| |(Tx)_i| for the ascent
and the grid, and every estimate stores x* with a unit x of X as its witness
pair and re-derives the same value from that pair, so reported values are
certified lower bounds of the radius (the enumeration's is the closed form).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import (_apply_rows, _exact_norm, adjoint, apply, op_norm,
                        operator_stack)
from .optimize import check_stack, maximize_stack
from .spaces import (COMPLEX, DegenerateInput, NormingPair, SpaceDescriptor,
                     SpaceError, conj_sign, dual_descriptor, eval_pair, norm, phase)

#: default restart budget for the ascent backend
DEFAULT_RESTARTS = 64
#: most points the grid oracle sweeps (about 2.1M at resolution 10^6)
GRID_POINT_CAP = 1 << 22


class BudgetExceeded(SpaceError):
    """Grid oracle requested beyond its dimension cap."""


@dataclass(frozen=True)
class RadiusEstimate:
    value: float
    witness: NormingPair
    method: str               # ascent | enumerate | grid
    evals: int

    @property
    def guarantee(self) -> str:
        """Only the enumeration is exact; other values re-derive from the witness."""
        return "exact-enumeration" if self.method == "enumerate" else "certified-lower-bound"


def _estimate_at(T, x: np.ndarray, method: str, evals: int,
                 absolute: bool = False) -> RadiusEstimate:
    """Estimate at the unit x: the functional x* of :func:`_functional`
    against Tx, stored with x as the witness pair, and the value re-derived
    from that pair, |x*(Tx)| or, for the absolute radius, sum_i |x*_i| |(Tx)_i|."""
    image = apply(T, x)
    f = _functional(T.descriptor, x[None], image[None])[0]
    value = np.sum(np.abs(f) * np.abs(image)) if absolute else abs(eval_pair(f, image))
    return RadiusEstimate(float(value), NormingPair.of(T.descriptor, x, f), method, evals)


def _functional(desc: SpaceDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows f of Pi(X) at the unit rows x.  On spaces isometric to flat l1
    (p = 1) or linf, the functional of the dual face that maximizes
    |f . y_b|: at p = 1 the sign of x on its support and, off it, the sign
    of y turned to the phase of the support's sum; at p = inf the extreme
    functional at the max-modulus coordinate of x with the largest |y_i|,
    the first one on ties.  Everywhere else the canonical J(x)."""
    if not desc.is_l1_linf:
        return desc.plan.norming(x)[0]
    a = np.abs(x)
    f = conj_sign(x, a)
    if desc.uniform_exponent == 1:
        s = phase((f * y).sum(axis=1, keepdims=True))
        return np.where(a > 0, f, np.conj(phase(y)) * s)
    top = a >= a.max(axis=1, keepdims=True) - 1e-15
    i = np.argmax(np.where(top, np.abs(y), -1.0), axis=1)
    return f * (np.arange(x.shape[1]) == i[:, None])


def radius_objective(T, absolute: bool = False):
    """Rows x of problem k -> |x*(T_k x)| or, if ``absolute``,
    sum_i |x*_i| |(T_k x)_i|, over ||x||^degree, with x* from :func:`_functional`
    at x / ||x||: scale-invariant, 0 on a zero row, the value :func:`_estimate_at`
    re-derives at a unit x, whose sup is the radius of T_k.  One pass of the
    norm plan gives J(x) and ||x||; the l1 / linf face rule's tie tolerance is
    absolute, so there rows are normalized first.  ``T`` is one operator or
    polynomial, or a stack of them sharing a descriptor and degree."""
    desc, m = operator_stack(T)
    plan, degree, face = desc.plan, m.ndim - 2, desc.is_l1_linf

    def g(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        if face:
            x = x / np.where((n := plan.norm(x)) > 0, n, np.inf)[:, None]
        y = _apply_rows(m, x, k)
        f, n = (_functional(desc, x, y), 1.0) if face else plan.norming(x)
        v = (np.abs(f) * np.abs(y)).sum(axis=1) if absolute else np.abs((f * y).sum(axis=1))
        return v / np.where(n > 0, n, np.inf) ** degree

    return g


def numerical_radius(T, method: str = "auto", budget: int = DEFAULT_RESTARTS,
                     rng=None, resolution: int = 2000) -> RadiusEstimate:
    """Supremum estimate of |x*(T x)| over norming pairs, for an operator or
    a polynomial ``T``: the one-member call of :func:`radius_stack`."""
    return radius_stack([T], budget, [np.random.default_rng(rng)], method, resolution)[0]


def _backend(T, method: str, absolute: bool = False) -> str:
    """The backend ``method`` names for the numerical radius of ``T`` or, if
    ``absolute``, its absolute radius: ``ascent`` and ``grid`` always,
    ``enumerate`` for the numerical radius of a degree-1 map only, operator
    or polynomial, which ``auto`` picks on spaces isometric to flat l1/linf,
    where the ascent can stall (at 0 for the linf shift); ``auto`` is the
    ascent everywhere else."""
    linear = not absolute and T.degree == 1
    quantity = "absolute" if absolute else "numerical" if linear else "polynomial"
    backends = (("auto", "ascent", "enumerate", "grid") if linear
                else ("auto", "ascent", "grid"))
    if method not in backends:
        raise DegenerateInput(f"the {quantity} radius has no {method!r} backend; "
                              f"choose {', '.join(backends[:-1])} or {backends[-1]}")
    if method != "auto":
        return method
    exact = linear and T.descriptor.is_l1_linf
    return "enumerate" if exact else "ascent"


def radius_stack(Ts, budget: int, rngs, method: str = "auto", resolution: int = 2000,
                 absolute: bool = False) -> list[RadiusEstimate]:
    """The radius engine: the numerical radius or, if ``absolute``, the
    absolute radius of every operator, or every polynomial of one degree, of
    a stack sharing one descriptor, by the backend :func:`_backend` picks for
    ``method``.  The ascents run as one batch, member k drawing from
    ``rngs[k]``, on the side of the duality :func:`_ascent_side` picks; the
    grid sweeps each member on its own.  Every estimate is re-derived on X
    and equals the one-member call bit for bit."""
    check_stack(Ts, rngs)
    if not Ts:
        return []
    backend = _backend(Ts[0], method, absolute)
    if backend == "enumerate":
        return [radius_enumerate(T) for T in Ts]
    desc, _ = operator_stack(Ts)      # a mixed stack fails before any adjoint
    side = desc if backend == "grid" else _ascent_side(Ts[0], absolute)
    objective = radius_objective(Ts if side is desc else [adjoint(T) for T in Ts], absolute)
    if backend == "grid":
        found = [_grid_sweep(desc, resolution, objective, k) for k in range(len(Ts))]
    else:
        found = [(x, n) for x, _, n in maximize_stack(side, objective, rngs, budget)]
    if side is not desc:      # the unit phi of X* is J(x) at x = conj(J(phi)) of X
        found = [(np.conj(side.plan.norming(phi[None])[0][0]), n) for phi, n in found]
    return [_estimate_at(T, x, backend, n, absolute) for T, (x, n) in zip(Ts, found)]


def _ascent_side(T, absolute: bool) -> SpaceDescriptor:
    """X* if every exponent of the tree of ``T`` lies in (1, 2], one below 2,
    and ``T`` is an operator scored for its numerical radius: nu(T*) = nu(T)
    (Bonsall & Duncan, *Numerical Ranges of Operators on Normed Spaces*, 1971),
    and J carries |x_i|^(p-1), whose cusps at zero coordinates slow the
    ascent on X, but is smooth on X*, whose exponents are >= 2.  X otherwise."""
    desc = T.descriptor
    exps = desc.exponents
    smooth_dual = exps and 1 < min(exps) < 2 and max(exps) <= 2
    return dual_descriptor(desc) if smooth_dual and T.degree == 1 and not absolute else desc


# ---------------------------------------------------------------------------
# exact enumeration on flat l1 / linf
# ---------------------------------------------------------------------------

def radius_enumerate(T) -> RadiusEstimate:
    """Exact nu(T) of a degree-1 map, operator or polynomial, on spaces
    isometric to flat l1 or linf.

    These spaces have numerical index 1, so nu(T) = ||T||: the value and x
    are the exact operator norm and its witness, and the functional is the
    one :func:`_functional` picks at x, which attains it.
    """
    desc = T.descriptor
    if T.degree != 1 or not desc.is_l1_linf:
        raise DegenerateInput("enumeration needs a degree-1 map on a flat (or "
                              "uniformly nested) l1/linf descriptor")
    exact = _exact_norm(T)
    est = _estimate_at(T, exact.witness, "enumerate", desc.total_dim)
    return replace(est, value=exact.value)


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def radius_grid_oracle(T, resolution: int = 2000) -> RadiusEstimate:
    """Deterministic dense sphere sweep of an operator or polynomial;
    independent lower-bound oracle.

    Real descriptors up to dimension 3, complex up to dimension 2 (the grid
    of :func:`_grid_points` is a mesh of at most two angles).  The grid at
    resolution 2r holds every point of the grid at r, so the value never
    decreases when the resolution doubles.  On spaces isometric to flat
    l1 / linf every grid point scores the best functional of its dual face,
    as :func:`radius_objective` does everywhere.
    """
    return radius_stack([T], DEFAULT_RESTARTS, [None], "grid", resolution)[0]


def _grid_sweep(desc: SpaceDescriptor, resolution: int, objective, k: int):
    """(point, grid size) of the first best row of problem ``k`` of a batched,
    scale-invariant objective over the direction grid; only that row is
    normalized, into a new array, so a stored witness does not keep the grid."""
    xs = _grid_points(desc, resolution).astype(desc.dtype)
    best = xs[int(np.argmax(objective(xs, np.full(len(xs), k))))]
    return best / norm(desc, best), len(xs)


# ---------------------------------------------------------------------------
# absolute numerical radius
# ---------------------------------------------------------------------------

def absolute_radius(T, budget: int = DEFAULT_RESTARTS, rng=None,
                    method: str = "ascent", resolution: int = 2000) -> RadiusEstimate:
    """Absolute numerical radius |nu|(T) of a degree-1 map on a flat lp^m,
    1 <= p < inf."""
    desc = T.descriptor
    if T.degree != 1 or not desc.is_flat or desc.p == math.inf:
        raise DegenerateInput("absolute radius needs a degree-1 map on a flat "
                              "lp^m with finite p")
    return radius_stack([T], budget, [np.random.default_rng(rng)], method, resolution,
                        absolute=True)[0]


# ---------------------------------------------------------------------------
# polynomial numerical radius
# ---------------------------------------------------------------------------

def poly_radius(P, budget: int = DEFAULT_RESTARTS, rng=None,
                method: str = "ascent", resolution: int = 2000) -> RadiusEstimate:
    """nu(P) = sup |J(x) . P(x)| over the unit sphere: :func:`numerical_radius`
    of a polynomial."""
    return numerical_radius(P, method, budget, rng, resolution)


def poly_norm(P, budget: int = DEFAULT_RESTARTS, rng=None):
    """(sup ||P(x)|| over the unit sphere, attaining x): a certified lower
    bound, the value and witness of :func:`~numindex.operators.op_norm`."""
    est = op_norm(P, budget, rng)
    return est.value, est.witness


def _grid_points(desc: SpaceDescriptor, resolution: int) -> np.ndarray:
    """Direction grid of the grid oracle: a mesh of at most two angles, one
    per real and two per complex coordinate after the first.  The real
    circle takes ``resolution`` angles; the two-angle meshes take n + 1
    polar angles on [0, pi] (real 2-sphere) or [0, pi/2] (complex pair,
    global phase fixed so the first coordinate is real and >= 0) and 2n
    azimuth angles, n the least power of two above isqrt(resolution) and at
    least 16.  Doubling the resolution keeps or doubles every angle count
    and the power-of-two steps are exact, so the grid at 2r holds every row
    of the grid at r bit for bit.  Real grids always include the +-1/0 kink
    directions so the sweep is sharp at the extreme points of l1/linf balls;
    an even n puts the corners |x1| = |x2| of the complex linf ball on it."""
    if resolution < 1:
        raise DegenerateInput(f"grid resolution must be >= 1, got {resolution}")
    d, angles = desc.total_dim, (2 if desc.field == COMPLEX else 1)
    if (d - 1) * angles > 2:
        raise BudgetExceeded(
            f"grid oracle capped at dimension {1 + 2 // angles} for {desc.field} spaces")
    if d == 1:
        return np.ones((1, 1), dtype=complex) if angles == 2 else np.array([[1.0], [-1.0]])
    circle = angles == 1 and d == 2
    n = max(16, 1 << math.isqrt(resolution).bit_length())
    rows = (resolution if circle else 2 * n * (n + 1)) + (3 ** d - 1) * (angles == 1)
    if rows > GRID_POINT_CAP:
        raise DegenerateInput(f"grid resolution {resolution} needs {rows} points, "
                              f"more than the cap of {GRID_POINT_CAP}")
    if circle:
        th = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        xs = np.column_stack([np.cos(th), np.sin(th)])
    else:
        th, ph = (a.ravel() for a in np.meshgrid(
            np.linspace(0.0, np.pi / angles, n + 1),
            np.linspace(0.0, 2 * np.pi, 2 * n, endpoint=False), indexing="ij"))
        if angles == 2:
            return np.column_stack([np.cos(th).astype(complex), np.sin(th) * np.exp(1j * ph)])
        xs = np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    corners = np.array([c for c in itertools.product((-1.0, 0.0, 1.0), repeat=d)
                        if any(c)])
    return np.vstack([xs, corners])
