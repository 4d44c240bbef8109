"""Dense operators and homogeneous polynomials on descriptor spaces.

Matrices act on the depth-first leaf coordinates of a descriptor.  Where the
math differs, the degree of the coefficient array decides, not the class that
holds it: a degree-1 map, an operator or a degree-1 polynomial alike, has
exact column/row-sum norms on spaces isometric to flat l1/linf and a
duality-map fixed point (the power-method generalization) elsewhere; degree
k >= 2 runs a sphere ascent.  Every value is a certified lower bound attained
by the stored witness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import spaces
from .optimize import best_rows, maximize_stack
from .spaces import (COMPLEX, REAL, DegenerateInput, DescriptorMismatch,
                     SpaceDescriptor, descriptor_to_text, dual_descriptor,
                     SpaceError, parse_descriptor, phase, projection_matrix,
                     sphere_starts, unit_sphere_sample)

OP_NORM_MAX_ITERS = 500
OP_NORM_VALUE_TOL = 1e-10

#: dense symmetric tensors only make sense at desk scale
POLY_TENSOR_CAP = 100_000
#: most coefficients a stacked apply gathers, one copy per row
GATHER_CAP = 1 << 20


@dataclass(frozen=True)
class Operator:
    """Square matrix bound to a descriptor (domain = codomain)."""

    matrix: np.ndarray
    descriptor: SpaceDescriptor

    def __post_init__(self):
        d = self.descriptor.total_dim
        object.__setattr__(self, "matrix", _coefficient_array(
            "matrix", self.matrix, (d, d), self.descriptor))

    @property
    def field(self) -> str:
        return self.descriptor.field

    @property
    def dim(self) -> int:
        return self.descriptor.total_dim


def _coefficient_array(what: str, a, shape: tuple, desc: SpaceDescriptor) -> np.ndarray:
    """``a`` cast to the field of ``desc`` once its shape, finiteness and
    field are checked; on a real space only zero imaginary parts pass."""
    a = np.asarray(a)
    if a.shape != shape:
        raise DescriptorMismatch(f"{what} shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise SpaceError(f"{what} has non-finite entries (NaN or infinity)")
    if desc.field == REAL and np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise DescriptorMismatch(f"complex {what} on a real descriptor")
        a = a.real
    return a.astype(desc.dtype)


@dataclass(frozen=True)
class OperatorNormEstimate:
    value: float
    witness: np.ndarray       # unit vector with ||T w|| = value
    method: str               # fixed-point | ascent | exact


def identity(desc: SpaceDescriptor) -> Operator:
    return Operator(np.eye(desc.total_dim, dtype=desc.dtype), desc)


def apply(T, v: np.ndarray) -> np.ndarray:
    """T(v) for an operator or a polynomial: the matrix product at degree 1,
    the contraction of the symmetric tensor with k copies of v at degree k."""
    v = spaces.check_vector(T.descriptor, v)
    m = coefficients(T)
    return m @ v if m.ndim == 2 else _apply_rows(m[None], v[None], None)[0]


def adjoint(T: Operator) -> Operator:
    """Transpose (real) / conjugate transpose (complex) on the dual space."""
    m = T.matrix.conj().T if T.field == COMPLEX else T.matrix.T
    return Operator(m, dual_descriptor(T.descriptor))


def op_norm(T, budget: int = 16,
            rng: np.random.Generator | int | None = None) -> OperatorNormEstimate:
    """Certified lower bound of ||T|| with a near-attaining witness, for an
    operator or a homogeneous polynomial ``T`` (||P|| = sup ||P(x)||).

    A degree-1 map, operator or polynomial, is exact on flat (or uniformly
    nested) l1/linf descriptors and runs the fixed point
    x <- J*(T^adj J(Tx)) elsewhere; degree k >= 2 runs the sphere ascent of
    ||P(x)||.  Searches start from ``budget`` starts.  The one-member case
    of :func:`op_norm_stack`.
    """
    return op_norm_stack([T], budget, [_as_rng(rng)])[0]


def op_norm_stack(Ts, budget: int, rngs) -> list[OperatorNormEstimate]:
    """:func:`op_norm` of every operator or polynomial of a stack sharing one
    descriptor and degree, member k drawing its starts from ``rngs[k]``; the
    engine follows the degree, so a degree-1 polynomial gets its operator's
    estimate.  The searches of all starts of all members advance together as
    rows of one array, each row's rounding independent of the others, so
    every estimate equals its one-member call bit for bit."""
    if not Ts:
        return []
    desc, m = operator_stack(Ts)
    if m.ndim > 3:                        # degree >= 2
        found = maximize_stack(desc, lambda x, k: desc.plan.norm(_apply_rows(m, x, k)),
                               rngs, budget)
        return [OperatorNormEstimate(val, x, "ascent") for x, val, _ in found]
    if desc.uniform_exponent in (1.0, math.inf):
        # the largest column sum, attained at e_j (l1), or row sum (linf)
        return [_exact_norm(T) for T in Ts]

    plan, dplan = desc.plan, dual_descriptor(desc).plan
    x = np.concatenate([sphere_starts(desc, rng, budget) for rng in rngs])
    g = np.repeat(np.arange(len(Ts)), len(x) // len(Ts))
    mt = m.transpose(0, 2, 1)
    val = plan.norm(_apply_rows(m, x, g))
    # every start runs its own fixed point; the running rows sit in compact arrays
    a, xa, ga, va = np.arange(len(x)), x, g, val
    for _ in range(OP_NORM_MAX_ITERS):
        if a.size == 0:
            break
        f, _ = plan.norming(_apply_rows(m, xa, ga))
        # bilinear adjoint of the pairing; J is 0-homogeneous, so no rescaling
        x_new, ng = dplan.norming(_apply_rows(mt, f, ga))
        new_val = plan.norm(_apply_rows(m, x_new, ga))
        rise = new_val - va
        live = ng != 0.0                  # else Tx = 0, or T^adj J(Tx) = 0
        # a row steps unless the value fell (a nonsmooth kink: keep the best
        # seen) and stops once it rises by less than the tolerance
        step = live & (rise >= 0)
        xa, va = np.where(step[:, None], x_new, xa), np.where(step, new_val, va)
        stop = ~live | (rise < OP_NORM_VALUE_TOL)
        going = ~stop
        x[a[stop]], val[a[stop]] = xa[stop], va[stop]
        a, xa, ga, va = a[going], xa[going], ga[going], va[going]
    x[a], val[a] = xa, va
    return [OperatorNormEstimate(float(val[i]), x[i], "fixed-point")
            for i in best_rows(val, g, len(Ts))]


def _exact_norm(T) -> OperatorNormEstimate:
    desc, m = T.descriptor, coefficients(T)
    l1 = desc.uniform_exponent == 1
    sums = np.abs(m).sum(axis=0 if l1 else 1)
    i = int(np.argmax(sums))
    w = (np.eye(desc.total_dim, dtype=desc.dtype)[i] if l1
         else np.conj(phase(m[i])))
    return OperatorNormEstimate(float(sums[i]), w, "exact")


def operator_stack(T) -> tuple[SpaceDescriptor, np.ndarray]:
    """Descriptor and (K, d, ..., d) coefficient stack of one operator or
    polynomial, or of a sequence of them sharing a descriptor and degree."""
    Ts = [T] if isinstance(T, (Operator, HomogeneousPolynomial)) else T
    return Ts[0].descriptor, np.stack([coefficients(t) for t in Ts])


def coefficients(T) -> np.ndarray:
    """The matrix of an operator, the coefficient tensor of a polynomial."""
    return T.tensor if isinstance(T, HomogeneousPolynomial) else T.matrix


def _apply_rows(m: np.ndarray, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """m[g_b] applied to x_b for every row of a (B, d) batch and a
    (K, d, ..., d) coefficient stack: the matrix product, or for a tensor of
    degree k = m.ndim - 2 the contraction with k copies of x_b.  Unlike a
    matmul, whose one-row case takes another BLAS path, a row's rounding
    depends on neither B nor K, so batched restarts follow exactly the
    trajectories they would follow alone (a one-member stack skips the
    gather; both forms round identically).  Where the gather would copy more
    than ``GATHER_CAP`` coefficients, the stack applies member by member."""
    if len(m) > 1 and len(x) * m[0].size > GATHER_CAP:
        out = np.empty(x.shape, dtype=np.result_type(m, x))
        for j in np.unique(g):
            out[g == j] = _apply_rows(m[j:j + 1], x[g == j], None)
        return out
    if len(m) == 1:
        out = np.einsum("...j,bj->b...", m[0], x)
    else:
        out = np.einsum("b...j,bj->b...", m[g], x)
    for _ in range(m.ndim - 3):
        out = np.einsum("b...j,bj->b...", out, x)
    return out


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def rank_one(desc: SpaceDescriptor, f: np.ndarray, y: np.ndarray) -> Operator:
    """T(x) = (f . x) y as a matrix; ||T|| = ||f||_dual ||y||."""
    f = np.asarray(f, dtype=desc.dtype)
    y = spaces.check_vector(desc, y)
    if f.shape != (desc.total_dim,):
        raise DescriptorMismatch("functional length mismatch")
    return Operator(np.outer(y, f), desc)


def rank_r_sample(desc: SpaceDescriptor, r: int,
                  rng: np.random.Generator | int | None = None) -> Operator:
    """Random operator of rank <= r, rescaled to op-norm estimate 1."""
    if not (1 <= r <= desc.total_dim):
        raise DegenerateInput(f"rank {r} out of range 1..{desc.total_dim}")
    rng = _as_rng(rng)
    ddual = dual_descriptor(desc)
    m = np.zeros((desc.total_dim, desc.total_dim), dtype=desc.dtype)
    for _ in range(r):
        f = unit_sphere_sample(ddual, rng)
        y = unit_sphere_sample(desc, rng)
        m += np.outer(y, f)
    T = Operator(m, desc)
    est = op_norm(T, budget=8, rng=rng)
    if est.value == 0.0:
        raise DegenerateInput("degenerate rank-r sample")
    return Operator(m / est.value, desc)


@dataclass(frozen=True)
class CoordinateProjection:
    """Norm-one projection onto a subset of top-level blocks."""

    operator: Operator
    kept: tuple[int, ...]
    sub_descriptor: SpaceDescriptor
    embed: np.ndarray        # full_dim x sub_dim, 0/1 leaf selector


def coordinate_projection(desc: SpaceDescriptor, keep) -> CoordinateProjection:
    mat = projection_matrix(desc, keep)
    kept = tuple(sorted(set(keep)))
    if len(kept) == len(desc.children):
        sub = desc
    elif len(kept) == 1:
        sub = desc.children[kept[0]]
    else:
        sub = spaces.psum(desc.p, [desc.children[i] for i in kept], desc.field)
    rows = []
    for i in kept:
        o, d = desc.child_spans[i]
        rows.extend(range(o, o + d))
    embed = np.zeros((desc.total_dim, sub.total_dim), dtype=desc.dtype)
    for c, r in enumerate(rows):
        embed[r, c] = 1.0
    return CoordinateProjection(Operator(mat, desc), kept, sub, embed)


def compose_with_projection(L: Operator, Q: CoordinateProjection) -> Operator:
    """L on the kept block composed with Q, as an operator on the full space."""
    if L.descriptor != Q.sub_descriptor:
        raise DescriptorMismatch("operator does not act on the projected block")
    E = Q.embed
    return Operator(E @ L.matrix @ E.T, Q.operator.descriptor)


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """k-homogeneous polynomial map P(x) = A(x, ..., x) on a descriptor.

    The coefficient tensor has shape (dim,) * (k+1): output index first,
    then k symmetric input indices (symmetrized at construction).
    """

    degree: int
    tensor: np.ndarray
    descriptor: SpaceDescriptor

    def __post_init__(self):
        t = _coefficient_array("tensor", self.tensor,
                               poly_shape(self.descriptor, self.degree), self.descriptor)
        object.__setattr__(self, "tensor", _symmetrize(t, self.degree))


def poly_shape(desc: SpaceDescriptor, k: int) -> tuple[int, ...]:
    """Shape (d,) * (k+1) of a degree-k coefficient tensor on ``desc``;
    rejects k < 1 and tensors beyond ``POLY_TENSOR_CAP``, before anything of
    that size is allocated."""
    d = desc.total_dim
    if k < 1:
        raise DegenerateInput("degree must be >= 1")
    if d ** k > POLY_TENSOR_CAP:
        raise DegenerateInput(f"tensor size {d}^{k} exceeds cap {POLY_TENSOR_CAP}")
    return (d,) * (k + 1)


def _symmetrize(t: np.ndarray, k: int) -> np.ndarray:
    """Average of ``t`` over the k! orders of its input indices 1..k, by
    cosets: once indices 1..j-1 are symmetric, the transpositions (i j),
    i < j, and the identity complete the average over 1..j in O(k^2)
    transposes."""
    for j in range(2, k + 1):
        acc = np.zeros_like(t)
        for i in (j, *range(1, j)):       # i == j adds t itself
            acc += np.swapaxes(t, i, j)
        t = acc / j
    return t


# ---------------------------------------------------------------------------
# JSON matrix exchange
# ---------------------------------------------------------------------------

def operator_to_json(T: Operator) -> str:
    if T.field == COMPLEX:
        entries = [[z.real, z.imag] for z in T.matrix.ravel()]
    else:
        entries = [float(x) for x in T.matrix.ravel()]
    return json.dumps({"descriptor": descriptor_to_text(T.descriptor),
                       "field": T.field,
                       "matrix": entries}, sort_keys=True)


def operator_from_json(text: str, descriptor: SpaceDescriptor | None = None) -> Operator:
    obj = json.loads(text)
    desc = descriptor or parse_descriptor(obj["descriptor"], field=obj.get("field", REAL))
    d = desc.total_dim
    return Operator(_json_entries(obj, d * d).reshape(d, d), desc)


def poly_from_json(text: str, degree: int, descriptor: SpaceDescriptor) -> HomogeneousPolynomial:
    """Degree-k polynomial whose "matrix" field holds the d^(k+1) tensor
    entries, in the operator exchange format."""
    shape = poly_shape(descriptor, degree)
    flat = _json_entries(json.loads(text), math.prod(shape))
    return HomogeneousPolynomial(degree, flat.reshape(shape), descriptor)


def _json_entries(obj: dict, size: int) -> np.ndarray:
    """The "matrix" entries: numbers, or [re, im] pairs when "field" is complex."""
    raw = obj["matrix"]
    if len(raw) != size:
        raise DescriptorMismatch(f"matrix field has {len(raw)} entries, expected {size}")
    if obj.get("field", REAL) == COMPLEX:
        return np.array([complex(re, im) for re, im in raw])
    return np.array(raw, dtype=float)
