"""Dense operators and homogeneous polynomials on descriptor spaces.

One class, :class:`Operator`, holds the coefficient array of a map of any
degree k >= 1 on the depth-first leaf coordinates of a descriptor; where the
math differs, the degree decides.  A degree-1 map has exact column/row-sum
norms on spaces isometric to flat l1/linf; every other norm is the
duality-map fixed point of the p-norm power method (the higher-order power
method from degree 2 on), extrapolated along its own step with the plain
step as fallback.  Adjoints and compositions need degree 1.  Every value
is a certified lower bound attained by the stored witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import spaces
from .optimize import LINE_SEARCH_WIDTH, MAX_ITERS, VALUE_TOL, best_rows, check_stack
from .spaces import (COMPLEX, REAL, DegenerateInput, DescriptorMismatch,
                     SpaceDescriptor, descriptor_to_text, dual_descriptor,
                     SpaceError, parse_descriptor, phase, sphere_starts, summand)

#: dense symmetric tensors only make sense at desk scale
POLY_TENSOR_CAP = 100_000
#: most coefficients a stacked apply gathers, one copy per row
GATHER_CAP = 1 << 20


@dataclass(frozen=True)
class Operator:
    """The d x d matrix of an operator at degree 1, the (d,) * (k+1) tensor of
    P(x) = A(x, ..., x) at degree k = ``ndim - 1``: output index first, the k
    input indices symmetrized at construction."""

    matrix: np.ndarray
    descriptor: SpaceDescriptor

    def __post_init__(self):
        k = max(np.ndim(self.matrix) - 1, 1)
        a = _coefficient_array("matrix" if k == 1 else "tensor", self.matrix,
                               poly_shape(self.descriptor, k), self.descriptor)
        object.__setattr__(self, "matrix", _symmetrize(a, k))

    @property
    def degree(self) -> int:
        return self.matrix.ndim - 1

    @property
    def tensor(self) -> np.ndarray:
        return self.matrix

    @property
    def field(self) -> str:
        return self.descriptor.field


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
    method: str               # fixed-point | exact


def identity(desc: SpaceDescriptor) -> Operator:
    return Operator(np.eye(desc.total_dim, dtype=desc.dtype), desc)


def apply(T, v: np.ndarray) -> np.ndarray:
    """T(v) for an operator or a polynomial: the matrix product at degree 1,
    the contraction of the symmetric tensor with k copies of v at degree k."""
    v = spaces.check_vector(T.descriptor, v)
    m = T.matrix
    return m @ v if T.degree == 1 else _apply_rows(m[None], v[None], None)[0]


def adjoint(T: Operator) -> Operator:
    """Transpose (real) / conjugate transpose (complex) on the dual space."""
    if T.degree != 1:
        raise DegenerateInput(f"the adjoint needs a degree-1 map, got degree {T.degree}")
    m = T.matrix.conj().T if T.field == COMPLEX else T.matrix.T
    return Operator(m, dual_descriptor(T.descriptor))


def op_norm(T, budget: int = 16,
            rng: np.random.Generator | int | None = None) -> OperatorNormEstimate:
    """Certified lower bound of ||T|| with a near-attaining witness, for an
    operator or a homogeneous polynomial ``T`` (||P|| = sup ||P(x)||).

    A degree-1 map, operator or polynomial, is exact on flat (or uniformly
    nested) l1/linf descriptors.  Everything else runs the fixed point
    F(x) = J*(A(J(Px); ., x, ..., x)) of P(x) = A(x, ..., x), at degree 1
    F(x) = J*(T^adj J(Tx)), extrapolated along its own step from ``budget``
    starts.  The one-member case of :func:`op_norm_stack`.
    """
    return op_norm_stack([T], budget, [np.random.default_rng(rng)])[0]


def op_norm_stack(Ts, budget: int, rngs) -> list[OperatorNormEstimate]:
    """:func:`op_norm` of every operator or polynomial of a stack sharing one
    descriptor and degree, member k drawing its starts from ``rngs[k]``, so a
    degree-1 polynomial gets its operator's estimate.  The searches of all
    starts of all members advance together as rows of one array, each row's
    rounding independent of the others, so every estimate equals its
    one-member call bit for bit.

    A fixed-point step scores ``LINE_SEARCH_WIDTH`` normalized candidates
    x + s (F(x) - x) of a row at once: the plain step s = 1, then the row's
    multiplier times 1/2, 1, ..., 32.  The row takes the best, the earliest
    on a tie, and its multiplier becomes that s.  It stops when its value
    rises by less than ``VALUE_TOL`` or after ``MAX_ITERS`` steps, as the
    ascent does; where it falls by at least that (never at degree 1, where
    ||T.|| is convex), the row keeps its point and divides its multiplier by
    2^``LINE_SEARCH_WIDTH`` until the multiplier drops below 1e-12."""
    check_stack(Ts, rngs)
    if not Ts:
        return []
    desc, m = operator_stack(Ts)
    if m.ndim == 3 and desc.is_l1_linf:
        # the largest column sum, attained at e_j (l1), or row sum (linf)
        return [_exact_norm(T) for T in Ts]

    plan, dplan = desc.plan, dual_descriptor(desc).plan
    x = np.concatenate([sphere_starts(desc, rng, budget) for rng in rngs])
    g = np.repeat(np.arange(len(Ts)), len(x) // len(Ts))
    f, val = plan.norming(_apply_rows(m, x, g))
    # every start runs its own fixed point; the running rows, their f = J(Px)
    # and multiplier sit in compact arrays
    a, xa, ga, va, fa, sa = np.arange(len(x)), x, g, val, f, np.ones(len(x))
    w, powers = LINE_SEARCH_WIDTH, 2.0 ** np.arange(-1, LINE_SEARCH_WIDTH - 2)
    for _ in range(MAX_ITERS):
        if a.size == 0:
            break
        # A(f; ., x, ..., x), at degree 1 the bilinear adjoint of the pairing;
        # J is 0-homogeneous, so no rescaling
        fx, ng = dplan.norming(_apply_rows(m, xa, ga, fa))
        sizes = np.concatenate([np.ones((a.size, 1)), sa[:, None] * powers], axis=1)
        c = (xa[:, None] + sizes[..., None] * (fx - xa)[:, None]).reshape(-1, xa.shape[1])
        n = plan.norm(c)
        c /= np.where(n == 0.0, np.inf, n)[:, None]     # a zero candidate stays 0
        cf, cv = plan.norming(_apply_rows(m, c, ga.repeat(w)))
        best = np.arange(a.size) * w + cv.reshape(-1, w).argmax(axis=1)
        rise = cv[best] - va
        live = ng != 0.0                  # else Px = 0, or A(f; ., x, ..., x) = 0
        # a row takes its best candidate unless the value fell: a nonsmooth
        # kink stops it, a fall of the tolerance or more shrinks its multiplier
        step, fall = live & (rise >= 0), live & (rise <= -VALUE_TOL)
        xa, va = np.where(step[:, None], c[best], xa), np.where(step, cv[best], va)
        fa = np.where(step[:, None], cf[best], fa)
        sa = np.where(fall, sa * 2.0 ** -w, np.where(step, sizes.ravel()[best], sa))
        going = np.where(fall, sa >= 1e-12, live & (rise >= VALUE_TOL))
        stop = ~going
        x[a[stop]], val[a[stop]] = xa[stop], va[stop]
        a, xa, ga, va, fa, sa = a[going], xa[going], ga[going], va[going], fa[going], sa[going]
    x[a], val[a] = xa, va
    return [OperatorNormEstimate(float(val[i]), x[i].copy(), "fixed-point")
            for i in best_rows(val, g, len(Ts))]     # copies: no estimate pins x


def _exact_norm(T) -> OperatorNormEstimate:
    desc, m = T.descriptor, T.matrix
    l1 = desc.uniform_exponent == 1
    sums = np.abs(m).sum(axis=0 if l1 else 1)
    i = int(np.argmax(sums))
    w = (np.eye(desc.total_dim, dtype=desc.dtype)[i].copy() if l1
         else np.conj(phase(m[i])))
    return OperatorNormEstimate(float(sums[i]), w, "exact")


def operator_stack(T) -> tuple[SpaceDescriptor, np.ndarray]:
    """Descriptor and (K, d, ..., d) coefficient stack of one map, or of a
    list or tuple of maps sharing a descriptor and degree."""
    Ts = T if isinstance(T, (list, tuple)) else [T]
    desc, degree = Ts[0].descriptor, Ts[0].degree
    for t in Ts:
        if t.descriptor != desc or t.degree != degree:
            raise DescriptorMismatch(
                f"the maps of a stack share one space and degree, got degree "
                f"{degree} on {descriptor_to_text(desc)} and degree {t.degree} "
                f"on {descriptor_to_text(t.descriptor)}")
    return desc, np.stack([t.matrix for t in Ts])


def _apply_rows(m: np.ndarray, x: np.ndarray, g: np.ndarray, f=None) -> np.ndarray:
    """m[g_b] applied to x_b for every row of a (B, d) batch and a
    (K, d, ..., d) coefficient stack: the matrix product, or for a tensor of
    degree k = m.ndim - 2 the contraction with k copies of x_b.  With ``f``,
    the duality step of :func:`op_norm`: A(f_b; ., x_b, ..., x_b), the output
    index contracted with f_b and k - 1 inputs with x_b (m^T f_b at k = 1).
    Unlike a matmul, whose one-row case takes another BLAS path, a row's
    rounding depends on neither B nor K, so batched restarts follow exactly
    the trajectories they would follow alone (a one-member stack skips the
    gather; both forms round identically).  Where the gather would copy more
    than ``GATHER_CAP`` coefficients, the stack applies member by member."""
    if len(m) > 1 and len(x) * m[0].size > GATHER_CAP:
        out = np.empty(x.shape, dtype=np.result_type(m, x))
        for j in np.unique(g):
            on = g == j
            out[on] = _apply_rows(m[j:j + 1], x[on], None, None if f is None else f[on])
        return out
    v, m = (x, m) if f is None else (f, np.moveaxis(m, 1, -1))   # output index last
    if len(m) == 1:
        out = np.einsum("...j,bj->b...", m[0], v)
    else:
        out = np.einsum("b...j,bj->b...", m[g], v)
    for _ in range(m.ndim - 3):
        out = np.einsum("b...j,bj->b...", out, x)
    return out


def rank_one(desc: SpaceDescriptor, f: np.ndarray, y: np.ndarray) -> Operator:
    """T(x) = (f . x) y as a matrix; ||T|| = ||f||_dual ||y||."""
    f = np.asarray(f, dtype=desc.dtype)
    y = spaces.check_vector(desc, y)
    if f.shape != (desc.total_dim,):
        raise DescriptorMismatch("functional length mismatch")
    return Operator(np.outer(y, f), desc)


def compose_with_projection(L: Operator, desc: SpaceDescriptor, keep) -> Operator:
    """L on the summand of ``desc`` kept by ``keep`` (see
    :func:`~numindex.spaces.summand`) composed with the projection onto it,
    as an operator on ``desc``: the product E L E^T with the 0/1 leaf
    selector E."""
    if L.degree != 1:
        raise DegenerateInput(f"composition needs a degree-1 map, got degree {L.degree}")
    sub, leaves = summand(desc, keep)
    if L.descriptor != sub:
        raise DescriptorMismatch("operator does not act on the projected block")
    E = np.eye(desc.total_dim, dtype=desc.dtype)[:, leaves]
    return Operator(E @ L.matrix @ E.T, desc)


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
    transposes.  Rounding makes those sums depend on the order of their
    terms from degree 3 on, so each entry then takes the value at its
    sorted input indices; a step whose transposes all equal ``t`` keeps it,
    since the mean of j equal entries can round.  The result is exactly
    symmetric, and a symmetric tensor comes back bit for bit."""
    for j in range(2, k + 1):
        swaps = [np.swapaxes(t, i, j) for i in range(1, j)]
        if not all(np.array_equal(s, t) for s in swaps):
            t = sum(swaps, t + 0.0) / j        # t + 0.0 is a new array
    if k > 2:
        t = t[(slice(None), *np.sort(np.indices(t.shape[1:]), axis=0))]
    return t


# ---------------------------------------------------------------------------
# JSON matrix exchange
# ---------------------------------------------------------------------------

def operator_to_json(T: Operator) -> str:
    """The descriptor, field and row-major coefficients of a map of any degree."""
    if T.field == COMPLEX:
        entries = [[z.real, z.imag] for z in T.matrix.ravel()]
    else:
        entries = [float(x) for x in T.matrix.ravel()]
    return json.dumps({"descriptor": descriptor_to_text(T.descriptor),
                       "field": T.field,
                       "matrix": entries}, sort_keys=True)


def operator_from_json(text: str, descriptor: SpaceDescriptor | None = None) -> Operator:
    """The map whose "matrix" field holds its d^(k+1) coefficients in
    row-major order, numbers or [re, im] pairs when "field" is complex, as
    :func:`operator_to_json` writes them.  The entry count gives the degree
    k; a count that is no such power is checked against the least one above
    it.  A one-dimensional space reads as degree 1: there every degree has
    one coefficient and the same radius and norm.  ``descriptor`` replaces
    the file's own "descriptor" text.  An unknown field, a matrix that is no
    list or holds an entry of the wrong kind, or, with no ``descriptor``, a
    "descriptor" that is missing or no string, is named in a
    :class:`DescriptorMismatch`."""
    obj = json.loads(text, parse_int=float)     # an integer past the float range is inf
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise DescriptorMismatch('expected a JSON object with a "matrix" field')
    field, raw = obj.get("field", REAL), obj["matrix"]
    if field not in (REAL, COMPLEX):
        raise DescriptorMismatch(f'unknown "field" {json.dumps(field)}; '
                                 f'expected "{REAL}" or "{COMPLEX}"')
    if not isinstance(raw, list):
        raise DescriptorMismatch(f'"matrix" must be a list, got {json.dumps(raw)}')
    if descriptor is None and not isinstance(obj.get("descriptor"), str):
        got = json.dumps(obj["descriptor"]) if "descriptor" in obj else "no such field"
        raise DescriptorMismatch(f'"descriptor" must be a descriptor text, got {got}')
    desc = descriptor or parse_descriptor(obj["descriptor"], field=field)
    d, k = desc.total_dim, 1
    while d > 1 and d ** (k + 1) < len(raw):
        k += 1
    shape = poly_shape(desc, k)
    if len(raw) != d ** (k + 1):
        raise DescriptorMismatch(f"matrix field has {len(raw)} entries, expected {d ** (k + 1)}")
    entries = [_coefficient(v, i, field == COMPLEX) for i, v in enumerate(raw)]
    return Operator(np.array(entries).reshape(shape), desc)


def _coefficient(v, i: int, complex_field: bool):
    """Entry ``i`` of a "matrix" field, read with every number a float: a
    number, or an [re, im] pair of numbers in a complex file.  A JSON
    boolean is no number."""
    parts = v if complex_field and isinstance(v, list) else [v]
    if len(parts) == 1 + complex_field and all(type(x) is float for x in parts):
        return complex(*parts) if complex_field else v
    kind = "an [re, im] pair of numbers" if complex_field else "a number"
    raise DescriptorMismatch(f"matrix entry {i} is {json.dumps(v)}, not {kind}")
