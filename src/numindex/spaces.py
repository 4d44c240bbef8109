"""Finite-dimensional Banach spaces built from nested p-sums.

A space is described by a recursive tree: scalar leaves combined by
PSum nodes with exponent p in [1, inf].  Coordinates are flattened
depth-first left-to-right, so every vector on a descriptor is a plain
numpy array of length ``total_dim``.

Functionals are coordinate arrays as well; the pairing is bilinear
(no conjugation).  In the complex case the conjugation lives inside
the norming-functional construction, so that f . x = ||x|| comes out
real and nonnegative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: largest total dimension of a descriptor; operators are dense d x d
#: matrices, so the cap keeps every space at desk scale
MAX_TOTAL_DIM = 1024

#: most p-sum levels of a descriptor (its height); the text parser stops there too
MAX_DEPTH = 64


class SpaceError(ValueError):
    """Base class for space-layer errors."""


class DescriptorMismatch(SpaceError):
    """Vector/functional/operator does not fit the descriptor."""


class DegenerateInput(SpaceError):
    """Zero vector, empty keep-set, or similar degenerate input."""


def conjugate_exponent(p: float) -> float:
    """Hoelder conjugate with the 1 <-> inf pair handled exactly.

    The generic q = p/(p-1) is not an exact involution in floating point
    (4 -> 4/3 -> 4.000...001), so a descriptor's dual never conjugates
    twice: :func:`dual_descriptor` links each node to its dual both ways.
    """
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Node of a p-sum tree.  A leaf has ``children == ()`` and ``p is None``.

    Equality and hash are exact and structural: equal descriptors have
    bitwise-equal exponents.
    """

    p: float | None
    children: tuple["SpaceDescriptor", ...] = ()
    field: str = REAL

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise SpaceError(f"unknown scalar field {self.field!r}")
        if self.is_leaf:
            if self.p is not None:
                raise SpaceError("leaf node must not carry an exponent")
        else:
            if self.p is None or not (1.0 <= self.p):
                raise SpaceError(f"exponent must lie in [1, inf], got {self.p!r}")
            for c in self.children:
                if c.field != self.field:
                    raise SpaceError("mixed scalar fields in one descriptor")
            _check_total_dim(self.total_dim)
            if self.height > MAX_DEPTH:
                raise SpaceError(f"descriptor nests deeper than {MAX_DEPTH} levels")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @cached_property
    def total_dim(self) -> int:
        if self.is_leaf:
            return 1
        return sum(c.total_dim for c in self.children)

    @cached_property
    def height(self) -> int:
        """Levels of p-sum nodes from this node down to its deepest leaf."""
        return 0 if self.is_leaf else 1 + max(c.height for c in self.children)

    @cached_property
    def plan(self) -> "NormPlan":
        """Batched norm / norming-functional evaluator, built on first use."""
        return NormPlan(self)

    @cached_property
    def _dual(self) -> "SpaceDescriptor":
        if self.is_leaf:
            return self
        dual = SpaceDescriptor(conjugate_exponent(self.p),
                               tuple(c._dual for c in self.children), self.field)
        dual.__dict__["_dual"] = self      # the dual of the dual is this node
        return dual

    @cached_property
    def is_flat(self) -> bool:
        """True when every child is a scalar leaf (an lp^m space)."""
        return (not self.is_leaf) and all(c.is_leaf for c in self.children)

    @cached_property
    def child_spans(self) -> tuple[tuple[int, int], ...]:
        """(offset, length) of each top-level child in leaf order."""
        spans = []
        off = 0
        for c in self.children:
            spans.append((off, c.total_dim))
            off += c.total_dim
        return tuple(spans)

    @cached_property
    def exponents(self) -> tuple[float, ...]:
        """All PSum exponents in the tree, root first."""
        if self.is_leaf:
            return ()
        out = [self.p]
        for c in self.children:
            out.extend(c.exponents)
        return tuple(out)

    @cached_property
    def uniform_exponent(self) -> float | None:
        """If all PSum nodes share one exponent p, the tree is isometric to
        flat lp^total_dim; returns p, else None."""
        ps = set(self.exponents)
        return ps.pop() if len(ps) == 1 else None

    @cached_property
    def is_l1_linf(self) -> bool:
        """Isometric to flat l1 or linf: all PSum exponents are 1, or all inf."""
        return self.uniform_exponent in (1.0, math.inf)

    @property
    def dtype(self):
        return np.complex128 if self.field == COMPLEX else np.float64

    def __repr__(self):
        return f"SpaceDescriptor({descriptor_to_text(self)})"


def _check_total_dim(dim: int):
    if dim > MAX_TOTAL_DIM:
        raise SpaceError(f"total dimension {dim} exceeds the cap {MAX_TOTAL_DIM}")


_LEAVES = {field: SpaceDescriptor(None, (), field) for field in (REAL, COMPLEX)}


def scalar(field: str = REAL) -> SpaceDescriptor:
    """The scalar leaf of ``field``: one frozen node shared by every tree."""
    return _LEAVES[field] if field in (REAL, COMPLEX) else SpaceDescriptor(None, (), field)


def lp(p: float, dim: int, field: str = REAL) -> SpaceDescriptor:
    """The flat space lp^dim.  At dim = 1 every exponent gives the same
    (scalar) space, so the leaf is returned and text round-trips stay exact."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise SpaceError(f"dim must be an integer >= 1, got {dim!r}")
    _check_total_dim(dim)
    if not (1.0 <= float(p)):
        raise SpaceError(f"exponent must lie in [1, inf], got {p!r}")
    if dim == 1:
        return scalar(field)
    return SpaceDescriptor(float(p), tuple(scalar(field) for _ in range(dim)), field)


def psum(p: float, children, field: str | None = None) -> SpaceDescriptor:
    """The p-sum of ``children``, whose fields must all be ``field`` (by
    default the first child's); a sum of one leaf is the leaf, as in
    ``lp(p, 1)``, so text round-trips stay exact."""
    children = tuple(children)
    if not children:
        raise SpaceError("psum needs at least one child")
    desc = SpaceDescriptor(float(p), children, field or children[0].field)
    return children[0] if desc.total_dim == 1 else desc


def tower(p_list, block_dims=None, field: str = REAL) -> SpaceDescriptor:
    """Mixed-exponent nesting X_{n+1} = X_n (+)_{p_n} Y_{n+1}.

    ``p_list[k]`` is the exponent joining level k+1 to level k+2; blocks
    default to scalar lines.  Returns the outermost level.
    """
    dims = list(block_dims) if block_dims is not None else [1] * (len(p_list) + 1)
    if len(dims) != len(p_list) + 1:
        raise SpaceError("need one more block than exponents")
    x = lp(2, dims[0], field) if dims[0] > 1 else scalar(field)
    for p, d in zip(p_list, dims[1:]):
        y = lp(2, d, field) if d > 1 else scalar(field)
        x = psum(p, (x, y), field)
    return x


def tower_levels(desc: SpaceDescriptor) -> list[SpaceDescriptor]:
    """Levels of a first-child nested tower, innermost first (root last)."""
    levels = [desc]
    node = desc
    while not node.is_leaf and not node.children[0].is_leaf:
        node = node.children[0]
        levels.append(node)
    levels.reverse()
    return levels


# ---------------------------------------------------------------------------
# norms and duality
# ---------------------------------------------------------------------------

def check_vector(desc: SpaceDescriptor, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.shape != (desc.total_dim,):
        raise DescriptorMismatch(
            f"vector of shape {v.shape} on a space of dimension {desc.total_dim}")
    if desc.field == REAL and np.iscomplexobj(v):
        if np.any(v.imag != 0):
            raise DescriptorMismatch("complex coordinates on a real descriptor")
        v = v.real
    return v.astype(desc.dtype, copy=False)


def norm(desc: SpaceDescriptor, v: np.ndarray) -> float:
    """p-sum norm of ``v`` on ``desc`` (the one-row case of its plan)."""
    v = check_vector(desc, v)
    return float(desc.plan.norm(v[None])[0])


class NormPlan:
    """A descriptor tree compiled for batched evaluation on (B, d) arrays.

    Coordinates stay in leaf order.  Stage h reduces contiguous segments of
    the block norms below it (``np.add.reduceat`` of |.|^p, a max-reduce at
    p = inf) into the nodes of height h; a block whose parent sits higher
    passes through as a one-column segment with exponent 1, which is exact.
    The norming functional runs back down, multiplying block weights; its
    divisions by a norm put inf in the denominator where that norm is 0, so
    zero rows and zero blocks get exact zeros and no warning."""

    __slots__ = ("stages",)

    def __init__(self, desc: SpaceDescriptor):
        self.stages = [_Stage(_segments(desc, h)) for h in range(1, desc.height + 1)]

    def _levels(self, a: np.ndarray) -> list[np.ndarray]:
        """Block norms of every stage, leaves (|x|) first, root last."""
        levels = [a]
        for st in self.stages:
            levels.append(st.reduce(levels[-1]))
        return levels

    def norm(self, x: np.ndarray) -> np.ndarray:
        """Norm of every row of ``x``."""
        return self._levels(np.abs(x))[-1][:, 0]

    def norming(self, x: np.ndarray):
        """(J, n): canonical norming functional and norm of every row.

        Smooth blocks get the weight (||x_s|| / ||x||)^{p-1}; p = 1 gives
        every block weight 1, which leaves zero blocks at zero; p = inf puts
        full weight on the lowest-index max-norm block.  Complex leaves use
        conj(x_i)/|x_i|, so the pairing with x comes out real."""
        a = np.abs(x)
        levels = self._levels(a)
        f, w = conj_sign(x, a), None
        for st, below, above in zip(self.stages[::-1], levels[-2::-1], levels[:0:-1]):
            sw = st.weights(below, above)
            w = sw if w is None else w[:, st.parent] * sw      # no product at the root
        return f if w is None else w * f, levels[-1][:, 0]


class _Stage:
    """One reduction of a :class:`NormPlan`."""

    __slots__ = ("starts", "parent", "inf_seg", "p", "inv_p")

    def __init__(self, segments):
        lens, exps = (np.array(v) for v in zip(*segments))
        self.starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        self.parent = np.repeat(np.arange(len(lens)), lens)
        inf_seg = exps == math.inf
        self.inf_seg = inf_seg if inf_seg.any() else None
        p = np.where(inf_seg, 1.0, exps)
        self.p, self.inv_p = p[self.parent], 1.0 / p
        if np.all(p == p[0]):     # a scalar exponent takes numpy's fast paths
            self.p, self.inv_p = float(p[0]), 1.0 / float(p[0])

    def reduce(self, a: np.ndarray) -> np.ndarray:
        out = np.add.reduceat(a ** self.p, self.starts, axis=1) ** self.inv_p
        if self.inf_seg is not None:
            out = np.where(self.inf_seg, np.maximum.reduceat(a, self.starts, axis=1), out)
        return out

    def weights(self, below: np.ndarray, above: np.ndarray) -> np.ndarray:
        """Weight of every block of ``below`` inside its segment of ``above``."""
        total = above[:, self.parent]
        ratio = below / np.where(total > 0, total, np.inf)     # 0 in a zero segment
        w = ratio ** (self.p - 1.0)
        if self.inf_seg is not None:
            hit = below == total
            before = np.cumsum(hit, axis=1) - hit      # lowest index wins ties
            first = hit & (before == before[:, self.starts][:, self.parent])
            w = np.where(self.inf_seg[self.parent], first, w)
        return w


def _segments(desc: SpaceDescriptor, h: int) -> list:
    """(length, exponent) of every segment that stage h reduces, in leaf order."""
    if desc.height < h:
        return [(1, 1.0)]
    if desc.height == h:
        return [(len(desc.children), desc.p)]
    return [seg for c in desc.children for seg in _segments(c, h)]


def dual_descriptor(desc: SpaceDescriptor) -> SpaceDescriptor:
    """Same tree shape with every exponent conjugated.  Cached on the
    descriptor, so its plan is built once, and an exact involution:
    ``dual_descriptor(dual_descriptor(d)) is d`` at every node."""
    return desc._dual


def dual_norm(desc: SpaceDescriptor, f: np.ndarray) -> float:
    """Norm of a functional on ``desc``, i.e. the primal norm on the
    conjugate-exponent tree."""
    return norm(dual_descriptor(desc), f)


def eval_pair(f: np.ndarray, v: np.ndarray):
    """Bilinear dual pairing sum(f_i v_i); no conjugation."""
    f = np.asarray(f)
    v = np.asarray(v)
    if f.shape != v.shape:
        raise DescriptorMismatch("functional/vector length mismatch")
    val = complex(np.dot(f, v))
    return val if val.imag != 0 else val.real


def phase(z) -> np.ndarray:
    """Elementwise z/|z|, and 1 where z = 0: a unimodular sign of the same dtype."""
    z = np.asarray(z)
    a = np.abs(z)
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0).astype(z.dtype)


def conj_sign(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise conj(x)/|x|, and 0 where x = 0, given a = |x|: the norming
    functional of every nonzero scalar coordinate.  Unlike :func:`phase` it
    vanishes at zero, so J is 0 at the zero coordinates of p = 1 blocks."""
    return np.conj(x) / np.where(a > 0, a, np.inf)


def norming_functional(desc: SpaceDescriptor, x: np.ndarray) -> np.ndarray:
    """Canonical norming functional (see NormPlan.norming): ||f||* = 1, f . x = ||x||."""
    x = check_vector(desc, x)
    f, n = desc.plan.norming(x[None])
    if n[0] == 0.0:
        raise DegenerateInput("norming functional of the zero vector")
    return f[0]


@dataclass(frozen=True)
class NormingPair:
    """Element of Pi(X): unit vector, unit functional, f . x = 1."""

    x: np.ndarray
    xstar: np.ndarray
    slack: float

    @staticmethod
    def at(desc: SpaceDescriptor, x: np.ndarray) -> "NormingPair":
        """Norming pair through the canonical duality map at x / ||x||."""
        x = check_vector(desc, x)
        n = norm(desc, x)
        if n == 0.0:
            raise DegenerateInput("norming pair at the zero vector")
        u = x / n
        return NormingPair.of(desc, u, norming_functional(desc, u))

    @staticmethod
    def of(desc: SpaceDescriptor, x: np.ndarray, xstar: np.ndarray) -> "NormingPair":
        """The pair (x, xstar) with its slack: the largest defect among
        ||x|| = 1, ||xstar||* = 1 and xstar . x = 1."""
        slack = max(abs(norm(desc, x) - 1.0), abs(dual_norm(desc, xstar) - 1.0),
                    abs(eval_pair(xstar, x) - 1.0))
        return NormingPair(x, xstar, float(slack))


def summand(desc: SpaceDescriptor, keep) -> tuple[SpaceDescriptor, np.ndarray]:
    """The summand of ``desc`` spanned by the kept top-level blocks, and the
    leaf coordinates of ``desc`` it occupies, in leaf order: a kept block
    alone is itself, all blocks are ``desc``, and others are their p-sum."""
    keep = sorted(set(keep))
    if desc.is_leaf:
        raise SpaceError("a summand needs a PSum root")
    if not keep:
        raise DegenerateInput("empty keep-set")
    if keep[0] < 0 or keep[-1] >= len(desc.children):
        raise SpaceError(f"block index out of range 0..{len(desc.children) - 1}")
    if len(keep) == len(desc.children):
        sub = desc
    elif len(keep) == 1:
        sub = desc.children[keep[0]]
    else:
        sub = psum(desc.p, [desc.children[i] for i in keep], desc.field)
    leaves = np.concatenate([np.arange(o, o + d)
                             for o, d in (desc.child_spans[i] for i in keep)])
    return sub, leaves


def gaussian(desc: SpaceDescriptor, rng: np.random.Generator, shape=None) -> np.ndarray:
    """Gaussian entries of the field of ``desc``, d x d by default: the real
    parts first, then the imaginary parts on a complex space."""
    shape = shape or (desc.total_dim,) * 2
    g = rng.standard_normal(shape)
    if desc.field == COMPLEX:
        g = g + 1j * rng.standard_normal(shape)
    return g


def unit_sphere_sample(desc: SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    """Gaussian direction normalized to ||x|| = 1; almost surely all
    coordinates are nonzero, so samples lie in the dense smooth-point set."""
    while True:
        g = gaussian(desc, rng, (desc.total_dim,))
        if np.all(g != 0):
            break
    return g / norm(desc, g)


def sphere_starts(desc: SpaceDescriptor, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """``count`` (at least one) nonzero start rows of a multi-start search:
    the coordinate directions, then sphere samples from ``rng``.  The rows
    for ``count`` are a prefix of the rows for any larger count."""
    if count < 1:
        raise DegenerateInput(f"start budget must be >= 1, got {count}")
    starts = list(np.eye(desc.total_dim, dtype=desc.dtype)[:count])
    while len(starts) < count:
        starts.append(unit_sphere_sample(desc, rng))
    return np.array(starts)


# ---------------------------------------------------------------------------
# text format:  lp(p=2,dim=3)  |  psum(p=inf,[lp(p=1,dim=2),lp(p=2,dim=1)])
# field selected by field=real|complex at the root.
# ---------------------------------------------------------------------------

def _fmt_p(p: float) -> str:
    if p == math.inf:
        return "inf"
    if p == int(p):
        return str(int(p))
    return repr(p)


def descriptor_to_text(desc: SpaceDescriptor, root: bool = True) -> str:
    suffix = f",field={desc.field}" if root and desc.field != REAL else ""
    if desc.is_leaf:
        return f"lp(p=2,dim=1{suffix})"
    if desc.is_flat:
        return f"lp(p={_fmt_p(desc.p)},dim={desc.total_dim}{suffix})"
    inner = ",".join(descriptor_to_text(c, root=False) for c in desc.children)
    return f"psum(p={_fmt_p(desc.p)},[{inner}]{suffix})"


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.i = 0
        self.total_dim = 0

    def error(self, what: str):
        raise SpaceError(f"descriptor parse error at position {self.i}: {what} "
                         f"(in {self.text!r})")

    def expect(self, tok: str):
        if not self.text.startswith(tok, self.i):
            self.error(f"expected {tok!r}")
        self.i += len(tok)

    def peek(self, tok: str) -> bool:
        return self.text.startswith(tok, self.i)

    def number(self) -> float:
        if self.peek("inf"):
            self.i += 3
            return math.inf
        j = self.i
        while j < len(self.text) and (self.text[j].isdigit() or self.text[j] in ".eE+-"):
            j += 1
        if j == self.i:
            self.error("expected a number")
        try:
            val = float(self.text[self.i:j])
        except ValueError:
            self.error(f"bad number {self.text[self.i:j]!r}")
        self.i = j
        return val

    def field_opt(self):
        """Skip a ,field= annotation; parse_descriptor reads them all first."""
        if self.peek(",field="):
            self.i += len(",field=")
            for f in (REAL, COMPLEX):
                if self.peek(f):
                    self.i += len(f)
                    return
            self.error("field must be real or complex")

    def space(self, field: str, depth: int = 1):
        if depth > MAX_DEPTH:
            self.error(f"descriptor nests deeper than {MAX_DEPTH} levels")
        if self.peek("lp("):
            self.expect("lp(")
            self.expect("p=")
            p = self.number()
            self.expect(",dim=")
            dim = self.number()
            if not math.isfinite(dim) or dim != int(dim) or dim < 1:
                self.error("dim must be a positive integer")
            self.total_dim += int(dim)
            if self.total_dim > MAX_TOTAL_DIM:
                self.error(f"total dimension exceeds the cap {MAX_TOTAL_DIM}")
            self.field_opt()
            self.expect(")")
            return lp(p, int(dim), field)
        if self.peek("psum("):
            self.expect("psum(")
            self.expect("p=")
            p = self.number()
            self.expect(",[")
            children = [self.space(field, depth + 1)]
            while self.peek(","):
                if self.peek(",field="):
                    break
                self.expect(",")
                children.append(self.space(field, depth + 1))
            self.expect("]")
            self.field_opt()
            self.expect(")")
            return psum(p, children, field)
        self.error("expected lp( or psum(")


def parse_descriptor(text: str, field: str | None = None) -> SpaceDescriptor:
    """Parse the descriptor text format; ``field`` overrides the default
    real field but not an explicit field= in the text.  The field must be
    uniform, so conflicting field= annotations are an error."""
    parser = _Parser(text)
    fields = set(re.findall(r",field=(real|complex)", parser.text))
    if len(fields) > 1:
        raise SpaceError(f"conflicting field annotations in {parser.text!r}")
    desc = parser.space(fields.pop() if fields else field or REAL)
    if parser.i != len(parser.text):
        parser.error("trailing characters")
    return desc
