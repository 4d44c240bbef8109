"""Batched norm plans and lockstep ascent against scalar references.

The references are the recursive one-vector forms of the norm and the
canonical norming functional, and the one-restart-at-a-time ascent loop;
the batched code must agree with them to rounding.  A stacked ascent must
equal its one-member calls bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numindex import optimize
from numindex.operators import Operator
from numindex.optimize import FD_STEP, VALUE_TOL, maximize_on_sphere, maximize_stack
from numindex.radius import radius_objective
from numindex.spaces import (COMPLEX, REAL, dual_descriptor, lp, psum, tower,
                             unit_sphere_sample)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]


# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------

def _combine(p, block_norms):
    if p == math.inf:
        return float(np.max(block_norms))
    if p == 1:
        return float(np.sum(block_norms))
    return float(np.sum(block_norms ** p) ** (1.0 / p))


def ref_norm(desc, v):
    if desc.is_leaf:
        return float(abs(v[0]))
    return _combine(desc.p, np.array([ref_norm(c, v[o:o + d]) for c, (o, d)
                                      in zip(desc.children, desc.child_spans)]))


def ref_norming(desc, x):
    """(f, n): block norm n and, when n > 0, f of unit dual norm with
    f . x = n; zero blocks give f = 0."""
    if desc.is_leaf:
        n = float(abs(x[0]))
        if n == 0.0:
            return np.zeros(1, dtype=desc.dtype), 0.0
        return np.array([np.conj(x[0]) / n], dtype=desc.dtype), n
    parts = [ref_norming(c, x[o:o + d]) for c, (o, d) in
             zip(desc.children, desc.child_spans)]
    ns = np.array([n for _, n in parts])
    total = _combine(desc.p, ns)
    f = np.zeros(desc.total_dim, dtype=desc.dtype)
    if total == 0.0:
        return f, 0.0
    if desc.p == math.inf:
        i = int(np.argmax(ns))          # lowest index wins ties
        o, d = desc.child_spans[i]
        f[o:o + d] = parts[i][0]
        return f, total
    for (o, d), (fs, nb) in zip(desc.child_spans, parts):
        if nb > 0:
            f[o:o + d] = fs if desc.p == 1 else (nb / total) ** (desc.p - 1.0) * fs
    return f, total


def ref_maximize(desc, objective, rng, restarts):
    """One restart after another, one objective evaluation at a time: each
    line-search round scores the sizes 4s, 2s, ..., s/32 above 1e-14 and
    takes the best improving one as the next s (at most 4), else rescores
    at s/256; a restart stops once an iteration gains less than VALUE_TOL."""
    cplx = desc.field == COMPLEX
    starts = list(np.eye(desc.total_dim, dtype=desc.dtype))
    while len(starts) < restarts:
        starts.append(unit_sphere_sample(desc, rng))

    def to_x(y):
        return y[:len(y) // 2] + 1j * y[len(y) // 2:] if cplx else y

    def obj(y):
        x = to_x(y)
        return objective(x / ref_norm(desc, x))

    best = -np.inf
    for x0 in starts[:restarts]:
        x0 = x0 / ref_norm(desc, x0)
        y = np.concatenate([x0.real, x0.imag]) if cplx else x0.astype(float)
        val, step = obj(y), 0.25
        for _ in range(500):
            grad = np.zeros(y.size)
            for i in range(y.size):
                e = np.zeros(y.size)
                e[i] = FD_STEP
                grad[i] = (obj(y + e) - obj(y - e)) / (2 * FD_STEP)
            gn = np.linalg.norm(grad)
            if gn < 1e-12:
                break
            prev, s = val, step
            while 4 * s > 1e-14:
                sizes = [t for t in 4 * s * 0.5 ** np.arange(8) if t > 1e-14]
                scores = [obj(y + t * grad / gn) for t in sizes]
                j = int(np.argmax(scores))
                if scores[j] > val + 1e-15:
                    y, val, step = y + sizes[j] * grad / gn, scores[j], min(sizes[j], 4.0)
                    break
                s /= 256
            if val - prev < VALUE_TOL:
                break
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# plan vs reference over random descriptor trees
# ---------------------------------------------------------------------------

@st.composite
def descriptors(draw):
    field = draw(st.sampled_from([REAL, COMPLEX]))
    p = st.sampled_from(EXPONENTS)
    blocks = st.builds(lp, p, st.integers(1, 3), st.just(field))
    return draw(st.recursive(
        blocks, lambda kids: st.builds(psum, p, st.lists(kids, min_size=1, max_size=3),
                                       st.just(field)),
        max_leaves=4))


def _batch(desc, seed):
    """Gaussian rows with some zeroed coordinates, plus rows over {-1, 0, 1}
    whose many equal block norms exercise the p = inf tie rule."""
    rng = np.random.default_rng(seed)
    shape = (6, desc.total_dim)
    x = rng.standard_normal(shape)
    if desc.field == COMPLEX:
        x = x + 1j * rng.standard_normal(shape)
    x[rng.random(shape) < 0.25] = 0.0
    x[4:] = rng.integers(-1, 2, size=(2, desc.total_dim))
    x[4, 0] = 1.0
    return x.astype(desc.dtype)


@given(descriptors(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_plan_matches_recursive_reference(desc, seed):
    x = _batch(desc, seed)
    dual = dual_descriptor(desc)
    f, n = desc.plan.norming(x)
    np.testing.assert_allclose(n, [ref_norm(desc, v) for v in x], rtol=0, atol=1e-12)
    np.testing.assert_allclose(desc.plan.norm(x), n, rtol=0, atol=0)
    np.testing.assert_allclose(dual.plan.norm(x), [ref_norm(dual, v) for v in x],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(f, [ref_norming(desc, v)[0] for v in x],
                               rtol=0, atol=1e-12)
    for v, fv, nv in zip(x, f, n):
        if nv == 0.0:
            assert not np.any(fv)
            continue
        assert ref_norm(dual, fv) == pytest.approx(1.0, abs=1e-12)
        assert complex(np.dot(fv, v)) == pytest.approx(nv, abs=1e-12 * max(nv, 1.0))


@given(descriptors())
@settings(max_examples=200, deadline=None)
def test_dual_descriptor_is_an_involution_at_every_node(desc):
    nodes = [desc]
    while nodes:
        node = nodes.pop()
        dual = dual_descriptor(node)
        assert dual_descriptor(dual) is node
        assert all(dc is dual_descriptor(c) for dc, c in zip(dual.children, node.children))
        nodes.extend(node.children)


def test_plan_inf_ties_pick_lowest_block():
    desc = psum(math.inf, [lp(2, 2), lp(1, 1), lp(2, 2)])
    f, n = desc.plan.norming(np.array([[3.0, 4.0, 5.0, -4.0, 3.0]]))
    assert n[0] == 5.0
    np.testing.assert_allclose(f[0], [0.6, 0.8, 0.0, 0.0, 0.0], atol=1e-15)
    f, _ = lp(math.inf, 3).plan.norming(np.array([[-2.0, 1.0, 2.0]]))
    np.testing.assert_array_equal(f[0], [-1.0, 0.0, 0.0])


def test_plan_l1_weights_only_nonzero_blocks():
    desc = psum(1, [lp(2, 2), lp(2, 1), lp(3, 2)])
    f, n = desc.plan.norming(np.array([[0.0, 0.0, -2.0, 1.0, 0.0]]))
    assert n[0] == 3.0
    np.testing.assert_array_equal(f[0], [0.0, 0.0, -1.0, 1.0, 0.0])


#: trees with zero blocks under p = 1, p = inf and smooth nodes: the root's
#: children, and the children of its first child
ZERO_BLOCK_TREES = [psum(1.5, [psum(1, [lp(2, 2, f), lp(3, 1, f)], f),
                               psum(math.inf, [lp(1, 2, f), lp(2, 2, f)], f)], f)
                    for f in (REAL, COMPLEX)] + [
    psum(math.inf, [psum(3, [lp(1, 2), lp(math.inf, 1)]), lp(1, 2)]),
    lp(2, 1, COMPLEX)]


@pytest.mark.parametrize("desc", ZERO_BLOCK_TREES, ids=str)
def test_plan_zero_rows_and_blocks_are_exact(desc):
    """An all-zero row has norm 0 and J = 0; a zero block has J = 0 on it
    while its row keeps the reference norm and functional; no division
    warns."""
    spans = list(desc.child_spans)
    if not desc.is_leaf:
        o0 = spans[0][0]
        spans += [(o0 + o, d) for o, d in desc.children[0].child_spans]
    rng = np.random.default_rng(11)
    x = rng.standard_normal((len(spans) + 2, desc.total_dim))
    if desc.field == COMPLEX:
        x = x + 1j * rng.standard_normal(x.shape)
    x[0] = 0.0
    for row, (o, d) in enumerate(spans, start=1):
        x[row, o:o + d] = 0.0
    x = x.astype(desc.dtype)
    with np.errstate(all="raise"):
        n = desc.plan.norm(x)
        f, n2 = desc.plan.norming(x)
    assert n[0] == 0.0 and n2[0] == 0.0 and np.all(f[0] == 0.0)
    for row, (o, d) in enumerate(spans, start=1):
        assert np.all(f[row, o:o + d] == 0.0)
    np.testing.assert_array_equal(n, n2)
    np.testing.assert_allclose(n, [ref_norm(desc, v) for v in x], rtol=0, atol=1e-12)
    np.testing.assert_allclose(f, [ref_norming(desc, v)[0] for v in x], rtol=0, atol=1e-12)
    assert np.all(n[1:] > 0.0)


# ---------------------------------------------------------------------------
# lockstep ascent vs the one-at-a-time reference
# ---------------------------------------------------------------------------

ASCENT_SPACES = [lp(3, 2), lp(1.5, 3), lp(2, 2, COMPLEX), tower([3, 1.5], [2, 1, 2]),
                 psum(math.inf, [lp(1, 2), lp(3, 2)]),
                 psum(3, [lp(1.5, 2, COMPLEX), lp(1, 1, COMPLEX)], COMPLEX)]


def _operator(desc, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((desc.total_dim,) * 2)
    if desc.field == COMPLEX:
        g = g + 1j * rng.standard_normal((desc.total_dim,) * 2)
    return Operator(g, desc)


def _ref_radius_objective(T):
    def g(x):
        return abs(np.dot(ref_norming(T.descriptor, x)[0], T.matrix @ x))
    return g


@pytest.mark.parametrize("desc", ASCENT_SPACES, ids=str)
def test_lockstep_ascent_matches_scalar_reference(desc):
    T = _operator(desc, 4)
    _, batched, _ = maximize_on_sphere(desc, radius_objective(T),
                                       np.random.default_rng(7), restarts=8)
    scalar = ref_maximize(desc, _ref_radius_objective(T),
                          np.random.default_rng(7), restarts=8)
    assert batched == pytest.approx(scalar, abs=1e-9)


@pytest.mark.parametrize("desc", ASCENT_SPACES, ids=str)
def test_ascent_budget_prefix(desc):
    # a start's trajectory does not depend on the starts beside it, so the
    # first eight starts end bit for bit where they end at budget 8
    for seed in range(3):
        g = radius_objective(_operator(desc, seed))
        _, v8, _ = maximize_on_sphere(desc, g, np.random.default_rng(seed), restarts=8)
        _, v16, _ = maximize_on_sphere(desc, g, np.random.default_rng(seed), restarts=16)
        assert v8 <= v16


# ---------------------------------------------------------------------------
# line-search edge rows and stacked ascents
# ---------------------------------------------------------------------------

def _edge_objective(y, rows):
    """Per-row objectives of the unit-circle direction of y (0 at y = 0):
    row 0 has a kink at its start (1, 0) where the central difference sees
    slope 0.5 but every step loses, row 1 is constant, rows 2 and 3 are
    linear."""
    n = np.linalg.norm(y, axis=1)
    x = y / np.where(n == 0.0, 1.0, n)[:, None]
    out = np.select([rows == 0, rows == 1],
                    [0.5 * x[:, 1] - np.abs(x[:, 1]), np.ones(len(y))],
                    x[:, 0] + 0.3 * x[:, 1])
    return np.where(n == 0.0, 0.0, out)


def test_speculative_line_search_edge_rows():
    """A kink row scores its ladder down to the 1e-14 floor and ends at its
    start, a constant row stops after one iteration, and the linear rows,
    one from a zero-norm start, reach sqrt(1.09)."""
    y0 = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])
    seen = []

    def obj(y, rows):
        seen.append(rows)
        return _edge_objective(y, rows)

    y, val = optimize._ascend(obj, y0.copy())
    scored = np.bincount(np.concatenate(seen), minlength=4)
    # row 0: start, 4 differences and the 47 sizes 2^-j > 1e-14, j = 0..46
    assert scored[0] == 52 and np.array_equal(y[0], y0[0]) and val[0] == 0.0
    assert scored[1] == 5 and np.array_equal(y[1], y0[1]) and val[1] == 1.0
    assert val[2] > math.sqrt(1.09) - 1e-9 and val[3] > math.sqrt(1.09) - 1e-9


def _maps(desc, degree, seed):
    rng = np.random.default_rng(seed)
    shape = (desc.total_dim,) * (degree + 1)
    out = []
    for _ in range(3):
        g = rng.standard_normal(shape)
        if desc.field == COMPLEX:
            g = g + 1j * rng.standard_normal(shape)
        out.append(Operator(g, desc))
    return out


@pytest.mark.parametrize("degree", [1, 2])
@given(desc=descriptors(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_ascent_equals_one_member_calls(degree, desc, seed):
    """The radius ascent of a 3-member stack, operators or degree-2
    polynomials, equals each one-member call bit for bit, and no ascent row
    ends below its start value."""
    maps = _maps(desc, degree, seed)
    ascend, ends = optimize._ascend, []

    def spy(obj, y):
        start = obj(y, np.arange(len(y)))
        y, val = ascend(obj, y)
        ends.append((start, val))
        return y, val

    def rng(k):
        return np.random.default_rng([seed, k])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_ascend", spy)
        stacked = maximize_stack(desc, radius_objective(maps), [rng(k) for k in range(3)], 4)
        for k, M in enumerate(maps):
            x, value, evals = maximize_stack(desc, radius_objective([M]), [rng(k)], 4)[0]
            assert x.tobytes() == stacked[k][0].tobytes()
            assert (value, evals) == stacked[k][1:]
    for start, end in ends:
        assert np.all(end >= start)
