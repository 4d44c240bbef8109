"""Batched norm plans and lockstep ascent against scalar references.

The references are the recursive one-vector forms of the norm and the
canonical norming functional, the one-restart-at-a-time ascent loop, and
the lockstep ascent with one backtracking halving per batch; the batched
code must agree with them to rounding, and the speculative line search
with the one-halving ascent bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numindex import optimize
from numindex.index import (absolute_index_estimate, numerical_index_estimate,
                            poly_index_estimate, rank_r_index_estimate)
from numindex.operators import HomogeneousPolynomial, Operator, op_norm
from numindex.optimize import FD_STEP, STALL_ITERS, VALUE_TOL, maximize_on_sphere
from numindex.radius import (absolute_radius, absolute_radius_objective,
                             numerical_radius, poly_norm, poly_radius,
                             radius_objective)
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
    """One restart after another, one objective evaluation at a time."""
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
        val, step, stall = obj(y), 0.25, 0
        for _ in range(500):
            grad = np.zeros(y.size)
            for i in range(y.size):
                e = np.zeros(y.size)
                e[i] = FD_STEP
                grad[i] = (obj(y + e) - obj(y - e)) / (2 * FD_STEP)
            gn = np.linalg.norm(grad)
            if gn < 1e-12:
                break
            prev, s, improved = val, step, False
            while s > 1e-14:
                cand = y + s * grad / gn
                cval = obj(cand)
                if cval > val + 1e-15:
                    y, val, step, improved = cand, cval, min(s * 2.0, 1.0), True
                    break
                s *= 0.5
            if not improved:
                break
            stall = stall + 1 if val - prev < VALUE_TOL else 0
            if stall >= STALL_ITERS:
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
# speculative line search vs one halving per batch
# ---------------------------------------------------------------------------

SPECULATIVE_ASCEND = optimize._ascend


def _ascend_one_halving(obj, y):
    """The lockstep ascent whose rows still line-searching try one step size
    per batch, halving it on failure: the reference for the speculative
    line search."""
    r, d = y.shape
    val = obj(y, np.arange(r))
    step = np.full(r, 0.25)
    stall = np.zeros(r, dtype=int)
    active = np.ones(r, dtype=bool)
    e = FD_STEP * np.eye(d)
    for _ in range(optimize.MAX_ITERS):
        a = np.flatnonzero(active)
        if a.size == 0:
            break
        ya = y[a][:, None, :]
        fd = obj(np.concatenate([ya + e, ya - e], axis=1).reshape(-1, d),
                 np.repeat(a, 2 * d))
        fd = fd.reshape(a.size, 2, d)
        grad = (fd[:, 0] - fd[:, 1]) / (2 * FD_STEP)
        gn = np.linalg.norm(grad, axis=1)
        moving = gn >= 1e-12
        direction = grad / np.where(moving, gn, 1.0)[:, None]
        searching = moving.copy()
        prev, s = val[a], step[a]
        while True:
            k = np.flatnonzero(searching & (s > 1e-14))
            if k.size == 0:
                break
            cand = y[a[k]] + s[k, None] * direction[k]
            cval = obj(cand, a[k])
            up = cval > val[a[k]] + 1e-15
            ku, rows = k[up], a[k[up]]
            y[rows], val[rows] = cand[up], cval[up]
            step[rows] = np.minimum(s[ku] * 2.0, 1.0)
            searching[ku] = False
            s[k[~up]] *= 0.5
        improved = moving & ~searching
        active[a[~improved]] = False
        a, prev = a[improved], prev[improved]
        stall[a] = np.where(val[a] - prev < VALUE_TOL, stall[a] + 1, 0)
        active[a[stall[a] >= STALL_ITERS]] = False
    return y, val


class _Counted:
    """Objective wrapper counting calls and scored rows per ascent row; past
    ``cap`` calls it fails, so a line search that stops shrinking its step
    ends the test instead of hanging it."""

    def __init__(self, obj, cap=math.inf):
        self.obj, self.cap, self.calls, self.rows = obj, cap, 0, []

    def __call__(self, y, rows):
        self.calls += 1
        assert self.calls <= self.cap, "more objective calls than one halving per batch"
        self.rows.append(rows)
        return self.obj(y, rows)


def _ascent_run(monkeypatch, ascend, cap, desc, objective, seed):
    """(y, values, objective calls) of the ascent inside maximize_on_sphere."""
    out = {}

    def spy(obj, y):
        counted = _Counted(obj, cap)
        out["y"], out["val"] = ascend(counted, y)
        out["calls"] = counted.calls
        return out["y"], out["val"]

    monkeypatch.setattr(optimize, "_ascend", spy)
    maximize_on_sphere(desc, objective, np.random.default_rng(seed), restarts=16)
    return out


def _ascent_objectives(desc):
    T = _operator(desc, 5)
    rng = np.random.default_rng(6)
    shape = (desc.total_dim,) * 3
    t = rng.standard_normal(shape)
    if desc.field == COMPLEX:
        t = t + 1j * rng.standard_normal(shape)
    return {"radius": radius_objective(T), "absolute": absolute_radius_objective(T),
            "poly2": radius_objective(HomogeneousPolynomial(2, t, desc))}


@pytest.mark.parametrize("desc", ASCENT_SPACES, ids=str)
def test_speculative_line_search_matches_one_halving(desc, monkeypatch):
    for name, objective in _ascent_objectives(desc).items():
        ref = _ascent_run(monkeypatch, _ascend_one_halving, math.inf, desc, objective, 8)
        got = _ascent_run(monkeypatch, SPECULATIVE_ASCEND, ref["calls"], desc,
                          objective, 8)
        assert got["y"].tobytes() == ref["y"].tobytes(), name
        assert got["val"].tobytes() == ref["val"].tobytes(), name
        if desc.total_dim == 5:         # the tower
            assert got["calls"] <= 0.6 * ref["calls"], name


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
    """Backtracking to the 1e-14 floor across several batches, a vanishing
    gradient and a zero-norm start end where one halving per batch ends
    them."""
    y0 = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])
    ref = _Counted(_edge_objective)
    y_ref, val_ref = _ascend_one_halving(ref, y0.copy())
    got = _Counted(_edge_objective, cap=ref.calls)
    y, val = SPECULATIVE_ASCEND(got, y0.copy())
    assert y.tobytes() == y_ref.tobytes()
    assert val.tobytes() == val_ref.tobytes()
    scored = np.bincount(np.concatenate(ref.rows), minlength=4)
    # row 0: start, 4 differences and the 45 sizes 0.25 * 2^-j > 1e-14
    assert scored[0] == 50 and np.array_equal(y[0], y0[0]) and val[0] == 0.0
    assert scored[1] == 5 and np.array_equal(y[1], y0[1])
    assert val[2] > math.sqrt(1.09) - 1e-9 and val[3] > math.sqrt(1.09) - 1e-9
    # speculation scores sizes past a row's accepted one, never fewer rows
    spec = np.bincount(np.concatenate(got.rows), minlength=4)
    assert got.calls < ref.calls and np.all(spec >= scored) and spec[0] == 50


def _estimates():
    """Every estimate built on the ascent, plus op_norm, as comparable
    (value, witness) pairs."""
    T = _operator(lp(3, 2), 9)
    C = _operator(lp(2, 2, COMPLEX), 9)
    P = HomogeneousPolynomial(2, np.random.default_rng(9).standard_normal((2, 2, 2)),
                              lp(3, 2))
    out = {}
    for name, est in [("numerical_radius", numerical_radius(T, budget=16, rng=1)),
                      ("numerical_radius complex", numerical_radius(C, budget=16, rng=1)),
                      ("absolute_radius", absolute_radius(T, budget=16, rng=1)),
                      ("poly_radius", poly_radius(P, budget=16, rng=1))]:
        out[name] = (est.value, est.witness.x)   # evals count speculative rows too
    out["poly_norm"] = poly_norm(P, budget=16, rng=1)
    est = op_norm(T, budget=16, rng=1)
    out["op_norm"] = (est.value, est.witness)
    for name, fn, args in [("numerical index", numerical_index_estimate, (lp(3, 2),)),
                           ("rank index", rank_r_index_estimate, (lp(1.5, 2), 1)),
                           ("absolute index", absolute_index_estimate, (lp(3, 2),)),
                           ("poly index", poly_index_estimate, (lp(3, 2), 2))]:
        est = fn(*args, budget=8, rng=2)
        out[name] = (est.upper_bound, est.witness_operator.matrix,
                     est.restarts_used)
    return out


def test_estimates_match_one_halving_ascent(monkeypatch):
    got = _estimates()
    monkeypatch.setattr(optimize, "_ascend", _ascend_one_halving)
    ref = _estimates()
    for name, parts in ref.items():
        for a, b in zip(got[name], parts):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
