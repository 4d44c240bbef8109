"""Operator layer: apply/adjoint, norms, projections, polynomials, JSON."""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from numindex.operators import (
    GATHER_CAP,
    Operator,
    _apply_rows,
    _symmetrize,
    adjoint,
    apply,
    compose_with_projection,
    identity,
    op_norm,
    op_norm_stack,
    operator_from_json,
    operator_to_json,
    rank_one,
)
from numindex.cli import EXIT_OK, main
from numindex.optimize import LINE_SEARCH_WIDTH
from numindex.index import _start_portfolio, poly_index_estimate, rank_r_index_estimate
from numindex.radius import numerical_radius, poly_norm
from numindex.spaces import (
    COMPLEX,
    REAL,
    DegenerateInput,
    DescriptorMismatch,
    SpaceError,
    dual_descriptor,
    dual_norm,
    gaussian,
    lp,
    norm,
    psum,
    scalar,
    summand,
    tower,
    unit_sphere_sample,
)


def _sphere_grid_norm(T, n=4000):
    """Independent oracle: max ||Tx|| over a dense direction grid (dim 2)."""
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    xs = np.column_stack([np.cos(th), np.sin(th)])
    desc = T.descriptor
    best = 0.0
    for row in xs:
        best = max(best, norm(desc, T.matrix @ row) / norm(desc, row))
    return best


# ---------------------------------------------------------------------------
# construction / apply / adjoint
# ---------------------------------------------------------------------------

def test_apply_examples():
    d = lp(2, 2)
    v = np.array([1.0, 0.0])
    np.testing.assert_allclose(apply(identity(d), [3.0, 4.0]), [3.0, 4.0])
    rot = Operator([[0.0, -1.0], [1.0, 0.0]], d)
    np.testing.assert_allclose(apply(rot, v), [0.0, 1.0])
    np.testing.assert_allclose(apply(Operator(np.zeros((2, 2)), d), v), [0.0, 0.0])


def test_operator_shape_and_field_checks():
    with pytest.raises(DescriptorMismatch):
        Operator(np.eye(3), lp(2, 2))
    with pytest.raises(DescriptorMismatch):
        Operator(np.eye(2) * 1j, lp(2, 2))


def test_adjoint_examples():
    d = lp(3, 2)
    I = identity(d)
    assert adjoint(I).descriptor == dual_descriptor(d)
    np.testing.assert_allclose(adjoint(I).matrix, np.eye(2))
    T = Operator([[1.0, 2.0], [3.0, 4.0]], d)
    np.testing.assert_allclose(adjoint(T).matrix, [[1.0, 3.0], [2.0, 4.0]])
    back = adjoint(adjoint(T))
    assert back.descriptor == d
    np.testing.assert_allclose(back.matrix, T.matrix)


def test_adjoint_complex_conjugates():
    d = lp(2, 2, "complex")
    T = Operator([[1j, 0], [0, -1j]], d)
    np.testing.assert_allclose(adjoint(T).matrix, [[-1j, 0], [0, 1j]])


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("desc", [lp(1, 3), lp(2, 2), lp(3, 2), lp(math.inf, 3),
                                  psum(1.5, [lp(2, 2), scalar()])])
def test_op_norm_identity(desc):
    est = op_norm(identity(desc), rng=0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_op_norm_diag_on_l3():
    est = op_norm(Operator(np.diag([2.0, 1.0]), lp(3, 2)), rng=0)
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_op_norm_l2_matches_svd():
    rng = np.random.default_rng(0)
    d = lp(2, 3)
    for _ in range(25):
        m = rng.standard_normal((3, 3))
        est = op_norm(Operator(m, d), budget=8, rng=rng)
        assert est.value == pytest.approx(np.linalg.norm(m, 2), abs=1e-7)


def test_op_norm_flat_l1_linf_exact():
    m = np.array([[1.0, -4.0], [2.0, 3.0]])
    est1 = op_norm(Operator(m, lp(1, 2)))
    assert est1.method == "exact"
    assert est1.value == pytest.approx(7.0)       # max column abs-sum
    estinf = op_norm(Operator(m, lp(math.inf, 2)))
    assert estinf.method == "exact"
    assert estinf.value == pytest.approx(5.0)     # max row abs-sum
    # witnesses attain the value
    for est, p in [(est1, 1.0), (estinf, math.inf)]:
        desc = lp(p, 2)
        assert norm(desc, m @ est.witness) == pytest.approx(est.value, abs=1e-12)


def test_op_norm_uniformly_nested_l1_exact():
    m = np.array([[1.0, -4.0, 0.5], [2.0, 3.0, -1.0], [0.0, 1.0, 6.0]])
    desc = psum(1, [lp(1, 2), scalar()])
    est = op_norm(Operator(m, desc))
    assert est.method == "exact"
    assert est.value == np.abs(m).sum(axis=0).max() == 8.0
    assert norm(desc, m @ est.witness) == est.value


def test_op_norm_vs_grid_oracle_l3():
    rng = np.random.default_rng(7)
    d = lp(3, 2)
    for _ in range(20):
        T = Operator(rng.standard_normal((2, 2)), d)
        est = op_norm(T, budget=8, rng=rng)
        assert est.value == pytest.approx(_sphere_grid_norm(T), abs=2e-3)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("dim", [2, 3])
def test_adjoint_norm_equality(p, dim):
    rng = np.random.default_rng(13)
    d = lp(p, dim)
    for _ in range(10):
        T = Operator(rng.standard_normal((dim, dim)), d)
        a = op_norm(T, budget=8, rng=np.random.default_rng(1)).value
        b = op_norm(adjoint(T), budget=8, rng=np.random.default_rng(2)).value
        assert a == pytest.approx(b, abs=1e-4)


def test_op_norm_witness_certificate():
    rng = np.random.default_rng(3)
    for desc in [lp(1.5, 2), lp(3, 3), psum(2, [lp(3, 2), scalar()])]:
        T = Operator(rng.standard_normal((desc.total_dim,) * 2), desc)
        est = op_norm(T, budget=8, rng=rng)
        w = est.witness
        assert norm(desc, w) == pytest.approx(1.0, abs=1e-9)
        assert norm(desc, T.matrix @ w) == pytest.approx(est.value, abs=1e-9)


def test_op_norm_witness_is_its_own_array():
    """A witness is a copy, alone and stacked, so an estimate keeps neither
    its search's start array nor the identity its exact column comes from."""
    desc = lp(3, 3)
    Ts = [Operator(np.random.default_rng(j).standard_normal((3, 3)), desc) for j in range(2)]
    assert op_norm(Ts[0], budget=8, rng=0).witness.base is None
    for est in op_norm_stack(Ts, 8, [np.random.default_rng(j) for j in range(2)]):
        assert est.method == "fixed-point" and est.witness.base is None
    for p in (1, math.inf):
        est = op_norm(Operator(Ts[0].matrix, lp(p, 3)))
        assert est.method == "exact" and est.witness.base is None


def _assert_witness(T, est):
    assert norm(T.descriptor, est.witness) == pytest.approx(1.0, abs=1e-12)
    assert norm(T.descriptor, T.matrix @ est.witness) == pytest.approx(est.value, abs=1e-12)


def test_op_norm_zero_rows_warn_nothing():
    """Starts with Tx = 0 (F(x) = 0, so the plain candidate is the zero
    vector) keep their point and stop without a 0/0."""
    shift = Operator(np.diag(np.ones(2), 1), lp(1.5, 3))          # T e_1 = 0
    desc = psum(1.5, [lp(3, 2), scalar()])
    f, y = np.array([0.0, 0.0, 2.0]), np.array([0.5, -1.0, 0.25])
    one = rank_one(desc, f, y)                  # T e_1 = T e_2 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T, want in ((shift, 1.0), (one, dual_norm(desc, f) * norm(desc, y))):
            for budget in (1, 3, 8):
                est = op_norm(T, budget=budget, rng=0)
                _assert_witness(T, est)
                assert est.value == pytest.approx(want if budget > 1 else 0.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_op_norm_of_a_near_rotation(p, eps):
    """Near an isometry the plain fixed point creeps across a nearly flat
    sphere; the extrapolated one reaches the maximum of ||Mx|| / ||x|| over
    a 2,000,001-angle circle to 1e-8."""
    m = np.array([[0.0, 1.0], [-1.0, 0.0]]) + eps * np.array([[0.3, -0.2], [0.5, 0.1]])
    sweep = 0.0
    for th in np.array_split(np.linspace(0.0, 2 * np.pi, 2_000_001), 8):
        u, v = np.cos(th), np.sin(th)
        tx = np.abs(m[0, 0] * u + m[0, 1] * v) ** p + np.abs(m[1, 0] * u + m[1, 1] * v) ** p
        sweep = max(sweep, float(((tx / (np.abs(u) ** p + np.abs(v) ** p)) ** (1 / p)).max()))
    T = Operator(m, lp(p, 2))
    est = op_norm(T, budget=4, rng=0)
    _assert_witness(T, est)
    assert est.value == pytest.approx(sweep, abs=1e-8)


@pytest.mark.parametrize("desc", [lp(3, 3), psum(1.5, [lp(3, 2), scalar()]),
                                  tower([3, 1.5], [2, 1, 2]),
                                  psum(3, [lp(1.5, 2, COMPLEX), scalar(COMPLEX)])], ids=str)
def test_op_norm_budget_prefix_and_row_independence(desc):
    """Under one seed the starts of budget B are a prefix of those of 2B,
    and every start runs alone, so doubling the budget never lowers the
    value; a stack in another order gives each member its one-member call.
    Both hold for operators and for polynomials of degree 2 and 3."""
    rng = np.random.default_rng(5)
    for degree in (1, 2, 3):
        Ts = [Operator(gaussian(desc, rng, (desc.total_dim,) * (degree + 1)), desc)
              for _ in range(3)]
        for T in Ts:
            for b in (2, 4, 8):
                assert op_norm(T, budget=2 * b, rng=9).value >= op_norm(T, budget=b, rng=9).value
        order = [2, 0, 1]
        stacked = op_norm_stack([Ts[k] for k in order], 4,
                                [np.random.default_rng(k) for k in order])
        for k, est in zip(order, stacked):
            ref = op_norm(Ts[k], budget=4, rng=k)
            assert est.value == ref.value
            np.testing.assert_array_equal(est.witness, ref.witness)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("desc", [lp(3, 3), lp(1.5, 2, COMPLEX), tower([3, 1.5], [2, 1, 2])],
                         ids=str)
def test_duality_step_is_the_gradient_of_the_pairing(desc, k):
    """The fixed point's contraction A(f; ., x, ..., x) of the output index
    with f and k - 1 inputs with x is the gradient of x -> f . P(x) divided
    by k: its central differences, which on a complex space are those of a
    holomorphic function."""
    rng = np.random.default_rng(4)
    d = desc.total_dim
    P = Operator(gaussian(desc, rng, (d,) * (k + 1)), desc)
    x, f = gaussian(desc, rng, (d,)), gaussian(desc, rng, (d,))
    step = _apply_rows(P.tensor[None], x[None], None, f[None])[0]
    h = 1e-5
    grad = np.array([(f @ apply(P, x + h * e) - f @ apply(P, x - h * e)) / (2 * h)
                     for e in np.eye(d)])
    np.testing.assert_allclose(grad / k, step, rtol=0, atol=2e-10 * np.abs(step).max())


def test_op_norm_shrinks_the_multiplier_of_a_falling_row():
    """Above degree 1 a step of the fixed point can lower ||P(x)||.  The row
    then keeps its point and retries with its multiplier divided by
    2^LINE_SEARCH_WIDTH; stopping at the first fall leaves this polynomial
    at 2.631038."""
    desc = lp(4, 3)
    rng = np.random.default_rng(1002)
    P = [Operator(gaussian(desc, rng, (3, 3, 3)), desc) for _ in range(3)][2]
    est = op_norm(P, budget=6, rng=2)
    assert norm(desc, apply(P, est.witness)) == pytest.approx(est.value, abs=1e-12)
    assert est.value == pytest.approx(2.635047, abs=1e-6)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("desc", [lp(3, 2), lp(1, 3), lp(4, 2, COMPLEX),
                                  psum(1.5, [lp(3, 2), scalar()])], ids=str)
def test_op_norm_of_polynomial_is_the_fixed_point(desc, k):
    rng = np.random.default_rng(11)
    shape = (desc.total_dim,) * (k + 1)
    t = rng.standard_normal(shape)
    if desc.field == COMPLEX:
        t = t + 1j * rng.standard_normal(shape)
    P = Operator(t, desc)
    est = op_norm(P, budget=8, rng=5)
    assert abs(norm(desc, apply(P, est.witness)) - est.value) <= 1e-12
    value, witness = poly_norm(P, budget=8, rng=5)
    assert est.value == value
    np.testing.assert_array_equal(est.witness, witness)
    if k == 1:
        # degree 1 is the operator: the closed form or the fixed point, bit for bit
        exact = desc.uniform_exponent in (1.0, math.inf)
        ref = op_norm(Operator(P.tensor, desc), budget=8, rng=5)
        assert (est.value, est.method) == (ref.value, ref.method)
        assert est.method == ("exact" if exact else "fixed-point")
        np.testing.assert_array_equal(est.witness, ref.witness)
    else:
        assert est.method == "fixed-point"


# ---------------------------------------------------------------------------
# rank-one / rank-r
# ---------------------------------------------------------------------------

def test_rank_one_examples():
    d = lp(2, 3)
    e1 = np.array([1.0, 0.0, 0.0])
    T = rank_one(d, e1, e1)
    np.testing.assert_allclose(T.matrix, np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(rank_one(d, np.zeros(3), e1).matrix, 0.0)


def test_rank_one_unit_norm():
    rng = np.random.default_rng(21)
    for desc in [lp(2, 2), lp(3, 3), lp(1.5, 2)]:
        f = unit_sphere_sample(dual_descriptor(desc), rng)
        y = unit_sphere_sample(desc, rng)
        est = op_norm(rank_one(desc, f, y), budget=8, rng=rng)
        assert est.value == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# projections and composition
# ---------------------------------------------------------------------------

def test_compose_with_projection_examples():
    desc = lp(2, 3)
    sub, _ = summand(desc, (0, 1))
    np.testing.assert_allclose(compose_with_projection(identity(sub), desc, (0, 1)).matrix,
                               np.diag([1.0, 1.0, 0.0]))
    L0 = Operator(np.zeros((2, 2)), sub)
    assert np.allclose(compose_with_projection(L0, desc, (0, 1)).matrix, 0.0)
    L = Operator([[1.0, 2.0], [3.0, 4.0]], sub)
    full = compose_with_projection(L, desc, (0, 1)).matrix
    np.testing.assert_allclose(full[:2, :2], L.matrix)
    assert np.allclose(full[2, :], 0.0) and np.allclose(full[:, 2], 0.0)


def test_compose_descriptor_mismatch():
    with pytest.raises(DescriptorMismatch):
        compose_with_projection(Operator(np.eye(3), lp(2, 3)), lp(2, 3), (0, 1))


def test_projection_embed_selects_the_kept_leaves():
    desc = psum(1.5, [lp(2, 2), scalar(), lp(3, 2)])
    sub, leaves = summand(desc, (2, 0))
    assert sub == psum(1.5, [lp(2, 2), lp(3, 2)])
    np.testing.assert_array_equal(leaves, [0, 1, 3, 4])
    want = np.zeros((5, 4))
    want[[0, 1, 3, 4], [0, 1, 2, 3]] = 1.0
    L = Operator(np.arange(16.0).reshape(4, 4), sub)
    np.testing.assert_array_equal(compose_with_projection(L, desc, (2, 0)).matrix,
                                  want @ L.matrix @ want.T)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_compose_with_projection_bytes_are_the_selector_product(field):
    # the product turns the -0.0 entries of the signed permutation into +0.0
    desc = lp(3, 4, field)
    sub, leaves = summand(desc, range(3))
    L = _start_portfolio(sub, np.random.default_rng(0))[2]
    assert np.count_nonzero((L.matrix == 0) & np.signbit(L.matrix.real)) == 2
    E = np.eye(4, dtype=desc.dtype)[:, leaves]
    assert (compose_with_projection(L, desc, range(3)).matrix.tobytes()
            == (E @ L.matrix @ E.T).tobytes())


def test_projection_never_increases_norm():
    desc = psum(1.5, [lp(2, 2), lp(3, 2)])
    sub, _ = summand(desc, (0,))
    rng = np.random.default_rng(17)
    for _ in range(20):
        L = Operator(rng.standard_normal((2, 2)), sub)
        a = op_norm(compose_with_projection(L, desc, (0,)), budget=8,
                    rng=np.random.default_rng(0)).value
        b = op_norm(L, budget=8, rng=np.random.default_rng(0)).value
        assert a <= b + 1e-6


def test_op_norm_submultiplicative_exact_backends():
    rng = np.random.default_rng(23)
    for p in (1.0, math.inf):
        d = lp(p, 3)
        for _ in range(100):
            A = Operator(rng.standard_normal((3, 3)), d)
            B = Operator(rng.standard_normal((3, 3)), d)
            AB = Operator(A.matrix @ B.matrix, d)
            assert op_norm(AB).value <= op_norm(A).value * op_norm(B).value + 1e-6


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_apply_examples():
    d = lp(2, 2)
    # P(x) = (x1^2, 0)
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    P = Operator(t, d)
    np.testing.assert_allclose(apply(P, [2.0, 5.0]), [4.0, 0.0])
    np.testing.assert_allclose(apply(P, [0.0, 0.0]), [0.0, 0.0])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_apply_rows_polynomial_stacks(field):
    rng = np.random.default_rng(2)
    d = lp(3, 3, field)

    def gauss(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if field == "complex" else g

    x, g = gauss((40, 3)), rng.integers(0, 4, 40)
    # degree 1: the operator product, rounded as the matrix form rounds it
    m = np.stack([Operator(gauss((3, 3)), d).tensor for _ in range(4)])
    np.testing.assert_array_equal(_apply_rows(m, x, g), np.einsum("bij,bj->bi", m[g], x))
    np.testing.assert_array_equal(_apply_rows(m[:1], x, g), np.einsum("ij,bj->bi", m[0], x))
    # degree 2: every row as the one-polynomial apply computes it alone
    Ps = [Operator(gauss((3, 3, 3)), d) for _ in range(4)]
    rows = _apply_rows(np.stack([P.tensor for P in Ps]), x, g)
    for b in range(len(x)):
        np.testing.assert_array_equal(rows[b], apply(Ps[g[b]], x[b]))


def _traced_peak(fn):
    """fn() and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_rows_tensor_stack_applies_member_by_member():
    """A stack of several degree-k tensors whose gather would exceed the cap
    never holds one (d, ..., d) tensor per row, (B, d^(k+1)) in all, and a
    one-member stack never gathers; each member's rows are applied as that
    member alone applies them.  The same holds for the duality step of
    op_norm, which contracts f_b first, and for op_norm itself."""
    rng = np.random.default_rng(3)
    d, k, B = lp(3, 4), 5, 600
    m = np.stack([Operator(rng.standard_normal((4,) * (k + 1)), d).tensor
                  for _ in range(3)])
    x, g = rng.standard_normal((B, 4)), rng.integers(0, 3, B)
    assert B * m[0].size > GATHER_CAP
    for f in (None, rng.standard_normal((B, 4))):
        rows, peak = _traced_peak(lambda: _apply_rows(m, x, g, f))
        assert peak < B * m[0].nbytes / 4
        assert _traced_peak(lambda: _apply_rows(m[:1], x, g, f))[1] < B * m[0].nbytes / 2
        for j in range(3):
            np.testing.assert_array_equal(
                rows[g == j], _apply_rows(m[j:j + 1], x[g == j], None,
                                          None if f is None else f[g == j]))
    # degree-6 polynomials: the peak of op_norm stays below half of one
    # tensor per candidate row, and a stack gives each member its own call
    Ps = [Operator(rng.standard_normal((4,) * 7), d) for _ in range(3)]
    for members in (Ps[:1], Ps):
        rngs = [np.random.default_rng(j) for j in range(len(members))]
        found, peak = _traced_peak(lambda: op_norm_stack(members, 16, rngs))
        assert peak < 16 * LINE_SEARCH_WIDTH * len(members) * Ps[0].tensor.nbytes / 2
    for j, est in enumerate(found):
        ref = op_norm(Ps[j], budget=16, rng=j)
        assert est.value == ref.value
        np.testing.assert_array_equal(est.witness, ref.witness)


def test_poly_homogeneity():
    d = lp(3, 2)
    rng = np.random.default_rng(4)
    P = Operator(rng.standard_normal((2, 2, 2, 2)), d)
    v = rng.standard_normal(2)
    for a in (0.5, -2.0, 3.0):
        np.testing.assert_allclose(apply(P, a * v),
                                   a ** 3 * apply(P, v), atol=1e-12)


def test_poly_tensor_symmetrized():
    d = lp(2, 2)
    t = np.zeros((2, 2, 2))
    t[0, 0, 1] = 2.0
    P = Operator(t, d)
    np.testing.assert_allclose(P.tensor[0, 0, 1], 1.0)
    np.testing.assert_allclose(P.tensor[0, 1, 0], 1.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_symmetrize_matches_permutation_average(field):
    rng = np.random.default_rng(11)
    for k in range(1, 6):
        shape = (3,) * (k + 1)
        t = rng.standard_normal(shape)
        if field == "complex":
            t = t + 1j * rng.standard_normal(shape)
        perms = list(itertools.permutations(range(1, k + 1)))
        want = sum(np.transpose(t, (0,) + p) for p in perms) / len(perms)
        np.testing.assert_allclose(_symmetrize(t, k), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_symmetrized_tensor_is_exactly_symmetric_and_kept(field):
    """From degree 3 on, the coset sums round by term order; the built
    tensor is still exactly symmetric, and building it again returns it bit
    for bit, which the JSON round trip relies on."""
    rng = np.random.default_rng(13)
    for k in range(2, 6):
        t = rng.standard_normal((3,) * (k + 1))
        if field == "complex":
            t = t + 1j * rng.standard_normal(t.shape)
        P = Operator(t, lp(3, 3, field))
        for i in range(1, k):
            assert np.array_equal(np.swapaxes(P.matrix, i, i + 1), P.matrix)
        assert Operator(P.matrix, P.descriptor).matrix.tobytes() == P.matrix.tobytes()


def test_degree_12_polynomial_builds_symmetric():
    t = np.random.default_rng(12).standard_normal((2,) * 13)
    P = Operator(t, lp(3, 2))
    for i in range(1, 12):
        np.testing.assert_allclose(np.swapaxes(P.tensor, i, i + 1), P.tensor,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_entries_rejected(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(SpaceError, match="matrix has non-finite"):
        Operator(m, lp(2, 2, "complex"))
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0, 0, 1] = bad
    with pytest.raises(SpaceError, match="tensor has non-finite"):
        Operator(t, lp(2, 2, "complex"))


def test_complex_coefficients_on_a_real_space_rejected():
    """Maps of every degree share one entry check: complex entries on a
    real space are an error, not silently dropped imaginary parts.  The
    message calls the coefficients a matrix at degree 1, a tensor above."""
    m = np.array([[1.0, 1j], [0.0, 1.0]])
    with pytest.raises(DescriptorMismatch, match="complex matrix on a real"):
        Operator(m, lp(2, 2))
    with pytest.raises(DescriptorMismatch, match="complex tensor on a real"):
        Operator(np.full((2, 2, 2), 1 + 1j), lp(2, 2))
    # vanishing imaginary parts are the real entries
    P = Operator(np.full((2, 2, 2), 1 + 0j), lp(2, 2))
    assert P.tensor.dtype == np.float64 and np.all(P.tensor == 1.0)


def test_poly_cap_and_shape_errors():
    with pytest.raises(DegenerateInput, match=r"tensor size 4\^10 exceeds cap"):
        Operator(np.zeros((4,) * 11), lp(2, 4))
    with pytest.raises(DescriptorMismatch, match=r"matrix shape \(2, 3\), expected \(2, 2\)"):
        Operator(np.zeros((2, 3)), lp(2, 2))
    with pytest.raises(DescriptorMismatch,
                       match=r"tensor shape \(2, 2, 3\), expected \(2, 2, 2\)"):
        Operator(np.zeros((2, 2, 3)), lp(2, 2))


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------

def test_json_round_trip_real():
    T = Operator([[1.0, -2.0], [0.5, 4.0]], lp(3, 2))
    back = operator_from_json(operator_to_json(T))
    assert back.descriptor == T.descriptor
    np.testing.assert_array_equal(back.matrix, T.matrix)


def test_json_round_trip_complex():
    T = Operator([[1 + 2j, 0], [0, -1j]], lp(2, 2, "complex"))
    back = operator_from_json(operator_to_json(T))
    assert back.descriptor.field == "complex"
    np.testing.assert_array_equal(back.matrix, T.matrix)


def test_json_entry_count_mismatch():
    T = Operator(np.eye(2), lp(2, 2))
    with pytest.raises(DescriptorMismatch, match="4 entries, expected 9"):
        operator_from_json(operator_to_json(T), descriptor=lp(2, 3))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_json_round_trip_reads_the_degree_from_the_entry_count(k, field):
    d = lp(3, 2, field)
    t = np.random.default_rng(k).standard_normal((2,) * (k + 1))
    if field == COMPLEX:
        t = t + 1j * np.random.default_rng(k + 10).standard_normal(t.shape)
    P = Operator(t, d)
    back = operator_from_json(operator_to_json(P))
    assert back.degree == k and back.descriptor == d
    assert back.matrix.tobytes() == P.matrix.tobytes()


#: (file, what the error must name): an unknown field and the four kinds
#: of bad "matrix" that once gave a Python error, or none for a boolean
BAD_JSON_FILES = [
    ({"field": "quaternion", "matrix": [1.0, 0.0, 0.0, 1.0]}, 'unknown "field" "quaternion"'),
    ({"matrix": 5}, '"matrix" must be a list, got 5'),
    ({"matrix": [1.0, "a", 0.0, 1.0]}, 'matrix entry 1 is "a", not a number'),
    ({"field": "complex", "matrix": [[1.0, 0.0], [2.0], [0.0, 0.0], [1.0, 0.0]]},
     r"matrix entry 1 is \[2.0\], not an \[re, im\] pair of numbers"),
    ({"matrix": [1.0, 0.0, True, 1.0]}, "matrix entry 2 is true, not a number"),
    ({"field": "complex", "matrix": [[1.0, 0.0], [0.0, False], [0.0, 0.0], [1.0, 0.0]]},
     r"matrix entry 1 is \[0.0, false\], not an \[re, im\] pair"),
    # a "descriptor" of None is left out of the file
    ({"descriptor": None, "matrix": [1.0, 0.0, 0.0, 1.0]},
     '"descriptor" must be a descriptor text, got no such field'),
    ({"descriptor": 5, "matrix": [1.0, 0.0, 0.0, 1.0]},
     '"descriptor" must be a descriptor text, got 5.0'),
]


@pytest.mark.parametrize("obj,named", BAD_JSON_FILES,
                         ids=["unknown-field", "matrix-not-a-list", "string-entry",
                              "short-pair", "boolean-entry", "boolean-in-pair",
                              "missing-descriptor", "number-descriptor"])
def test_json_bad_file_names_the_problem(obj, named):
    """With the descriptor given or read from the file, a bad field or
    matrix entry raises a DescriptorMismatch that names it; read from the
    file, so does a "descriptor" that is missing or no text."""
    file = {k: v for k, v in {"descriptor": "lp(p=2,dim=2)", **obj}.items() if v is not None}
    # a given descriptor replaces the file's, so only a good file's can be given
    field = COMPLEX if obj.get("field") == COMPLEX else REAL
    given = [] if "descriptor" in obj else [lp(2, 2, field)]
    for desc in given + [None]:
        with pytest.raises(DescriptorMismatch, match=named):
            operator_from_json(json.dumps(file), desc)


def test_json_one_dimensional_file_is_degree_one():
    """On a line every degree has one coefficient and the same radius and
    norm, so one entry reads as degree 1 and any other count fails."""
    text = json.dumps({"descriptor": "lp(p=3,dim=1)", "matrix": [-2.0]})
    T = operator_from_json(text)
    assert T.degree == 1 and T.matrix.tolist() == [[-2.0]]
    assert numerical_radius(T, budget=2, rng=0).value == 2.0
    with pytest.raises(DescriptorMismatch, match="2 entries, expected 1"):
        operator_from_json(json.dumps({"descriptor": "lp(p=3,dim=1)", "matrix": [1.0, 1.0]}))


# ---------------------------------------------------------------------------
# one map class
# ---------------------------------------------------------------------------

def test_search_witnesses_expose_the_map_attributes():
    """The attributes the benchmark's re-scores read on index witnesses."""
    d = lp(3, 2)
    P = poly_index_estimate(d, 2, budget=4, rng=0).witness_operator
    assert isinstance(P, Operator)
    assert P.tensor is P.matrix and P.matrix.shape == (2, 2, 2)
    assert (P.degree, P.field, P.descriptor) == (2, "real", d)
    W = rank_r_index_estimate(d, 1, budget=4, rng=0).witness_operator
    assert W.degree == 1 and np.linalg.matrix_rank(W.matrix) <= 1


@pytest.mark.parametrize("field", ["real", "complex"])
def test_degree_two_json_round_trip_and_cli_radius(field, tmp_path, capsys):
    d = lp(3, 2, field)
    rng = np.random.default_rng(21)
    t = rng.standard_normal((2, 2, 2))
    if field == COMPLEX:
        t = t + 1j * rng.standard_normal((2, 2, 2))
    P = Operator(t, d)
    text = operator_to_json(P)
    back = operator_from_json(text)
    assert back.degree == 2 and back.descriptor == d
    np.testing.assert_array_equal(back.matrix, P.matrix)
    np.testing.assert_array_equal(operator_from_json(text, d).matrix, P.matrix)
    path = tmp_path / "p.json"
    path.write_text(text)
    code = main(["radius", "--space", f"lp(p=3,dim=2,field={field})", "--matrix",
                 str(path), "--budget", "8", "--seed", "5"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == numerical_radius(P, budget=8, rng=5).value


def test_adjoint_and_composition_need_degree_one():
    d = lp(3, 2)
    P = Operator(np.ones((2, 2, 2)), d)
    with pytest.raises(DegenerateInput, match="degree 2"):
        adjoint(P)
    with pytest.raises(DegenerateInput, match="degree 2"):
        compose_with_projection(P, psum(2, [d, scalar()]), (0,))
