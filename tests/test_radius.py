"""Radius engines: ascent, enumeration, grid oracle, absolute and polynomial."""

import itertools
import math

import numpy as np
import pytest

from numindex.operators import (HomogeneousPolynomial, Operator, identity,
                                op_norm, poly_apply, poly_from_operator)
from numindex.radius import (
    BudgetExceeded,
    _grid_points,
    absolute_radius,
    numerical_radius,
    poly_radius,
    radius_ascent,
    radius_enumerate,
    radius_grid_oracle,
)
from numindex.spaces import (DegenerateInput, eval_pair, lp,
                             norm, psum, scalar)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rand_op(desc, rng):
    g = rng.standard_normal((desc.total_dim,) * 2)
    if desc.field == "complex":
        g = g + 1j * rng.standard_normal((desc.total_dim,) * 2)
    return Operator(g, desc)


def _witness_value(T, est):
    """Recompute |x*(Tx)| at the stored witness, fresh."""
    w = est.witness
    return abs(eval_pair(w.xstar, T.matrix @ w.x))


# ---------------------------------------------------------------------------
# headline examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("desc", [lp(1, 2), lp(1.5, 3), lp(2, 2), lp(3, 2),
                                  lp(math.inf, 3),
                                  psum(1, [lp(2, 2), scalar()]),
                                  lp(2, 2, "complex")])
def test_identity_radius(desc):
    est = numerical_radius(identity(desc), budget=8, rng=0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_antisymmetric_real_hilbert_is_zero():
    T = Operator(ROT, lp(2, 2))
    assert numerical_radius(T, budget=16, rng=0).value <= 1e-9
    assert radius_grid_oracle(T, 500).value <= 1e-9


def test_antisymmetric_complex_hilbert_is_one():
    T = Operator(ROT.astype(complex), lp(2, 2, "complex"))
    est = numerical_radius(T, budget=16, rng=0)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert radius_grid_oracle(T, 4000).value >= 0.99


def test_l1_examples():
    d = lp(1, 2)
    est = numerical_radius(Operator([[0.0, 1.0], [1.0, 0.0]], d))
    assert est.method == "enumerate"
    assert est.value == pytest.approx(1.0, abs=1e-12)
    est = radius_enumerate(Operator(np.diag([1.0, -1.0]), d))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_linf_identity():
    est = radius_enumerate(identity(lp(math.inf, 2)))
    assert est.value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# certificates relating the three quantities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("desc", [lp(1, 3), lp(2, 2), lp(3, 2), lp(math.inf, 2),
                                  lp(2, 2, "complex")])
def test_witness_certificate(desc):
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = _rand_op(desc, rng)
        est = numerical_radius(T, budget=16, rng=rng)
        assert _witness_value(T, est) == pytest.approx(est.value, abs=1e-9)
        assert est.witness.slack <= 1e-9


@pytest.mark.parametrize("desc", [lp(1.5, 2), lp(2, 3), lp(3, 2), lp(1, 3),
                                  lp(math.inf, 2)])
def test_radius_below_norm(desc):
    rng = np.random.default_rng(8)
    for _ in range(20):
        T = _rand_op(desc, rng)
        v = numerical_radius(T, budget=16, rng=rng).value
        n = op_norm(T, budget=8, rng=rng).value
        assert v <= n + 1e-6


def test_scaling():
    rng = np.random.default_rng(4)
    T = _rand_op(lp(1, 3), rng)
    base = radius_enumerate(T).value
    for a in (0.5, 3.0, -2.0):
        scaled = radius_enumerate(Operator(a * T.matrix, lp(1, 3))).value
        assert scaled == pytest.approx(abs(a) * base, abs=1e-12)
    T = _rand_op(lp(3, 2), rng)
    base = radius_ascent(T, budget=16, rng=0).value
    scaled = radius_ascent(Operator(2.0 * T.matrix, lp(3, 2)), budget=16, rng=0).value
    assert scaled == pytest.approx(2.0 * base, abs=1e-7)


def test_ascent_budget_monotone():
    rng = np.random.default_rng(6)
    T = _rand_op(lp(3, 2), rng)
    v8 = radius_ascent(T, budget=8, rng=0).value
    v16 = radius_ascent(T, budget=16, rng=0).value
    v32 = radius_ascent(T, budget=32, rng=0).value
    assert v8 <= v16 + 1e-15 <= v32 + 2e-15


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def test_grid_oracle_identity_and_refinement():
    T = _rand_op(lp(3, 2), np.random.default_rng(5))
    lo = radius_grid_oracle(T, 500).value
    hi = radius_grid_oracle(T, 1000).value
    assert lo <= hi + 1e-15
    assert radius_grid_oracle(identity(lp(2, 2)), 100).value == pytest.approx(1.0, abs=1e-9)


def test_grid_oracle_dimension_cap():
    with pytest.raises(BudgetExceeded):
        radius_grid_oracle(identity(lp(2, 4)), 100)
    with pytest.raises(BudgetExceeded):
        radius_grid_oracle(identity(lp(2, 3, "complex")), 100)
    with pytest.raises(BudgetExceeded):
        numerical_radius(identity(lp(2, 4)), method="grid")


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_engine_matches_grid_oracle_dim2(p):
    rng = np.random.default_rng(31)
    d = lp(p, 2)
    for _ in range(5):
        T = _rand_op(d, rng)
        engine = numerical_radius(T, budget=64, rng=rng).value
        oracle = radius_grid_oracle(T, 2000).value
        assert engine == pytest.approx(oracle, abs=2e-3)


@pytest.mark.parametrize("T", [
    identity(lp(1, 2)), identity(lp(1, 3)), identity(lp(math.inf, 3)),
    Operator(np.diag([2.0, -1.0, 0.5]), lp(1, 3)),
    Operator(np.diag([1.0, -3.0]), lp(math.inf, 2)),
    Operator(np.random.default_rng(5).standard_normal((3, 3)),
             psum(1, [lp(1, 2), scalar()])),
    Operator(np.random.default_rng(7).standard_normal((3, 3)),
             psum(math.inf, [scalar(), lp(math.inf, 2)])),
    Operator(np.random.default_rng(4).standard_normal((2, 2))
             + 1j * np.random.default_rng(5).standard_normal((2, 2)),
             lp(math.inf, 2, "complex")),
], ids=["id-l1-2", "id-l1-3", "id-linf-3", "diag-l1", "diag-linf",
        "nested-l1", "nested-linf", "complex-linf"])
def test_grid_value_rederives_from_face_witness(T):
    exact = radius_enumerate(T).value
    for resolution in (1000, 4000):
        est = radius_grid_oracle(T, resolution)
        assert est.value == _witness_value(T, est)
        assert est.witness.slack <= 1e-12
        assert est.value <= exact + 1e-12
        if T.field == "real":
            # the real grid holds the ball's corners, where only a face
            # functional, not the canonical J, reaches the exact value
            assert est.value == pytest.approx(exact, abs=1e-9)
        else:
            # the complex grid holds the corners |x1| = |x2| at every
            # resolution
            assert est.value >= exact - 1e-3


def test_poly_grid_maximizes_over_the_l1_face():
    """Degree-2 polynomial on real l1^3: the grid value is the brute-force
    maximum of |f . P(x)| over every vertex f of the dual face at every
    grid point, and it re-derives from its witness."""
    desc = lp(1, 3)
    P = HomogeneousPolynomial(
        2, np.random.default_rng(8).standard_normal((3, 3, 3)), desc)
    est = poly_radius(P, method="grid", resolution=400)
    w = est.witness
    assert est.value == abs(eval_pair(w.xstar, poly_apply(P, w.x)))
    assert w.slack <= 1e-12
    best = 0.0
    for x in _grid_points(desc, 400):
        x = x / np.abs(x).sum()
        y = poly_apply(P, x)
        for s in itertools.product((-1.0, 1.0), repeat=3):
            f = np.where(x != 0, np.sign(x), s)
            best = max(best, abs(f @ y))
    assert est.value == pytest.approx(best, abs=1e-12)


def test_enumeration_selfcheck():
    """Enumeration against the independent grid oracle on random 2x2
    operators on l1 and linf.  The grid is a lower bound, so grid above
    enumeration would mean a wrong enumeration value; the reverse gap only
    reflects the grid's discretization and is checked coarsely."""
    rng = np.random.default_rng(7)
    for p in (1.0, math.inf):
        for _ in range(10):
            T = Operator(rng.standard_normal((2, 2)), lp(p, 2))
            a = radius_enumerate(T).value
            b = radius_grid_oracle(T, 4000).value
            assert b <= a + 1e-9
            assert abs(a - b) <= 5e-3


@pytest.mark.parametrize("desc", [
    lp(1, 3), lp(math.inf, 3), lp(1, 2, "complex"), lp(math.inf, 3, "complex"),
    psum(1, [lp(1, 2), scalar()]), psum(math.inf, [scalar(), lp(math.inf, 2)]),
], ids=["l1", "linf", "complex-l1", "complex-linf", "nested-l1", "nested-linf"])
def test_enumeration_is_the_operator_norm(desc):
    """n(X) = 1 on spaces isometric to l1 or linf, so nu(T) = ||T||: the
    enumeration value is the exact operator norm, bit for bit."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        T = _rand_op(desc, rng)
        est = radius_enumerate(T)
        assert est.value == op_norm(T).value
        assert _witness_value(T, est) == pytest.approx(est.value, abs=1e-12)


def test_enumeration_matches_grid_l1_3d():
    rng = np.random.default_rng(12)
    d = lp(1, 3)
    for _ in range(20):
        T = _rand_op(d, rng)
        a = radius_enumerate(T).value
        b = radius_grid_oracle(T, 2000).value
        assert a == pytest.approx(b, abs=1e-9)


def test_enumerate_needs_flat_one_or_inf():
    with pytest.raises(DegenerateInput):
        radius_enumerate(identity(lp(2, 2)))


# ---------------------------------------------------------------------------
# absolute radius
# ---------------------------------------------------------------------------

def test_absolute_radius_examples():
    d = lp(2, 2)
    assert absolute_radius(identity(d), budget=8, rng=0).value == pytest.approx(1.0, abs=1e-6)
    T = Operator(ROT, d)
    assert absolute_radius(T, budget=16, rng=0).value == pytest.approx(1.0, abs=1e-4)
    assert absolute_radius(T, method="grid").value == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("desc", [lp(1.5, 2), lp(2, 2), lp(3, 2)])
def test_absolute_radius_sandwich(desc):
    rng = np.random.default_rng(9)
    for _ in range(10):
        T = _rand_op(desc, rng)
        v = numerical_radius(T, budget=16, rng=rng)
        a = absolute_radius(T, budget=16, rng=rng,
                            extra_starts=[v.witness.x]).value
        n = op_norm(T, budget=8, rng=rng).value
        assert v.value <= a + 1e-6
        assert a <= n + 1e-6


@pytest.mark.parametrize("desc", [lp(2, 2), lp(3, 2)])
def test_absolute_equals_radius_for_positive_entries(desc):
    rng = np.random.default_rng(10)
    for _ in range(10):
        T = Operator(np.abs(rng.standard_normal((2, 2))), desc)
        a = absolute_radius(T, budget=16, rng=rng)
        x0 = np.abs(a.witness.x)
        x0 = x0 / norm(desc, x0)
        v = numerical_radius(T, budget=16, rng=rng, extra_starts=[x0]).value
        assert abs(v - a.value) <= 1e-4


def test_absolute_radius_shape_errors():
    with pytest.raises(DegenerateInput):
        absolute_radius(identity(lp(math.inf, 2)))
    with pytest.raises(DegenerateInput):
        absolute_radius(identity(psum(2, [lp(2, 2), lp(2, 2)])))


@pytest.mark.parametrize("T", [identity(lp(2, 2)),
                               HomogeneousPolynomial(2, np.zeros((2, 2, 2)), lp(2, 2))],
                         ids=["absolute", "poly"])
def test_ascent_or_grid_backends(T):
    """The absolute and polynomial radii run ``auto`` as the ascent and
    reject a backend they lack by name."""
    radius = poly_radius if isinstance(T, HomogeneousPolynomial) else absolute_radius
    auto = radius(T, method="auto", budget=4, rng=0)
    ascent = radius(T, method="ascent", budget=4, rng=0)
    assert (auto.method, auto.value) == ("ascent", ascent.value)
    assert np.array_equal(auto.witness.x, ascent.witness.x)
    for method in ("enumerate", "bogus"):
        with pytest.raises(DegenerateInput, match=f"no '{method}' backend"):
            radius(T, method=method)


# ---------------------------------------------------------------------------
# polynomial radius
# ---------------------------------------------------------------------------

def test_poly_radius_degree_one_reduction():
    rng = np.random.default_rng(14)
    d = lp(3, 2)
    for _ in range(10):
        T = _rand_op(d, rng)
        a = numerical_radius(T, method="ascent", budget=16, rng=0).value
        b = poly_radius(poly_from_operator(T), budget=16, rng=0).value
        assert a == pytest.approx(b, abs=1e-9)


def test_poly_radius_square_example():
    d = lp(2, 2)
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    P = HomogeneousPolynomial(2, t, d)
    assert poly_radius(P, method="grid", resolution=2000).value == pytest.approx(1.0, abs=1e-4)
    assert poly_radius(P, budget=16, rng=0).value == pytest.approx(1.0, abs=1e-4)


def test_poly_radius_zero():
    d = lp(2, 2)
    P = HomogeneousPolynomial(2, np.zeros((2, 2, 2)), d)
    assert poly_radius(P, budget=4, rng=0).value == pytest.approx(0.0, abs=1e-12)


def test_poly_radius_grid_cap():
    P = HomogeneousPolynomial(2, np.zeros((4, 4, 4)), lp(2, 4))
    with pytest.raises(BudgetExceeded):
        poly_radius(P, method="grid")
