"""Radius engines: ascent, enumeration, grid oracle, absolute and polynomial."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from numindex import radius as radius_module
from numindex.operators import Operator, identity, apply, op_norm, op_norm_stack
from numindex.optimize import maximize_stack
from numindex.radius import (
    BudgetExceeded,
    RadiusEstimate,
    _functional,
    _grid_points,
    absolute_radius,
    numerical_radius,
    poly_radius,
    radius_enumerate,
    radius_grid_oracle,
    radius_objective,
    radius_stack,
)
from numindex.spaces import (DegenerateInput, dual_descriptor, eval_pair, gaussian, lp,
                             psum, scalar, sphere_starts, tower)

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


def _absolute_witness_value(T, est):
    """Recompute sum_i |x*_i| |(Tx)_i| at the stored witness, fresh."""
    w = est.witness
    return float(np.sum(np.abs(w.xstar) * np.abs(T.matrix @ w.x)))


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
    """Every backend of both radii that applies to the space stores a norming
    pair from which its value re-derives: |x*(Tx)|, and sum_i |x*_i| |(Tx)_i|
    for the absolute radius.  Every space here is within the grid's cap."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = _rand_op(desc, rng)
        checks = [(numerical_radius(T, m, budget=16, rng=rng), _witness_value)
                  for m in ("auto", "ascent", "grid")]
        if desc.is_flat and desc.p < math.inf:
            checks += [(absolute_radius(T, budget=16, rng=rng), _absolute_witness_value),
                       (absolute_radius(T, method="grid", resolution=1000),
                        _absolute_witness_value)]
        for est, rederive in checks:
            assert abs(rederive(T, est) - est.value) <= 1e-12 * max(1.0, est.value)
            assert est.witness.slack <= 1e-12


@pytest.mark.parametrize("desc", [
    lp(1, 3), lp(1, 5), psum(1, [lp(1, 2), psum(1, [scalar(), lp(1, 2)])]),
    lp(1, 2, "complex"),
], ids=["l1-3", "l1-5", "nested-l1", "complex-l1"])
def test_l1_ascent_reaches_the_enumeration(desc):
    """The coordinate starts of the ascent are corners of the l1 ball, where
    the ascent scores the best functional of the dual face, so it reaches
    nu(T) = ||T||, the enumeration's value."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        T = _rand_op(desc, rng)
        ascent = numerical_radius(T, method="ascent", budget=16, rng=rng)
        assert ascent.value == pytest.approx(radius_enumerate(T).value, rel=1e-12)


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
    base = numerical_radius(T, method="ascent", budget=16, rng=0).value
    scaled = numerical_radius(Operator(2.0 * T.matrix, lp(3, 2)), method="ascent",
                              budget=16, rng=0).value
    assert scaled == pytest.approx(2.0 * base, abs=1e-7)


def test_ascent_budget_monotone():
    rng = np.random.default_rng(6)
    T = _rand_op(lp(3, 2), rng)
    v8 = numerical_radius(T, method="ascent", budget=8, rng=0).value
    v16 = numerical_radius(T, method="ascent", budget=16, rng=0).value
    v32 = numerical_radius(T, method="ascent", budget=32, rng=0).value
    assert v8 <= v16 + 1e-15 <= v32 + 2e-15


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("desc", [lp(3, 2), lp(1.5, 3), lp(3, 2, "complex"),
                                  lp(math.inf, 2, "complex")],
                         ids=["real-lp3-2", "real-lp1.5-3", "complex-lp3-2", "complex-lpinf-2"])
def test_grid_oracle_identity_and_refinement(desc):
    # the grid at 2r holds every row of the grid at r, bit for bit ...
    for r in (100, 300, 1000, 2000):
        finer = {row.tobytes() for row in _grid_points(desc, 2 * r)}
        assert all(row.tobytes() in finer for row in _grid_points(desc, r)), r
    # ... so the grid value never falls when the resolution doubles
    rng = np.random.default_rng(5)
    for _ in range(3):
        T = _rand_op(desc, rng)
        values = [radius_grid_oracle(T, r).value for r in (500, 1000, 2000, 4000)]
        assert values == sorted(values)
    assert radius_grid_oracle(identity(desc), 100).value == pytest.approx(1.0, abs=1e-9)


def test_grid_oracle_dimension_cap():
    with pytest.raises(BudgetExceeded):
        radius_grid_oracle(identity(lp(2, 4)), 100)
    with pytest.raises(BudgetExceeded):
        radius_grid_oracle(identity(lp(2, 3, "complex")), 100)
    with pytest.raises(BudgetExceeded):
        numerical_radius(identity(lp(2, 4)), method="grid")


@pytest.mark.parametrize("desc", [lp(3, 2), lp(3, 3), lp(3, 2, "complex")], ids=str)
def test_grid_points_cap_rejects_before_allocating(desc, monkeypatch):
    """A resolution whose grid would exceed ``GRID_POINT_CAP`` rows is
    rejected, naming the resolution, before any grid array exists; the cap
    counts exactly the rows the grid has."""
    for r, rows in [(r, len(_grid_points(desc, r))) for r in (1, 300, 4000)]:
        monkeypatch.setattr("numindex.radius.GRID_POINT_CAP", rows)
        assert len(_grid_points(desc, r)) == rows
        monkeypatch.setattr("numindex.radius.GRID_POINT_CAP", rows - 1)
        with pytest.raises(DegenerateInput, match=f"grid resolution {r} needs {rows} points"):
            _grid_points(desc, r)
    monkeypatch.undo()
    for allocator in ("linspace", "meshgrid"):
        monkeypatch.setattr(np, allocator, lambda *a, **k: pytest.fail("grid allocated"))
    with pytest.raises(DegenerateInput, match="grid resolution 100000000 needs"):
        radius_grid_oracle(identity(desc), 10 ** 8)


@pytest.mark.parametrize("absolute", [False, True], ids=["numerical", "absolute"])
@pytest.mark.parametrize("desc", [lp(3, 2), lp(1.5, 3), lp(4, 2, "complex")], ids=str)
def test_grid_stack_matches_one_member_calls(desc, absolute):
    """A 3-member stack on the grid backend sweeps each member on its own:
    value, witness pair and evals equal the one-member calls bit for bit."""
    rng = np.random.default_rng(21)
    Ts = [_rand_op(desc, rng) for _ in range(3)]
    one = absolute_radius if absolute else numerical_radius
    stacked = radius_stack(Ts, 4, [None] * 3, "grid", 300, absolute=absolute)
    for T, est in zip(Ts, stacked):
        ref = one(T, method="grid", resolution=300)
        assert (est.value, est.method, est.evals) == (ref.value, "grid", ref.evals)
        np.testing.assert_array_equal(est.witness.x, ref.witness.x)
        np.testing.assert_array_equal(est.witness.xstar, ref.witness.xstar)


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
    P = Operator(np.random.default_rng(8).standard_normal((3, 3, 3)), desc)
    est = poly_radius(P, method="grid", resolution=400)
    w = est.witness
    assert est.value == abs(eval_pair(w.xstar, apply(P, w.x)))
    assert w.slack <= 1e-12
    best = 0.0
    for x in _grid_points(desc, 400):
        x = x / np.abs(x).sum()
        y = apply(P, x)
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
    psum(1, [lp(1, 2), psum(1, [scalar(), lp(1, 2)])]),
    psum(math.inf, [scalar(), lp(math.inf, 2)]),
    psum(1, [lp(1, 2, "complex"), scalar("complex")]),
    psum(math.inf, [scalar("complex"), lp(math.inf, 2, "complex")]),
], ids=["l1", "linf", "complex-l1", "complex-linf", "nested-l1", "nested-linf",
        "complex-nested-l1", "complex-nested-linf"])
def test_enumeration_is_the_operator_norm(desc):
    """n(X) = 1 on spaces isometric to l1 or linf, so nu(T) = ||T||: the
    enumeration value and x are the exact operator norm and its witness, bit
    for bit, also with a zero row or column, and the witness pair re-derives
    the value."""
    rng = np.random.default_rng(21)
    for k in range(60):
        T = _rand_op(desc, rng)
        if k % 3 == 0:
            m = T.matrix.copy()
            m[k % desc.total_dim] = 0.0
            T = Operator(m if k % 2 else m.T, desc)
        est, norm_est = radius_enumerate(T), op_norm(T)
        assert est.value == norm_est.value
        assert np.array_equal(est.witness.x, norm_est.witness)
        assert est.witness.slack <= 1e-12
        assert abs(_witness_value(T, est) - est.value) <= 1e-12


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
        a = absolute_radius(T, budget=16, rng=rng).value
        n = op_norm(T, budget=8, rng=rng).value
        assert v.value <= a + 1e-6
        assert a <= n + 1e-6


@pytest.mark.parametrize("desc", [lp(2, 2), lp(3, 2)])
def test_absolute_equals_radius_for_positive_entries(desc):
    rng = np.random.default_rng(10)
    for _ in range(10):
        T = Operator(np.abs(rng.standard_normal((2, 2))), desc)
        a = absolute_radius(T, budget=16, rng=rng)
        v = numerical_radius(T, budget=16, rng=rng).value
        assert abs(v - a.value) <= 1e-4


@pytest.mark.parametrize("desc", [lp(p, d, field) for field in ("real", "complex")
                                  for p, d in ((1, 3), (1.25, 3), (3, 2))]
                         + [psum(1.5, [lp(4, 2), scalar()]), tower([3, 1.5], [2, 1, 2])],
                         ids=str)
def test_absolute_objective_scores_what_the_estimate_reports(desc):
    """On unit rows the absolute objective is sum_i |x*_i| |(Tx)_i| with x*
    from ``_functional``, the value an estimate re-derives from its witness
    pair, on flat and nested spaces alike."""
    rng = np.random.default_rng(12)
    T = _rand_op(desc, rng)
    x = rng.standard_normal((50, desc.total_dim))
    if desc.field == "complex":
        x = x + 1j * rng.standard_normal(x.shape)
    x = x / desc.plan.norm(x)[:, None]
    expected = []
    for v in x:
        image = T.matrix @ v
        f = _functional(desc, v[None], image[None])[0]
        expected.append(np.sum(np.abs(f) * np.abs(image)))
    got = radius_objective(T, absolute=True)(x, np.zeros(len(x), dtype=int))
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


def test_absolute_radius_shape_errors():
    with pytest.raises(DegenerateInput):
        absolute_radius(identity(lp(math.inf, 2)))
    with pytest.raises(DegenerateInput):
        absolute_radius(identity(psum(2, [lp(2, 2), lp(2, 2)])))
    # the absolute radius is defined for degree-1 maps only
    with pytest.raises(DegenerateInput, match="degree-1"):
        absolute_radius(Operator(np.ones((2, 2, 2)), lp(3, 2)))


@pytest.mark.parametrize("T", [identity(lp(2, 2)),
                               Operator(np.zeros((2, 2, 2)), lp(2, 2))],
                         ids=["absolute", "poly"])
def test_ascent_or_grid_backends(T):
    """The absolute and polynomial radii run ``auto`` as the ascent and
    reject a backend they lack by name."""
    radius = poly_radius if T.degree > 1 else absolute_radius
    auto = radius(T, method="auto", budget=4, rng=0)
    ascent = radius(T, method="ascent", budget=4, rng=0)
    assert (auto.method, auto.value) == ("ascent", ascent.value)
    assert np.array_equal(auto.witness.x, ascent.witness.x)
    for method in ("enumerate", "bogus"):
        with pytest.raises(DegenerateInput, match=f"no '{method}' backend"):
            radius(T, method=method)


def test_numerical_radius_backends():
    """``auto`` enumerates the radius of a degree-1 map on l1/linf and runs
    the ascent elsewhere; a missing backend is named."""
    T = Operator(np.array([[1.0, 2.0], [0.0, 1.0]]), lp(1, 2))
    assert numerical_radius(T).method == "enumerate"
    assert numerical_radius(T, method="ascent", budget=4, rng=0).method == "ascent"
    with pytest.raises(DegenerateInput, match="numerical radius has no 'bogus' "
                                              "backend; choose auto, ascent, enumerate or grid"):
        numerical_radius(T, method="bogus")


# ---------------------------------------------------------------------------
# polynomial radius
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["auto", "ascent", "grid"])
def test_numerical_radius_takes_polynomials(method):
    """``poly_radius`` is ``numerical_radius`` of a polynomial, bit for bit."""
    t = np.random.default_rng(3).standard_normal((2, 2, 2))
    P = Operator(t, lp(1, 2))
    a = numerical_radius(P, method=method, budget=8, rng=1, resolution=300)
    b = poly_radius(P, method=method, budget=8, rng=1, resolution=300)
    assert (a.value, a.method, a.evals) == (b.value, b.method, b.evals)
    assert np.array_equal(a.witness.x, b.witness.x)
    assert a.method == ("grid" if method == "grid" else "ascent")
    with pytest.raises(DegenerateInput, match="polynomial radius has no 'enumerate'"):
        numerical_radius(P, method="enumerate")

def test_poly_radius_degree_one_reduction():
    rng = np.random.default_rng(14)
    d = lp(3, 2)
    for _ in range(10):
        T = _rand_op(d, rng)
        a = numerical_radius(T, method="ascent", budget=16, rng=0)
        b = poly_radius(T, budget=16, rng=0)
        assert (a.value, a.method, a.evals) == (b.value, b.method, b.evals)
        np.testing.assert_array_equal(a.witness.x, b.witness.x)
        np.testing.assert_array_equal(a.witness.xstar, b.witness.xstar)


def test_poly_radius_square_example():
    d = lp(2, 2)
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    P = Operator(t, d)
    assert poly_radius(P, method="grid", resolution=2000).value == pytest.approx(1.0, abs=1e-4)
    assert poly_radius(P, budget=16, rng=0).value == pytest.approx(1.0, abs=1e-4)


def test_poly_radius_zero():
    d = lp(2, 2)
    P = Operator(np.zeros((2, 2, 2)), d)
    assert poly_radius(P, budget=4, rng=0).value == pytest.approx(0.0, abs=1e-12)


def test_poly_radius_grid_cap():
    P = Operator(np.zeros((4, 4, 4)), lp(2, 4))
    with pytest.raises(BudgetExceeded):
        poly_radius(P, method="grid")


def test_guarantee_follows_the_method():
    """Only the enumeration is exact; every other value is a certified lower
    bound re-derived from its witness.  The label is not stored."""
    assert "guarantee" not in {f.name for f in dataclasses.fields(RadiusEstimate)}
    rng = np.random.default_rng(4)
    seen = set()
    for desc in (lp(1, 3), lp(math.inf, 2), lp(3, 2), psum(1.5, [lp(3, 2), scalar()])):
        T = Operator(rng.standard_normal((desc.total_dim,) * 2), desc)
        ests = [numerical_radius(T, m, budget=4, rng=0) for m in ("auto", "ascent", "grid")]
        if desc.is_flat and desc.p < math.inf:
            ests.append(absolute_radius(T, budget=4, rng=0))
        P = Operator(rng.standard_normal((desc.total_dim,) * 3), desc)
        ests.append(poly_radius(P, budget=4, rng=0))
        for est in ests:
            exact = est.method == "enumerate"
            assert est.guarantee == ("exact-enumeration" if exact else "certified-lower-bound")
            seen.add(est.method)
    assert seen == {"ascent", "enumerate", "grid"}


@pytest.mark.parametrize("budget", [0, -5])
def test_search_budget_below_one_raises(budget):
    """A multi-start search needs a start: a budget below 1 raises instead
    of running one start."""
    desc = lp(3, 2)
    T = Operator([[0.6, -0.3], [0.2, 0.7]], desc)
    with pytest.raises(DegenerateInput, match=f"start budget must be >= 1, got {budget}"):
        sphere_starts(desc, np.random.default_rng(0), budget)
    for engine in (numerical_radius, op_norm, absolute_radius):
        with pytest.raises(DegenerateInput, match="start budget must be >= 1"):
            engine(T, budget=budget, rng=0)
    # the exact backends read no budget
    assert numerical_radius(Operator(T.matrix, lp(1, 2)), budget=budget).value > 0


@pytest.mark.parametrize("engine", ["op_norm", "ascent", "enumerate"])
def test_stack_needs_one_generator_per_map(engine):
    """A one-member stack given three generators raises, naming both
    counts, before any start is drawn, whichever backend it would run."""
    T = Operator([[0.6, -0.3], [0.2, 0.7]], lp(1 if engine == "enumerate" else 3, 2))
    rngs = [np.random.default_rng(j) for j in range(3)]
    before = [r.bit_generator.state for r in rngs]
    with pytest.raises(DegenerateInput, match="a stack of 1 maps got 3 generators"):
        if engine == "op_norm":
            op_norm_stack([T], 16, rngs)
        else:
            radius_stack([T], 16, rngs, engine)
    assert [r.bit_generator.state for r in rngs] == before


# ---------------------------------------------------------------------------
# the smooth side of the duality, and the scale-invariant objective
# ---------------------------------------------------------------------------

#: trees whose exponents all lie in (1, 2], one below 2: the ascent runs on X*
DUAL_SIDE_TREES = [lp(1.5, 3), lp(1.25, 2, "complex"), lp(1.5, 2, "complex"),
                   psum(1.5, [lp(1.25, 2), scalar()]), psum(2, [lp(1.5, 2), scalar()]),
                   tower([1.5, 2], [2, 1, 1])]
PRIMAL_SIDE_TREES = [lp(2, 3), lp(2, 2, "complex"), lp(1, 3), lp(math.inf, 2),
                     lp(3, 2), psum(1.5, [lp(3, 2), scalar()]),
                     psum(1, [lp(1.5, 2), scalar()]), psum(1.5, [lp(2, 2), lp(1, 2)]),
                     scalar(), scalar("complex")]


def _ascent_spaces(run):
    """Descriptors every ``maximize_stack`` call of ``run()`` ascends on."""
    seen, maximize = [], radius_module.maximize_stack

    def spy(desc, *args):
        seen.append(desc)
        return maximize(desc, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius_module, "maximize_stack", spy)
        run()
    return seen


@pytest.mark.parametrize("desc", DUAL_SIDE_TREES + PRIMAL_SIDE_TREES, ids=str)
def test_ascent_runs_on_the_smooth_side(desc):
    """The numerical radius of an operator ascends on X* exactly where every
    exponent of X lies in (1, 2] and one lies below 2; the absolute radius
    and polynomials always ascend on X."""
    rng = np.random.default_rng(3)
    T = _rand_op(desc, rng)
    side = dual_descriptor(desc) if desc in DUAL_SIDE_TREES else desc
    assert _ascent_spaces(lambda: numerical_radius(T, "ascent", 4, 0)) == [side]
    P = Operator(rng.standard_normal((desc.total_dim,) * 3), desc)
    assert _ascent_spaces(lambda: numerical_radius(P, "ascent", 4, 0)) == [desc]
    if desc.is_flat and desc.p != math.inf:
        assert _ascent_spaces(lambda: absolute_radius(T, 4, 0)) == [desc]


@pytest.mark.parametrize("desc", DUAL_SIDE_TREES, ids=str)
def test_dual_side_ascent_matches_the_primal(desc):
    """On X* the budget-64 ascent ends where the ascent on X ends (1e-8
    relative) and no lower than the grid (1e-5) where it applies; its
    witness pair lies on X with slack <= 1e-12 and re-derives the value."""
    grid_ok = desc.total_dim <= (2 if desc.field == "complex" else 3)
    for seed in range(4):
        T = _rand_op(desc, np.random.default_rng([21, seed]))
        est = numerical_radius(T, "ascent", 64, seed)
        _, primal, _ = maximize_stack(desc, radius_objective([T]),
                                      [np.random.default_rng(seed)], 64)[0]
        assert est.value == pytest.approx(primal, rel=1e-8), seed
        if grid_ok:
            assert est.value >= radius_grid_oracle(T, 2000).value - 1e-5, seed
        assert est.witness.slack <= 1e-12
        assert _witness_value(T, est) == pytest.approx(est.value, rel=1e-12)


def test_dual_side_ascent_keeps_the_budget_prefix():
    T = _rand_op(lp(1.25, 3), np.random.default_rng(8))
    v8 = numerical_radius(T, "ascent", 8, 5).value
    assert numerical_radius(T, "ascent", 16, 5).value >= v8


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("desc", [lp(1.5, 3), lp(4, 2, "complex"), lp(1, 3),
                                  lp(math.inf, 2, "complex"),
                                  psum(1.5, [lp(3, 2), scalar()]),
                                  psum(1, [lp(1, 2), scalar()]),
                                  psum(math.inf, [lp(1, 2, "complex"), lp(1.25, 2, "complex")])],
                         ids=str)
def test_objective_is_scale_invariant(desc, degree):
    """The objective scores a scaled row as its unit row (1e-14 relative) and
    a zero row 0, with no floating-point warning."""
    rng = np.random.default_rng(degree)
    shape = (desc.total_dim,) * (degree + 1)
    T = Operator(gaussian(desc, rng, shape), desc)
    x = sphere_starts(desc, rng, 20)[desc.total_dim:]
    rows = np.zeros(len(x), dtype=int)
    for absolute in (False, True) if degree == 1 else (False,):
        g = radius_objective(T, absolute)
        unit = g(x, rows)
        for c in (1e-3, 7.5, 1e3):
            np.testing.assert_allclose(g(c * x, rows), unit, rtol=1e-14, atol=0)
        with np.errstate(all="raise"):
            assert g(np.zeros((1, desc.total_dim), desc.dtype), rows[:1])[0] == 0.0
