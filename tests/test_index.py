"""Index engine: M_p constant, theoretical bounds, min-max estimators."""

import math

import numpy as np
import pytest

from numindex import index, operators
from numindex.index import (
    INV_E,
    absolute_index_estimate,
    mp_constant,
    numerical_index_estimate,
    poly_index_estimate,
    rank_r_index_estimate,
    theoretical_bounds,
)
from numindex.operators import (Operator, compose_with_projection, op_norm, op_norm_stack,
                                operator_from_json, operator_to_json)
from numindex.radius import absolute_radius, numerical_radius, poly_norm, radius_stack
from numindex.spaces import (COMPLEX, REAL, DegenerateInput, DescriptorMismatch, gaussian,
                             lp, psum, scalar, summand, tower)
from numindex.suites import case_rng


# ---------------------------------------------------------------------------
# M_p
# ---------------------------------------------------------------------------

def test_mp_known_values():
    assert mp_constant(2).value == pytest.approx(0.0, abs=1e-12)
    r1 = mp_constant(1)
    assert r1.value == pytest.approx(1.0, abs=1e-9)
    assert r1.argmax_t == pytest.approx(0.0, abs=1e-9)


def test_mp_against_dense_grid():
    p = 3.0
    ts = np.linspace(0.0, 1.0, 1_000_001)
    ref = float(np.max(np.abs(ts ** (p - 1) - ts) / (1 + ts ** p)))
    assert mp_constant(p).value == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("p", [1.1, 1.2, 1.25, 1.5, 1.75, 2.5, 3.0, 4.0, 5.0, 10.0])
def test_mp_equals_mp_of_conjugate_to_1e15(p):
    """M_p = M_q for 1/p + 1/q = 1, to the last digits a scan can give."""
    assert abs(mp_constant(p).value - mp_constant(p / (p - 1.0)).value) <= 1e-15


@pytest.mark.parametrize("p,closed_form", [(4.0, 2.0 ** -1.5), (4.0 / 3.0, 2.0 ** -1.5),
                                           (6.0, 0.5), (6.0 / 5.0, 0.5)])
def test_mp_closed_forms_to_1e15(p, closed_form):
    assert abs(mp_constant(p).value - closed_form) <= 1e-15


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_mp_positive_off_two(p):
    assert mp_constant(p).value > 1e-3


def test_mp_zero_iff_p_two_on_grid():
    for p in np.arange(1.0, 6.0 + 1e-9, 0.1):
        v = mp_constant(float(p)).value
        if abs(p - 2.0) < 1e-12:
            assert v <= 1e-12
        else:
            assert v > 0.0


def test_mp_continuity_in_p():
    ps = np.arange(1.0, 6.0 + 1e-9, 0.1)
    vals = [mp_constant(float(p)).value for p in ps]
    diffs = np.abs(np.diff(vals))
    # steepest near the p = 1 kink (M_1 = 1 attained at t = 0), gentle beyond
    assert diffs.max() < 0.35
    assert diffs[ps[1:] >= 1.55].max() < 0.1


def test_mp_rejects_bad_p():
    with pytest.raises(DegenerateInput):
        mp_constant(0.5)
    with pytest.raises(DegenerateInput):
        mp_constant(math.inf)


# ---------------------------------------------------------------------------
# theoretical bounds
# ---------------------------------------------------------------------------

def test_bounds_complex():
    b = theoretical_bounds(lp(3, 2, "complex"))
    assert b.lower == pytest.approx(INV_E)
    assert b.upper == 1.0


def test_bounds_real_flat_lp():
    m3 = mp_constant(3).value
    b = theoretical_bounds(lp(3, 2))
    assert b.lower == pytest.approx(m3 / 2)
    assert b.upper == pytest.approx(m3)


def test_bounds_uniformly_nested_lp():
    assert theoretical_bounds(tower([3, 3])) == theoretical_bounds(lp(3, 3))
    assert theoretical_bounds(tower([3, 3])).upper == mp_constant(3).value
    b = theoretical_bounds(psum(math.inf, [lp(math.inf, 2), scalar()]))
    assert b.lower == b.upper == 1.0


def test_bounds_hilbert_note():
    b = theoretical_bounds(lp(2, 3))
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert "Hilbert" in b.note


def test_bounds_index_one_spaces():
    for desc in (scalar(), lp(1, 3), lp(math.inf, 2)):
        b = theoretical_bounds(desc)
        assert b.lower == b.upper == 1.0


# ---------------------------------------------------------------------------
# numerical index estimates
# ---------------------------------------------------------------------------

def test_index_dim_one_is_one():
    est = numerical_index_estimate(scalar(), rng=0)
    assert est.upper_bound == 1.0


def test_index_real_hilbert_zero():
    est = numerical_index_estimate(lp(2, 2), budget=50, rng=0)
    assert est.upper_bound <= 1e-6
    # the witness is (numerically) antisymmetric up to scale
    m = est.witness_operator.matrix
    s = m + m.T
    assert np.abs(s).max() <= 1e-6 * max(np.abs(m).max(), 1.0)


def test_index_l1_is_one():
    est = numerical_index_estimate(lp(1, 3), budget=50, rng=0)
    assert 0.95 <= est.upper_bound <= 1.0 + 1e-6


@pytest.mark.parametrize("desc", [lp(3, 2), lp(1.5, 2), lp(1, 2)])
def test_index_in_range_and_above_lower_bound(desc):
    est = numerical_index_estimate(desc, budget=40, rng=1)
    assert 0.0 <= est.upper_bound <= 1.0 + 1e-6
    assert est.upper_bound >= est.lower_bound_theoretical - 0.02


def test_index_budget_monotone():
    vals = [numerical_index_estimate(lp(3, 2), budget=b, rng=7).upper_bound
            for b in (10, 20, 40)]
    assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12


def test_index_witness_reproducible():
    est = numerical_index_estimate(lp(3, 2), budget=40, rng=3)
    T = est.witness_operator
    v = numerical_radius(T, budget=32, rng=0).value
    n = op_norm(T, budget=16, rng=0).value
    assert v / n == pytest.approx(est.upper_bound, abs=1e-6)


def test_index_deterministic():
    a = numerical_index_estimate(lp(1.5, 2), budget=25, rng=11)
    b = numerical_index_estimate(lp(1.5, 2), budget=25, rng=11)
    assert a.upper_bound == b.upper_bound
    np.testing.assert_array_equal(a.witness_operator.matrix,
                                  b.witness_operator.matrix)


# ---------------------------------------------------------------------------
# rank-r index
# ---------------------------------------------------------------------------

def test_rank_r_range_check():
    with pytest.raises(DegenerateInput):
        rank_r_index_estimate(lp(2, 2), 3, rng=0)
    with pytest.raises(DegenerateInput):
        rank_r_index_estimate(lp(2, 2), 0, rng=0)


def test_rank_one_lower_bound_tagged():
    est = rank_r_index_estimate(lp(2, 2), 1, budget=40, rng=0)
    assert est.lower_bound_theoretical == pytest.approx(INV_E)
    assert est.upper_bound >= INV_E - 0.02


@pytest.mark.parametrize("desc, lower", [(lp(3, 2), INV_E), (lp(1, 3), 1.0),
                                         (lp(math.inf, 2), 1.0), (scalar(), 1.0)],
                         ids=str)
def test_rank_one_lower_side_is_the_larger_known_bound(desc, lower):
    """n_1(X) >= n(X) and n_1(X) >= 1/e; the upper side is the range's 1."""
    b = rank_r_index_estimate(desc, 1, budget=2, rng=0).bounds
    assert (b.lower, b.upper, b.upper_tag) == (lower, 1.0, "index-range")
    assert b.lower >= theoretical_bounds(desc).lower


def test_poly_index_bounds_per_degree():
    desc = lp(3, 2)
    assert poly_index_estimate(desc, 1, budget=2, rng=0).bounds == theoretical_bounds(desc)
    b = poly_index_estimate(desc, 2, budget=2, rng=0).bounds
    assert (b.lower, b.upper, b.lower_tag) == (0.0, 1.0, "polynomial-range")


def test_rank_full_matches_unconstrained_on_index_one_space():
    full = numerical_index_estimate(lp(1, 3), budget=30, rng=5).upper_bound
    ranked = rank_r_index_estimate(lp(1, 3), 3, budget=30, rng=5).upper_bound
    assert abs(full - ranked) <= 0.02


def test_rank_matrix_rank_constraint():
    est = rank_r_index_estimate(lp(3, 3), 1, budget=30, rng=2)
    assert np.linalg.matrix_rank(est.witness_operator.matrix, tol=1e-10) <= 1


# ---------------------------------------------------------------------------
# absolute index
# ---------------------------------------------------------------------------

def test_absolute_index_target_p2():
    est = absolute_index_estimate(lp(2, 2), budget=120, rng=0)
    assert est.bounds.upper == pytest.approx(0.5)
    assert abs(est.upper_bound - 0.5) <= 0.05


def test_absolute_index_target_p4_arithmetic():
    est = absolute_index_estimate(lp(4, 2), budget=10, rng=0)
    # independent arithmetic for 1/(p^{1/p} q^{1/q})
    p, q = 4.0, 4.0 / 3.0
    ref = math.exp(-(math.log(p) / p + math.log(q) / q))
    assert est.bounds.upper == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_absolute_index_upper_side_is_the_shift(p):
    """x -> x_2 e_1 has norm 1, and its absolute radius is the upper side."""
    desc = lp(p, 2)
    est = absolute_index_estimate(desc, budget=2, rng=0)
    shift = Operator([[0.0, 1.0], [0.0, 0.0]], desc)
    assert op_norm(shift, rng=0).value == pytest.approx(1.0, abs=1e-12)
    assert absolute_radius(shift, rng=0).value == pytest.approx(est.bounds.upper, abs=1e-9)
    assert est.bounds.upper_tag == "rank-one-shift"
    # |nu| >= nu, so the lower side is that of n(X)
    assert est.bounds.lower == theoretical_bounds(desc).lower


def test_absolute_index_dominates_index():
    a = absolute_index_estimate(lp(3, 2), budget=40, rng=9).upper_bound
    n = numerical_index_estimate(lp(3, 2), budget=40, rng=9).upper_bound
    assert a >= n - 0.02


def test_absolute_index_shape_errors():
    with pytest.raises(DegenerateInput):
        absolute_index_estimate(lp(1, 3), rng=0)
    with pytest.raises(DegenerateInput):
        absolute_index_estimate(psum(2, [lp(2, 2), lp(2, 2)]), rng=0)


# ---------------------------------------------------------------------------
# polynomial index
# ---------------------------------------------------------------------------

def test_poly_index_degree_one_agrees():
    """The order-1 polynomial index is the numerical index, field for field."""
    for desc in (lp(3, 2), lp(math.inf, 2), lp(math.inf, 3), lp(1.5, 3),
                 lp(4, 2, COMPLEX)):
        a = poly_index_estimate(desc, 1, budget=40, rng=4)
        b = numerical_index_estimate(desc, budget=40, rng=4)
        _assert_same_estimate(a, b)
        assert a.bounds == b.bounds


#: the index searches of the benchmark, then order-1 polynomial searches on
#: l1/linf, where an ascent of the radius can stall at 0
INTERVAL_SEARCHES = [
    ("plain lp(1.5,3)", numerical_index_estimate, (lp(1.5, 3),)),
    ("plain l1^3", numerical_index_estimate, (lp(1, 3),)),
    ("rank one lp(3,2)", rank_r_index_estimate, (lp(3, 2), 1)),
    ("plain complex l2^2", numerical_index_estimate, (lp(2, 2, COMPLEX),)),
    ("plain linf^3", numerical_index_estimate, (lp(math.inf, 3),)),
    ("absolute lp(3,2)", absolute_index_estimate, (lp(3, 2),)),
    ("plain nested", numerical_index_estimate, (psum(1.5, [lp(3, 2), lp(2, 1)]),)),
    ("plain l2^2", numerical_index_estimate, (lp(2, 2),)),
    ("poly two lp(3,2)", poly_index_estimate, (lp(3, 2), 2)),
    ("plain complex lp(4,2)", numerical_index_estimate, (lp(4, 2, COMPLEX),)),
    ("rank two lp(1.5,2)", rank_r_index_estimate, (lp(1.5, 2), 2)),
    ("plain lp(3,2)", numerical_index_estimate, (lp(3, 2),)),
    ("poly one linf^2", poly_index_estimate, (lp(math.inf, 2), 1)),
    ("poly one linf^3", poly_index_estimate, (lp(math.inf, 3), 1)),
    ("poly one l1^3", poly_index_estimate, (lp(1, 3), 1)),
]


@pytest.mark.parametrize("name,search,args", INTERVAL_SEARCHES,
                         ids=[s[0] for s in INTERVAL_SEARCHES])
def test_index_search_stays_in_its_interval(name, search, args):
    """No search reports an upper bound below the lower end of its own known
    interval, up to the slack 0.02 of the benchmark's check."""
    for budget in (16, 40):
        for seed in range(3):
            est = search(*args, budget=budget, rng=seed)
            assert est.upper_bound >= est.bounds.lower - 0.02, (budget, seed)


def test_poly_index_in_unit_interval():
    est = poly_index_estimate(lp(2, 2), 2, budget=24, rng=0)
    assert 0.0 <= est.upper_bound <= 1.0 + 1e-6


def test_poly_index_witness_rescored_exactly():
    # the ratio noise is keyed by the tensor, so the witness re-scores to the
    # reported bound
    b = index.RADIUS_BUDGET_IN_SEARCH
    # order 1 is the numerical search, which scores norms at budget 4
    for desc, k, norm_budget in ((lp(3, 2), 2, b), (lp(1.5, 2), 1, 4)):
        est = poly_index_estimate(desc, k, budget=24, rng=5)
        r = index._ratios([est.witness_operator], norm_budget, radius_stack)[0]
        assert r == (est.upper_bound, est.radius_method)


def test_poly_index_checks_degree_before_drawing():
    g = np.random.default_rng(0)
    state = g.bit_generator.state
    for k in (17, 0, -1):
        with pytest.raises(DegenerateInput, match="cap|degree"):
            poly_index_estimate(lp(3, 2), k, rng=g)
    assert g.bit_generator.state == state


def test_search_rejects_budget_below_one():
    # the scalar lines too, whose index 1 needs no search
    for budget in (0, -1):
        for desc in (lp(3, 2), lp(2, 1), lp(2, 1, "complex")):
            with pytest.raises(DegenerateInput, match="budget must be >= 1"):
                numerical_index_estimate(desc, budget=budget, rng=0)
            with pytest.raises(DegenerateInput, match="budget must be >= 1"):
                poly_index_estimate(desc, 1, budget=budget, rng=0)


# ---------------------------------------------------------------------------
# stacked ratio evaluation and speculative descent
# ---------------------------------------------------------------------------

STACK_SPACES = [lp(3, 2), lp(1.5, 3), lp(4, 2, COMPLEX),
                psum(1.5, [lp(3, 2), scalar()]), tower([3, 1.5], [2, 1, 2]),
                lp(1, 3), lp(math.inf, 2, COMPLEX), psum(1, [lp(1, 2), scalar()]),
                psum(3, [lp(1.5, 2, COMPLEX), scalar(COMPLEX)])]


def _random_operators(desc, n, seed=0):
    rng = np.random.default_rng(seed)
    d = desc.total_dim
    out = [Operator(gaussian(desc, rng, (d, d)), desc) for _ in range(n)]
    return out + [Operator(np.zeros((d, d)), desc)]


def _random_polynomials(desc, k, n, seed=0):
    rng = np.random.default_rng(seed)
    shape = (desc.total_dim,) * (k + 1)
    out = [Operator(gaussian(desc, rng, shape), desc)
           for _ in range(n)]
    return out + [Operator(np.zeros(shape), desc)]


@pytest.mark.parametrize("desc", STACK_SPACES, ids=str)
def test_stacked_ratio_matches_one_operator_calls(desc):
    Ts = _random_operators(desc, 5)
    for T, r in zip(Ts, index._ratios(Ts, 4, radius_stack)):
        erng = index._eval_rng(T)
        n = op_norm(T, budget=4, rng=erng)
        if n.value < 1e-13:
            assert r is None
            continue
        nu = numerical_radius(T, budget=index.RADIUS_BUDGET_IN_SEARCH, rng=erng)
        assert r == (nu.value / n.value, nu.method)
    rngs = [np.random.default_rng(k) for k in range(len(Ts))]
    for k, (T, n) in enumerate(zip(Ts, op_norm_stack(Ts, 8, rngs))):
        ref = op_norm(T, budget=8, rng=k)
        assert (n.value, n.method) == (ref.value, ref.method)
        np.testing.assert_array_equal(n.witness, ref.witness)
    # polynomial stacks: stacked norm and radius against one-polynomial calls,
    # through the engines of the degree
    for deg in (1, 2):
        Ps = _random_polynomials(desc, deg, 3)
        ratios = index._ratios(Ps, 4, radius_stack)
        norms = op_norm_stack(Ps, 4, [index._eval_rng(P) for P in Ps])
        for P, r, n in zip(Ps, ratios, norms):
            erng = index._eval_rng(P)
            ref_n, ref_x = poly_norm(P, budget=4, rng=erng)
            assert n.value == ref_n
            np.testing.assert_array_equal(n.witness, ref_x)
            if ref_n < 1e-13:
                assert r is None
                continue
            nu = numerical_radius(P, budget=index.RADIUS_BUDGET_IN_SEARCH, rng=erng)
            assert r == (nu.value / ref_n, nu.method)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_maps_equal_as_numbers_score_the_same_ratio(field):
    """The evaluation noise is keyed on coefficient values, not bytes: the
    signed permutation of lp(1.5,3) placed into lp(1.5,4) with its -0.0
    entries kept scores as its selector-product embedding, whose zeros
    are +0.0."""
    desc = lp(1.5, 4, field)
    sub, leaves = summand(desc, range(3))
    L = index._start_portfolio(sub, np.random.default_rng(0))[2]
    m = np.zeros((4, 4), dtype=desc.dtype)
    m[np.ix_(leaves, leaves)] = L.matrix
    placed, embedded = Operator(m, desc), compose_with_projection(L, desc, range(3))
    assert np.array_equal(placed.matrix, embedded.matrix)
    assert placed.matrix.tobytes() != embedded.matrix.tobytes()
    a, b = index._ratios([placed, embedded], 4, radius_stack)
    assert a == b
    if field == REAL:
        assert a[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p", [1.5, 3])
def test_bounds_search_norms_converge_well_inside_the_step_cap(monkeypatch, p):
    """The bounds suite's search near the minimizer norms near-isometries;
    every op_norm stack it runs ends the same with the step cap cut from
    500 to 25, so none comes near the cap."""
    runs = []

    def recorded(Ts, budget, rngs):
        out = op_norm_stack(Ts, budget, rngs)
        runs[-1].extend((n.value, n.witness.tobytes()) for n in out)
        return out

    monkeypatch.setattr(index, "op_norm_stack", recorded)
    for cap in (operators.OP_NORM_MAX_ITERS, 25):
        monkeypatch.setattr(operators, "OP_NORM_MAX_ITERS", cap)
        runs.append([])
        numerical_index_estimate(lp(p, 2), budget=100, rng=case_rng(7, 0))
    assert runs[0] and runs[0] == runs[1]


def test_stack_of_maps_on_other_spaces_is_rejected():
    """A start on another space is not scored on the first member's space,
    and one of another dimension raises no raw numpy error."""
    assert numerical_index_estimate(lp(1.5, 2), budget=9, rng=0).upper_bound > 0.2
    for start in (Operator([[0, 1], [-1, 0]], lp(2, 2)), Operator(np.eye(3), lp(1.5, 3))):
        with pytest.raises(DescriptorMismatch, match="share one space and degree"):
            numerical_index_estimate(lp(1.5, 2), budget=9, rng=0, extra_starts=[start])
    T, P = _random_operators(lp(1.5, 2), 1)[0], _random_polynomials(lp(1.5, 2), 2, 1)[0]
    with pytest.raises(DescriptorMismatch, match="degree 1 on .* and degree 2 on"):
        radius_stack([T, P], 4, [np.random.default_rng(k) for k in range(2)])


@pytest.mark.parametrize("desc", STACK_SPACES, ids=str)
def test_degree_one_polynomial_is_its_operator(desc):
    """A map read back from a file of d^2 entries is the operator, degree 1:
    every radius backend that applies, the radius and norm stacks and the
    norm agree bit for bit in value, method and witness."""
    Ts = _random_operators(desc, 3, seed=2)
    Ps = [operator_from_json(operator_to_json(T), desc) for T in Ts]
    methods = ["auto", "ascent"]
    if desc.total_dim <= (2 if desc.field == COMPLEX else 3):
        methods.append("grid")
    if desc.uniform_exponent in (1.0, math.inf):
        methods.append("enumerate")

    def same_radius(a, b):
        assert (a.value, a.method, a.evals) == (b.value, b.method, b.evals)
        np.testing.assert_array_equal(a.witness.x, b.witness.x)
        np.testing.assert_array_equal(a.witness.xstar, b.witness.xstar)

    def same_norm(a, b):
        assert (a.value, a.method) == (b.value, b.method)
        np.testing.assert_array_equal(a.witness, b.witness)

    for T, P in zip(Ts, Ps):
        for method in methods:
            same_radius(numerical_radius(P, method, budget=6, rng=3, resolution=300),
                        numerical_radius(T, method, budget=6, rng=3, resolution=300))
        same_norm(op_norm(P, budget=6, rng=3), op_norm(T, budget=6, rng=3))

    def rngs():
        return [np.random.default_rng(k) for k in range(len(Ts))]

    for a, b in zip(radius_stack(Ps, 6, rngs()), radius_stack(Ts, 6, rngs())):
        same_radius(a, b)
    for a, b in zip(op_norm_stack(Ps, 6, rngs()), op_norm_stack(Ts, 6, rngs())):
        same_norm(a, b)


@pytest.mark.parametrize("desc", [lp(3, 2), lp(1.5, 3), lp(4, 2, COMPLEX)], ids=str)
def test_stacked_absolute_radius_matches_one_operator_calls(desc):
    Ts = _random_operators(desc, 4, seed=1)
    stacked = radius_stack(Ts, 6, [np.random.default_rng(k) for k in range(5)],
                           absolute=True)
    for k, (T, est) in enumerate(zip(Ts, stacked)):
        ref = absolute_radius(T, budget=6, rng=k)
        assert (est.value, est.evals) == (ref.value, ref.evals)
        np.testing.assert_array_equal(est.witness.x, ref.witness.x)


def _sequential_descent(candidates, draw, perturb, ratio, budget, rng):
    """One candidate per ratio call: the reference for the stacked search."""
    best, evals = None, 0
    for T in candidates:
        if evals >= budget:
            break
        r = ratio(T)
        evals += 1
        if r is None:
            continue
        if best is None or r[0] < best[0] - 1e-15:
            best = (r[0], T, r[1])
        if best[0] < index.EARLY_EXIT:
            return best, evals
    if best is None:
        raise DegenerateInput("no usable candidate operator")
    scale, fails = 0.3, 0
    while evals < budget and scale > 1e-6:
        T2 = perturb(best[1], scale, draw(rng))
        r = ratio(T2)
        evals += 1
        if r is None:
            continue
        if r[0] < best[0] - 1e-15:
            best, fails = (r[0], T2, r[1]), 0
        else:
            fails += 1
            if fails >= 8:
                scale, fails = scale * 0.5, 0
        if best[0] < index.EARLY_EXIT:
            break
    return best, evals


@pytest.fixture()
def sequential_search(monkeypatch):
    """Run a search with the one-candidate-per-call descent instead."""
    def run(search, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(index, "_minimize_ratio",
                      lambda cands, draw, perturb, ratios, budget, rng:
                      _sequential_descent(cands, draw, perturb,
                                          lambda T: ratios([T])[0], budget, rng))
            return search(*args, **kwargs)
    return run


@pytest.fixture()
def ratio_calls(monkeypatch):
    """Count the stacked ratio calls and record every operator scored."""
    calls, scored, orig = [], set(), index._ratios

    def counted(Ts, *args):
        calls.append(len(Ts))
        scored.update(T.matrix.tobytes() for T in Ts)
        return orig(Ts, *args)

    monkeypatch.setattr(index, "_ratios", counted)
    return calls, scored


def _assert_same_estimate(a, b):
    assert (a.upper_bound, a.restarts_used, a.radius_method) == \
        (b.upper_bound, b.restarts_used, b.radius_method)
    np.testing.assert_array_equal(a.witness_operator.matrix, b.witness_operator.matrix)


SEARCHES = [
    ("plain lp(3,2)", numerical_index_estimate, (lp(3, 2),), {}),
    ("plain lp(1.5,3) zero start", numerical_index_estimate, (lp(1.5, 3),),
     {"extra_starts": [Operator(np.zeros((3, 3)), lp(1.5, 3))]}),
    ("plain complex", numerical_index_estimate, (lp(4, 2, COMPLEX),), {}),
    ("plain nested", numerical_index_estimate, (psum(1.5, [lp(3, 2), scalar()]),), {}),
    ("plain linf", numerical_index_estimate, (lp(math.inf, 3),), {}),
    ("early exit", numerical_index_estimate, (lp(2, 2),), {}),
    ("rank one", rank_r_index_estimate, (lp(3, 2), 1), {}),
    ("rank two", rank_r_index_estimate, (lp(1.5, 2), 2), {}),
    ("rank complex", rank_r_index_estimate, (lp(3, 3, COMPLEX), 2), {}),
    ("poly two", poly_index_estimate, (lp(3, 2), 2), {}),
    ("poly one complex", poly_index_estimate, (lp(4, 2, COMPLEX), 1), {}),
]


@pytest.mark.parametrize("name,search,args,kwargs", SEARCHES, ids=[s[0] for s in SEARCHES])
def test_stacked_search_matches_sequential(name, search, args, kwargs,
                                           sequential_search):
    for budget, seed in ((16, 1), (40, 7)):
        est = search(*args, budget=budget, rng=seed, **kwargs)
        ref = sequential_search(search, *args, budget=budget, rng=seed, **kwargs)
        _assert_same_estimate(est, ref)
    if name == "early exit":
        assert est.restarts_used == 1 and est.upper_bound < index.EARLY_EXIT


def test_rank_search_accepts_inside_a_speculative_batch(ratio_calls, sequential_search):
    calls, _ = ratio_calls
    est = rank_r_index_estimate(lp(3, 2), 1, budget=40, rng=1)
    # portfolio, first descent batch, and a rebuild after an accept
    assert len(calls) >= 3 and calls[1] == min(index.SPECULATIVE_BATCH, 32)
    _assert_same_estimate(est, sequential_search(rank_r_index_estimate, lp(3, 2), 1,
                                                 budget=40, rng=1))


PREFIX_SEARCHES = SEARCHES[:2] + SEARCHES[6:8] + SEARCHES[9:11]


@pytest.mark.parametrize("name,search,args,kwargs", PREFIX_SEARCHES,
                         ids=[s[0] for s in PREFIX_SEARCHES])
def test_stacked_search_budget_prefix(name, search, args, kwargs, ratio_calls):
    _, scored = ratio_calls
    small = search(*args, budget=20, rng=3, **kwargs)
    scored.clear()
    big = search(*args, budget=40, rng=3, **kwargs)
    assert small.witness_operator.matrix.tobytes() in scored
    assert big.upper_bound <= small.upper_bound


def test_speculative_descent_matches_sequential_on_synthetic_ratios():
    # scalar stand-ins for operators: the ratio reaches 0 near x = 0.3 (early
    # exit) and is degenerate (None) on a sparse pattern of x
    def ratio(x):
        return None if int(abs(x) * 1e6) % 7 == 0 else (max(abs(x - 0.3) - 0.02, 0.0), "t")

    batches = []

    def ratios(xs):
        batches.append([ratio(x) for x in xs])
        return batches[-1]

    def draw(rng):
        return rng.standard_normal()

    def perturb(x, scale, z):
        return x + scale * z

    exits = 0
    for seed in range(40):
        for budget in (5, 30, 90):
            got = index._minimize_ratio([1.0, -2.0, 0.9], draw, perturb, ratios,
                                        budget, np.random.default_rng(seed))
            ref = _sequential_descent([1.0, -2.0, 0.9], draw, perturb, ratio,
                                      budget, np.random.default_rng(seed))
            assert got == ref
            exits += got[0][0] < index.EARLY_EXIT and got[1] < budget
    # degenerate outcomes fell inside speculative batches, and descents
    # stopped early on an accepted outcome
    assert any(None in b[:-1] for b in batches)
    assert exits > 0

