"""Verification suites: each runs at reduced case counts here; the full
configurations run in the acceptance tests."""

import math

import numpy as np
import pytest

from numindex import suites
from numindex.spaces import DegenerateInput, SpaceError, lp, scalar, tower
from numindex.suites import (
    SuiteReport,
    bounds_check,
    case_rng,
    duality_check,
    gcc_check,
    lcc_check,
    monotone_sweep,
    sum_index_check,
)


def test_case_rng_independent_and_stable():
    a = case_rng(3, 1).standard_normal(4)
    b = case_rng(3, 1).standard_normal(4)
    c = case_rng(3, 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_suite_report_pass_logic():
    r = SuiteReport("x", [], tolerance=1e-4, seed=0)
    r.add({"case": 0, "violation": 5e-5})
    assert r.passed
    r.add({"case": 1, "violation": 2e-4})
    assert not r.passed
    d = r.to_dict()
    assert d["cases_run"] == 2 and d["max_violation"] == 2e-4


# ---------------------------------------------------------------------------
# lcc / gcc
# ---------------------------------------------------------------------------

def test_lcc_smooth_tower():
    rep = lcc_check(tower([3.0, 3.0]), m=1, j=1, cases=10, seed=0, budget=16)
    assert rep.suite == "lcc"
    assert rep.passed, rep.max_violation


def test_lcc_level_out_of_range():
    with pytest.raises(DegenerateInput):
        lcc_check(tower([3.0]), m=1, j=5, cases=1, seed=0)


def test_gcc_smooth_sum():
    rep = gcc_check(lp(1.5, 3), subset=(0, 1), cases=10, seed=0, budget=16)
    assert rep.passed, rep.max_violation


def test_gcc_l1_exact():
    rep = gcc_check(lp(1, 3), subset=(0, 1), cases=10, seed=0, budget=8)
    assert rep.tolerance == 1e-9
    assert rep.passed, rep.max_violation


def test_gcc_budget_doubling_does_not_grow_violation():
    small = gcc_check(lp(1.5, 3), subset=(0, 2), cases=8, seed=4, budget=8)
    big = gcc_check(lp(1.5, 3), subset=(0, 2), cases=8, seed=4, budget=16)
    assert big.max_violation <= small.max_violation + 1e-9


def test_suite_deterministic():
    a = gcc_check(lp(1.5, 3), subset=(0, 1), cases=5, seed=1, budget=8)
    b = gcc_check(lp(1.5, 3), subset=(0, 1), cases=5, seed=1, budget=8)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

def test_sum_index_scalars_linf():
    rep = sum_index_check([scalar(), scalar()], mode="linf", budget=60, seed=0)
    assert rep.passed
    assert 0.95 <= rep.cases[0]["sum_index"] <= 1.0 + 1e-6


def test_sum_index_hilbert_plus_line_l1():
    rep = sum_index_check([lp(2, 2), scalar()], mode="l1", budget=80, seed=0)
    assert rep.cases[0]["sum_index"] <= 0.05 + 1e-9
    assert rep.passed, rep.max_violation


def test_sum_index_single_summand():
    rep = sum_index_check([lp(1, 2)], mode="l1", budget=40, seed=0)
    assert rep.passed


def test_sum_index_errors():
    with pytest.raises(DegenerateInput):
        sum_index_check([lp(2, 4), lp(2, 4)], mode="l1", seed=0)
    with pytest.raises(DegenerateInput):
        sum_index_check([scalar()], mode="lmax", seed=0)


# ---------------------------------------------------------------------------
# monotone sweep
# ---------------------------------------------------------------------------

def test_monotone_sweep_hilbert():
    rep = monotone_sweep(2.0, [2, 3], budget=40, seed=0)
    for _, v in rep.extra["trajectory"]:
        assert v <= 1e-6
    assert rep.passed


def test_monotone_sweep_errors():
    with pytest.raises(DegenerateInput):
        monotone_sweep(3.0, [], seed=0)
    with pytest.raises(DegenerateInput):
        monotone_sweep(3.0, [2, 99], seed=0)
    with pytest.raises(DegenerateInput, match="strictly increasing"):
        monotone_sweep(1.5, [3, 2], budget=30, seed=0)
    with pytest.raises(DegenerateInput, match="strictly increasing"):
        monotone_sweep(1.5, [2, 2], budget=30, seed=0)


def test_monotone_sweep_builds_every_level_before_searching(monkeypatch):
    """A level that is no space fails as a SpaceError naming it, before the
    search of any level runs."""
    calls = []
    monkeypatch.setattr(suites, "numerical_index_estimate",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SpaceError, match="dim must be an integer >= 1, got 2.5"):
        monotone_sweep(1.5, [2, 2.5], budget=30, seed=0)
    assert calls == []


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_duality_l3():
    rep = duality_check(lp(3, 2), cases=10, budget=16, seed=0, index_budget=40)
    assert rep.passed, rep.max_violation
    assert rep.extra["index_gap_ok"]


def test_duality_symmetric_hilbert_exact_zero_gap():
    rep = duality_check(lp(2, 2), cases=5, budget=16, seed=3, index_budget=20)
    assert rep.passed, rep.max_violation


@pytest.mark.parametrize("suite", [
    lambda cases: lcc_check(tower([3.0, 3.0]), m=1, j=1, cases=cases, seed=0),
    lambda cases: gcc_check(lp(1.5, 3), subset=(0, 1), cases=cases, seed=0),
    lambda cases: duality_check(lp(3, 2), cases=cases, seed=0, index_budget=4),
], ids=["lcc", "gcc", "duality"])
@pytest.mark.parametrize("cases", [0, -3])
def test_case_suites_reject_no_cases(suite, cases):
    """A suite of no cases would pass with nothing checked."""
    with pytest.raises(DegenerateInput, match=f"cases must be >= 1, got {cases}"):
        suite(cases)


@pytest.mark.parametrize("suite,message", [
    (lambda: bounds_check([], [2]), "some p and some m"),
    (lambda: bounds_check([1.5], []), "some p and some m"),
    (lambda: lcc_check(tower([3.0, 3.0]), m=1, j=0, cases=3), "j=0"),
    (lambda: lcc_check(tower([3.0, 3.0]), m=1, j=-1, cases=3), "j=-1"),
], ids=["bounds-no-p", "bounds-no-m", "lcc-j0", "lcc-j-1"])
def test_suites_reject_nothing_to_check(suite, message):
    """No p, no m, or no level above m leaves nothing to compare."""
    with pytest.raises(DegenerateInput, match=message):
        suite()


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_check_small():
    rep = bounds_check([1.5], [2], budget=60, seed=0)
    assert rep.passed, rep.max_violation
    (p, m, val, mp) = rep.extra["curve"][0]
    assert p == 1.5 and m == 2
    assert val >= mp / 2 - 0.02


def test_bounds_check_scalar_line():
    """At m = 1 the space is the scalar line, with interval [1, 1]."""
    rep = bounds_check([1.5], [1, 2], budget=60, seed=0)
    assert rep.passed, rep.max_violation
    line = rep.cases[0]
    assert line["m"] == 1 and line["index_upper_bound"] == 1.0
    assert line["violation"] == 0.0 and line["soft_upper_ok"]


def test_bounds_check_rejects_inf():
    with pytest.raises(DegenerateInput):
        bounds_check([math.inf], [2], seed=0)


@pytest.mark.parametrize("p_list,m_list,bad", [
    ([1.5, math.inf], [2], "p=inf"),
    ([1.5, 0.5], [2], "p=0.5"),
    ([math.nan], [2], "p=nan"),
    ([1.5], [2, 0], "m=0"),
    ([1.5], [2.5], "m=2.5"),
], ids=["p-inf", "p-0.5", "p-nan", "m-0", "m-2.5"])
def test_bounds_check_rejects_bad_p_or_m_before_any_search(p_list, m_list, bad,
                                                           monkeypatch):
    """A bad p or m anywhere in the lists is named before the first search
    runs, by the suite, not by the internal function it would reach."""
    monkeypatch.setattr(suites, "numerical_index_estimate",
                        lambda *a, **k: pytest.fail("a search ran"))
    with pytest.raises(DegenerateInput, match=f"bounds_check needs .*got {bad}"):
        bounds_check(p_list, m_list, budget=4, seed=0)
