"""Acceptance gate: the fourteen headline criteria, one test each.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

from numindex.cli import EXIT_OK, main
from numindex.index import (INV_E, absolute_index_estimate, mp_constant,
                            numerical_index_estimate, rank_r_index_estimate)
from numindex.operators import Operator, identity, op_norm
from numindex.radius import (absolute_radius, numerical_radius,
                             radius_grid_oracle)
from numindex.spaces import lp, psum, scalar, tower
from numindex.suites import (bounds_check, duality_check, gcc_check,
                             lcc_check, monotone_sweep)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # lets _line write through pytest's capture so every criterion shows a
    # live pass/fail line even in a plain ``pytest -v`` run
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    text = f"{status} criterion {num:2d} [{name}]: {detail}"
    print(text)
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(text)
    assert ok, f"criterion {num} ({name}): {detail}"


def _rand_op(desc, rng):
    g = rng.standard_normal((desc.total_dim,) * 2)
    if desc.field == "complex":
        g = g + 1j * rng.standard_normal((desc.total_dim,) * 2)
    return Operator(g, desc)


def test_01_identity_radius():
    t0 = time.time()
    shapes = [lp(p, d) for p in (1.0, 1.5, 2.0, 3.0, math.inf) for d in (2, 3)]
    shapes += [psum(1, [lp(2, 2), scalar()]), tower([3.0, 1.5], [2, 1, 2])]
    worst = 0.0
    for desc in shapes:
        est = numerical_radius(identity(desc), budget=8, rng=0)
        worst = max(worst, abs(est.value - 1.0))
    elapsed = time.time() - t0
    _line(1, "identity radius", worst <= 1e-9 and elapsed < 10,
          f"max |nu(Id)-1| = {worst:.2e} over 12 shapes in {elapsed:.1f}s")


def test_02_real_hilbert_zero():
    t0 = time.time()
    est = numerical_index_estimate(lp(2, 2), budget=50, rng=0)
    m = est.witness_operator.matrix
    antisym = np.abs(m + m.T).max() <= 1e-6 * max(np.abs(m).max(), 1.0)
    elapsed = time.time() - t0
    _line(2, "real Hilbert zero",
          est.upper_bound <= 1e-6 and antisym and elapsed < 5,
          f"upper bound {est.upper_bound:.2e}, antisymmetric witness, {elapsed:.1f}s")


def test_03_complex_hilbert_half():
    t0 = time.time()
    est = numerical_index_estimate(lp(2, 2, "complex"), budget=200, rng=0)
    elapsed = time.time() - t0
    _line(3, "complex Hilbert half",
          0.45 <= est.upper_bound <= 0.55 and elapsed < 300,
          f"upper bound {est.upper_bound:.4f} in [0.45, 0.55], {elapsed:.0f}s")


def test_04_index_one_spaces():
    t0 = time.time()
    vals = {}
    for p in (1.0, math.inf):
        for m in (2, 3):
            est = numerical_index_estimate(lp(p, m), budget=100, rng=0)
            vals[(p, m)] = est.upper_bound
    ok = all(0.95 <= v <= 1.0 + 1e-6 for v in vals.values())
    elapsed = time.time() - t0
    _line(4, "l1/linf index one", ok and elapsed < 300,
          f"bounds {sorted(vals.values())} all in [0.95, 1+1e-6], {elapsed:.1f}s")


def test_05_mp_constants():
    t0 = time.time()
    m2 = mp_constant(2).value
    m1 = mp_constant(1).value
    positive = all(mp_constant(p).value > 1e-3 for p in (1.5, 3.0, 4.0))
    elapsed = time.time() - t0
    _line(5, "M_p constants",
          m2 <= 1e-12 and abs(m1 - 1.0) <= 1e-9 and positive and elapsed < 1,
          f"M_2={m2:.1e}, M_1={m1:.12f}, M_p>1e-3 off 2, {elapsed:.2f}s")


def test_06_mp_interval_bounds():
    t0 = time.time()
    rep = bounds_check([1.5, 3.0], [2], budget=150, seed=0)
    soft = all(c["soft_upper_ok"] for c in rep.cases)
    elapsed = time.time() - t0
    detail = (f"hard floor M_p/2-0.02 ok (max violation {rep.max_violation:.1e}); "
              f"soft witness <= M_p+0.05: {soft} (logged, not gating); {elapsed:.0f}s")
    _line(6, "M_p interval bounds", rep.passed and elapsed < 600, detail)


def test_07_monotone_in_m():
    t0 = time.time()
    rep = monotone_sweep(3.0, [1, 2, 3, 4], budget=120, seed=0)
    traj = rep.extra["trajectory"]
    first_is_one = abs(traj[0][1] - 1.0) <= 1e-9
    elapsed = time.time() - t0
    _line(7, "monotone in m", rep.passed and first_is_one and elapsed < 900,
          f"n(l3^m) m=1..4: {[round(v, 4) for _, v in traj]} nonincreasing "
          f"within 0.02, {elapsed:.0f}s")


def test_08_lcc_gcc_invariance():
    t0 = time.time()
    lcc = lcc_check(tower([3.0, 3.0]), m=1, j=1, cases=50, seed=0, budget=24)
    gcc_smooth = gcc_check(lp(1.5, 3), subset=(0, 1), cases=50, seed=0, budget=24)
    gcc_exact = gcc_check(lp(1, 3), subset=(0, 1), cases=50, seed=0, budget=8)
    ok = (lcc.max_violation <= 1e-4 and gcc_smooth.max_violation <= 1e-4
          and gcc_exact.max_violation <= 1e-9)
    elapsed = time.time() - t0
    _line(8, "LCC/GCC invariance", ok and elapsed < 600,
          f"violations: lcc {lcc.max_violation:.1e}, gcc {gcc_smooth.max_violation:.1e} "
          f"(ascent <= 1e-4), gcc-l1 {gcc_exact.max_violation:.1e} (<= 1e-9); {elapsed:.0f}s")


def test_09_adjoint_symmetry():
    t0 = time.time()
    worst = 0.0
    for desc in (lp(2, 3), lp(3, 2)):
        rep = duality_check(desc, cases=50, budget=24, seed=0, index_budget=40)
        worst = max(worst, rep.max_violation)
    elapsed = time.time() - t0
    _line(9, "adjoint symmetry", worst <= 1e-4 and elapsed < 300,
          f"max |nu(T)-nu(T*)| = {worst:.1e} over 100 operators, {elapsed:.0f}s")


def test_10_absolute_index_half():
    t0 = time.time()
    est = absolute_index_estimate(lp(2, 2), budget=200, rng=0)
    elapsed = time.time() - t0
    _line(10, "absolute index", abs(est.upper_bound - 0.5) <= 0.05 and elapsed < 300,
          f"|n|(l2^2) estimate {est.upper_bound:.4f} vs target 0.5, {elapsed:.0f}s")


def test_11_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for p in (1.0, 2.0, 3.0, math.inf):
        desc = lp(p, 2)
        rng = np.random.default_rng(17)
        for _ in range(20):
            T = _rand_op(desc, rng)
            engine = numerical_radius(T, budget=64, rng=rng).value
            oracle = radius_grid_oracle(T, 2000).value
            worst = max(worst, abs(engine - oracle))
    elapsed = time.time() - t0
    _line(11, "oracle equivalence", worst <= 2e-3 and elapsed < 600,
          f"max |engine - grid| = {worst:.2e} over 80 operators, {elapsed:.0f}s")


def test_12_rank_one_bound_and_chain():
    t0 = time.time()
    lows = {}
    for desc, label in ((lp(2, 2), "l2^2"), (lp(3, 2), "l3^2"), (lp(1, 3), "l1^3")):
        est = rank_r_index_estimate(desc, 1, budget=100, rng=0)
        lows[label] = est.upper_bound
    floor_ok = all(v >= INV_E - 0.02 for v in lows.values())
    prev = None
    chain = []
    chain_ok = True
    for r in (1, 2):
        est = rank_r_index_estimate(lp(3, 2), r, budget=60, rng=1)
        if prev is not None:
            chain_ok = chain_ok and est.upper_bound <= prev.upper_bound + 0.02
        chain.append(round(est.upper_bound, 4))
        prev = est
    elapsed = time.time() - t0
    _line(12, "rank-one bound", floor_ok and chain_ok and elapsed < 600,
          f"n_1 >= 1/e-0.02 at {lows}; chain n_r {chain} nonincreasing; {elapsed:.0f}s")


def test_13_absolute_sandwich_and_coincidence():
    t0 = time.time()
    sandwich_ok = True
    for desc in (lp(1.5, 2), lp(2, 2), lp(3, 2)):
        rng = np.random.default_rng(23)
        for _ in range(100):
            T = _rand_op(desc, rng)
            v = numerical_radius(T, budget=16, rng=rng)
            a = absolute_radius(T, budget=16, rng=rng).value
            n = op_norm(T, budget=8, rng=rng).value
            sandwich_ok = sandwich_ok and v.value <= a + 1e-6 <= n + 2e-6
    worst_gap = 0.0
    rng = np.random.default_rng(29)
    for _ in range(50):
        T = Operator(np.abs(rng.standard_normal((2, 2))), lp(2, 2))
        a = absolute_radius(T, budget=16, rng=rng)
        v = numerical_radius(T, budget=16, rng=rng).value
        worst_gap = max(worst_gap, abs(v - a.value))
    elapsed = time.time() - t0
    _line(13, "absolute sandwich", sandwich_ok and worst_gap <= 1e-4 and elapsed < 300,
          f"nu <= |nu| <= norm on 300 operators; positive-entry gap "
          f"{worst_gap:.1e} <= 1e-4; {elapsed:.0f}s")


def test_14_end_to_end_determinism(tmp_path):
    t0 = time.time()
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["verify", "--suite", "all", "--seed", "20240801",
                     "--out", str(out)])
        runs.append((code, out))
    codes_ok = all(code == EXIT_OK for code, _ in runs)
    identical = True
    for name in ("lcc", "gcc", "sums", "duality", "bounds"):
        ra = (runs[0][1] / f"{name}.json").read_bytes()
        rb = (runs[1][1] / f"{name}.json").read_bytes()
        identical = identical and ra == rb
        ma = json.loads((runs[0][1] / f"{name}.json.manifest.json").read_text())
        mb = json.loads((runs[1][1] / f"{name}.json.manifest.json").read_text())
        for m in (ma, mb):
            m.pop("started_at"), m.pop("ended_at")
            # the config echo records where this run wrote its files; the
            # two runs intentionally use different directories
            m["config"].pop("out")
            m["summary"].pop("output", None)
        identical = identical and ma == mb
    elapsed = time.time() - t0
    _line(14, "end-to-end determinism",
          codes_ok and identical and elapsed < 1800,
          f"verify --suite all twice: exit 0, byte-identical reports, "
          f"manifests equal modulo timestamps, {elapsed:.0f}s total")
