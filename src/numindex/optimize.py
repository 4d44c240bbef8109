"""Multi-start maximization of a scalar objective over a unit sphere.

The sphere is the norm-one set of a space descriptor.  Complex
coordinates are optimized as interleaved real/imaginary parameters.
Gradients are central finite differences of the normalized objective,
followed by backtracking steps and renormalization.  The restarts advance
in lockstep as rows of one array, each with its own step size and stall
count; the reduction over restarts is deterministic (best value, earliest
restart wins ties).
"""

from __future__ import annotations

import numpy as np

from .spaces import COMPLEX, SpaceDescriptor, norm, unit_sphere_sample

FD_STEP = 1e-6
STALL_ITERS = 5
VALUE_TOL = 1e-10


def _to_params(x: np.ndarray, complex_field: bool) -> np.ndarray:
    if not complex_field:
        return x.astype(float)
    return np.concatenate([x.real, x.imag], axis=-1)


def _from_params(y: np.ndarray, complex_field: bool) -> np.ndarray:
    if not complex_field:
        return y
    d = y.shape[-1] // 2
    return y[..., :d] + 1j * y[..., d:]


def maximize_on_sphere(desc: SpaceDescriptor, objective, rng: np.random.Generator,
                       restarts: int = 64, max_iters: int = 500,
                       extra_starts=()):
    """Return (best_x, best_value, evals) for ``objective`` over the unit
    sphere of ``desc``.  ``objective`` maps a (B, d) batch of norm-one rows
    to their B values; ``evals`` counts evaluated rows.

    Starts: the given extra starts, the coordinate directions, then random
    sphere samples up to ``restarts`` total; the start list grows with
    ``restarts`` as a prefix, so enlarging the budget never lowers the result
    under a shared seed.
    """
    cplx = desc.field == COMPLEX
    plan = desc.plan
    starts = [np.asarray(s, dtype=desc.dtype) for s in extra_starts]
    starts.extend(np.eye(desc.total_dim, dtype=desc.dtype))
    while len(starts) < max(restarts, 1):
        starts.append(unit_sphere_sample(desc, rng))
    starts = np.array(starts[:max(restarts, len(extra_starts))])

    evals = 0

    def normed_obj(y: np.ndarray) -> np.ndarray:
        nonlocal evals
        x = _from_params(y, cplx)
        n = plan.norm(x)
        out = np.zeros(len(y))
        ok = n != 0.0
        evals += int(ok.sum())
        out[ok] = objective(x[ok] / n[ok, None])
        return out

    n0 = plan.norm(starts)
    ok = n0 != 0.0
    ys, vals = _ascend(normed_obj, _to_params(starts[ok] / n0[ok, None], cplx),
                       max_iters)
    best = 0
    for i in range(1, len(vals)):
        if vals[i] > vals[best] + 1e-15:
            best = i
    x = _from_params(ys[best], cplx)
    x = x / norm(desc, x)
    return x, float(vals[best]), evals


def _ascend(obj, y: np.ndarray, max_iters: int):
    """Gradient ascent of every row of ``y``; returns (y, values).  Each
    iteration takes the central differences of all active rows in one
    batch, then the rows still line-searching try their next step sizes in
    one batch per backtracking sub-step."""
    r, d = y.shape
    val = obj(y)
    step = np.full(r, 0.25)
    stall = np.zeros(r, dtype=int)
    active = np.ones(r, dtype=bool)
    e = FD_STEP * np.eye(d)
    for _ in range(max_iters):
        a = np.flatnonzero(active)
        if a.size == 0:
            break
        ya = y[a][:, None, :]
        fd = obj(np.concatenate([ya + e, ya - e], axis=1).reshape(-1, d))
        fd = fd.reshape(a.size, 2, d)
        grad = (fd[:, 0] - fd[:, 1]) / (2 * FD_STEP)
        gn = np.linalg.norm(grad, axis=1)
        moving = gn >= 1e-12              # a vanishing gradient ends the row
        direction = grad / np.where(moving, gn, 1.0)[:, None]
        searching = moving.copy()
        prev, s = val[a], step[a]
        while True:
            k = np.flatnonzero(searching & (s > 1e-14))
            if k.size == 0:
                break
            cand = y[a[k]] + s[k, None] * direction[k]
            cval = obj(cand)
            up = cval > val[a[k]] + 1e-15
            ku, rows = k[up], a[k[up]]
            y[rows], val[rows] = cand[up], cval[up]
            step[rows] = np.minimum(s[ku] * 2.0, 1.0)
            searching[ku] = False
            s[k[~up]] *= 0.5
        improved = moving & ~searching    # rows still searching found no step
        active[a[~improved]] = False
        a, prev = a[improved], prev[improved]
        stall[a] = np.where(val[a] - prev < VALUE_TOL, stall[a] + 1, 0)
        active[a[stall[a] >= STALL_ITERS]] = False
    return y, val
