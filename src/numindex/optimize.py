"""Multi-start maximization of a scalar objective over a unit sphere.

The sphere is the norm-one set of a space descriptor.  Complex
coordinates are optimized as interleaved real/imaginary parameters.
Gradients are central finite differences of the normalized objective,
followed by a backtracking line search and renormalization; each batch of
the line search scores several halvings of every searching row's step at
once.  The restarts advance in lockstep as rows of one array, each with its
own step size and stall count; the rows still ascending sit in compact
arrays, so an iteration costs what its live rows cost.  Several problems
on one descriptor (a stack) share the array: every row carries its
problem index, and each problem keeps its own starts and its own
deterministic reduction (best value, earliest restart wins ties).
"""

from __future__ import annotations

import numpy as np

from .spaces import COMPLEX, SpaceDescriptor, norm, sphere_starts

FD_STEP = 1e-6
MAX_ITERS = 500
STALL_ITERS = 5
VALUE_TOL = 1e-10
#: step sizes one backtracking sub-step scores per searching row
LINE_SEARCH_WIDTH = 8


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
                       restarts: int = 64):
    """Return (best_x, best_value, evals) for ``objective`` over the unit
    sphere of ``desc``: the one-problem case of :func:`maximize_stack`.

    Starts: the coordinate directions, then random sphere samples up to
    ``restarts`` total (:func:`~numindex.spaces.sphere_starts`); the start
    list grows with ``restarts`` as a prefix, so enlarging the budget never
    lowers the result under a shared seed.
    """
    return maximize_stack(desc, objective, [rng], restarts)[0]


def maximize_stack(desc: SpaceDescriptor, objective, rngs,
                   restarts: int = 64) -> list[tuple]:
    """Maximize one objective per generator in ``rngs`` at once; returns
    (best_x, best_value, evals) of each.  ``objective`` maps a (B, d) batch
    of norm-one rows and the (B,) problem index of every row to their B
    values; ``evals`` counts a problem's evaluated rows, the speculative
    step sizes of the line search past a row's accepted one included, and
    does not depend on the problems beside it.  Problem k draws its
    starts from ``rngs[k]`` as :func:`maximize_on_sphere` does, and every
    restart follows the trajectory it would follow alone, so each result
    equals the one-problem call bit for bit."""
    cplx = desc.field == COMPLEX
    plan = desc.plan
    starts = np.concatenate([sphere_starts(desc, rng, restarts) for rng in rngs])
    group = np.repeat(np.arange(len(rngs)), len(starts) // len(rngs))
    evaluated = []       # rows of every evaluation, counted per problem at the end

    def scored(x: np.ndarray, n: np.ndarray, rows: np.ndarray) -> np.ndarray:
        evaluated.append(rows)
        return objective(x / n[:, None], group[rows])

    def normed_obj(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        x = _from_params(y, cplx)
        n = plan.norm(x)
        if n.all():
            return scored(x, n, rows)
        ok = n != 0.0                     # zero rows score 0, unevaluated
        out = np.zeros(len(y))
        out[ok] = scored(x[ok], n[ok], rows[ok])
        return out

    ys, vals = _ascend(normed_obj, _to_params(starts / plan.norm(starts)[:, None], cplx))
    evals = np.bincount(group[np.concatenate(evaluated)], minlength=len(rngs))
    found = []
    for k, best in enumerate(best_rows(vals, group, len(rngs))):
        x = _from_params(ys[best], cplx)
        found.append((x / norm(desc, x), float(vals[best]), int(evals[k])))
    return found


def best_rows(vals: np.ndarray, group: np.ndarray, n: int) -> list[int]:
    """Row of the best value of each of ``n`` problems; within 1e-15 the
    earliest row wins."""
    best = [-1] * n
    for i, k in enumerate(group.tolist()):
        if best[k] < 0 or vals[i] > vals[best[k]] + 1e-15:
            best[k] = i
    return best


def _ascend(obj, y: np.ndarray):
    """Gradient ascent of every row of ``y``; returns (y, values).  ``obj``
    takes a batch and the row of ``y`` each batch row belongs to.  The rows
    still ascending keep their point, value, step size and stall count in
    compact arrays, written back to ``y`` when a row stops.  Each iteration
    takes their central differences in one batch, from one (2d, d) table of
    offsets.  The backtracking line search then speculates: each sub-step
    scores the next ``LINE_SEARCH_WIDTH`` halvings s, s/2, ... of every row
    still searching in one batch, and a row accepts the first (largest) size
    that improves it.  Halving is exact and a row's value does not depend on
    the rows beside it, so every row ends where a search of one halving per
    batch would end it."""
    r, d = y.shape
    val = obj(y, np.arange(r))
    a, ya, va = np.arange(r), y.copy(), val.copy()
    step, stall = np.full(r, 0.25), np.zeros(r, dtype=int)
    offsets = FD_STEP * np.concatenate([np.eye(d), -np.eye(d)])
    halvings = 0.5 ** np.arange(LINE_SEARCH_WIDTH)
    for _ in range(MAX_ITERS):
        if a.size == 0:
            break
        fd = obj((ya[:, None, :] + offsets).reshape(-1, d), a.repeat(2 * d))
        fd = fd.reshape(a.size, 2, d)
        grad = (fd[:, 0] - fd[:, 1]) / (2 * FD_STEP)
        gn = np.sqrt((grad * grad).sum(axis=1))
        k = (gn >= 1e-12).nonzero()[0]       # a vanishing gradient ends the row
        direction = grad[k] / gn[k, None]
        prev, s = va.copy(), step[k]
        improved = np.zeros(a.size, dtype=bool)
        while k.size:
            sizes = s[:, None] * halvings             # (K, W), largest first
            tried = sizes > 1e-14
            cand = ya[k, None, :] + sizes[..., None] * direction[:, None, :]
            cval = np.full(sizes.shape, -np.inf)
            cval[tried] = obj(cand[tried], a[k].repeat(tried.sum(axis=1)))
            up = cval > va[k, None] + 1e-15
            hit = up.any(axis=1)
            j = up.argmax(axis=1)[hit]                # first improving size
            kh = k[hit]
            ya[kh], va[kh] = cand[hit, j], cval[hit, j]
            step[kh] = np.minimum(sizes[hit, j] * 2.0, 1.0)
            improved[kh] = True
            s = s * 0.5 ** LINE_SEARCH_WIDTH
            miss = ~hit & (s > 1e-14)
            k, s, direction = k[miss], s[miss], direction[miss]
        # a row that found no step stops, and so does one that stalled
        stall = np.where(va - prev < VALUE_TOL, stall + 1, 0)
        going = improved & (stall < STALL_ITERS)
        stop = ~going
        y[a[stop]], val[a[stop]] = ya[stop], va[stop]
        a, ya, va, step, stall = a[going], ya[going], va[going], step[going], stall[going]
    y[a], val[a] = ya, va
    return y, val
