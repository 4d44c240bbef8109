"""Multi-start maximization of a scalar objective over a unit sphere.

The sphere is the norm-one set of a space descriptor.  Complex
coordinates are optimized as interleaved real/imaginary parameters.
Gradients are central finite differences of the normalized objective; the
line search scores a ladder of step sizes at once and takes the best, and
a row stops on ``VALUE_TOL``: the rules of the ``op_norm`` fixed point.
The restarts advance in lockstep as rows of one array, each with its own
step size; the rows still ascending sit in compact arrays, so an iteration
costs what its live rows cost.  Several problems on one descriptor (a
stack) share the array: every row carries its problem index, and each
problem keeps its own starts and its own deterministic reduction (best
value, earliest restart wins ties).
"""

from __future__ import annotations

import numpy as np

from .spaces import COMPLEX, DegenerateInput, SpaceDescriptor, norm, sphere_starts

FD_STEP = 1e-6
MAX_ITERS = 500
VALUE_TOL = 1e-10
#: step sizes one line-search batch scores per searching row
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
    sphere of ``desc``: the one-problem case of :func:`maximize_stack`.  The
    starts (:func:`~numindex.spaces.sphere_starts`) for ``restarts`` are a
    prefix of those for any larger budget, and each ascends on its own, so
    under a shared seed a larger budget never lowers the result."""
    return maximize_stack(desc, objective, [rng], restarts)[0]


def maximize_stack(desc: SpaceDescriptor, objective, rngs,
                   restarts: int = 64) -> list[tuple]:
    """Maximize one objective per generator in ``rngs`` at once; returns
    (best_x, best_value, evals) of each.  ``objective`` maps a (B, d) batch
    of norm-one rows and the (B,) problem index of every row to their B
    values; ``evals`` counts a problem's evaluated rows, every step size
    the line search scored included, and does not depend on the problems
    beside it.  Problem k draws its starts from ``rngs[k]`` as
    :func:`maximize_on_sphere` does, and every restart follows the
    trajectory it would follow alone (:func:`_ascend`), so each result
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


def check_stack(Ts, rngs):
    """Reject a stack without one generator per map, before any start is drawn."""
    if len(rngs) != len(Ts):
        raise DegenerateInput(f"a stack of {len(Ts)} maps got {len(rngs)} generators")


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
    still ascending keep their point, value and step size s in compact
    arrays, written back to ``y`` when a row stops.  An iteration takes
    their central differences in one batch, then scores the sizes 4s, 2s,
    ..., s/32 above 1e-14 of every row still searching in one batch; a row
    takes the best that improves it, the earliest on ties, as its next s (at
    most 4), and with none it scores the ladder at s/2^8 next.  A row stops
    once an iteration raises it by less than ``VALUE_TOL``, as in
    :func:`~numindex.operators.op_norm`, which ends a row with no step."""
    r, d = y.shape
    val = obj(y, np.arange(r))
    a, ya, va, step = np.arange(r), y.copy(), val.copy(), np.full(r, 0.25)
    offsets = FD_STEP * np.concatenate([np.eye(d), -np.eye(d)])
    ladder = 4.0 * 0.5 ** np.arange(LINE_SEARCH_WIDTH)
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
        while k.size:
            sizes = s[:, None] * ladder               # (K, W), largest first
            tried = sizes > 1e-14
            cand = ya[k, None, :] + sizes[..., None] * direction[:, None, :]
            cval = np.full(sizes.shape, -np.inf)
            cval[tried] = obj(cand[tried], a[k].repeat(tried.sum(axis=1)))
            j = cval.argmax(axis=1)                   # best size, earliest on ties
            hit = cval[np.arange(k.size), j] > va[k] + 1e-15
            kh, jh = k[hit], j[hit]
            ya[kh], va[kh] = cand[hit, jh], cval[hit, jh]
            step[kh] = np.minimum(sizes[hit, jh], 4.0)
            s = s * 0.5 ** LINE_SEARCH_WIDTH
            miss = ~hit & (s * ladder[0] > 1e-14)
            k, s, direction = k[miss], s[miss], direction[miss]
        stop = va - prev < VALUE_TOL
        y[a[stop]], val[a[stop]] = ya[stop], va[stop]
        a, ya, va, step = a[~stop], ya[~stop], va[~stop], step[~stop]
    y[a], val[a] = ya, va
    return y, val
