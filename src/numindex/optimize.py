"""Multi-start maximization of a scalar objective over a unit sphere.

The sphere is the norm-one set of a space descriptor, and a point is a row
of its field: a complex row is stepped as it is and differenced along its
2d real axes.  The objective is scale-invariant, so the points step off the
sphere and are normalized only at the end.  Gradients are central finite
differences; the line search scores a ladder of step sizes at once and takes
the best, and a row stops on ``VALUE_TOL``: the rules of the ``op_norm``
fixed point.  The restarts advance in lockstep as rows of one array, each
with its own step size; the rows still ascending sit in compact arrays, so
an iteration costs what its live rows cost.  A row also retires once, at
its current pace, it cannot reach the best value an earlier restart of its
own problem already holds.  Several problems on one descriptor (a stack)
share the array: every row carries its problem index, and each problem
keeps its own starts and its own deterministic reduction (best value,
earliest restart wins ties).
"""

from __future__ import annotations

import numpy as np

from .spaces import DegenerateInput, SpaceDescriptor, norm, sphere_starts

FD_STEP = 1e-6
MAX_ITERS = 500
VALUE_TOL = 1e-10
#: step sizes one line-search batch scores per searching row
LINE_SEARCH_WIDTH = 8


def maximize_on_sphere(desc: SpaceDescriptor, objective, rng: np.random.Generator,
                       restarts: int = 64):
    """Return (best_x, best_value, evals) for ``objective`` over the unit
    sphere of ``desc``: the one-problem case of :func:`maximize_stack`.  The
    starts (:func:`~numindex.spaces.sphere_starts`) for ``restarts`` are a
    prefix of those for any larger budget, and a start's trajectory depends
    only on the starts before it, so under a shared seed the first starts
    end bit for bit alike at any larger budget, which never lowers the
    result."""
    return maximize_stack(desc, objective, [rng], restarts)[0]


def maximize_stack(desc: SpaceDescriptor, objective, rngs,
                   restarts: int = 64) -> list[tuple]:
    """Maximize one objective per generator in ``rngs`` at once; returns
    (best_x, best_value, evals) of each, best_x normalized.  ``objective``
    maps a (B, d) batch of rows of the descriptor's field (complex rows on a
    complex space) and the (B,) problem index of every row to their B
    values.  The rows are the ascent's raw points, off the unit sphere, so
    the objective must be scale-invariant, a function of the direction
    x / ||x|| alone, and score a zero row 0; it normalizes for itself, which
    lets one pass of the norm plan give it both J(x) and ||x||.  ``evals``
    counts a problem's evaluated rows, every step size the line search
    scored included, and does not depend on the problems beside it.  Problem k
    draws its starts from ``rngs[k]`` as :func:`maximize_on_sphere` does,
    and a restart's trajectory depends only on the restarts before it in
    its own problem (:func:`_ascend`), so each result equals the one-problem
    call bit for bit."""
    starts = np.concatenate([sphere_starts(desc, rng, restarts) for rng in rngs])
    group = np.repeat(np.arange(len(rngs)), len(starts) // len(rngs))
    evaluated = []       # rows of every evaluation, counted per problem at the end

    def counted(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        evaluated.append(rows)
        return objective(x, group[rows])

    xs, vals = _ascend(counted, starts, restarts)
    evals = np.bincount(group[np.concatenate(evaluated)], minlength=len(rngs))
    return [(xs[best] / norm(desc, xs[best]), float(vals[best]), int(evals[k]))
            for k, best in enumerate(best_rows(vals, group, len(rngs)))]


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


def _ascend(obj, y: np.ndarray, restarts: int):
    """Gradient ascent of every row of ``y``; returns (y, values).  ``obj``
    takes a batch and the row of ``y`` each batch row belongs to; the rows
    are problem-major, ``restarts`` rows per problem.  The rows still
    ascending keep their point, value and step size s in compact arrays,
    written back to ``y`` when a row stops.  An iteration takes their
    central differences in one batch, along the axes e_j of a real row and
    the 2d real axes e_j, then i e_j, of a complex one; the direction is
    those partials over their 2-norm, the second half of a complex row's
    turned into imaginary parts.  It then scores the sizes 4s, 2s, ...,
    s/32 above 1e-14 of every row still searching in one batch; a row takes
    the best that improves it, the earliest on ties, as its next s (at most
    4), and with none it scores the ladder at s/2^8 next.  A row stops once
    an iteration raises it by less than ``VALUE_TOL``, as in
    :func:`~numindex.operators.op_norm`, which ends a row with no step.  It
    also retires once its value v, raised by this iteration's gain for each
    iteration left, stays below the best value of the earlier rows of its
    problem (their current values, or final ones if stopped): at its current
    pace it cannot catch them.  That is a heuristic, since a row's steps may
    still grow, so a retired row may end a little below where it would have
    ended.  A row's trajectory depends only on the rows before it in its
    own problem."""
    r, d = y.shape
    val = obj(y, np.arange(r))
    a, ya, va, step = np.arange(r), y.copy(), val.copy(), np.full(r, 0.25)
    axes = np.eye(d)
    if np.iscomplexobj(y):
        axes = np.concatenate([axes, 1j * axes])      # the 2d real axes of C^d
    offsets = FD_STEP * np.concatenate([axes, -axes])
    ladder = 4.0 * 0.5 ** np.arange(LINE_SEARCH_WIDTH)
    lead = np.full((r // restarts, restarts), -np.inf)    # best value of the earlier rows
    for i in range(MAX_ITERS):
        if a.size == 0:
            break
        fd = obj((ya[:, None, :] + offsets).reshape(-1, d), a.repeat(len(offsets)))
        fd = fd.reshape(a.size, 2, len(axes))
        grad = (fd[:, 0] - fd[:, 1]) / (2 * FD_STEP)
        gn = np.sqrt((grad * grad).sum(axis=1))
        k = (gn >= 1e-12).nonzero()[0]       # a vanishing gradient ends the row
        direction = grad[k] / gn[k, None]
        if len(axes) > d:
            direction = direction[:, :d] + 1j * direction[:, d:]
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
        val[a] = va
        np.maximum.accumulate(val.reshape(lead.shape)[:, :-1], axis=1, out=lead[:, 1:])
        stop = (va - prev < VALUE_TOL) | (va + (va - prev) * (MAX_ITERS - i - 1)
                                          < lead.ravel()[a])
        y[a[stop]] = ya[stop]
        a, ya, va, step = a[~stop], ya[~stop], va[~stop], step[~stop]
    y[a] = ya
    return y, val
