"""Correctness checks on numindex results, computed with the benchmark's own
numpy code.

The reference p-sum norm reads only a descriptor's public ``p``,
``children`` and ``field`` fields, so a defect in numindex's own norm
kernels cannot hide a defect in the values it reports.  Every check that
fails appends one message to the ``failures`` list it is given.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

#: tolerance for identities that a witness must satisfy exactly
EXACT_TOL = 1e-9
#: tolerance for comparing two estimates of the same supremum
ESTIMATE_TOL = 1e-4
#: slack below a theoretical lower bound of the index
INDEX_LB_SLACK = 0.02
#: theta-grid size of the complex Hilbert numerical-radius scan
THETA_POINTS = 2048


def _conjugate(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def ref_norm(desc, v, dual: bool = False) -> float:
    """p-sum norm of ``v`` (or the dual norm of a functional when ``dual``)
    over the descriptor tree, leaves in depth-first order."""
    a = np.abs(np.asarray(v))
    pos = 0

    def node(d) -> float:
        nonlocal pos
        if not d.children:
            pos += 1
            return float(a[pos - 1])
        parts = np.array([node(c) for c in d.children])
        p = _conjugate(d.p) if dual else d.p
        if p == math.inf:
            return float(parts.max())
        return float((parts ** p).sum() ** (1.0 / p))

    out = node(desc)
    if pos != a.size:
        raise ValueError(f"vector of length {a.size} on a tree with {pos} leaves")
    return out


def uniform_p(desc):
    """The one exponent of every p-sum node, or None when they differ."""
    ps = set()
    stack = [desc]
    while stack:
        d = stack.pop()
        if d.children:
            ps.add(d.p)
            stack.extend(d.children)
    return ps.pop() if len(ps) == 1 else None


def _close(failures, what, got, want, tol):
    if not abs(got - want) <= tol:
        failures.append(f"{what}: {got!r} vs {want!r} (tol {tol:g})")


def pairing_witness(failures, what, desc, est, image):
    """A radius witness (x, x*) re-derives its value ``|x*(image(x))|`` and
    satisfies ||x|| = ||x*||_dual = x*(x) = 1."""
    x, xs = est.witness.x, est.witness.xstar
    _close(failures, f"{what} value", abs(np.dot(xs, image(x))), est.value, EXACT_TOL)
    _close(failures, f"{what} ||x||", ref_norm(desc, x), 1.0, EXACT_TOL)
    _close(failures, f"{what} ||x*||", ref_norm(desc, xs, dual=True), 1.0, EXACT_TOL)
    _close(failures, f"{what} x*(x)", abs(np.dot(xs, x) - 1.0), 0.0, EXACT_TOL)


def radius_witness(failures, what, T, est):
    pairing_witness(failures, what, T.descriptor, est, lambda x: T.matrix @ x)


def absolute_witness(failures, what, T, est):
    """Absolute radius: the value is sum_i |x_i|^(p-1) |(Tx)_i| at the unit
    witness x (weight 1 at p = 1)."""
    desc = T.descriptor
    x = est.witness.x
    w = np.ones(x.size) if desc.p == 1 else np.abs(x) ** (desc.p - 1.0)
    _close(failures, f"{what} value", float((w * np.abs(T.matrix @ x)).sum()),
           est.value, EXACT_TOL)
    _close(failures, f"{what} ||x||", ref_norm(desc, x), 1.0, EXACT_TOL)


def poly_image(P):
    def image(x):
        out = P.tensor
        for _ in range(P.degree):
            out = out @ x
        return out
    return image


def opnorm_witness(failures, what, T, est):
    """The op_norm witness w is a unit vector with ||Tw|| = the value."""
    w = est.witness
    _close(failures, f"{what} ||w||", ref_norm(T.descriptor, w), 1.0, EXACT_TOL)
    _close(failures, f"{what} ||Tw||", ref_norm(T.descriptor, T.matrix @ w),
           est.value, EXACT_TOL * max(1.0, est.value))


def hilbert_radius(m: np.ndarray):
    """Closed form of the numerical radius on a p = 2 space: (value, upper).

    Real: max |eig((T + T^T)/2)|, exact, so upper == value.  Complex:
    max over theta of lambda_max(Re(e^{i theta} T)); a grid scan refined
    locally gives the value, and the scan maximum plus ||T||_2 h / 2 is a
    certified upper bound, because the curve is ||T||_2-Lipschitz.
    """
    if not np.iscomplexobj(m):
        v = float(np.abs(np.linalg.eigvalsh((m + m.T) / 2.0)).max())
        return v, v

    def lam(theta: float) -> float:
        a = np.exp(1j * theta) * m
        return float(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[-1])

    h = 2.0 * math.pi / THETA_POINTS
    thetas = np.arange(THETA_POINTS) * h
    vals = np.array([lam(t) for t in thetas])
    k = int(np.argmax(vals))
    res = minimize_scalar(lambda t: -lam(t), bounds=(thetas[k] - h, thetas[k] + h),
                          method="bounded", options={"xatol": 1e-12})
    value = max(float(vals[k]), float(-res.fun))
    upper = float(vals[k]) + float(np.linalg.norm(m, 2)) * h / 2.0
    return value, upper


def hilbert_closed_form(failures, what, T, nu: float):
    """On a uniform p = 2 space, nu is within ESTIMATE_TOL of the closed
    form and never above its upper bound by more than EXACT_TOL."""
    value, upper = hilbert_radius(T.matrix)
    _close(failures, f"{what} vs closed form", nu, value, ESTIMATE_TOL)
    if nu > upper + EXACT_TOL:
        failures.append(f"{what} above closed-form bound: {nu!r} > {upper!r}")
