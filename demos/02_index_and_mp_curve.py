"""Numerical-index estimates and the M_p lower-bound curve.

The numerical index of a space X is

    n(X) = inf { nu(T) / ||T|| : T != 0 },

an infimum over all operators, so any finite search only ever certifies an
*upper bound*.  This script estimates n on several small spaces and plots
(in ASCII) the classical lower-bound function

    M_p = sup_{t in [0,1]} |t^{p-1} - t| / (1 + t^p),

which bounds the real l_p index from below by M_p / 2 and from above by M_p
in every dimension >= 2.

Run:  python3 demos/02_index_and_mp_curve.py     (about a minute)
"""
import numpy as np

from numindex import (COMPLEX, descriptor_to_text, lp, mp_constant,
                      numerical_index_estimate)


def main() -> None:
    # --- landmark index values ---------------------------------------------
    cases = [
        (lp(2.0, 2), "real Hilbert space: n = 0 (rotations)"),
        (lp(2.0, 2, COMPLEX), "complex Hilbert space: n = 1/2"),
        (lp(1.0, 3), "l_1^3: n = 1"),
        (lp(np.inf, 3), "linf^3: n = 1"),
    ]
    for desc, note in cases:
        budget = 200 if desc.field == COMPLEX else 100
        est = numerical_index_estimate(desc, budget=budget,
                                       rng=np.random.default_rng(0))
        print(f"{descriptor_to_text(desc):24s} upper bound {est.upper_bound:.4f}  "
              f"theory [{est.bounds.lower:.4f}, {est.bounds.upper:.4f}]   ({note})")
    print()

    # --- the M_p curve -------------------------------------------------------
    ps = [1.0 + 0.25 * k for k in range(17)]          # 1.0 .. 5.0
    vals = [mp_constant(p).value for p in ps]
    width = 52
    print("M_p for p in [1, 5]  (note M_p = M_q for conjugate exponents,")
    print("and M_2 = 0: Hilbert space has real index zero)\n")
    for p, v in zip(ps, vals):
        bar = "#" * round(v * width)
        print(f"  p={p:4.2f}  M_p={v:.5f}  {bar}")
    print()

    # Conjugate symmetry, numerically:
    m3 = mp_constant(3.0).value
    m32 = mp_constant(1.5).value
    print(f"M_3 = {m3:.12f}, M_3/2 = {m32:.12f}, |difference| = {abs(m3 - m32):.2e}")


if __name__ == "__main__":
    main()
