"""Numerical radius basics.

Walks through the core objects: space descriptors for nested p-sums,
operators on them, operator norms, and the numerical radius

    nu(T) = sup { |x*(T x)| : ||x|| = ||x*|| = 1, x*(x) = 1 },

computed three ways — smooth multi-start ascent, exact enumeration on flat
l1/linf spaces, and a dense grid oracle in low dimension.

Run:  python3 demos/01_radius_basics.py
"""
import numpy as np

from numindex import (REAL, Operator, descriptor_to_text, identity, lp,
                      numerical_radius, op_norm, psum, radius_enumerate,
                      radius_grid_oracle, scalar)


def main() -> None:
    rng = np.random.default_rng(0)

    # --- spaces -----------------------------------------------------------
    # Flat l_3 in dimension 3, and a nested sum  (l_2^2 (+) R)_{l_4}.
    flat = lp(3.0, 3)
    nested = psum(4.0, [lp(2.0, 2), scalar()])
    print("flat descriptor:  ", descriptor_to_text(flat))
    print("nested descriptor:", descriptor_to_text(nested))

    # --- identity has radius exactly 1 -------------------------------------
    for desc in (flat, nested):
        est = numerical_radius(identity(desc), budget=32, rng=np.random.default_rng(1))
        print(f"nu(Id) on {descriptor_to_text(desc):28s} = {est.value:.9f}  (exact value 1)")

    # --- antisymmetric operators on a real Hilbert space -------------------
    # On real l_2^2 every norming pair has x* = x, so x*(Tx) = <Tx, x> = 0
    # for antisymmetric T: the numerical radius vanishes.
    rot = Operator(np.array([[0.0, -1.0], [1.0, 0.0]]), lp(2.0, 2))
    est = numerical_radius(rot, budget=32, rng=np.random.default_rng(2))
    print(f"nu(rotation) on real l_2^2      = {est.value:.2e}  (exact value 0),"
          f"  ||T|| = {op_norm(rot, budget=32, rng=np.random.default_rng(2)).value:.6f}")

    # --- three backends agree on flat l_1 -----------------------------------
    # On l_1^m the radius is attained at a basis-vector pair and has the
    # closed form max_i ( |T_ii| + sum_{j != i} |T_ji| ).
    T = Operator(rng.standard_normal((3, 3)), lp(1.0, 3, REAL))
    exact = radius_enumerate(T)
    ascent = numerical_radius(T, method="ascent", budget=64,
                              rng=np.random.default_rng(3))
    grid = radius_grid_oracle(T, resolution=2000)
    print(f"l_1^3 radius: enumeration = {exact.value:.9f}, "
          f"ascent = {ascent.value:.9f}, grid oracle = {grid.value:.9f}")

    # Every estimate ships a certificate: a norming pair (x, x*) with
    # x*(x) = 1 whose pairing |x*(Tx)| reproduces the reported value.
    pair = exact.witness
    print(f"witness check: |x*(Tx)| = {abs(np.dot(pair.xstar, T.matrix @ pair.x)):.9f}")


if __name__ == "__main__":
    main()
