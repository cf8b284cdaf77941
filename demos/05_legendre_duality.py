"""Legendre duality: the transform, its involution, and the dual equation.

The gradient map y = grad u carries u = |x|^2/2 + phi to its convex dual
v = |y|^2/2 + psi, sampled here on its own uniform grid.  Solutions of
the fourth-order equation turn into solutions of the second-order dual
equation v^ij (log det v_ab)_ij = A~, with A~ the pullback of A, and the
Hessian determinants of the two sides are exact reciprocals.
"""

import numpy as np

from abreu import (
    ScalarField,
    TrigInterpolant,
    continuity_solve,
    det_hessian,
    dual_residual,
    gradient_map,
    gradient_map_inverse,
    hessian_u,
    legendre_transform,
    make_grid,
    pullback_rhs,
    sup_norm,
)

grid = make_grid(1, [64])
x = grid.axis_coordinates(0)
eps = 0.01
delta = 4 * np.pi**2 * eps
g = 1.0 / (1.0 - delta * np.cos(2 * np.pi * x))
rhs = -delta * (2 * np.pi) ** 2 * g**2 * (
    np.cos(2 * np.pi * x) - 2 * delta * np.sin(2 * np.pi * x) ** 2 * g
)
A = ScalarField(grid, rhs - rhs.mean())
P, _ = continuity_solve(A)

V = legendre_transform(P)
print(f"dual perturbation: sup|psi| = {sup_norm(V.perturbation):.6f}")

back = legendre_transform(V)
print(f"involution: transforming twice returns phi within "
      f"{sup_norm(back.perturbation - P.perturbation):.3e}")

# gradient maps invert each other
pts = grid.node_points()
round_trip = gradient_map_inverse(P, gradient_map(P, pts))
print(f"grad v (grad u (x)) = x within {np.max(np.abs(round_trip - pts)):.3e}")

# det(v_ab)(y) * det(u_ab)(x(y)) = 1 at every dual node y, with x(y) the
# preimage the transform found and the dual keeps
det_u = TrigInterpolant(det_hessian(hessian_u(P)))
det_v = det_hessian(hessian_u(V)).values.ravel()
defect = np.max(np.abs(det_v * det_u.evaluate(V.preimages) - 1.0))
print(f"determinant duality: max |det v * det u - 1| = {defect:.3e}")

# the dual equation holds with the pulled-back right-hand side
atilde = pullback_rhs(A, V)
print(f"pullback: sup|A~| = {sup_norm(atilde):.6f} vs sup|A| = {sup_norm(A):.6f}")
print(f"dual-equation residual: {sup_norm(dual_residual(V, atilde)):.3e}")
