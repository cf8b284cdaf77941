"""Runtime monitors for the a-priori bounds a true solution must satisfy.

The determinant of the Hessian of a solution is pinched between explicit
constants driven only by sup|A|.  The monitors evaluate the auxiliary
test functions behind those bounds on the dual potential, locate their
discrete minimizers, and check every inequality with measured constants.
A corrupted candidate trips the checks.
"""

import numpy as np

from abreu import (
    Potential,
    ScalarField,
    c0_c1_report,
    choose_beta,
    continuity_solve,
    eigenvalue_bounds,
    legendre_transform,
    lower_bound_monitor,
    make_grid,
    pullback_rhs,
    upper_bound_monitor,
    verify_solution,
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

sup_phi, sup_grad, osc_bound = c0_c1_report(P)
print(f"C0/C1 report: sup|phi| = {sup_phi:.4f}, sup|grad phi| = {sup_grad:.4f}, "
      f"oscillation bound n = {osc_bound}")
c1, c2 = eigenvalue_bounds(P)
print(f"Hessian eigenvalues pinched in [{c1:.4f}, {c2:.4f}]")

V = legendre_transform(P)
atilde = pullback_rhs(A, V)
print(f"beta for the lower-bound test function: {choose_beta(V)} "
      f"(largest admissible power of two)")

print("\nupper-bound monitor (minimum of L + |y|^2/2 + 2 psi over [-1,1]^n):")
for c in upper_bound_monitor(V, atilde).inequalities:
    print(f"  {c.name}: {c.lhs:.4g} {c.relation} {c.rhs:.4g}  -> {c.satisfied}")

print("lower-bound monitor (minimum of -L - beta|grad v|^2 + v over B(4)):")
for c in lower_bound_monitor(V, atilde).inequalities:
    print(f"  {c.name}: {c.lhs:.4g} {c.relation} {c.rhs:.4g}  -> {c.satisfied}")

# the full pipeline bundles residual certificates, duality identities and
# the monitors; a corrupted candidate fails visibly
outcome = verify_solution(P, A)
print(f"\nfull verification of the certified solution: passed = {outcome.passed}")

bad = P.with_perturbation(P.perturbation.values + 3e-4 * np.cos(2 * np.pi * x))
flagged = verify_solution(bad, A)
failed = [c.name for c in flagged.bounds.inequalities if not c.satisfied]
print(f"after perturbing the solution by 3e-4 cos(2 pi x): passed = "
      f"{flagged.passed}, failing checks = {failed}")
