"""A 2D solve at 64x64, plus a resolution study of the manufactured case.

The solver is dimension-agnostic: the same Newton iteration, first at
t = 1 and continuing in t only on failure, solves on the torus of any
dimension.  The second half of the demo shows the
superalgebraic decay of the manufactured-solution error with N, the
signature of spectral discretizations on smooth problems.
"""

import time

import numpy as np

from abreu import ScalarField, abreu_forward, continuity_solve, make_grid, sup_norm

grid = make_grid(2, [64, 64])
x, y = grid.coordinate_arrays()
A = ScalarField(grid, 0.5 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)))

start = time.perf_counter()
P, trace = continuity_solve(A)
wall = time.perf_counter() - start
print(f"2D solve at 64x64 in {wall:.2f}s:")
for s in trace.steps:
    print(f"  t={s.t:5.3f}  iters={s.newton_iterations}  "
          f"residual={s.final_residual_norm:.2e}  margin={s.convexity_margin:.4f}")
print(f"certificate: sup|forward(u) - A| = {sup_norm(abreu_forward(P) - A):.3e}")

print("\nresolution study, manufactured phi* = 0.02 cos(2 pi x):")
eps = 0.02
delta = 4 * np.pi**2 * eps
for n in (16, 32, 64):
    g1 = make_grid(1, [n])
    xs = g1.axis_coordinates(0)
    gg = 1.0 / (1.0 - delta * np.cos(2 * np.pi * xs))
    rhs = -delta * (2 * np.pi) ** 2 * gg**2 * (
        np.cos(2 * np.pi * xs) - 2 * delta * np.sin(2 * np.pi * xs) ** 2 * gg
    )
    a = ScalarField(g1, rhs - rhs.mean())
    sol, _ = continuity_solve(a)
    err = np.max(np.abs(sol.perturbation.values - eps * np.cos(2 * np.pi * xs)))
    print(f"  N={n:3d}: recovery error {err:.3e}")
print("(each doubling of N multiplies the accuracy, not adds to it)")
