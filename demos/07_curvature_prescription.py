"""Scalar curvature of torus-invariant metrics, and its prescription.

A periodic perturbation psi with |x|^2/2 + psi convex defines an
invariant metric on the complex n-torus.  Its scalar curvature can be
sampled in the real coordinate x (where the formula is a second-order
contraction) or in the symplectic coordinate t = grad v (where it is a
fourth-order divergence and has exactly zero plain mean).  Prescription
works in symplectic coordinates: solve the fourth-order equation with
right-hand side -4S, then transform back.
"""

import numpy as np

from abreu import (
    InvariantMetric,
    ScalarField,
    make_grid,
    mean,
    metric_volume_mean,
    prescribe_curvature,
    scalar_curvature,
    scalar_curvature_symplectic,
    sup_norm,
)

grid = make_grid(1, [64])
x = grid.axis_coordinates(0)
m = InvariantMetric(ScalarField(grid, 0.01 * np.cos(2 * np.pi * x)))

S_x = scalar_curvature(m)
S_t = scalar_curvature_symplectic(m)
print(f"curvature range (x sampling): [{S_x.values.min():.3f}, {S_x.values.max():.3f}]")
print(f"plain mean of the x sampling:        {mean(S_x):+.6f}")
print(f"metric-volume mean of the x sampling: {metric_volume_mean(m, S_x):+.2e}")
print(f"plain mean of the symplectic sampling: {mean(S_t):+.2e}")
print("(the zero-mean condition lives in symplectic coordinates, or "
      "equivalently against the metric volume)")

# round trip: prescribe the measured curvature, recover the metric
recovered, _ = prescribe_curvature(S_t)
print(f"\nprescribe(curvature(m)) recovers psi within "
      f"{sup_norm(recovered.psi - m.psi):.3e}")

# flat is the unique metric of zero curvature (in mean-zero gauge)
flat, _ = prescribe_curvature(ScalarField.zeros(grid))
print(f"prescribing S = 0 returns the flat metric: sup|psi| = {sup_norm(flat.psi)}")

# 2D: prescribe a two-mode curvature pattern and re-measure it
g2 = make_grid(2, [32, 32])
t1, t2 = g2.coordinate_arrays()
target = ScalarField(g2, 0.1 * (np.cos(2 * np.pi * t1) - np.cos(2 * np.pi * t2)))
metric2, _ = prescribe_curvature(target)
measured = scalar_curvature_symplectic(metric2)
print(f"\n2D prescription: |measured - target| = {sup_norm(measured - target):.3e}")
print(f"metric perturbation amplitude: {sup_norm(metric2.psi):.5f}, "
      f"positive: {metric2.is_positive()}")
