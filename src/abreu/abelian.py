"""Scalar curvature of torus-invariant metrics on the complex n-torus.

A torus-invariant Kahler metric in the flat class is encoded by a periodic
perturbation psi with v(x) = |x|^2/2 + psi(x) strictly convex (the metric
coefficients are the real Hessian delta_ij + psi_ij).  Its scalar
curvature in the real coordinate x is

    S = -1/4 * sum_ij v^ij [log det(v_ab)]_ij,

and in the Legendre-dual ("symplectic") coordinate t = grad v the same
function becomes -1/4 times the fourth-order divergence expression of the
dual potential u(t).  Prescribing S therefore reduces to the fourth-order
solve in symplectic coordinates followed by a Legendre transform back;
the prescribed S must pass `ScalarField.mean_zero`, the grid module's one
zero-mean test (|mean S| relative to 1 + sup|S|).

Both coordinate samplings of S are exposed: `scalar_curvature` returns the
x-sampling above, `scalar_curvature_symplectic` the t-sampling, whose
plain grid mean vanishes identically (divergence structure).  The zero
mean of the x-sampling holds with respect to the metric volume element
det(v_ab) dx, see `metric_volume_mean`.  A metric is positive when its
potential passes `HessianState.convex`, the one convexity test of the
package, which also guards the curvature and is read by the Newton line
search and the convexity-margin check of `verify_solution`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, kept_property, project_mean_zero
from .legendre import legendre_transform
from .potential import Potential, QuadraticBase, abreu_forward
from .solver import ContinuityTrace, SolverConfig, continuity_solve

__all__ = [
    "InvariantMetric",
    "scalar_curvature",
    "scalar_curvature_symplectic",
    "metric_volume_mean",
    "prescribe_curvature",
]


@dataclass(frozen=True)
class InvariantMetric:
    """Torus-invariant metric, stored as the mean-zero perturbation psi."""

    psi: ScalarField

    def __post_init__(self):
        self.potential  # built and kept now; its gauge check raises ValueError

    @kept_property
    def potential(self) -> Potential:
        """The convex potential v = |x|^2/2 + psi, built once and kept."""
        return Potential(QuadraticBase.identity(self.psi.grid.dim), self.psi)

    def is_positive(self) -> bool:
        """Whether the Hessian passes the test every curvature guard uses."""
        return self.potential.hessian_state.convex


def scalar_curvature(m: InvariantMetric) -> ScalarField:
    """Scalar curvature sampled in the real coordinate x.

    Computed nodewise as -1/4 v^ij [log det(v_ab)]_ij from spectral
    derivatives; raises NotConvex if the metric is not positive.
    """
    return ScalarField(m.psi.grid, -0.25 * m.potential.hessian_state.log_det_contraction)


def scalar_curvature_symplectic(m: InvariantMetric) -> ScalarField:
    """Scalar curvature sampled in the symplectic coordinate t = grad v.

    Equals -1/4 times the fourth-order operator of the dual potential; the
    divergence structure makes the plain grid mean exactly zero, which is
    the solvability condition for curvature prescription.
    """
    u_dual = legendre_transform(m.potential)
    return -0.25 * abreu_forward(u_dual)


def metric_volume_mean(m: InvariantMetric, f: ScalarField) -> float:
    """Average of f against the metric volume element det(v_ab) dx.

    The scalar curvature has zero mean in exactly this sense (the
    x-coordinate sampling is not plain-mean-zero).
    """
    if f.grid != m.psi.grid:
        raise ValueError("field lives on a different grid than the metric")
    weight = m.potential.hessian_state.det
    return float(np.mean(f.values * weight) / np.mean(weight))


def prescribe_curvature(
    S: ScalarField, cfg: SolverConfig | None = None
) -> tuple[InvariantMetric, ContinuityTrace]:
    """Construct the invariant metric whose curvature is S, with the
    trace of the fourth-order solve behind it.

    S is prescribed in symplectic coordinates (where the problem reduces
    to the fourth-order equation with right-hand side -4 S) and
    must have zero plain mean.  The dual solution is Legendre-transformed
    back to the metric side; uniqueness of the solve makes the round trip
    with `scalar_curvature_symplectic` the identity on mean-zero-gauged
    metrics, to solver tolerance.
    """
    S.require_mean_zero()
    rhs = project_mean_zero(-4.0 * S)  # remove the rounding-level mean remnant
    u_dual, trace = continuity_solve(rhs, QuadraticBase.identity(S.grid.dim), cfg)
    v = legendre_transform(u_dual)
    return InvariantMetric(v.perturbation), trace
