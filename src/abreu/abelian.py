"""Scalar curvature of torus-invariant metrics on the complex n-torus.

A torus-invariant Kahler metric in the flat class is encoded by a periodic
perturbation psi with v(x) = |x|^2/2 + psi(x) strictly convex (the metric
coefficients are the real Hessian delta_ij + psi_ij).  Its scalar
curvature in the real coordinate x is

    S = -1/4 * sum_ij v^ij [log det(v_ab)]_ij,

and in the Legendre-dual ("symplectic") coordinate t = grad v the same
function becomes -1/4 times the fourth-order divergence expression of the
dual potential u(t).  Prescribing S therefore reduces to the continuity
solve in symplectic coordinates followed by a Legendre transform back.

Both coordinate samplings of S are exposed: `scalar_curvature` returns the
x-sampling above, `scalar_curvature_symplectic` the t-sampling, whose
plain grid mean vanishes identically (divergence structure).  The zero
mean of the x-sampling holds with respect to the metric volume element
det(v_ab) dx, see `metric_volume_mean`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeanNotZero
from .grid import ScalarField, hessian, mean, project_mean_zero, sup_norm
from .legendre import GradientMapSolveConfig, legendre_transform
from .potential import (
    Potential,
    QuadraticBase,
    abreu_forward,
    convexity_margin,
    double_contract,
)
from .solver import MEAN_TOLERANCE, SolverConfig, continuity_solve

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
        gauge = abs(mean(self.psi))
        if gauge > 1e-10 * (1.0 + sup_norm(self.psi)):
            raise ValueError(
                f"metric perturbation violates the mean-zero gauge "
                f"(mean = {gauge:.3e}); project it first"
            )

    @property
    def potential(self) -> Potential:
        """The convex potential v = |x|^2/2 + psi."""
        return Potential(QuadraticBase.identity(self.psi.grid.dim), self.psi)

    def is_positive(self) -> bool:
        return convexity_margin(self.potential) > 0.0


def scalar_curvature(m: InvariantMetric) -> ScalarField:
    """Scalar curvature sampled in the real coordinate x.

    Computed nodewise as -1/4 v^ij [log det(v_ab)]_ij from spectral
    derivatives; raises NotConvex if the metric is not positive.
    """
    state = m.potential.hessian_state
    hinv = state.inverse()
    log_det = ScalarField(m.psi.grid, np.log(state.det))
    return -0.25 * double_contract(hinv, hessian(log_det))


def scalar_curvature_symplectic(
    m: InvariantMetric, cfg: GradientMapSolveConfig | None = None
) -> ScalarField:
    """Scalar curvature sampled in the symplectic coordinate t = grad v.

    Equals -1/4 times the fourth-order operator of the dual potential; the
    divergence structure makes the plain grid mean exactly zero, which is
    the solvability condition for curvature prescription.
    """
    u_dual = legendre_transform(m.potential, cfg)
    return -0.25 * abreu_forward(u_dual)


def metric_volume_mean(m: InvariantMetric, f: ScalarField) -> float:
    """Average of f against the metric volume element det(v_ab) dx.

    The scalar curvature has zero mean in exactly this sense (the
    x-coordinate sampling is not plain-mean-zero).
    """
    weight = m.potential.hessian_state.det
    return float(np.mean(f.values * weight) / np.mean(weight))


def prescribe_curvature(
    S: ScalarField,
    cfg: SolverConfig | None = None,
    return_trace: bool = False,
):
    """Construct the invariant metric whose curvature is S.

    S is prescribed in symplectic coordinates (where the problem reduces
    to the fourth-order continuity solve with right-hand side -4 S) and
    must have zero plain mean.  The dual solution is Legendre-transformed
    back to the metric side; uniqueness of the solve makes the round trip
    with `scalar_curvature_symplectic` the identity on mean-zero-gauged
    metrics, to solver tolerance.
    """
    if abs(mean(S)) > MEAN_TOLERANCE:
        raise MeanNotZero(mean(S), MEAN_TOLERANCE)
    rhs = ScalarField(S.grid, -4.0 * S.values)
    rhs = project_mean_zero(rhs)  # remove the rounding-level mean remnant
    u_dual, trace = continuity_solve(rhs, QuadraticBase.identity(S.grid.dim), cfg)
    v = legendre_transform(u_dual)
    metric = InvariantMetric(v.perturbation)
    if return_trace:
        return metric, trace
    return metric
