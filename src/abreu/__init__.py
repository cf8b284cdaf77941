"""Spectral solver for the periodic fourth-order equation on the n-torus.

The library solves  sum_ij d^2(u^ij)/dx_i dx_j = A  for convex potentials
u = x^T M x / 2 + phi with periodic phi, by damped Newton at t = 1 in the
homotopy (u^ij)_ij = t A, continuing in t only when that attempt fails.
On top of the solver it provides the Legendre duality machinery, runtime
monitors for the a-priori determinant and eigenvalue bounds, and the
scalar-curvature dictionary for torus-invariant metrics on the complex
n-torus.
"""

from .abelian import (
    InvariantMetric,
    metric_volume_mean,
    prescribe_curvature,
    scalar_curvature,
    scalar_curvature_symplectic,
)
from .errors import (
    AbreuError,
    DimensionError,
    EvalError,
    FieldSyntaxError,
    FormatError,
    GradientInversionFailure,
    LinearSolveFailure,
    MeanNotZero,
    MonitorViolation,
    NotConvex,
    StepFloorReached,
)
from .estimates import (
    BoundsReport,
    InequalityCheck,
    VerificationReport,
    c0_c1_report,
    choose_beta,
    eigenvalue_bounds,
    lower_bound_monitor,
    upper_bound_monitor,
    verify_solution,
)
from .fieldfile import read_field, write_field
from .fieldlang import eval_field, parse
from .grid import (
    PeriodicGrid,
    ScalarField,
    SymMatrixField,
    TrigInterpolant,
    gradient,
    hessian,
    interpolate,
    make_grid,
    mean,
    partial,
    periodicity_defect,
    project_mean_zero,
    second_divergence,
    sup_norm,
)
from .legendre import (
    DualPotential,
    dual_residual,
    gradient_map,
    gradient_map_inverse,
    legendre_transform,
    pullback_rhs,
)
from .potential import (
    HessianState,
    Potential,
    QuadraticBase,
    abreu_forward,
    cofactor,
    convexity_margin,
    det_hessian,
    divergence_form_residual,
    hessian_u,
    inverse_hessian,
)
from .solver import (
    ContinuityStep,
    ContinuityTrace,
    NewtonRecord,
    SolverConfig,
    continuity_solve,
    functional_value,
    newton_step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "PeriodicGrid", "ScalarField", "SymMatrixField", "TrigInterpolant",
    "make_grid", "partial", "gradient", "hessian", "mean",
    "project_mean_zero", "second_divergence", "interpolate", "sup_norm",
    # potential
    "QuadraticBase", "Potential", "HessianState", "hessian_u", "inverse_hessian",
    "det_hessian", "cofactor", "abreu_forward", "divergence_form_residual",
    "convexity_margin",
    # solver
    "SolverConfig", "ContinuityStep", "ContinuityTrace", "NewtonRecord",
    "newton_step", "continuity_solve", "functional_value",
    # legendre
    "DualPotential", "gradient_map", "gradient_map_inverse",
    "legendre_transform", "pullback_rhs", "dual_residual",
    # estimates
    "InequalityCheck", "BoundsReport", "VerificationReport", "c0_c1_report",
    "upper_bound_monitor", "choose_beta", "lower_bound_monitor",
    "eigenvalue_bounds", "verify_solution",
    # abelian
    "InvariantMetric", "scalar_curvature", "scalar_curvature_symplectic",
    "metric_volume_mean", "prescribe_curvature",
    # field files and expressions
    "read_field", "write_field", "parse", "eval_field",
    "periodicity_defect",
    # errors
    "AbreuError", "NotConvex", "MeanNotZero", "LinearSolveFailure",
    "StepFloorReached", "GradientInversionFailure", "MonitorViolation",
    "FormatError", "FieldSyntaxError", "DimensionError", "EvalError",
]
