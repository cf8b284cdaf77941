"""Newton continuation for the periodic fourth-order equation.

Solves  sum_ij (u^ij)_ij = t*A  for t walking from 0 to 1, starting at the
trivial solution phi = 0.  Each accepted t runs a damped Newton iteration
whose linear systems

    L(psi) = (u^ia psi_ab u^bj)_ij = current residual

are solved matrix-free by conjugate gradients on the mean-zero subspace
(constants are projected out every iteration).  The preconditioner is the
inverse of the linearization at phi = 0, which is diagonal per Fourier
mode; for the identity base it is exactly the inverse biharmonic.

Line searches use the convex functional

    F_A(phi) = integral( -log det(u_ij) + A*phi ),

whose gradient is A - (u^ij)_ij and whose second derivative along linear
paths is the (positive semidefinite) bilinear form of L; Newton steps are
therefore descent directions for F and the backtracking accepts the
largest damping power that keeps the potential convex without increasing
the functional.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import LinearSolveFailure, MeanNotZero, NotConvex, StepFloorReached
from .grid import (
    PeriodicGrid,
    ScalarField,
    SymMatrixField,
    hessian,
    mean,
    second_divergence,
    sup_norm,
)
from .potential import CONVEXITY_FLOOR, Potential, QuadraticBase, abreu_forward

__all__ = [
    "SolverConfig",
    "ContinuityStep",
    "ContinuityTrace",
    "MEAN_TOLERANCE",
    "linearized_apply",
    "newton_step",
    "continuity_solve",
    "functional_value",
    "functional_second_derivative",
]

#: Absolute tolerance on mean(A); the equation has no solution otherwise.
MEAN_TOLERANCE = 1e-10

# Relative slack accepted as "not increasing" in the functional line
# search; absorbs rounding noise near convergence.
_FUNCTIONAL_SLACK = 1e-13

# Newton converging within this many iterations counts as easy and doubles
# the next continuation step.
_EASY_ITERS = 5

_MAX_KRYLOV_ITERS = 1000


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and step policy for the continuation solver.

    `newton_tolerance` bounds the residual sup-norm relative to the data
    scale (1 + sup|target|): a fourth-order spectral operator amplifies
    the last bit of the potential by roughly (pi N)^2 per differentiation
    stage, so an absolute bound would be unattainable for large
    right-hand sides at fixed resolution.  For O(1) data the two readings
    coincide.
    """

    newton_tolerance: float = 1e-10
    max_newton_iters: int = 30
    initial_t_step: float = 0.1
    min_t_step: float = 1e-4
    linear_tolerance: float = 1e-12
    damping: float = 0.5
    convexity_floor: float = CONVEXITY_FLOOR

    def __post_init__(self):
        if min(
            self.newton_tolerance,
            self.initial_t_step,
            self.min_t_step,
            self.linear_tolerance,
            self.convexity_floor,
        ) <= 0.0:
            raise ValueError("all solver tolerances must be positive")
        if not (0.0 < self.damping < 1.0):
            raise ValueError("damping must lie strictly between 0 and 1")
        if not (self.min_t_step <= self.initial_t_step <= 1.0):
            raise ValueError("need min_t_step <= initial_t_step <= 1")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")


@dataclass(frozen=True)
class ContinuityStep:
    """Diagnostics recorded at one accepted continuation parameter."""

    t: float
    newton_iterations: int
    final_residual_norm: float
    functional_value: float
    det_min: float
    det_max: float
    convexity_margin: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ContinuityTrace:
    """Append-only record of the continuation path."""

    steps: tuple[ContinuityStep, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def final_t(self) -> float:
        return self.steps[-1].t if self.steps else 0.0


# ---------------------------------------------------------------------------
# linearized operator and its Krylov solve


def _linearized_operator(P: Potential, convexity_floor: float):
    """Matrix-free apply of psi -> (u^ia psi_ab u^bj)_ij with u^ij frozen."""
    hinv = P.hessian_state.inverse(convexity_floor).to_full()
    grid = P.grid

    def apply(values: np.ndarray) -> np.ndarray:
        psi_h = hessian(ScalarField(grid, values)).to_full()
        g = hinv @ psi_h @ hinv
        out = second_divergence(SymMatrixField.from_full(grid, g)).values
        return out - out.mean()

    return apply


def linearized_apply(
    P: Potential, psi: ScalarField, convexity_floor: float = CONVEXITY_FLOOR
) -> ScalarField:
    """Apply the self-adjoint linearization at P to a periodic field.

    Constants are in the kernel and the output has exactly zero mean.
    """
    if psi.grid != P.grid:
        raise ValueError("field lives on a different grid than the potential")
    return ScalarField(P.grid, _linearized_operator(P, convexity_floor)(psi.values))


def _flat_preconditioner(grid: PeriodicGrid, base: QuadraticBase):
    """Inverse of the linearization at phi = 0, diagonal per Fourier mode.

    The symbol is (2 pi)^4 (k^T M^{-1} k)^2; the zero mode is annihilated,
    which doubles as the projection onto mean-zero fields.
    """
    minv = np.linalg.inv(base.matrix)
    ks = [grid.wavenumbers(a).astype(float) for a in range(grid.dim)]
    ks[-1] = ks[-1][: grid.resolution[-1] // 2 + 1]  # real-FFT layout
    mesh = np.meshgrid(*ks, indexing="ij")
    quad = np.zeros(mesh[0].shape)
    for a in range(grid.dim):
        for b in range(grid.dim):
            quad += minv[a, b] * mesh[a] * mesh[b]
    symbol = (2.0 * np.pi) ** 4 * quad**2
    inv_symbol = np.zeros(symbol.shape)
    nonzero = symbol > 0.0
    inv_symbol[nonzero] = 1.0 / symbol[nonzero]
    axes = tuple(range(grid.dim))

    def apply(values: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfftn(values, axes=axes) * inv_symbol
        return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)

    return apply


def _pcg(apply_op, precond, rhs: np.ndarray, rel_tol: float) -> np.ndarray:
    """Preconditioned conjugate gradients on the mean-zero subspace."""
    rhs = rhs - rhs.mean()
    rhs_norm = np.sqrt(np.mean(rhs * rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = precond(r)
    p = z.copy()
    rz = np.mean(r * z)
    for iteration in range(1, _MAX_KRYLOV_ITERS + 1):
        ap = apply_op(p)
        pap = np.mean(p * ap)
        if pap <= 0.0:
            raise LinearSolveFailure(
                iteration, np.sqrt(np.mean(r * r)) / rhs_norm, rel_tol
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        r -= r.mean()  # keep the iteration on the mean-zero subspace
        res = np.sqrt(np.mean(r * r))
        if res <= rel_tol * rhs_norm:
            return x
        z = precond(r)
        rz_new = np.mean(r * z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    raise LinearSolveFailure(
        _MAX_KRYLOV_ITERS, np.sqrt(np.mean(r * r)) / rhs_norm, rel_tol
    )


# ---------------------------------------------------------------------------
# functional


def functional_value(P: Potential, A: ScalarField) -> float:
    """Convex functional integral(-log det(u_ij) + A*phi) over the torus."""
    state = P.hessian_state
    state.require_convex(0.0)
    logdet = np.log(state.det)
    return float(np.mean(-logdet + A.values * P.perturbation.values))


def functional_second_derivative(P0: Potential, P1: Potential, t: float) -> float:
    """Second derivative of the functional along the linear path at time t.

    Equals integral( u_t^ia psi_ab u_t^bj psi_ij ) with psi = phi_1 - phi_0,
    the bilinear form of the linearized operator; non-negative whenever the
    interpolated potential is convex.
    """
    if P0.grid != P1.grid:
        raise ValueError("potentials live on different grids")
    if not np.allclose(P0.base.matrix, P1.base.matrix, rtol=0.0, atol=1e-13):
        raise ValueError("potentials have different quadratic bases")
    psi = P1.perturbation - P0.perturbation
    phi_t = (1.0 - t) * P0.perturbation.values + t * P1.perturbation.values
    interpolated = P0.with_perturbation(phi_t)
    hinv = interpolated.hessian_state.inverse().to_full()
    psi_h = hessian(psi).to_full()
    integrand = np.einsum("...ia,...ab,...bj,...ij->...", hinv, psi_h, hinv, psi_h)
    return float(np.mean(integrand))


# ---------------------------------------------------------------------------
# Newton iteration


def newton_step(P: Potential, target: ScalarField, cfg: SolverConfig) -> Potential:
    """One damped Newton step toward (u^ij)_ij = target.

    Solves L(psi) = (u^ij)_ij - target on the mean-zero subspace (the
    linearization of the forward map is -L, so this psi is the descent
    correction) and backtracks alpha = damping^k, k = 0..10, accepting the
    first candidate that keeps the convexity margin above the floor and
    does not increase F_target.
    """
    if abs(mean(target)) > MEAN_TOLERANCE:
        raise MeanNotZero(mean(target), MEAN_TOLERANCE)
    rhs = abreu_forward(P, cfg.convexity_floor).values - target.values
    if np.max(np.abs(rhs)) == 0.0:
        return P
    apply_op = _linearized_operator(P, cfg.convexity_floor)
    precond = _flat_preconditioner(P.grid, P.base)
    delta = _pcg(apply_op, precond, rhs, cfg.linear_tolerance)

    f_base = functional_value(P, target)
    f_allowed = f_base + _FUNCTIONAL_SLACK * (1.0 + abs(f_base))
    last_margin, last_node = None, None
    for k in range(11):
        alpha = cfg.damping**k
        trial = P.with_perturbation(P.perturbation.values + alpha * delta)
        margin = trial.hessian_state.min_eigenvalue
        last_margin, last_node = margin, trial.hessian_state.worst_node
        if margin < cfg.convexity_floor:
            continue
        if functional_value(trial, target) <= f_allowed:
            return trial
    raise NotConvex(
        last_node,
        last_margin,
        message=(
            "no admissible Newton damping found: every step down to "
            f"damping^10 either lost convexity (margin {last_margin:.3e} at "
            f"node {last_node}) or increased the functional"
        ),
    )


def _residual_scale(cfg: SolverConfig, target: ScalarField) -> float:
    return cfg.newton_tolerance * (1.0 + sup_norm(target))


# A Newton update below this relative size cannot change the potential in
# double precision; together with a residual within 10x of tolerance it
# certifies convergence to the arithmetic floor of the fourth-order
# residual evaluation.
_STEP_STAGNATION = 1e-12


def _newton_solve(P: Potential, target: ScalarField, cfg: SolverConfig):
    """Iterate Newton steps until the sup-norm residual meets tolerance.

    Returns (potential, iterations, residual) or None if the iteration
    budget ran out.
    """
    tolerance = _residual_scale(cfg, target)
    last_step = None
    for iteration in range(cfg.max_newton_iters + 1):
        forward = abreu_forward(P, cfg.convexity_floor)
        residual = float(np.max(np.abs(forward.values - target.values)))
        if residual <= tolerance:
            return P, iteration, residual
        stagnated = (
            last_step is not None
            and last_step <= _STEP_STAGNATION * (1.0 + sup_norm(P.perturbation))
        )
        if stagnated and residual <= 10.0 * tolerance:
            return P, iteration, residual
        if iteration == cfg.max_newton_iters:
            return None
        updated = newton_step(P, target, cfg)
        last_step = float(
            np.max(np.abs(updated.perturbation.values - P.perturbation.values))
        )
        P = updated
    return None


def _record_step(P: Potential, t: float, iters: int, residual: float,
                 target: ScalarField) -> ContinuityStep:
    state = P.hessian_state
    return ContinuityStep(
        t=float(t),
        newton_iterations=int(iters),
        final_residual_norm=float(residual),
        functional_value=functional_value(P, target),
        det_min=float(state.det.min()),
        det_max=float(state.det.max()),
        convexity_margin=state.min_eigenvalue,
    )


def continuity_solve(
    A: ScalarField,
    base: QuadraticBase | None = None,
    cfg: SolverConfig | None = None,
    initial_perturbation: ScalarField | None = None,
) -> tuple[Potential, ContinuityTrace]:
    """Solve (u^ij)_ij = A by continuation in t from the flat potential.

    The step in t doubles after an easy Newton convergence, halves after
    any failure, and aborts with StepFloorReached below min_t_step.  The
    returned potential is in mean-zero gauge and certified to satisfy
    sup|forward(u) - A| <= newton_tolerance relative to the data scale
    (see SolverConfig); the trace records one entry per accepted t
    (strictly increasing, ending at 1).

    `initial_perturbation` replaces the flat start with an admissible
    perturbation (used e.g. to verify uniqueness from noisy starts).
    """
    cfg = cfg or SolverConfig()
    if base is None:
        base = QuadraticBase.identity(A.grid.dim)
    if abs(mean(A)) > MEAN_TOLERANCE:
        raise MeanNotZero(mean(A), MEAN_TOLERANCE)

    if initial_perturbation is None:
        P = Potential.flat(A.grid, base)
    else:
        if initial_perturbation.grid != A.grid:
            raise ValueError("initial perturbation lives on a different grid")
        P = Potential(base, ScalarField.zeros(A.grid)).with_perturbation(
            initial_perturbation.values
        )
        P.hessian_state.require_convex(cfg.convexity_floor)

    steps: list[ContinuityStep] = []

    # trivial-solution shortcut: if the start already solves t = 1 (for
    # example A = 0), the trace is a single step
    forward = abreu_forward(P, cfg.convexity_floor)
    res_full = float(np.max(np.abs(forward.values - A.values)))
    if res_full <= _residual_scale(cfg, A):
        steps.append(_record_step(P, 1.0, 0, res_full, A))
        return P, ContinuityTrace(tuple(steps))

    t = 0.0
    step = cfg.initial_t_step
    last_error: Exception | None = None
    while t < 1.0:
        t_try = min(t + step, 1.0)
        target = ScalarField(A.grid, t_try * A.values)
        outcome = None
        try:
            outcome = _newton_solve(P, target, cfg)
        except (NotConvex, LinearSolveFailure) as exc:
            last_error = exc
        if outcome is None:
            step *= 0.5
            if step < cfg.min_t_step:
                raise StepFloorReached(t, cfg.min_t_step) from last_error
            continue
        P, iters, residual = outcome
        t = t_try
        steps.append(_record_step(P, t, iters, residual, target))
        if iters <= _EASY_ITERS:
            step *= 2.0
    return P, ContinuityTrace(tuple(steps))
