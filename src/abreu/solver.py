"""Newton solve of the periodic fourth-order equation, with continuation
as the retry.

Solves  sum_ij (u^ij)_ij = A  by damped Newton from the start potential
(flat, or a given admissible perturbation): F_A below is convex, so the
first attempt goes straight to t = 1 in the homotopy (u^ij)_ij = t*A.
Only after a failed attempt does continuation take over: the step in t
halves after a failure and doubles after an easy convergence, and every
attempt starts from the last accepted potential.  A and each Newton target
must pass `ScalarField.mean_zero`, the grid module's one zero-mean test
(|mean| relative to 1 + sup|A|), or MeanNotZero is raised.  Each Newton system

    L(psi) = (u^ia psi_ab u^bj)_ij = current residual

is solved matrix-free by preconditioned conjugate gradients on real-FFT
spectra (`_pcg`), each only as accurately as the outer iteration needs:
the relative Krylov tolerance is an Eisenstat-Walker forcing term
(`_forcing_term`).  `newton_correction` is the one place a correction is
formed; the record each step returns keeps the `Correction` it moved
along, and the next forcing term's safeguard reads its forcing.  A system
costs one forward transform of its right-hand side and one inverse of its
correction; in between every spectrum has a zero zero mode (the mean-zero
subspace).  One apply of L is one batched inverse transform of the
m = n(n+1)/2 second-derivative multiples, the congruence at the nodes
(`HessianState.congruent`) and one batched forward transform.  The
preconditioner multiplies by the exact inverse symbol of the discrete
linearization at phi = 0 (`_inverse_flat_symbol`).

Line searches use the convex functional

    F_A(phi) = integral( -log det(u_ij) + A*phi ),

whose gradient is A - (u^ij)_ij and whose second derivative along linear
paths is the (positive semidefinite) bilinear form of L; Newton steps are
therefore descent directions for F and the backtracking accepts the
largest damping power that keeps the potential convex without increasing
the functional.

An attempt accepts its current iterate by the one rule below, so every
accepted residual is at most 10 tol, where tol = newton_tolerance *
(1 + sup|target|) (`SolverConfig`):

- a residual of at most tol;
- before a step, a residual of at most 3 tol whose flat-preconditioned
  correction (`newton_correction(record, None)`, the residual in phi
  units) is at most 8 eps (1 + sup|phi|): the iterate sits at the
  rounding floor of the fourth-order residual evaluation, and a step
  could only move its residual by rounding;
- after a step whose update was at most 1e-12 (1 + sup|phi|)
  (stagnation), a residual of at most 10 tol.  A stagnated attempt keeps
  iterating while its residual is within 100 tol, where rounding noise
  may still dip it within 10 tol, and fails at once above that.

One Newton iteration computes each quantity once, on the record of its
iterate (`NewtonRecord`), and `newton_step` maps a record to the record of
the trial it accepts, so F_A is evaluated once per line-search trial and
once per attempt's start, and the record of an attempt's last iterate is
its result.  Inside a solve the records hold plain arrays: fields are
built only of the arguments and the result (`NewtonRecord.potential`).
The flat start's Hessian state and forward field take no transform, and
there the operator is exactly the inverse of the preconditioner, so its
first step takes the flat map with no Krylov solve.  A Newton iteration
costs a median 150 us of solve time at 1D N = 512 and 1200 us at 2D 64^2
on the seed-1 benchmark inputs (`tools/step_cost.py`, 2-vCPU VM, one
thread).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import LinearSolveFailure, NotConvex, StepFloorReached
from .grid import (
    MEAN_TOLERANCE,
    PeriodicGrid,
    ScalarField,
    from_spectrum,
    hessian_from_spectrum,
    kept_property,
    node_mean,
    node_sup,
    project_mean_zero,
    second_divergence_spectrum,
    spectral_inner,
    sup_norm,
    to_spectrum,
    triangle_to_full,
)
from .potential import HessianState, Potential, QuadraticBase, hessian_stack

__all__ = [
    "SolverConfig",
    "ContinuityStep",
    "ContinuityTrace",
    "NewtonRecord",
    "MEAN_TOLERANCE",  # the grid module's, kept importable from here
    "Correction",
    "newton_correction",
    "newton_step",
    "continuity_solve",
    "functional_value",
]

# Relative slack accepted as "not increasing" in the functional line
# search; absorbs rounding noise near convergence.
_FUNCTIONAL_SLACK = 1e-13

# Newton converging within this many iterations counts as easy and doubles
# the next continuation step.
_EASY_ITERS = 5

_MAX_KRYLOV_ITERS = 1000

# Newton iterations per attempt before it fails and the step in t halves.
_MAX_NEWTON_ITERS = 30

# The retry aborts with StepFloorReached once the step in t falls below.
_MIN_T_STEP = 1e-4

# Lower clamp of the forcing terms: no Newton system is solved to a
# relative residual below this.
_LINEAR_TOLERANCE = 1e-12

# Newton line search: damping factors _DAMPING^k, k = 0..10.
_DAMPING = 0.5

# Eisenstat-Walker forcing terms (choice 2, SIAM J. Sci. Comput. 17 (1996)
# 16): the relative tolerance of each Newton system is
# _EW_GAMMA * (r_k / r_{k-1})^2, at most _EW_ETA_MAX and _EW_ETA_0 on the
# first iteration of an attempt.
_EW_GAMMA = 0.9
_EW_ETA_0 = 0.5
_EW_ETA_MAX = 0.9
# The safeguard eta_k >= gamma * eta_{k-1}^2 applies above this value.
_EW_SAFEGUARD = 0.1
# Kelley's oversolving floor: eta_k >= _EW_OVERSOLVE * tolerance / r_k.
_EW_OVERSOLVE = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Residual tolerance of the solver.

    `newton_tolerance` is the residual sup-norm tolerance relative to the
    data scale (1 + sup|target|); the module docstring states how an
    attempt accepts against it.  It is relative because a fourth-order
    spectral operator amplifies the last bit of the potential by roughly
    (pi N)^2 per differentiation stage, so an absolute bound would be
    unattainable for large right-hand sides at fixed resolution.  For
    O(1) data the two readings coincide.
    """

    newton_tolerance: float = 1e-10

    def __post_init__(self):
        if not np.isfinite(self.newton_tolerance):
            raise ValueError("newton_tolerance must be finite")
        if self.newton_tolerance <= 0.0:
            raise ValueError("newton_tolerance must be positive")


@dataclass(frozen=True)
class ContinuityStep:
    """Diagnostics recorded at one accepted parameter t."""

    t: float
    newton_iterations: int
    final_residual_norm: float
    functional_value: float
    det_min: float
    det_max: float
    convexity_margin: float


@dataclass(frozen=True)
class ContinuityTrace:
    """Append-only record of the accepted attempts: a single step at t = 1
    unless the retry took over."""

    steps: tuple[ContinuityStep, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# linearized operator and its Krylov solve


def _linearized_operator(state: HessianState):
    """Matrix-free apply of psi -> (u^ia psi_ab u^bj)_ij with u^ij frozen
    at the Hessian `state`, from the real-FFT spectrum of psi to that of
    the result, whose zero mode is exactly zero."""
    grid = state.grid

    def apply(spectrum: np.ndarray) -> np.ndarray:
        congruent = state.congruent(hessian_from_spectrum(grid, spectrum))
        return second_divergence_spectrum(grid, congruent)

    return apply


@functools.lru_cache(maxsize=32)
def _inverse_flat_symbol(grid: PeriodicGrid, base: QuadraticBase) -> np.ndarray:
    """Inverse symbol of the linearization at phi = 0 in real-FFT layout,
    cached read-only per grid and base: the preconditioner is a multiply
    by it.

    With h = M^-1 (the base's kept inverse) and m_ij the grid's
    multipliers of d^2 / dx_i dx_j, the symbol is sum h_ia h_jb m_ij m_ab:
    exactly the operator that `_linearized_operator` applies at phi = 0,
    Nyquist convention included (the cross multipliers vanish on the
    Nyquist planes), so its reciprocal is the exact discrete inverse on
    mean-zero fields.  The zero mode, the only one where the symbol
    vanishes, is annihilated.
    """
    m = triangle_to_full(grid.second_multipliers)
    h = base.inverse().matrix
    symbol = np.einsum("ia,jb,...ij,...ab->...", h, h, m, m)
    inv_symbol = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0.0)
    inv_symbol.setflags(write=False)
    return inv_symbol


def _pcg(apply_op, grid: PeriodicGrid, inv_symbol: np.ndarray, rhs: np.ndarray,
         rel_tol: float) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients on real-FFT spectra.

    `rhs` is the spectrum of the right-hand side; the copy the iteration
    starts from drops its zero mode, the projection onto mean-zero fields,
    and neither `apply_op` nor the preconditioner (a multiply by
    `inv_symbol`) puts it back.  Inner products are node means
    (`spectral_inner`).  Returns the spectrum of the correction and the
    number of iterations, one `apply_op` call each.

    The preconditioned residual z and the direction p are updated in
    place: p *= beta; p += z is bitwise the textbook z + beta * p, since
    IEEE multiplication and addition commute.  So `apply_op` must return
    a fresh array and keep no reference to its argument.
    """
    r = rhs.copy()
    r[(0,) * grid.dim] = 0.0
    inner = functools.partial(spectral_inner, grid)
    rhs_norm = math.sqrt(inner(r, r))
    if rhs_norm == 0.0:
        return np.zeros(r.shape, r.dtype), 0
    x = np.zeros(r.shape, r.dtype)
    z = inv_symbol * r
    p = z.copy()
    rz = inner(r, z)
    for iteration in range(1, _MAX_KRYLOV_ITERS + 1):
        ap = apply_op(p)
        pap = inner(p, ap)
        if pap <= 0.0:
            raise LinearSolveFailure(iteration, math.sqrt(inner(r, r)) / rhs_norm, rel_tol)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(inner(r, r))
        if res <= rel_tol * rhs_norm:
            return x, iteration
        np.multiply(inv_symbol, r, out=z)
        rz_new = inner(r, z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    raise LinearSolveFailure(_MAX_KRYLOV_ITERS, math.sqrt(inner(r, r)) / rhs_norm, rel_tol)


# ---------------------------------------------------------------------------
# functional


def functional_value(P: Potential, A: ScalarField) -> float:
    """Convex functional integral(-log det(u_ij) + A*phi) over the torus."""
    if A.grid != P.grid:
        raise ValueError("field lives on a different grid than the potential")
    record = NewtonRecord(P.base, P.perturbation.values, A, state=P.hessian_state)
    return record.functional_value()


# ---------------------------------------------------------------------------
# Newton iteration


@dataclass(frozen=True)
class Correction:
    """A Newton correction: the node values `delta`, the relative Krylov
    residual `forcing` they were solved to (0.0 where exact, None for the
    flat estimate) and the operator `applies` that solve took."""

    delta: np.ndarray
    forcing: float | None
    applies: int


@dataclass(eq=False)
class NewtonRecord:
    """One Newton iterate base + phi toward (u^ij)_ij = target, and what an
    iteration reads of it, each formed once: the Hessian state, the defect
    forward - target at the nodes, whose sup is the residual and whose kept
    spectrum the rounding test and the Newton right-hand side share, and
    F_target (from the line search that accepted it, else on first use).
    `perturbation` holds phi's read-only node values in mean-zero gauge;
    `state`, when given, is u's Hessian state, formed already, as a start's
    from its checked `Potential`; `potential` is the checked `Potential` the
    iterate leaves the solver as.

    A record that `newton_step` returns also keeps the `Correction` its
    step moved along; an attempt's start record has None."""

    base: QuadraticBase
    perturbation: np.ndarray
    target: ScalarField
    functional: float | None = None
    correction: Correction | None = None
    state: HessianState | None = field(default=None, repr=False)

    @kept_property
    def hessian_state(self) -> HessianState:
        grid, phi = self.target.grid, self.perturbation
        return self.state or HessianState(grid, hessian_stack(
            grid, self.base, to_spectrum(grid, phi) if phi.any() else None))

    @kept_property
    def defect(self) -> np.ndarray:
        defect = self.hessian_state.forward - self.target.values
        defect.setflags(write=False)
        return defect

    @kept_property
    def defect_spectrum(self) -> np.ndarray:
        spectrum = to_spectrum(self.target.grid, self.defect)
        spectrum.setflags(write=False)
        return spectrum

    @kept_property
    def residual(self) -> float:
        return node_sup(self.defect)

    @kept_property
    def potential(self) -> Potential:
        phi = ScalarField(self.target.grid, self.perturbation)
        return Potential(self.base, phi, state=self.hessian_state)

    def functional_value(self) -> float:
        if self.functional is None:
            # A*phi - log det is bitwise -log det + A*phi: x - y is x + (-y)
            self.functional = node_mean(self.target.values * self.perturbation
                                        - self.hessian_state.log_det)
        return self.functional


def newton_correction(record: NewtonRecord, forcing: float | None) -> Correction:
    """The one place a correction delta of L(delta) = record.defect is formed.

    With `forcing` None, or at phi = 0 where L is the preconditioner's
    inverse, delta is the flat map L_0^-1 of the defect (its spectrum
    times `_inverse_flat_symbol`) with no Krylov solve: exact at phi = 0,
    elsewhere an estimate, the defect in phi units.  Otherwise `_pcg`
    solves to the relative residual `forcing`, where 0.0 can still end in
    LinearSolveFailure at the attainable accuracy."""
    grid = record.target.grid
    inv_symbol = _inverse_flat_symbol(grid, record.base)
    exact = not record.perturbation.any()
    if forcing is None or exact:
        delta = from_spectrum(grid, inv_symbol * record.defect_spectrum)
        return Correction(delta, 0.0 if exact else None, 0)
    solved, applies = _pcg(_linearized_operator(record.hessian_state), grid, inv_symbol,
                           record.defect_spectrum, forcing)
    return Correction(from_spectrum(grid, solved), forcing, applies)


def newton_step(record: NewtonRecord, forcing: float) -> NewtonRecord:
    """One damped Newton step from `record` toward (u^ij)_ij = record.target.

    A line search along `newton_correction(record, forcing)`, the solution
    of L(psi) = (u^ij)_ij - target on the mean-zero subspace to the
    relative residual `forcing`, an inexact-Newton forcing term in [0, 1)
    (the linearization of the forward map is -L, so this psi is the
    descent correction).  Backtracks alpha = _DAMPING^k, k = 0..10,
    accepting the first candidate record, phi + alpha psi in mean-zero
    gauge, that is convex (`HessianState.convex`) and does not increase
    F_target, evaluated once per convex candidate.  Returns it, holding its
    F_target and the correction it moved along, or `record` itself when its
    residual is zero.
    """
    if not 0.0 <= forcing < 1.0:
        raise ValueError(f"forcing term must lie in [0, 1), got {forcing}")
    base, phi, target = record.base, record.perturbation, record.target
    if phi.shape != target.grid.shape or base.dim != target.grid.dim:
        raise ValueError("field lives on a different grid than the potential")
    target.require_mean_zero()
    if record.residual == 0.0:
        return record
    correction = newton_correction(record, forcing)

    f_base = record.functional_value()
    f_allowed = f_base + _FUNCTIONAL_SLACK * (1.0 + abs(f_base))
    last_margin, last_node = None, None
    for k in range(11):
        alpha = _DAMPING**k
        values = phi + alpha * correction.delta
        values -= node_mean(values)
        values.setflags(write=False)
        trial = NewtonRecord(base, values, target, correction=correction)
        state = trial.hessian_state
        last_margin, last_node = state.min_eigenvalue, state.worst_node
        if state.convex and trial.functional_value() <= f_allowed:
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


# The rounding acceptance of the module docstring: the residual band in
# tolerances and the bound on the flat correction relative to 1 + sup|phi|.
# With a band of 10, one 1D N = 128 benchmark output of seeds 1-60 read its
# residual, recomputed from the written file, at 1.014 times 10 tol; with 3,
# as when stepping on, every one reads below 0.97 of it.
_ROUNDING_BAND = 3.0
_ROUNDING_CORRECTION = 8.0 * np.finfo(float).eps

# A Newton update below this relative size means the iterate has reached
# the arithmetic floor of the fourth-order residual evaluation: a residual
# within 10x of tolerance then certifies convergence.
_STEP_STAGNATION = 1e-12

# Past stagnation the residual is rounding noise that moves by a factor of
# a few between iterations (from 6x to 34x tolerance on a 1D 128-node
# input), so more iterations may still dip it within 10x of tolerance.
# Above this multiple of tolerance no dip is in reach: the attempt fails.
_NOISE_BAND = 100.0


def _forcing_term(residual: float, residual_prev: float | None,
                  eta_prev: float | None, tolerance: float) -> float:
    """Relative Krylov tolerance of the next Newton system.

    Eisenstat-Walker choice 2 on the sup-norm residuals r_k, r_{k-1}
    (_EW_ETA_0 on the first iteration of an attempt), safeguarded by
    gamma * eta_{k-1}^2 when that exceeds _EW_SAFEGUARD and capped at
    _EW_ETA_MAX; then Kelley's floor 0.5 * tolerance / r_k, so the last
    iterations do not solve below what the outer test can see, and
    _LINEAR_TOLERANCE as the lower clamp.  eta_{k-1} is the forcing the
    last step was solved to, None when no step was solved.
    """
    if residual_prev is None:
        eta = _EW_ETA_0
    else:
        eta = _EW_GAMMA * (residual / residual_prev) ** 2
        safeguard = 0.0 if eta_prev is None else _EW_GAMMA * eta_prev**2
        if safeguard > _EW_SAFEGUARD:
            eta = max(eta, safeguard)
        eta = min(eta, _EW_ETA_MAX)
    eta = max(eta, _EW_OVERSOLVE * tolerance / residual)
    return max(eta, _LINEAR_TOLERANCE)


def _newton_solve(record: NewtonRecord, cfg: SolverConfig):
    """Iterate `newton_step` from the start `record`, handed over by a
    caller that holds no other, until the sup-norm residual meets tolerance.

    Returns (record, iterations), the record of the accepted iterate, or
    None once the update stagnated above _NOISE_BAND times tolerance or
    _MAX_NEWTON_ITERS iterations did not get there; the module docstring
    states the acceptance rule.  Each Newton system is solved only to
    `_forcing_term`'s tolerance, whose safeguard reads the forcing the
    accepted record's own step was solved to.
    """
    tolerance = cfg.newton_tolerance * (1.0 + sup_norm(record.target))
    last_step = residual_prev = None
    for iteration in range(_MAX_NEWTON_ITERS + 1):
        residual = record.residual
        if residual <= tolerance:
            return record, iteration
        scale = 1.0 + node_sup(record.perturbation)
        if residual <= _ROUNDING_BAND * tolerance and (
                node_sup(newton_correction(record, None).delta)
                <= _ROUNDING_CORRECTION * scale):
            return record, iteration
        stagnated = last_step is not None and last_step <= _STEP_STAGNATION * scale
        if stagnated and residual <= 10.0 * tolerance:
            return record, iteration
        if stagnated and residual > _NOISE_BAND * tolerance:
            return None
        if iteration == _MAX_NEWTON_ITERS:
            return None
        eta_prev = None if record.correction is None else record.correction.forcing
        eta = _forcing_term(residual, residual_prev, eta_prev, tolerance)
        residual_prev = residual
        accepted = newton_step(record, eta)
        last_step = node_sup(accepted.perturbation - record.perturbation)
        record = accepted


def continuity_solve(
    A: ScalarField,
    base: QuadraticBase | None = None,
    cfg: SolverConfig | None = None,
    initial_perturbation: ScalarField | None = None,
) -> tuple[Potential, ContinuityTrace]:
    """Solve (u^ij)_ij = A, first at t = 1, by continuation only on failure.

    The step in t halves and doubles as the module docstring states, and
    below _MIN_T_STEP the solve aborts with StepFloorReached.  The returned
    potential is in mean-zero gauge, and its residual sup|forward(u) - A|
    passed the acceptance rule of the module docstring (at most 10
    newton_tolerance relative to the data scale); the trace records one
    entry per accepted t (strictly increasing, ending at 1; a single entry
    unless the retry took over).

    `initial_perturbation` replaces the flat start with an admissible
    perturbation (used e.g. to verify uniqueness from noisy starts).
    """
    cfg = cfg or SolverConfig()
    if base is None:
        base = QuadraticBase.identity(A.grid.dim)
    A.require_mean_zero()
    if initial_perturbation is not None and initial_perturbation.grid != A.grid:
        raise ValueError("initial perturbation lives on a different grid")
    P = Potential(base, project_mean_zero(initial_perturbation or ScalarField.zeros(A.grid)))
    if initial_perturbation is not None:
        P.hessian_state.require_convex()
    # each attempt pops its start, so that no record but its iterate stays
    # live; the first (t = 1, target A) takes the checked start's state
    phi = P.perturbation.values
    start = [NewtonRecord(base, phi, A, state=P.hessian_state)]
    del P

    steps: list[ContinuityStep] = []
    t, step = 0.0, 1.0
    while t < 1.0:
        t_try = min(t + step, 1.0)
        # drop the last accepted record: the attempt owns its start
        record = outcome = last_error = None
        if not start:
            start.append(NewtonRecord(base, phi, ScalarField(A.grid, t_try * A.values)))
        try:
            outcome = _newton_solve(start.pop(), cfg)
        except (NotConvex, LinearSolveFailure) as exc:
            last_error = exc
        if outcome is None:
            step *= 0.5
            if step < _MIN_T_STEP:
                raise StepFloorReached(t, _MIN_T_STEP) from last_error
            continue
        record, iters = outcome
        t = t_try
        state = record.hessian_state
        steps.append(ContinuityStep(
            t=float(t), newton_iterations=int(iters), final_residual_norm=record.residual,
            functional_value=record.functional_value(), det_min=float(state.det.min()),
            det_max=float(state.det.max()), convexity_margin=state.min_eigenvalue))
        phi = record.perturbation
        if iters <= _EASY_ITERS:
            step *= 2.0
    return record.potential, ContinuityTrace(tuple(steps))
