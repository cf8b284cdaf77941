"""Runtime monitors for the a-priori bounds satisfied by true solutions.

A certified solution of the periodic fourth-order problem obeys explicit
determinant and eigenvalue bounds driven only by sup|A|.  These monitors
re-derive the bounding constants from measured quantities (rather than
a-priori ones, hence "measured-constant mode") and check the resulting
inequalities on the dual potential:

  * upper bound: the auxiliary function f(y) = L + |y|^2/2 + 2 psi with
    L = log det(v_ab) attains its minimum p in [-1,1]^n; at p the trace of
    the inverse Hessian is at most sup|A~| + 2n, which caps det(v^ij)(p)
    by AM-GM and yields a global upper bound on det(u_ij).
  * lower bound: g(y) = -L - beta |grad v|^2 + v attains its minimum q in
    B(4); at q the Hessian trace obeys beta * v_kk(q) <= sup|A~| + n,
    which yields a global lower bound on det(u_ij).

Discrete minimizers stand in for continuous ones; a 5% relative slack
absorbs the minimizer displacement of one grid cell.  Both test
functions are periodic in the node x plus per-axis terms of y = x + k, so
the lattice shift k is chosen per node one axis at a time, without tiling
the box.  The monitors certify solution plausibility, not the theory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import GradientInversionFailure, MonitorViolation, NotConvex
from .grid import ScalarField, mean, pair_index, sup_norm
from .legendre import dual_residual, legendre_transform, pullback_rhs
from .potential import (
    CONVEXITY_FLOOR,
    Potential,
    abreu_forward,
    divergence_form_residual,
)

__all__ = [
    "InequalityCheck",
    "BoundsReport",
    "VerificationReport",
    "c0_c1_report",
    "upper_bound_monitor",
    "choose_beta",
    "lower_bound_monitor",
    "eigenvalue_bounds",
    "verify_solution",
]


def _report_dict(pairs) -> dict:
    """`asdict` factory that writes tuple fields as JSON-style lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


@dataclass(frozen=True)
class InequalityCheck:
    """One monitored inequality with its measured sides."""

    name: str
    lhs: float
    rhs: float
    relation: str = "<="
    satisfied: bool = True

    @classmethod
    def compare(cls, name: str, lhs: float, rhs: float, relation: str = "<="):
        lhs, rhs = float(lhs), float(rhs)
        ok = lhs <= rhs if relation == "<=" else lhs >= rhs
        return cls(name, lhs, rhs, relation, bool(ok))


@dataclass(frozen=True)
class BoundsReport:
    """Measured bound quantities plus the inequality checklist.

    A bound monitor returns one with only its own values and checks set;
    `verify_solution` builds the full report once, from P's values and
    both monitors'.  Constants are assembled from measured values, flagged
    by measured_constant_mode.
    """

    sup_phi: float | None = None
    sup_grad_phi: float | None = None
    det_min: float | None = None
    det_max: float | None = None
    eig_min: float | None = None
    eig_max: float | None = None
    sup_A: float | None = None
    upper_constant_c: float | None = None
    beta: float | None = None
    inequalities: tuple[InequalityCheck, ...] = field(default_factory=tuple)
    measured_constant_mode: bool = True

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.inequalities)

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_report_dict)


def _grad_sup(P: Potential) -> float:
    """sup |grad phi| from the potential's kept spectral gradient."""
    sq = np.zeros(P.grid.shape)
    for g in P.perturbation_gradient:
        sq += g.values**2
    return float(np.sqrt(sq.max()))


def c0_c1_report(P: Potential) -> tuple[float, float, float]:
    """sup|phi|, sup|grad phi| and the dimension-only oscillation bound.

    A convex u = |x|^2/2 + phi forces D^2 phi > -Id, so phi(y) exceeds
    phi(x_max) - |y - x_max|^2 and the oscillation over the fundamental
    domain is at most n (independent of the equation).
    """
    phi = P.perturbation
    n = P.grid.dim
    sup_phi = sup_norm(phi)
    sup_grad_phi = _grad_sup(P)
    osc = float(phi.values.max() - phi.values.min())
    check = InequalityCheck.compare("oscillation-bound", osc, n + 1e-12)
    if not check.satisfied:
        raise MonitorViolation([check])
    return sup_phi, sup_grad_phi, float(n)


def eigenvalue_bounds(P: Potential) -> tuple[float, float]:
    """Extreme Hessian eigenvalues (c1, c2) over all nodes."""
    state = P.hessian_state
    return state.min_eigenvalue, state.max_eigenvalue


# Relative slack of the inequalities checked at a discrete minimizer.
_MONITOR_SLACK = 0.05


def _half_square(ys) -> np.ndarray:
    """|y|^2 / 2 from per-axis coordinate arrays (broadcast together)."""
    return sum(0.5 * y * y for y in ys)


def _lattice_minimum(value, grid, reps: int, origin: float):
    """Minimizer y, and its node, of a test function over [origin, origin+reps)^n.

    The candidates are the lattice points y = x + k (x a node, k a shift),
    with coordinates origin + arange(reps N)/N per axis.  `value(ys)` maps
    per-axis coordinate arrays, broadcast against the node fields it closes
    over, to a function of the node plus per-axis terms of y, so each
    node's shift is chosen one axis at a time.  Ties go to the smaller
    coordinates, as in a row-major argmin over the tiled box.
    """
    n = grid.dim
    ys = [origin] * n  # axes not chosen yet enter at one fixed coordinate
    index = []  # per axis, each node's index along the tiled box
    for a, size in enumerate(grid.resolution):
        axis = origin + np.arange(reps * size) / size
        ids = np.arange(size).reshape([-1 if b == a else 1 for b in range(n)])
        ys[a] = axis.reshape((reps,) + ids.shape)
        index.append(np.argmin(value(ys), axis=0) * size + ids)
        ys[a] = axis[index[a]]
    values = value(ys)
    best = np.flatnonzero(values == values.min())
    box_shape = [reps * size for size in grid.resolution]
    box = np.ravel_multi_index([i.ravel()[best] for i in index], box_shape)
    node = np.unravel_index(best[np.argmin(box)], grid.shape)
    return np.array([y[node] for y in ys]), tuple(int(i) for i in node)


def _require_monitor_inputs(V: Potential, Atilde: ScalarField) -> None:
    """The bound monitors' preconditions: A~ on V's grid, identity base."""
    if Atilde.grid != V.grid:
        raise ValueError("fields live on different grids")
    if not V.base.is_identity():
        raise ValueError("bound monitors assume an identity dual base")


def upper_bound_monitor(V: Potential, Atilde: ScalarField) -> BoundsReport:
    """Checks from the minimum of f(y) = L + |y|^2/2 + 2 psi over [-1,1]^n.

    At the discrete minimizer p:
      (i)   trace of the inverse Hessian  <= sup|A~| + 2n,
      (ii)  det of the inverse Hessian    <= (sup|A~|/n + 2)^n  (AM-GM),
      (iii) global det(u_ij)              <= exp(-c') with c' assembled
            from (ii) and the measured range of |y|^2/2 + 2 psi.

    A violated inequality is a failed check in the report, not an exception.
    """
    _require_monitor_inputs(V, Atilde)
    grid = V.grid
    n = grid.dim
    state = V.hessian_state
    hinv = state.inverse()
    detv = state.det
    L = state.log_det
    psi = V.perturbation.values
    sup_a = sup_norm(Atilde)

    periodic = L + 2.0 * psi
    p, node = _lattice_minimum(lambda ys: periodic + _half_square(ys), grid, 2, -1.0)

    trace_inv_p = sum(hinv[pair_index(n)[i, i]][node] for i in range(n))
    det_inv_p = 1.0 / detv[node]
    c_const = (sup_a / n + 2.0) ** n

    fund = grid.coordinate_arrays()
    exchange = _half_square(fund) + 2.0 * psi
    c_prime = (
        -np.log(c_const) + 0.5 * float(p @ p) + 2.0 * psi[node] - exchange.max()
    )
    max_det_u = 1.0 / detv.min()

    over = 1.0 + _MONITOR_SLACK
    checks = (
        InequalityCheck.compare(
            "upper-trace-at-min", trace_inv_p, (sup_a + 2.0 * n) * over
        ),
        InequalityCheck.compare("upper-det-at-min", det_inv_p, c_const * over),
        InequalityCheck.compare(
            "upper-det-global", max_det_u, np.exp(-c_prime) * over
        ),
    )
    return BoundsReport(
        sup_A=sup_a,
        upper_constant_c=float(c_const),
        det_min=float(1.0 / detv.max()),
        det_max=float(max_det_u),
        inequalities=checks,
    )


def choose_beta(V: Potential) -> float:
    """Largest beta = 2^-k admissible for the lower-bound test function.

    Condition 1 (globally): beta |grad v|^2 <= |y|^2/4 + 1, evaluated in
    the worst case |grad v| <= |y| + sup|grad psi|, which closes to
    beta G^2 / (1 - 4 beta) <= 1 for beta < 1/4.  Condition 2 (over the
    covering box [-4,4]^n, where sup|y|^2 = 16 n):
    4 beta^2 (4 sqrt(n) + G)^2 <= beta.
    """
    g, n = _grad_sup(V), V.grid.dim
    # (4 sqrt(n) + g)^2 expanded so the g = 0 case is the exact 16 n
    box_sq = 16.0 * n + 8.0 * np.sqrt(n) * g + g * g
    for k in range(2, 80):
        beta = 2.0**-k
        if beta == 0.25:
            cond1 = g == 0.0
        else:
            cond1 = beta * g * g / (1.0 - 4.0 * beta) <= 1.0
        cond2 = 4.0 * beta * beta * box_sq <= beta
        if cond1 and cond2:
            return beta
    return 2.0**-80


def lower_bound_monitor(V: Potential, Atilde: ScalarField) -> BoundsReport:
    """Checks from the minimum of g(y) = -L - beta|grad v|^2 + v over B(4).

    beta comes from `choose_beta`; the minimum is taken over the lattice
    points of the covering box [-4,4]^n, shifts chosen per axis.  At the
    discrete minimizer q:
      (i)   |q| <= 4 (the minimum cannot escape the ball),
      (ii)  beta * v_kk(q) <= sup|A~| + n,
      (iii) the beta self-consistency  4 beta^2 |grad v|^2(q) <= beta,
      (iv)  global det(u_ij) >= exp(-c'') with c'' assembled from (ii) via
            AM-GM and the measured exchange terms.

    A violated inequality is a failed check in the report, not an exception.
    """
    _require_monitor_inputs(V, Atilde)
    grid = V.grid
    n = grid.dim
    grads = [g.values for g in V.perturbation_gradient]
    beta = choose_beta(V)
    state = V.hessian_state
    L = state.log_det
    H = state.hessian
    detv = state.det
    psi = V.perturbation.values
    sup_a = sup_norm(Atilde)

    def grad_v_sq(ys):
        return sum((y + g) ** 2 for y, g in zip(ys, grads))

    periodic = -L + psi
    q, node = _lattice_minimum(
        lambda ys: periodic - beta * grad_v_sq(ys) + _half_square(ys),
        grid, 8, -4.0,
    )
    grad_v_q = q + np.array([g[node] for g in grads])
    grad_v_sq_q = float(sum(grad_v_q * grad_v_q))

    trace_q = sum(H[pair_index(n)[i, i]][node] for i in range(n))
    lq_bound = n * np.log((sup_a + n) / (beta * n))

    fund = grid.coordinate_arrays()
    grad_v_sq_fund = grad_v_sq(fund)
    v_fund = _half_square(fund) + psi
    v_q = 0.5 * float(q @ q) + psi[node]
    c_dprime = float(
        (lq_bound + beta * (grad_v_sq_q - grad_v_sq_fund) + v_fund - v_q).max()
    )
    min_det_u = 1.0 / detv.max()

    checks = (
        InequalityCheck.compare("lower-minimizer-in-ball", float(np.sqrt(q @ q)), 4.0),
        InequalityCheck.compare(
            "lower-trace-at-min",
            beta * trace_q,
            (sup_a + n) * (1.0 + _MONITOR_SLACK),
        ),
        InequalityCheck.compare(
            "beta-self-consistency", 4.0 * beta * beta * grad_v_sq_q, beta
        ),
        InequalityCheck.compare(
            "lower-det-global",
            min_det_u,
            np.exp(-c_dprime) * (1.0 - _MONITOR_SLACK),
            relation=">=",
        ),
    )
    return BoundsReport(sup_A=sup_a, beta=float(beta), inequalities=checks)


# ---------------------------------------------------------------------------
# full verification pipeline

# sup-norm bounds on primal residuals, duality identities and the dual residual
_RESIDUAL_TOLERANCE = 1e-8
_DUALITY_TOLERANCE = 1e-8
_DUAL_RESIDUAL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of residual certificates, duality identities and monitors."""

    passed: bool
    bounds: BoundsReport

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_report_dict)


def verify_solution(P: Potential, A: ScalarField) -> VerificationReport:
    """Run every monitor and duality identity against a candidate solution.

    Collects (instead of raising on) violations so a report can always be
    produced; `passed` is True iff every check holds.  Precondition
    failures (a non-convex dual, a failed gradient inversion) are reported
    as failed checks rather than exceptions; A on another grid than P
    raises ValueError.  The bound monitors assume an identity dual base:
    for any other (unimodular) base their checks are left out, and
    `upper_constant_c` and `beta` stay None.  The checklist lists the
    upper monitor's checks, then the lower monitor's, then verify's own.
    """
    if A.grid != P.grid:
        raise ValueError("fields live on different grids")
    checks: list[InequalityCheck] = []

    def check(name, lhs, rhs, relation="<="):
        checks.append(InequalityCheck.compare(name, lhs, rhs, relation))

    # the one convexity test, which the guards behind the checks below use
    state, floor = P.hessian_state, CONVEXITY_FLOOR
    margin, convex = state.min_eigenvalue, state.convex
    checks.append(InequalityCheck("convexity-margin", margin, floor, ">=", convex))
    if not convex:
        bounds = BoundsReport(inequalities=tuple(checks))
        return VerificationReport(passed=False, bounds=bounds)

    check("primal-residual", sup_norm(abreu_forward(P) - A), _RESIDUAL_TOLERANCE)
    mean_a, bound = abs(mean(A)), A.mean_bound  # the one zero-mean test
    checks.append(InequalityCheck("rhs-mean-zero", mean_a, bound, "<=", A.mean_zero))
    div_form = divergence_form_residual(P, A)
    check("divergence-form-residual", sup_norm(div_form), _RESIDUAL_TOLERANCE)

    sup_phi, sup_grad_phi, _ = c0_c1_report(P)
    eig_min, eig_max = eigenvalue_bounds(P)
    upper = lower = BoundsReport()  # left empty unless both monitors run

    try:
        V = legendre_transform(P)
        again = legendre_transform(V)
        check(
            "legendre-involution",
            sup_norm(again.perturbation - P.perturbation),
            _DUALITY_TOLERANCE,
        )
        # det u and A at the preimages of the dual nodes, which V keeps from
        # the transform's one inversion of P, pulled back in one pass
        det_u, atilde = pullback_rhs((ScalarField(P.grid, state.det), A), V)
        defect = np.max(np.abs(V.hessian_state.det * det_u.values - 1.0))
        check("determinant-duality", float(defect), _DUALITY_TOLERANCE)
        bound = sup_norm(A) * (1.0 + 1e-6) + 1e-12
        check("pullback-sup-norm", sup_norm(atilde), bound)
        residual = sup_norm(dual_residual(V, atilde))
        check("dual-residual", residual, _DUAL_RESIDUAL_TOLERANCE)
        if V.base.is_identity():  # what the bound monitors assume
            upper, lower = upper_bound_monitor(V, atilde), lower_bound_monitor(V, atilde)
    except NotConvex as exc:
        # raised where the dual's HessianState.convex is False
        lhs = float(exc.min_eigenvalue)
        checks.append(InequalityCheck("dual-convexity", lhs, floor, ">=", False))
    except GradientInversionFailure as exc:
        check("gradient-inversion-residual", exc.residual, exc.tolerance)

    bounds = BoundsReport(
        sup_phi=sup_phi, sup_grad_phi=sup_grad_phi, eig_min=eig_min, eig_max=eig_max,
        det_min=upper.det_min, det_max=upper.det_max, sup_A=upper.sup_A,
        upper_constant_c=upper.upper_constant_c, beta=lower.beta,
        inequalities=upper.inequalities + lower.inequalities + tuple(checks),
    )
    return VerificationReport(passed=bounds.all_satisfied, bounds=bounds)
