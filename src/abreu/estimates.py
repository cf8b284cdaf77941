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

Discrete minimizers stand in for continuous ones; the slack (default 5%
relative) absorbs the minimizer displacement of one grid cell.  The
monitors certify solution plausibility, not the underlying theory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import GradientInversionFailure, MonitorViolation, NotConvex
from .grid import ScalarField, TrigInterpolant, gradient, sup_norm
from .potential import (
    Potential,
    abreu_forward,
    convexity_margin,
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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundsReport:
    """Measured bound quantities plus the inequality checklist.

    Monitors fill fragments (their own fields and checks); fragments merge
    into the full report.  Constants are assembled from measured values,
    flagged by measured_constant_mode.
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

    def merge(self, other: "BoundsReport") -> "BoundsReport":
        """Other's measured values where set, and both checklists.

        The measured values are exactly the fields that default to None.
        """
        updates = {
            f.name: getattr(other, f.name)
            for f in fields(other)
            if f.default is None and getattr(other, f.name) is not None
        }
        updates["inequalities"] = self.inequalities + other.inequalities
        return replace(self, **updates)

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.inequalities)

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_report_dict)


def _raise_if_failed(report: BoundsReport, strict: bool) -> BoundsReport:
    if strict and not report.all_satisfied:
        raise MonitorViolation([c for c in report.inequalities if not c.satisfied])
    return report


def _grad_sup(f: ScalarField) -> float:
    comps = gradient(f)
    sq = np.zeros(f.grid.shape)
    for g in comps:
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
    sup_grad_phi = _grad_sup(phi)
    osc = float(phi.values.max() - phi.values.min())
    check = InequalityCheck.compare("oscillation-bound", osc, n + 1e-12)
    if not check.satisfied:
        raise MonitorViolation([check])
    return sup_phi, sup_grad_phi, float(n)


def eigenvalue_bounds(P: Potential) -> tuple[float, float]:
    """Extreme Hessian eigenvalues (c1, c2) over all nodes."""
    state = P.hessian_state
    return state.min_eigenvalue, state.max_eigenvalue


def _tiled_coordinates(grid, reps: int, origin: float) -> list[np.ndarray]:
    """Meshgrid coordinates of the periodic tiling [origin, origin+reps)^n."""
    axes = [
        origin + np.arange(reps * n) / n for n in grid.resolution
    ]
    return list(np.meshgrid(*axes, indexing="ij"))


def _quad_half_norm(coords: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(coords[0])
    for c in coords:
        out += 0.5 * c * c
    return out


def _argmin_info(values: np.ndarray, coords, grid):
    idx = np.unravel_index(np.argmin(values), values.shape)
    point = np.array([c[idx] for c in coords])
    node = tuple(i % n for i, n in zip(idx, grid.resolution))
    return point, node


def upper_bound_monitor(
    V: Potential,
    Atilde: ScalarField,
    slack: float = 0.05,
    strict: bool = True,
) -> BoundsReport:
    """Checks from the minimum of f(y) = L + |y|^2/2 + 2 psi over [-1,1]^n.

    At the discrete minimizer p:
      (i)   trace of the inverse Hessian  <= sup|A~| + 2n,
      (ii)  det of the inverse Hessian    <= (sup|A~|/n + 2)^n  (AM-GM),
      (iii) global det(u_ij)              <= exp(-c') with c' assembled
            from (ii) and the measured range of |y|^2/2 + 2 psi.
    """
    if not V.base.is_identity(1e-10):
        raise ValueError("bound monitors assume an identity dual base")
    grid = V.grid
    n = grid.dim
    state = V.hessian_state
    hinv = state.inverse()
    detv = state.det
    L = np.log(detv)
    psi = V.perturbation.values
    sup_a = sup_norm(Atilde)

    coords = _tiled_coordinates(grid, 2, -1.0)
    f_vals = np.tile(L + 2.0 * psi, (2,) * n) + _quad_half_norm(coords)
    p, node = _argmin_info(f_vals, coords, grid)

    trace_inv_p = sum(hinv.component(i, i)[node] for i in range(n))
    det_inv_p = 1.0 / detv[node]
    c_const = (sup_a / n + 2.0) ** n

    fund = grid.coordinate_arrays()
    exchange = _quad_half_norm(fund) + 2.0 * psi
    c_prime = (
        -np.log(c_const) + 0.5 * float(p @ p) + 2.0 * psi[node] - exchange.max()
    )
    max_det_u = 1.0 / detv.min()

    checks = (
        InequalityCheck.compare(
            "upper-trace-at-min", trace_inv_p, (sup_a + 2.0 * n) * (1.0 + slack)
        ),
        InequalityCheck.compare(
            "upper-det-at-min", det_inv_p, c_const * (1.0 + slack)
        ),
        InequalityCheck.compare(
            "upper-det-global", max_det_u, np.exp(-c_prime) * (1.0 + slack)
        ),
    )
    report = BoundsReport(
        sup_A=sup_a,
        upper_constant_c=float(c_const),
        det_min=float(1.0 / detv.max()),
        det_max=float(max_det_u),
        inequalities=checks,
    )
    return _raise_if_failed(report, strict)


def choose_beta(V: Potential) -> float:
    """Largest beta = 2^-k admissible for the lower-bound test function.

    Condition 1 (globally): beta |grad v|^2 <= |y|^2/4 + 1, evaluated in
    the worst case |grad v| <= |y| + sup|grad psi|, which closes to
    beta G^2 / (1 - 4 beta) <= 1 for beta < 1/4.  Condition 2 (over the
    covering box [-4,4]^n, where sup|y|^2 = 16 n):
    4 beta^2 (4 sqrt(n) + G)^2 <= beta.
    """
    g = _grad_sup(V.perturbation)
    n = V.grid.dim
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


def lower_bound_monitor(
    V: Potential,
    Atilde: ScalarField,
    beta: float | None = None,
    slack: float = 0.05,
    strict: bool = True,
) -> BoundsReport:
    """Checks from the minimum of g(y) = -L - beta|grad v|^2 + v over B(4).

    The periodic part -L + psi is tiled over the covering box [-4,4]^n and
    the explicit non-periodic parts are added analytically.  At the
    discrete minimizer q:
      (i)   |q| <= 4 (the minimum cannot escape the ball),
      (ii)  beta * v_kk(q) <= sup|A~| + n,
      (iii) the beta self-consistency  4 beta^2 |grad v|^2(q) <= beta,
      (iv)  global det(u_ij) >= exp(-c'') with c'' assembled from (ii) via
            AM-GM and the measured exchange terms.
    """
    if not V.base.is_identity(1e-10):
        raise ValueError("bound monitors assume an identity dual base")
    grid = V.grid
    n = grid.dim
    if beta is None:
        beta = choose_beta(V)
    state = V.hessian_state
    state.require_convex(0.0)
    H = state.hessian
    detv = state.det
    L = np.log(detv)
    psi = V.perturbation.values
    grads = [g.values for g in gradient(V.perturbation)]
    sup_a = sup_norm(Atilde)

    reps = 8
    coords = _tiled_coordinates(grid, reps, -4.0)
    grad_v_sq = np.zeros_like(coords[0])
    for a in range(n):
        grad_v_sq += (coords[a] + np.tile(grads[a], (reps,) * n)) ** 2
    g_vals = (
        np.tile(-L + psi, (reps,) * n)
        - beta * grad_v_sq
        + _quad_half_norm(coords)
    )
    q, node = _argmin_info(g_vals, coords, grid)
    idx = np.unravel_index(np.argmin(g_vals), g_vals.shape)
    grad_v_sq_q = float(grad_v_sq[idx])

    trace_q = sum(H.component(i, i)[node] for i in range(n))
    lq_bound = n * np.log((sup_a + n) / (beta * n))

    fund = grid.coordinate_arrays()
    grad_v_sq_fund = np.zeros(grid.shape)
    for a in range(n):
        grad_v_sq_fund += (fund[a] + grads[a]) ** 2
    v_fund = _quad_half_norm(fund) + psi
    v_q = 0.5 * float(q @ q) + psi[node]
    c_dprime = float(
        (lq_bound + beta * (grad_v_sq_q - grad_v_sq_fund) + v_fund - v_q).max()
    )
    min_det_u = 1.0 / detv.max()

    checks = (
        InequalityCheck.compare("lower-minimizer-in-ball", float(np.sqrt(q @ q)), 4.0),
        InequalityCheck.compare(
            "lower-trace-at-min", beta * trace_q, (sup_a + n) * (1.0 + slack)
        ),
        InequalityCheck.compare(
            "beta-self-consistency", 4.0 * beta * beta * grad_v_sq_q, beta
        ),
        InequalityCheck.compare(
            "lower-det-global",
            min_det_u,
            np.exp(-c_dprime) * (1.0 - slack),
            relation=">=",
        ),
    )
    report = BoundsReport(sup_A=sup_a, beta=float(beta), inequalities=checks)
    return _raise_if_failed(report, strict)


# ---------------------------------------------------------------------------
# full verification pipeline


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of residual certificates, duality identities and monitors."""

    passed: bool
    bounds: BoundsReport

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_report_dict)


def verify_solution(
    P: Potential,
    A: ScalarField,
    residual_tolerance: float = 1e-8,
    duality_tolerance: float = 1e-8,
    dual_residual_tolerance: float = 1e-6,
    slack: float = 0.05,
) -> VerificationReport:
    """Run every monitor and duality identity against a candidate solution.

    Collects (instead of raising on) violations so a report can always be
    produced; `passed` is True iff every check holds.  Precondition
    failures (a non-convex dual, a failed gradient inversion) are reported
    as failed checks rather than exceptions.
    """
    from .legendre import (
        dual_residual,
        gradient_map_inverse,
        legendre_transform,
        pullback_rhs,
    )

    checks: list[InequalityCheck] = []
    report = BoundsReport()

    margin = convexity_margin(P)
    checks.append(InequalityCheck.compare("convexity-margin", margin, 0.0, ">="))
    if margin <= 0.0:
        # nothing downstream is well defined on a non-convex candidate
        report = report.merge(BoundsReport(inequalities=tuple(checks)))
        return VerificationReport(passed=False, bounds=report)

    forward = abreu_forward(P)
    checks.append(
        InequalityCheck.compare(
            "primal-residual", sup_norm(forward - A), residual_tolerance
        )
    )
    checks.append(
        InequalityCheck.compare(
            "rhs-mean-zero", abs(np.mean(A.values)), 1e-10 * (1.0 + sup_norm(A))
        )
    )
    checks.append(
        InequalityCheck.compare(
            "divergence-form-residual",
            sup_norm(divergence_form_residual(P, A, mean_tolerance=np.inf)),
            residual_tolerance,
        )
    )

    sup_phi, sup_grad_phi, _ = c0_c1_report(P)
    c1, c2 = eigenvalue_bounds(P)
    report = report.merge(
        BoundsReport(
            sup_phi=sup_phi, sup_grad_phi=sup_grad_phi, eig_min=c1, eig_max=c2
        )
    )

    try:
        V = legendre_transform(P)
        again = legendre_transform(V)
        checks.append(
            InequalityCheck.compare(
                "legendre-involution",
                sup_norm(again.perturbation - P.perturbation),
                duality_tolerance,
            )
        )
        x_of_y = gradient_map_inverse(P, P.grid.node_points())
        det_u = TrigInterpolant(ScalarField(P.grid, P.hessian_state.det))
        det_v = V.hessian_state.det.ravel()
        duality_defect = np.max(np.abs(det_v * det_u.evaluate(x_of_y) - 1.0))
        checks.append(
            InequalityCheck.compare(
                "determinant-duality", float(duality_defect), duality_tolerance
            )
        )
        atilde = pullback_rhs(A, P)
        checks.append(
            InequalityCheck.compare(
                "pullback-sup-norm",
                sup_norm(atilde),
                sup_norm(A) * (1.0 + 1e-6) + 1e-12,
            )
        )
        checks.append(
            InequalityCheck.compare(
                "dual-residual",
                sup_norm(dual_residual(V, atilde)),
                dual_residual_tolerance,
            )
        )
        upper = upper_bound_monitor(V, atilde, slack=slack, strict=False)
        lower = lower_bound_monitor(V, atilde, slack=slack, strict=False)
        report = report.merge(upper).merge(lower)
    except NotConvex as exc:
        checks.append(
            InequalityCheck.compare(
                "dual-convexity", exc.min_eigenvalue, 0.0, ">="
            )
        )
    except GradientInversionFailure as exc:
        checks.append(
            InequalityCheck.compare(
                "gradient-inversion-residual", exc.residual, 1e-10
            )
        )

    report = report.merge(BoundsReport(inequalities=tuple(checks)))
    return VerificationReport(passed=report.all_satisfied, bounds=report)
