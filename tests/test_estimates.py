"""Runtime monitors for the a-priori determinant and eigenvalue bounds."""

import numpy as np
import pytest

from abreu import (
    MonitorViolation,
    NotConvex,
    Potential,
    QuadraticBase,
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
from tests.support import (
    manufactured_potential,
    manufactured_problem,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def certified():
    """Solve the manufactured problem once; reuse across monitor tests."""
    _, a, _ = manufactured_problem(64)
    P, _ = continuity_solve(a)
    V = legendre_transform(P)
    atilde = pullback_rhs(a, P)
    return P, a, V, atilde


class TestC0C1:
    def test_flat(self):
        g = make_grid(2, [16, 16])
        sup_phi, sup_grad, osc_bound = c0_c1_report(Potential.flat(g))
        assert sup_phi == 0.0 and sup_grad == 0.0 and osc_bound == 2.0

    def test_manufactured_values(self):
        P = manufactured_potential(64)
        sup_phi, sup_grad, osc_bound = c0_c1_report(P)
        assert sup_phi == pytest.approx(0.01, abs=1e-12)
        assert sup_grad == pytest.approx(0.02 * np.pi, abs=1e-10)
        assert osc_bound == 1.0

    def test_random_admissible_never_violate(self):
        # the oscillation bound is a consequence of D^2 phi > -Id alone,
        # so rejection sampling over admissible potentials never trips it
        rng = np.random.default_rng(0)
        g = make_grid(2, [16, 16])
        for _ in range(25):
            P = random_convex_potential(
                g, rng, margin=rng.uniform(0.05, 0.9), max_mode=3
            )
            sup_phi, _, _ = c0_c1_report(P)
            assert sup_phi < 2.0  # oscillation <= n = 2 implies sup after gauge


class TestEigenvalueBounds:
    def test_flat(self):
        g = make_grid(2, [16, 16])
        assert eigenvalue_bounds(Potential.flat(g)) == (1.0, 1.0)

    def test_manufactured_cosine_extremes(self):
        P = manufactured_potential(64)
        c1, c2 = eigenvalue_bounds(P)
        assert c1 == pytest.approx(1.0 - 0.04 * np.pi**2, abs=1e-11)
        assert c2 == pytest.approx(1.0 + 0.04 * np.pi**2, abs=1e-11)

    def test_brackets_determinant_along_path(self):
        from abreu import det_hessian, hessian_u

        _, a, _ = manufactured_problem(64)
        P, trace = continuity_solve(a)
        for step in trace.steps:
            assert step.det_min <= step.det_max
        c1, c2 = eigenvalue_bounds(P)
        det_vals = det_hessian(hessian_u(P)).values
        n = P.grid.dim
        assert c1**n <= det_vals.min() + 1e-12
        assert det_vals.max() <= c2**n + 1e-12


class TestChooseBeta:
    def test_flat_1d_closed_form(self):
        # psi = 0: condition 1 allows beta <= 1/4, condition 2 over the
        # covering box needs beta <= 1/(4 * 16 n); largest power of two
        g = make_grid(1, [16])
        assert choose_beta(Potential.flat(g)) == 1.0 / 64.0

    def test_flat_2d(self):
        g = make_grid(2, [16, 16])
        assert choose_beta(Potential.flat(g)) == 1.0 / 128.0

    def test_monotone_in_gradient(self):
        g = make_grid(1, [64])
        x = g.axis_coordinates(0)
        betas = []
        for amp in (0.001, 0.02, 0.1):
            psi = ScalarField(g, amp * np.cos(TWO_PI * x))
            betas.append(choose_beta(Potential(QuadraticBase.identity(1), psi)))
        assert betas[0] >= betas[1] >= betas[2]

    def test_conditions_hold_pointwise(self, certified):
        _, _, V, _ = certified
        beta = choose_beta(V)
        from abreu import gradient

        g = V.grid
        y = g.coordinate_arrays()[0]
        grad_psi = gradient(V.perturbation)[0].values
        grad_v_sq = (y + grad_psi) ** 2
        assert np.all(beta * grad_v_sq <= 0.25 * y**2 + 1.0 + 1e-12)


class TestUpperBound:
    def test_flat_constants(self):
        g = make_grid(2, [16, 16])
        report = upper_bound_monitor(
            Potential.flat(g), ScalarField.zeros(g), strict=True
        )
        by_name = {c.name: c for c in report.inequalities}
        assert by_name["upper-det-at-min"].lhs == pytest.approx(1.0)
        assert by_name["upper-det-at-min"].rhs == pytest.approx(4.0 * 1.05)
        assert report.upper_constant_c == pytest.approx(4.0)  # (0/n + 2)^n

    def test_manufactured_all_hold(self, certified):
        _, _, V, atilde = certified
        report = upper_bound_monitor(V, atilde, strict=True)
        assert report.all_satisfied

    def test_corrupted_dual_is_flagged(self, certified):
        _, _, V, atilde = certified
        y = V.grid.axis_coordinates(0)
        bad = ScalarField(
            V.grid, V.perturbation.values + 0.3 * np.cos(TWO_PI * y)
        )
        bad = ScalarField(V.grid, bad.values - bad.values.mean())
        corrupted = Potential(V.base, bad)
        # the corruption destroys convexity of the dual, which the monitor
        # reports before any inequality can even be formed
        with pytest.raises((MonitorViolation, NotConvex)):
            upper_bound_monitor(corrupted, atilde, strict=True)


class TestLowerBound:
    def test_flat_constants(self):
        # q = 0, v_kk(q) = n, the trace inequality reads beta * n <= n
        g = make_grid(2, [16, 16])
        report = lower_bound_monitor(
            Potential.flat(g), ScalarField.zeros(g), strict=True
        )
        by_name = {c.name: c for c in report.inequalities}
        assert by_name["lower-minimizer-in-ball"].lhs == pytest.approx(0.0)
        beta = report.beta
        assert by_name["lower-trace-at-min"].lhs == pytest.approx(2.0 * beta)
        assert report.all_satisfied

    def test_manufactured_all_hold(self, certified):
        _, _, V, atilde = certified
        report = lower_bound_monitor(V, atilde, strict=True)
        assert report.all_satisfied
        by_name = {c.name: c for c in report.inequalities}
        assert by_name["lower-minimizer-in-ball"].lhs <= 4.0


class TestVerifySolution:
    def test_certified_solution_passes(self, certified):
        P, a, _, _ = certified
        outcome = verify_solution(P, a)
        assert outcome.passed
        names = {c.name for c in outcome.bounds.inequalities}
        assert "primal-residual" in names
        assert "legendre-involution" in names
        assert "lower-det-global" in names

    def test_corrupted_solution_flagged(self, certified):
        P, a, _, _ = certified
        x = P.grid.axis_coordinates(0)
        bad_vals = P.perturbation.values + 0.3 * np.cos(TWO_PI * x)
        corrupted = P.with_perturbation(bad_vals)
        outcome = verify_solution(corrupted, a)
        assert not outcome.passed
        failed = [c.name for c in outcome.bounds.inequalities if not c.satisfied]
        assert failed

    def test_mildly_wrong_solution_fails_residual(self, certified):
        P, a, _, _ = certified
        x = P.grid.axis_coordinates(0)
        off = P.with_perturbation(P.perturbation.values + 1e-4 * np.cos(TWO_PI * x))
        outcome = verify_solution(off, a)
        assert not outcome.passed
        failed = {c.name for c in outcome.bounds.inequalities if not c.satisfied}
        assert "primal-residual" in failed

    def test_report_round_trips_to_dict(self, certified):
        P, a, _, _ = certified
        payload = verify_solution(P, a).to_dict()
        assert payload["passed"] is True
        assert isinstance(payload["bounds"]["inequalities"], list)
        assert set(payload) == {"passed", "bounds"}
        assert set(payload["bounds"]) == {
            "sup_phi", "sup_grad_phi", "det_min", "det_max", "eig_min",
            "eig_max", "sup_A", "upper_constant_c", "beta",
            "measured_constant_mode", "inequalities",
        }
        for check in payload["bounds"]["inequalities"]:
            assert set(check) == {"name", "lhs", "rhs", "relation", "satisfied"}
