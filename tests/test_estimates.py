"""Runtime monitors for the a-priori determinant and eigenvalue bounds."""

import json
from collections import Counter

import numpy as np
import pytest

from abreu import abelian, estimates, grid, legendre, potential, solver
from abreu import (
    BoundsReport,
    GradientInversionFailure,
    NotConvex,
    Potential,
    QuadraticBase,
    ScalarField,
    TrigInterpolant,
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
    write_field,
)
from abreu.cli import main
from abreu.potential import CONVEXITY_FLOOR
from tests.support import (
    corrupt_first_dual,
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
    atilde = pullback_rhs(a, V)
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


def _failed(report):
    return [c.name for c in report.inequalities if not c.satisfied]


class TestUpperBound:
    def test_flat_constants(self):
        g = make_grid(2, [16, 16])
        report = upper_bound_monitor(Potential.flat(g), ScalarField.zeros(g))
        by_name = {c.name: c for c in report.inequalities}
        assert by_name["upper-det-at-min"].lhs == pytest.approx(1.0)
        assert by_name["upper-det-at-min"].rhs == pytest.approx(4.0 * 1.05)
        assert report.upper_constant_c == pytest.approx(4.0)  # (0/n + 2)^n
        assert _failed(report) == []

    def test_manufactured_all_hold(self, certified):
        _, _, V, atilde = certified
        report = upper_bound_monitor(V, atilde)
        assert _failed(report) == []

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
        with pytest.raises(NotConvex):
            upper_bound_monitor(corrupted, atilde)

    @pytest.mark.parametrize("shape", [[8], [16, 16]], ids=["1d-8", "2d-16"])
    def test_rejects_a_rhs_on_another_grid(self, shape):
        # only sup|A~| is read, so without the check any grid went through
        V = Potential.flat(make_grid(2, [8, 8]))
        atilde = ScalarField.zeros(make_grid(len(shape), shape))
        with pytest.raises(ValueError, match="different grids"):
            upper_bound_monitor(V, atilde)


class TestLowerBound:
    def test_flat_constants(self):
        # q = 0, v_kk(q) = n, the trace inequality reads beta * n <= n
        g = make_grid(2, [16, 16])
        report = lower_bound_monitor(Potential.flat(g), ScalarField.zeros(g))
        by_name = {c.name: c for c in report.inequalities}
        assert by_name["lower-minimizer-in-ball"].lhs == pytest.approx(0.0)
        beta = report.beta
        assert by_name["lower-trace-at-min"].lhs == pytest.approx(2.0 * beta)
        assert report.all_satisfied

    def test_manufactured_all_hold(self, certified):
        _, _, V, atilde = certified
        report = lower_bound_monitor(V, atilde)
        assert _failed(report) == []
        by_name = {c.name: c for c in report.inequalities}
        assert by_name["lower-minimizer-in-ball"].lhs <= 4.0

    @pytest.mark.parametrize("shape", [[8], [16, 16]], ids=["1d-8", "2d-16"])
    def test_rejects_a_rhs_on_another_grid(self, shape):
        V = Potential.flat(make_grid(2, [8, 8]))
        atilde = ScalarField.zeros(make_grid(len(shape), shape))
        with pytest.raises(ValueError, match="different grids"):
            lower_bound_monitor(V, atilde)


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


_VERIFY_OWN_CHECKS = [
    "convexity-margin", "primal-residual", "rhs-mean-zero",
    "divergence-form-residual", "legendre-involution",
    "determinant-duality", "pullback-sup-norm", "dual-residual",
]


def _solved_2d():
    g = make_grid(2, [16, 16])
    a = ScalarField.from_function(
        g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
    )
    P, _ = continuity_solve(a)
    return P, a


class TestVerifyReportAssembly:
    """verify's bounds report is the potential's values, the monitors'
    values and the checklist upper, lower, verify's own, built once (the
    unimodular-base case is in TestVerifyUnimodularBase)."""

    def test_identity_base_matches_the_four_sources(self):
        P, a = _solved_2d()
        bounds = verify_solution(P, a).bounds
        sup_phi, sup_grad_phi, _ = c0_c1_report(P)
        eig_min, eig_max = eigenvalue_bounds(P)
        V = legendre_transform(P)
        atilde = pullback_rhs(a, V)
        upper, lower = upper_bound_monitor(V, atilde), lower_bound_monitor(V, atilde)
        monitors = upper.inequalities + lower.inequalities
        own = bounds.inequalities[len(monitors):]
        assert [c.name for c in own] == _VERIFY_OWN_CHECKS
        assert bounds == BoundsReport(
            sup_phi=sup_phi,
            sup_grad_phi=sup_grad_phi,
            det_min=upper.det_min,
            det_max=upper.det_max,
            eig_min=eig_min,
            eig_max=eig_max,
            sup_A=upper.sup_A,
            upper_constant_c=upper.upper_constant_c,
            beta=lower.beta,
            inequalities=monitors + own,
        )
        assert bounds.all_satisfied


class TestVerifyGridMismatch:
    """A on another grid than P is refused up front, convex P or not."""

    def test_convex_potential(self):
        P, _ = _solved_2d()
        a8 = ScalarField.zeros(make_grid(2, [8, 8]))
        with pytest.raises(ValueError, match="fields live on different grids"):
            verify_solution(P, a8)

    def test_non_convex_potential(self):
        g = make_grid(2, [16, 16])
        bump = ScalarField.from_function(g, lambda x, y: 0.1 * np.cos(TWO_PI * x))
        P = Potential(QuadraticBase.identity(2), bump)
        assert not P.hessian_state.convex
        a8 = ScalarField.zeros(make_grid(2, [8, 8]))
        with pytest.raises(ValueError, match="fields live on different grids"):
            verify_solution(P, a8)


class TestOneInversionPerPotential:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Inversions per potential (Newton runs, from either start) and
        the fields interpolants were built of, while active."""
        inversions, built = Counter(), []
        newton = legendre._newton
        init = TrigInterpolant.__init__

        def counting_newton(P, *args, **kwargs):
            inversions[P.perturbation.values.tobytes()] += 1
            return newton(P, *args, **kwargs)

        def counting_init(self, f):
            built.append(f)
            init(self, f)

        monkeypatch.setattr(legendre, "_newton", counting_newton)
        monkeypatch.setattr(TrigInterpolant, "__init__", counting_init)
        return inversions, built

    def test_verify_inverts_primal_and_dual_once_each(self, counted):
        inversions, _ = counted
        g = make_grid(2, [16, 16])
        a = ScalarField.from_function(
            g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
        )
        P, _ = continuity_solve(a)
        outcome = verify_solution(P, a)
        names = {c.name for c in outcome.bounds.inequalities}
        assert {"legendre-involution", "determinant-duality"} <= names
        assert inversions[P.perturbation.values.tobytes()] == 1
        assert sorted(inversions.values()) == [1, 1]

    def test_verify_builds_one_interpolant_per_field(self, counted):
        # phi, psi, det u and A: the inversions, the transforms' values and
        # the pullbacks of each field share its kept interpolant
        _, built = counted
        g = make_grid(2, [16, 16])
        a = ScalarField.from_function(
            g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
        )
        P, _ = continuity_solve(a)
        verify_solution(P, a)
        assert len(built) == 4
        assert built[0] is P.perturbation and built[3] is a
        assert np.array_equal(built[2].values, P.hessian_state.det)

    def test_transform_builds_one_interpolant_of_phi(self, counted):
        # the inversion and the transform's values share phi's interpolant
        inversions, built = counted
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(5), margin=0.5)
        zero = ScalarField.zeros(g)
        pullback_rhs(zero, legendre_transform(P))
        assert len(built) == 2
        assert built[0] is P.perturbation and built[1] is zero
        assert sum(inversions.values()) == 1


class TestOneGradientPerPotential:
    def test_verify_takes_one_gradient_per_potential(self, monkeypatch):
        # every module binding of grid.gradient is spied on
        fields = []
        gradient = grid.gradient

        def spy(f):
            fields.append(f.values.tobytes())
            return gradient(f)

        for module in (grid, potential, legendre, estimates, abelian, solver):
            if getattr(module, "gradient", None) is gradient:
                monkeypatch.setattr(module, "gradient", spy)
        g = make_grid(2, [16, 16])
        a = ScalarField.from_function(
            g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
        )
        P, _ = continuity_solve(a)
        P = Potential(P.base, P.perturbation)  # nothing kept from the solve
        fields.clear()
        outcome = verify_solution(P, a)
        assert outcome.passed
        assert len(fields) == 2 and len(set(fields)) == 2
        assert fields[0] == P.perturbation.values.tobytes()

    def test_gradient_is_kept_read_only(self):
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(5), margin=0.5)
        grads = P.perturbation_gradient
        assert P.perturbation_gradient is grads and len(grads) == 2
        for g_axis in grads:
            assert not g_axis.values.flags.writeable
        assert c0_c1_report(P)[1] == pytest.approx(
            np.sqrt(np.max(grads[0].values**2 + grads[1].values**2))
        )


def _below_floor_candidate():
    """1D 32-node phi = c cos(2 pi x) whose margin 1 - 4 pi^2 c is 5e-9."""
    g = make_grid(1, [32])
    x = g.axis_coordinates(0)
    c = (1.0 - 5e-9) / (4.0 * np.pi**2)
    P = Potential(QuadraticBase.identity(1), ScalarField(g, c * np.cos(TWO_PI * x)))
    assert 0.0 < P.hessian_state.min_eigenvalue < CONVEXITY_FLOOR
    return P


class TestVerifyConvexityFloor:
    """verify judges convexity by the floor its own guards use."""

    def test_margin_below_floor_is_reported(self):
        P = _below_floor_candidate()
        outcome = verify_solution(P, ScalarField.zeros(P.grid))
        assert outcome.passed is False
        (check,) = outcome.bounds.inequalities
        assert check.name == "convexity-margin" and not check.satisfied
        assert check.rhs == CONVEXITY_FLOOR

    def test_cli_writes_report_and_exits_3(self, tmp_path):
        phi_path, report = tmp_path / "phi.fld", tmp_path / "verify.json"
        write_field(phi_path, _below_floor_candidate().perturbation)
        code = main(["verify", "--phi", str(phi_path), "--expr", "0",
                     "--report", str(report)])
        assert code == 3
        payload = json.loads(report.read_text())
        assert payload["verification"]["passed"] is False

    def test_dual_not_convex_fails(self, certified, monkeypatch):
        P, a, _, _ = certified

        def not_convex(*args, **kwargs):
            raise NotConvex((0,), 5e-9)

        monkeypatch.setattr(estimates, "upper_bound_monitor", not_convex)
        outcome = verify_solution(P, a)
        assert outcome.passed is False
        failed = [c.name for c in outcome.bounds.inequalities if not c.satisfied]
        assert failed == ["dual-convexity"]


class TestNonConvexDual:
    def test_report_names_dual_convexity_after_the_duality_checks(self, monkeypatch):
        # a dual made non-convex after the transform (smallest eigenvalue
        # about -0.02): its inversion still runs, the duality checks that
        # precede the dual's guards are reported, then dual-convexity
        g = make_grid(2, [16, 16])
        a = ScalarField.from_function(
            g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
        )
        P, _ = continuity_solve(a)
        k = 7
        bump = ScalarField.from_function(g, lambda x, y: np.cos(TWO_PI * k * x))
        corrupt_first_dual(monkeypatch, 1.01 / (TWO_PI * k) ** 2 * bump.values)
        outcome = verify_solution(P, a)
        names = [c.name for c in outcome.bounds.inequalities]
        assert names == [
            "convexity-margin", "primal-residual", "rhs-mean-zero",
            "divergence-form-residual", "legendre-involution",
            "determinant-duality", "pullback-sup-norm", "dual-convexity",
        ]
        assert _failed(outcome.bounds) == [
            "legendre-involution", "determinant-duality", "dual-convexity"
        ]
        check = outcome.bounds.inequalities[-1]
        assert -0.05 < check.lhs < 0.0 and check.rhs == CONVEXITY_FLOOR

    def test_stalled_dual_start_reruns_from_the_nodes(self, monkeypatch):
        # a bump about 0.5 below convexity: the dual's start from the
        # duality stalls, and the node start it falls back on meets the
        # dual's convexity guard
        g = make_grid(2, [16, 16])
        a = ScalarField.from_function(
            g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
        )
        P, _ = continuity_solve(a)
        k = 7
        bump = ScalarField.from_function(g, lambda x, y: np.cos(TWO_PI * k * x))
        corrupt_first_dual(monkeypatch, 1.5 / (TWO_PI * k) ** 2 * bump.values)
        runs, node_starts = [], []
        newton, node_start = legendre._newton, legendre._node_inversion

        def spy_newton(V, y, x, phi, grad, hinv, third):
            node_start = third is not None
            try:
                out = newton(V, y, x, phi, grad, hinv, third)
            except GradientInversionFailure:
                runs.append((node_start, "failed"))
                raise
            runs.append((node_start, "converged"))
            return out

        def spy_node_start(V, points):
            node_starts.append(V)
            return node_start(V, points)

        monkeypatch.setattr(legendre, "_newton", spy_newton)
        monkeypatch.setattr(legendre, "_node_inversion", spy_node_start)
        outcome = verify_solution(P, a)
        # P from its nodes, then the dual's stalled warm start; the dual's
        # node start raises NotConvex before its Newton runs
        assert runs == [(True, "converged"), (False, "failed")]
        assert len(node_starts) == 2 and node_starts[0] is P
        names = [c.name for c in outcome.bounds.inequalities]
        assert names == [
            "convexity-margin", "primal-residual", "rhs-mean-zero",
            "divergence-form-residual", "dual-convexity",
        ]
        assert _failed(outcome.bounds) == ["dual-convexity"]
        check = outcome.bounds.inequalities[-1]
        assert -0.6 < check.lhs < -0.4 and check.rhs == CONVEXITY_FLOOR


class TestVerifyUnimodularBase:
    """On a unimodular base other than the identity the dual base is not
    the identity either, so verify leaves the bound monitors out."""

    def test_report_holds_the_checks_before_the_monitors(self):
        g = make_grid(2, [16, 16])
        a = ScalarField.from_function(
            g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
        )
        base = QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]]))
        P, _ = continuity_solve(a, base)
        outcome = verify_solution(P, a)
        names = [c.name for c in outcome.bounds.inequalities]
        assert names == _VERIFY_OWN_CHECKS
        assert outcome.bounds.upper_constant_c is None
        assert outcome.bounds.beta is None
        assert outcome.to_dict()["bounds"]["sup_A"] is None
        # P's values, and every monitor field None
        sup_phi, sup_grad_phi, _ = c0_c1_report(P)
        eig_min, eig_max = eigenvalue_bounds(P)
        assert outcome.bounds == BoundsReport(
            sup_phi=sup_phi, sup_grad_phi=sup_grad_phi, eig_min=eig_min,
            eig_max=eig_max, inequalities=outcome.bounds.inequalities,
        )
        # called directly, the monitors still refuse this dual
        V = legendre_transform(P)
        for monitor in (upper_bound_monitor, lower_bound_monitor):
            with pytest.raises(ValueError, match="identity dual base"):
                monitor(V, a)


class TestVerifyInversionFailure:
    """A gradient inversion that stops short of its tolerance fails verify,
    however close it came."""

    @pytest.fixture
    def inversion_fails_at_5e11(self, monkeypatch):
        # every Newton run, from either start, of a potential not inverted yet
        def failing(ev, *args, **kwargs):
            raise GradientInversionFailure(
                (0.5,), 5e-11, legendre._INVERSION_TOLERANCE, (32,)
            )

        monkeypatch.setattr(legendre, "_newton", failing)

    def test_near_miss_fails(self, certified, inversion_fails_at_5e11):
        P, a, _, _ = certified
        outcome = verify_solution(P, a)
        assert outcome.passed is False
        assert _failed(outcome.bounds) == ["gradient-inversion-residual"]
        (check,) = [c for c in outcome.bounds.inequalities if not c.satisfied]
        assert (check.lhs, check.rhs) == (5e-11, legendre._INVERSION_TOLERANCE)

    def test_cli_exits_3(self, tmp_path, certified, inversion_fails_at_5e11):
        P, a, _, _ = certified
        phi_path, a_path = tmp_path / "phi.fld", tmp_path / "A.fld"
        report = tmp_path / "verify.json"
        write_field(phi_path, P.perturbation)
        write_field(a_path, a)
        code = main(["verify", "--phi", str(phi_path), "--rhs", str(a_path),
                     "--report", str(report)])
        assert code == 3
        payload = json.loads(report.read_text())["verification"]
        assert payload["passed"] is False
        failed = [c["name"] for c in payload["bounds"]["inequalities"]
                  if not c["satisfied"]]
        assert failed == ["gradient-inversion-residual"]
