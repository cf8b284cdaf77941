"""Linearized operator, Newton steps and the continuation solver."""

from collections import Counter

import numpy as np
import pytest

from abreu import (
    HessianState,
    MeanNotZero,
    NotConvex,
    Potential,
    QuadraticBase,
    ScalarField,
    SolverConfig,
    abreu_forward,
    continuity_solve,
    functional_second_derivative,
    functional_value,
    hessian,
    linearized_apply,
    make_grid,
    mean,
    newton_step,
    sup_norm,
)
from tests.support import (
    DELTA,
    FUNCTIONAL_AT_STAR,
    manufactured_potential,
    manufactured_problem,
    random_band_limited,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi


class TestLinearizedApply:
    def test_flat_is_biharmonic(self):
        g = make_grid(2, [32, 32])
        x, _ = g.coordinate_arrays()
        psi = ScalarField(g, np.cos(TWO_PI * x))
        out = linearized_apply(Potential.flat(g), psi)
        expected = 16 * np.pi**4 * np.cos(TWO_PI * x)
        assert np.max(np.abs(out.values - expected)) < 1e-9 * 16 * np.pi**4

    def test_constants_in_kernel(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(0)
        P = random_convex_potential(g, rng)
        out = linearized_apply(P, ScalarField.constant(g, 3.0))
        assert sup_norm(out) < 1e-12

    def test_output_mean_zero(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(1)
        P = random_convex_potential(g, rng)
        psi = random_band_limited(g, rng)
        out = linearized_apply(P, psi)
        assert abs(mean(out)) < 1e-14 * (1.0 + sup_norm(out))

    def test_self_adjoint(self):
        rng = np.random.default_rng(2)
        g = make_grid(2, [16, 16])
        for _ in range(5):
            P = random_convex_potential(g, rng, margin=0.4)
            psi = random_band_limited(g, rng)
            chi = random_band_limited(g, rng)
            a = mean(linearized_apply(P, psi) * chi)
            b = mean(psi * linearized_apply(P, chi))
            norms = np.sqrt(mean(psi * psi)) * np.sqrt(mean(chi * chi))
            assert abs(a - b) <= 1e-10 * norms

    def test_positive_on_nonconstants(self):
        rng = np.random.default_rng(3)
        g = make_grid(1, [32])
        for _ in range(10):
            P = random_convex_potential(g, rng, margin=0.4)
            psi = random_band_limited(g, rng)
            assert mean(linearized_apply(P, psi) * psi) > 0.0


class TestFunctional:
    def test_flat_zero(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(4)
        a = random_band_limited(g, rng)
        assert functional_value(Potential.flat(g), a) == pytest.approx(0.0, abs=1e-15)

    def test_manufactured_closed_form(self):
        # F_0(eps cos) = -log((1 + sqrt(1 - delta^2)) / 2), delta = 4 pi^2 eps
        P = manufactured_potential(64)
        a = ScalarField.zeros(P.grid)
        assert functional_value(P, a) == pytest.approx(FUNCTIONAL_AT_STAR, abs=1e-12)

    def test_quadrature_oracle(self):
        # dense trapezoid quadrature of -log(1 - delta cos) agrees
        P = manufactured_potential(64)
        xs = np.arange(100000) / 100000
        dense = np.mean(-np.log(1.0 - DELTA * np.cos(TWO_PI * xs)))
        assert functional_value(P, ScalarField.zeros(P.grid)) == pytest.approx(
            dense, abs=1e-10
        )

    def test_second_derivative_zero_for_equal(self):
        g = make_grid(1, [32])
        rng = np.random.default_rng(5)
        P = random_convex_potential(g, rng)
        assert functional_second_derivative(P, P, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_second_derivative_flat_is_hessian_norm(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(6)
        psi = random_band_limited(g, rng, max_mode=2, amplitude=1e-3)
        P0 = Potential.flat(g)
        P1 = Potential(QuadraticBase.identity(2), psi)
        h = hessian(psi)
        expected = float(
            np.mean(
                h.component(0, 0) ** 2
                + 2 * h.component(0, 1) ** 2
                + h.component(1, 1) ** 2
            )
        )
        got = functional_second_derivative(P0, P1, 0.0)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got > 0.0

    def test_convex_along_paths(self):
        rng = np.random.default_rng(7)
        g = make_grid(1, [32])
        for _ in range(5):
            P0 = random_convex_potential(g, rng, margin=0.5)
            P1 = random_convex_potential(g, rng, margin=0.5)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert functional_second_derivative(P0, P1, t) >= -1e-10


class TestNewtonStep:
    def test_zero_residual_returns_unchanged(self):
        g = make_grid(1, [32])
        rng = np.random.default_rng(8)
        P = random_convex_potential(g, rng, margin=0.6)
        target = abreu_forward(P)
        stepped = newton_step(P, target, SolverConfig())
        assert stepped is P

    def test_flat_start_solves_biharmonic_mode(self):
        # from phi = 0 with a single-mode target the correction is the
        # exact biharmonic solve of that mode (constant coefficients)
        g = make_grid(1, [64])
        x = g.axis_coordinates(0)
        amp = 1e-3
        target = ScalarField(g, amp * np.cos(TWO_PI * x))
        cfg = SolverConfig()
        stepped = newton_step(Potential.flat(g), target, cfg)
        # L delta = forward - target = -target; delta = -biharm^{-1} target
        expected = -amp / (16 * np.pi**4) * np.cos(TWO_PI * x)
        assert np.max(np.abs(stepped.perturbation.values - expected)) < 1e-12

    def test_manufactured_residual_decrease(self):
        # one full step from flat at a small continuation target, where the
        # correction is essentially the mode-wise biharmonic solve
        _, a, _ = manufactured_problem(64)
        cfg = SolverConfig()
        target = ScalarField(a.grid, 0.05 * a.values)
        P = Potential.flat(a.grid)
        before = sup_norm(abreu_forward(P) - target)
        stepped = newton_step(P, target, cfg)
        after = sup_norm(abreu_forward(stepped) - target)
        assert after <= before / 10.0

    def test_rejects_nonzero_mean_target(self):
        g = make_grid(1, [32])
        with pytest.raises(MeanNotZero):
            newton_step(Potential.flat(g), ScalarField.constant(g, 0.5), SolverConfig())


class TestContinuitySolve:
    def test_zero_rhs_single_step(self):
        g = make_grid(2, [16, 16])
        P, trace = continuity_solve(ScalarField.zeros(g))
        assert sup_norm(P.perturbation) == 0.0
        assert len(trace.steps) == 1
        assert trace.steps[0].t == 1.0

    def test_manufactured_1d(self):
        _, a, phi_star = manufactured_problem(64)
        P, trace = continuity_solve(a)
        assert sup_norm(P.perturbation - phi_star) < 1e-6
        ts = [s.t for s in trace.steps]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        assert ts[0] > 0.0 and ts[-1] == 1.0

    def test_certificate_and_trace_consistency(self):
        _, a, _ = manufactured_problem(64)
        cfg = SolverConfig()
        P, trace = continuity_solve(a, cfg=cfg)
        residual = sup_norm(abreu_forward(P) - a)
        scale = 1.0 + sup_norm(a)
        assert residual <= 10.0 * cfg.newton_tolerance * scale
        assert trace.steps[-1].final_residual_norm <= 10.0 * cfg.newton_tolerance * scale
        for step in trace.steps:
            assert step.det_min <= step.det_max
            assert step.convexity_margin > 0.0
        payload = trace.to_dict()
        assert set(payload) == {"steps"}
        assert all(
            set(step) == {
                "t", "newton_iterations", "final_residual_norm",
                "functional_value", "det_min", "det_max", "convexity_margin",
            }
            for step in payload["steps"]
        )

    def test_functional_decreases_along_path_to_solution(self):
        # at fixed target tA the accepted Newton iterates do not increase
        # F; across the trace the recorded values are those of different
        # targets, so compare the final solution against the flat start
        _, a, _ = manufactured_problem(64)
        P, _ = continuity_solve(a)
        assert functional_value(P, a) <= functional_value(Potential.flat(a.grid), a)

    def test_2d_small(self):
        g = make_grid(2, [16, 16])
        x, y = g.coordinate_arrays()
        a = ScalarField(g, 0.3 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y)))
        P, trace = continuity_solve(a)
        assert sup_norm(abreu_forward(P) - a) < 1e-8
        assert trace.steps[-1].t == 1.0

    def test_each_visited_potential_builds_one_hessian_state(self, monkeypatch):
        # keyed by Hessian entries: in mean-zero gauge distinct potentials
        # have distinct Hessians
        built = Counter()
        original = HessianState.__post_init__

        def counting(state):
            built[state.hessian.entries.tobytes()] += 1
            original(state)

        monkeypatch.setattr(HessianState, "__post_init__", counting)
        g = make_grid(2, [16, 16])
        x, y = g.coordinate_arrays()
        a = ScalarField(g, 0.3 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y)))
        _, trace = continuity_solve(a)
        # at least the flat start and every accepted Newton iterate
        iterates = sum(s.newton_iterations for s in trace.steps)
        assert len(built) >= 1 + iterates
        assert max(built.values()) == 1

    def test_rejects_nonzero_mean(self):
        g = make_grid(1, [16])
        with pytest.raises(MeanNotZero):
            continuity_solve(ScalarField.constant(g, 1.0))

    def test_uniqueness_from_noisy_start(self):
        _, a, _ = manufactured_problem(64)
        rng = np.random.default_rng(9)
        cfg = SolverConfig()
        P_flat, _ = continuity_solve(a, cfg=cfg)
        # admissible noise: rescaled so the noisy start keeps margin 0.7
        noise = random_convex_potential(a.grid, rng, margin=0.7, max_mode=3)
        P_noisy, _ = continuity_solve(
            a, cfg=cfg, initial_perturbation=noise.perturbation
        )
        assert sup_norm(P_flat.perturbation - P_noisy.perturbation) <= 1e-6

    def test_rejects_inadmissible_start(self):
        _, a, _ = manufactured_problem(32)
        x = a.grid.axis_coordinates(0)
        bad = ScalarField(a.grid, np.cos(TWO_PI * x))  # margin < 0
        with pytest.raises(NotConvex):
            continuity_solve(a, initial_perturbation=bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
        with pytest.raises(ValueError):
            SolverConfig(newton_tolerance=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(min_t_step=0.5, initial_t_step=0.1)
