"""Linearized operator, Newton steps and the solver with its continuation retry."""

import dataclasses
import functools
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import (
    AbreuError,
    HessianState,
    MeanNotZero,
    NewtonRecord,
    NotConvex,
    Potential,
    QuadraticBase,
    ScalarField,
    SolverConfig,
    SymMatrixField,
    StepFloorReached,
    abreu_forward,
    continuity_solve,
    functional_value,
    grid,
    hessian,
    make_grid,
    mean,
    newton_step,
    potential,
    project_mean_zero,
    solver,
    sup_norm,
)
from tests.support import (
    DELTA,
    FUNCTIONAL_AT_STAR,
    exact_discrete_solution_1d,
    functional_second_derivative_oracle,
    linearized_apply,
    manufactured_nd_problem,
    manufactured_potential,
    manufactured_problem,
    newton_record,
    random_band_limited,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi


def _fail_first_attempt(monkeypatch, run_it=False):
    """Fail the solver's first Newton attempt, as one that runs out of
    iterations does (after running it, when `run_it`); later attempts run
    unchanged.  Returns the start perturbation of every attempt, in order."""
    starts = []
    newton_solve = solver._newton_solve

    def failing_once(start, cfg):
        starts.append(start.perturbation)
        if len(starts) > 1:
            # hand the start over without holding it, as the solver does
            box = [start]
            del start
            return newton_solve(box.pop(), cfg)
        if run_it:
            newton_solve(start, cfg)
        return None

    monkeypatch.setattr(solver, "_newton_solve", failing_once)
    return starts


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
        got = functional_second_derivative_oracle(P, P, 0.5)
        assert got == pytest.approx(0.0, abs=1e-14)

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
        got = functional_second_derivative_oracle(P0, P1, 0.0)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got > 0.0

    def test_rejects_a_field_on_another_grid(self):
        # 8 nodes on one axis broadcast against 8 x 8 values without the check
        P = random_convex_potential(make_grid(2, [8, 8]), np.random.default_rng(9))
        a = random_band_limited(make_grid(1, [8]), np.random.default_rng(9))
        with pytest.raises(ValueError, match="different grid"):
            functional_value(P, a)

    def test_convex_along_paths(self):
        rng = np.random.default_rng(7)
        g = make_grid(1, [32])
        for _ in range(5):
            P0 = random_convex_potential(g, rng, margin=0.5)
            P1 = random_convex_potential(g, rng, margin=0.5)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert functional_second_derivative_oracle(P0, P1, t) >= -1e-10


class TestNewtonStep:
    def test_zero_residual_returns_unchanged(self):
        g = make_grid(1, [32])
        rng = np.random.default_rng(8)
        P = random_convex_potential(g, rng, margin=0.6)
        start = newton_record(P, abreu_forward(P))
        assert newton_step(start, 1e-12) is start

    def test_flat_start_solves_biharmonic_mode(self):
        # from phi = 0 with a single-mode target the correction is the
        # exact biharmonic solve of that mode (constant coefficients)
        g = make_grid(1, [64])
        x = g.axis_coordinates(0)
        amp = 1e-3
        target = ScalarField(g, amp * np.cos(TWO_PI * x))
        stepped = newton_step(newton_record(Potential.flat(g), target), 1e-12).potential
        # L delta = forward - target = -target; delta = -biharm^{-1} target
        expected = -amp / (16 * np.pi**4) * np.cos(TWO_PI * x)
        assert np.max(np.abs(stepped.perturbation.values - expected)) < 1e-12

    def test_manufactured_residual_decrease(self):
        # one full step from flat at a small continuation target, where the
        # correction is essentially the mode-wise biharmonic solve
        _, a, _ = manufactured_problem(64)
        target = ScalarField(a.grid, 0.05 * a.values)
        P = Potential.flat(a.grid)
        before = sup_norm(abreu_forward(P) - target)
        stepped = newton_step(newton_record(P, target), 1e-12).potential
        after = sup_norm(abreu_forward(stepped) - target)
        assert after <= before / 10.0

    def test_rejects_nonzero_mean_target(self):
        g = make_grid(1, [32])
        with pytest.raises(MeanNotZero):
            newton_step(newton_record(Potential.flat(g), ScalarField.constant(g, 0.5)), 1e-12)

    def test_rejects_a_target_on_another_grid(self):
        # 8 nodes on one axis broadcast against 8 x 8 values without the check
        P = random_convex_potential(make_grid(2, [8, 8]), np.random.default_rng(9))
        target = random_band_limited(make_grid(1, [8]), np.random.default_rng(9))
        with pytest.raises(ValueError, match="different grid"):
            newton_step(newton_record(P, target), 1e-12)

    @pytest.mark.parametrize("forcing", [-1.0, np.nan, 1.0])
    def test_rejects_a_forcing_term_outside_the_unit_interval(self, forcing):
        g = make_grid(1, [16])
        target = ScalarField(g, 0.1 * np.cos(TWO_PI * g.axis_coordinates(0)))
        start = newton_record(Potential.flat(g), target)
        with pytest.raises(ValueError, match="forcing term"):
            newton_step(start, forcing)
        assert "defect" not in vars(start)  # raised before any work


class TestNewtonRecord:
    """`newton_step` maps a record to the record of the accepted trial and
    leaves its argument as it found it."""

    @staticmethod
    def _start():
        _, a, _ = manufactured_problem(64)
        target = ScalarField(a.grid, 0.05 * a.values)
        return newton_record(Potential.flat(a.grid), target)

    def test_accepted_record_holds_its_own_values(self):
        start = self._start()
        record = newton_step(start, 1e-12)
        assert record.target is start.target and record.potential is not start.potential
        P, target = record.potential, record.target
        assert record.functional is not None
        assert record.functional == functional_value(P, target)
        assert record.residual == sup_norm(abreu_forward(P) - target) > 0.0

    def test_start_gains_nothing_from_a_step(self):
        start = self._start()
        start.residual, start.defect_spectrum, start.functional_value()  # what a step reads of it
        before = dict(vars(start))
        newton_step(start, 1e-12)
        assert vars(start).keys() == before.keys()
        assert all(vars(start)[name] is value for name, value in before.items())


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
            built[state.hessian.tobytes()] += 1
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

    def test_each_visited_potential_forms_its_forward_field_once(self, monkeypatch):
        # (u^ij)_ij is the second divergence of the inverse Hessian, keyed
        # here by that inverse
        formed = Counter()
        original = potential.second_divergence_values

        def counting(grid_, hinv):
            formed[hinv.tobytes()] += 1
            return original(grid_, hinv)

        monkeypatch.setattr(potential, "second_divergence_values", counting)
        g = make_grid(2, [16, 16])
        x, y = g.coordinate_arrays()
        a = ScalarField(g, 0.3 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y)))
        _, trace = continuity_solve(a)
        # the flat start's forward field is zero without a transform, so
        # every second divergence is an accepted iterate's
        assert len(formed) >= sum(s.newton_iterations for s in trace.steps)
        assert max(formed.values()) == 1
        assert SymMatrixField.identity(g).entries.tobytes() not in formed

    def test_each_linearized_potential_builds_its_weights_once(self, monkeypatch):
        # a flat-start solve never linearizes its start; then a noisy-start
        # solve whose first attempt runs and is failed, so the retry
        # linearizes the last accepted perturbation (the noisy start) again,
        # on a potential of its own
        built, linearized = Counter(), Counter()
        build = HessianState._weights.func

        def counting_build(state):
            built[state] += 1
            return build(state)

        weights = functools.cached_property(counting_build)
        weights.__set_name__(HessianState, "_weights")
        monkeypatch.setattr(HessianState, "_weights", weights)
        operator = solver._linearized_operator

        def counting_operator(state):
            linearized[state] += 1
            return operator(state)

        monkeypatch.setattr(solver, "_linearized_operator", counting_operator)
        a = _small_2d_problem()
        continuity_solve(a)
        flat = SymMatrixField.identity(a.grid).entries.tobytes()
        assert built and flat not in {state.hessian.tobytes() for state in built}
        assert built.keys() == linearized.keys()
        built.clear()
        linearized.clear()
        _fail_first_attempt(monkeypatch, run_it=True)
        noise = random_convex_potential(a.grid, np.random.default_rng(4), margin=0.7)
        continuity_solve(a, initial_perturbation=noise.perturbation)
        values = Counter(state.hessian.tobytes() for state in linearized)
        assert max(values.values()) > 1
        assert built.keys() == linearized.keys()
        assert max(built.values()) == 1

    @pytest.mark.parametrize("noisy_start", [False, True])
    def test_retry_after_a_failed_first_attempt(self, monkeypatch, noisy_start):
        starts = _fail_first_attempt(monkeypatch)
        a = _small_2d_problem()
        start = None
        if noisy_start:
            rng = np.random.default_rng(4)
            start = random_convex_potential(a.grid, rng, margin=0.7).perturbation
        cfg = SolverConfig()
        P, trace = continuity_solve(a, cfg=cfg, initial_perturbation=start)
        ts = [s.t for s in trace.steps]
        assert ts[0] == 0.5  # the failed t = 1 halves the step
        assert all(t0 < t1 for t0, t1 in zip(ts, ts[1:])) and ts[-1] == 1.0
        bound = cfg.newton_tolerance * (1.0 + sup_norm(a))
        assert sup_norm(abreu_forward(P) - a) <= bound
        # nothing was accepted before the retry: it starts where t = 1 did
        assert starts[1] is starts[0]
        expected = np.zeros(a.grid.shape) if start is None else start.values
        np.testing.assert_array_equal(starts[0], expected - expected.mean())

    def test_rejects_nonzero_mean(self):
        g = make_grid(1, [16])
        with pytest.raises(MeanNotZero):
            continuity_solve(ScalarField.constant(g, 1.0))

    def test_step_floor_chains_only_the_last_attempts_error(self, monkeypatch):
        # the first attempt loses convexity, every later one runs out of
        # Newton iterations: the floor error must not chain the first
        calls = []

        def failing(start, cfg):
            calls.append(start.target)
            if len(calls) == 1:
                raise NotConvex((0,), -1.0)
            return None

        monkeypatch.setattr(solver, "_newton_solve", failing)
        _, a, _ = manufactured_problem(32)
        with pytest.raises(StepFloorReached) as info:
            continuity_solve(a)
        assert len(calls) > 1
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("retry", [False, True])
    def test_one_live_potential_per_attempt(self, monkeypatch, retry):
        # every Newton step finds the records of the earlier steps, with
        # their Hessian states, the attempt's start and the last accepted
        # one among them, collected
        refs, live = [], []
        step = solver.newton_step

        def spying_step(record, forcing):
            live.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(record))
            refs.append(weakref.ref(record.hessian_state))
            return step(record, forcing)

        monkeypatch.setattr(solver, "newton_step", spying_step)
        if retry:  # t = 1 fails, so t = 1/2 is accepted and t = 1 starts from it
            _fail_first_attempt(monkeypatch)
        _, trace = continuity_solve(_small_2d_problem())
        assert len(trace.steps) == (2 if retry else 1)
        assert len(live) >= 2 and live == [0] * len(live)

    def test_checked_start_builds_its_hessian_once(self, monkeypatch):
        # the up-front convexity check and the first attempt share the start
        a = _small_2d_problem()
        rng = np.random.default_rng(4)
        noise = random_convex_potential(a.grid, rng, margin=0.7).perturbation
        start = project_mean_zero(noise)
        starts = []
        original = potential.hessian_u

        def counting(P):
            starts.append(np.array_equal(P.perturbation.values, start.values))
            return original(P)

        monkeypatch.setattr(potential, "hessian_u", counting)
        continuity_solve(a, initial_perturbation=noise)
        assert sum(starts) == 1

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
            SolverConfig(newton_tolerance=-1.0)

    def test_config_holds_only_the_settable_values(self):
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["newton_tolerance"]

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["newton_tolerance"])
    def test_config_rejects_nonfinite_tolerance(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**{name: value})


class TestHugeInputs:
    # amplitude-a inputs far past any solvable scale, whose Hessians
    # overflow their determinants in 2D and 3D: the solve fails with a
    # classified reason, and no float warning escapes the package
    @pytest.mark.parametrize("shape", [(16,), (8, 8), (8, 8, 8)])
    @pytest.mark.parametrize("amplitude", [1e30, 1e100, 1e154, 1e200, 1e300])
    def test_fails_classified_without_float_warnings(self, shape, amplitude):
        g = make_grid(len(shape), list(shape))
        xs = g.coordinate_arrays()
        v = amplitude * (np.cos(TWO_PI * xs[0]) + 0.5 * np.sin(TWO_PI * sum(xs) + 1.0))
        a = ScalarField(g, v - v.mean())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AbreuError):
                continuity_solve(a)


def _small_2d_problem():
    g = make_grid(2, [16, 16])
    x, y = g.coordinate_arrays()
    return ScalarField(g, 0.3 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y)))


class TestInexactNewton:
    def test_krylov_applies_on_small_2d(self, monkeypatch):
        # every Newton system solved to a fixed relative 1e-12 took 83
        # applies here under continuation; forcing terms with the first
        # attempt at t = 1, whose flat first step runs no CG, take 5
        applies = []
        pcg = solver._pcg

        def counting_pcg(apply_op, *args):
            def counted(values):
                applies.append(1)
                return apply_op(values)

            return pcg(counted, *args)

        monkeypatch.setattr(solver, "_pcg", counting_pcg)
        continuity_solve(_small_2d_problem())
        assert 0 < len(applies) <= 40

    def test_meets_newton_tolerance_on_small_2d(self):
        a = _small_2d_problem()
        cfg = SolverConfig()
        P, trace = continuity_solve(a, cfg=cfg)
        bound = cfg.newton_tolerance * (1.0 + sup_norm(a))
        assert sup_norm(abreu_forward(P) - a) <= bound
        assert trace.steps[-1].final_residual_norm <= bound


def _benchmark_like_2d():
    """A 2D 64^2 input like those of the benchmark's `solve-2d` pool: three
    low modes, sup|A| about 1."""
    g = make_grid(2, [64, 64])
    x, y = g.coordinate_arrays()
    return ScalarField(g, 0.45 * np.cos(TWO_PI * x + 3.68)
                       + 0.36 * np.cos(TWO_PI * (x + y) + 5.31)
                       + 0.29 * np.cos(2.0 * TWO_PI * y + 0.28))


class TestForcingBookkeeping:
    """Each Newton record says how its step was solved, and the safeguard
    of the next forcing term reads that, not a forcing the step never
    used."""

    def test_flat_step_is_exact_and_leaves_the_next_system_unguarded(self, monkeypatch):
        # the flat start's step is solved exactly (forcing 0.0, no Krylov
        # apply), so the second system gets the plain Eisenstat-Walker
        # ratio, not 0.9 * 0.5^2 from the eta_0 the flat step never used
        tolerances, applies, starts, records = [], [], [], []
        pcg, step = solver._pcg, solver.newton_step

        def spying_pcg(apply_op, grid, inv_symbol, rhs, rel_tol):
            def counted(spectrum):
                applies[-1] += 1
                return apply_op(spectrum)

            tolerances.append(rel_tol)
            applies.append(0)
            return pcg(counted, grid, inv_symbol, rhs, rel_tol)

        def spying_step(record, forcing):
            starts.append(record)
            records.append(step(record, forcing))
            return records[-1]

        monkeypatch.setattr(solver, "_pcg", spying_pcg)
        monkeypatch.setattr(solver, "newton_step", spying_step)
        a = _benchmark_like_2d()
        _, trace = continuity_solve(a)
        assert [s.newton_iterations for s in trace.steps] == [3]
        assert starts[0].correction is None
        flat, *solved = [r.correction for r in records]
        assert (flat.forcing, flat.applies) == (0.0, 0)
        assert [c.forcing for c in solved] == tolerances
        assert [c.applies for c in solved] == applies and min(applies) > 0
        tol = SolverConfig().newton_tolerance * (1.0 + sup_norm(a))
        r0, r1 = sup_norm(a), records[0].residual  # the flat start's forward field is 0
        expected = max(0.9 * (r1 / r0) ** 2, 0.5 * tol / r1, 1e-12)
        assert tolerances[0] == pytest.approx(expected, rel=1e-14)
        assert tolerances[0] < 0.9 * 0.5**2

    def test_a_record_without_a_correction_reads_as_a_start(self, monkeypatch):
        # a step whose record comes back without its correction: every
        # forcing term is formed as after no solved step
        previous = []
        forcing_term, step = solver._forcing_term, solver.newton_step

        def spying(residual, residual_prev, eta_prev, tolerance):
            previous.append(eta_prev)
            return forcing_term(residual, residual_prev, eta_prev, tolerance)

        def stripped(record, forcing):
            accepted = step(record, forcing)
            return NewtonRecord(accepted.base, accepted.perturbation, record.target)

        monkeypatch.setattr(solver, "_forcing_term", spying)
        monkeypatch.setattr(solver, "newton_step", stripped)
        a = _small_2d_problem()
        outcome = solver._newton_solve(newton_record(Potential.flat(a.grid), a), SolverConfig())
        assert outcome is not None and len(previous) == outcome[1] > 1
        assert previous == [None] * len(previous)

    def test_a_step_solved_loosely_still_guards_the_next(self):
        # Eisenstat-Walker's safeguard: a forcing of 0.5 keeps the next at
        # 0.9 * 0.25 however fast the residual fell; 0.0 (an exact step)
        # and None (no step) leave the plain ratio
        tol = 1e-10
        assert solver._forcing_term(1e-3, 1.0, 0.5, tol) == 0.9 * 0.5**2
        plain = 0.9 * (1e-3 / 1.0) ** 2
        assert solver._forcing_term(1e-3, 1.0, 0.0, tol) == plain
        assert solver._forcing_term(1e-3, 1.0, None, tol) == plain
        assert solver._forcing_term(1.0, None, None, tol) == solver._EW_ETA_0

    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from([(32,), (16, 16), (8, 8, 8)]), seed=st.integers(0, 2**32 - 1),
           amplitude=st.floats(0.05, 4.0), max_mode=st.integers(1, 3))
    def test_matches_a_solve_with_every_system_solved_to_the_clamp(self, shape, seed,
                                                                   amplitude, max_mode):
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        a = random_band_limited(g, rng, max_mode=max_mode, amplitude=amplitude)
        a = ScalarField(g, a.values * min(1.0, 4.0 / sup_norm(a)))  # sup|A| <= 4
        P, trace = continuity_solve(a)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_forcing_term", lambda *args: solver._LINEAR_TOLERANCE)
            P_tight, _ = continuity_solve(a)
        bound = 1e-14 * (1.0 + sup_norm(P_tight.perturbation))
        assert sup_norm(P.perturbation - P_tight.perturbation) <= bound
        tol = SolverConfig().newton_tolerance * (1.0 + sup_norm(a))
        assert trace.steps[-1].final_residual_norm <= 10.0 * tol


def _small_1d_problem():
    g = make_grid(1, [128])
    return ScalarField(g, 0.5 * np.cos(TWO_PI * g.axis_coordinates(0)))


class TestWorkPerIteration:
    """One Newton iteration computes each quantity once."""

    @staticmethod
    def _spy(monkeypatch, name, module, record):
        original = getattr(module, name)

        def spying(*args):
            record.append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, spying)

    @pytest.mark.parametrize("problem", [_small_1d_problem, _small_2d_problem],
                             ids=["1d-128", "2d-16"])
    def test_functional_once_per_trial_and_start(self, monkeypatch, problem):
        # every line-search trial is evaluated once; the start of a step is
        # not evaluated again once the trial that became it was, and the
        # accepted iterate's value goes into the trace unevaluated; the
        # trials are the records whose Hessian states the solver forms (the
        # start's comes with it)
        evaluated, states, starts = [], [], []
        value_of = NewtonRecord.functional_value

        def value(record):
            if record.functional is None:
                evaluated.append(record.hessian_state)
            return value_of(record)

        monkeypatch.setattr(NewtonRecord, "functional_value", value)
        build = solver.HessianState

        def state(*args):
            states.append(build(*args))
            return states[-1]

        monkeypatch.setattr(solver, "HessianState", state)
        self._spy(monkeypatch, "newton_step", solver, starts)
        a = problem()
        P, trace = continuity_solve(a)
        assert len(trace.steps) == 1 and trace.steps[0].newton_iterations > 1
        assert all(trial.convex for trial in states)
        assert len(starts) > 1 and starts[0].hessian_state not in states
        counts = Counter(evaluated)
        assert max(counts.values()) == 1
        assert counts == Counter(states + [starts[0].hessian_state])
        assert trace.steps[0].functional_value == functional_value(P, a)

    @pytest.mark.parametrize("problem", [_small_1d_problem, _small_2d_problem],
                             ids=["1d-128", "2d-16"])
    def test_base_triangle_built_once(self, monkeypatch, problem):
        # a base builds its one triangle (and its inverse's) when it is
        # made: a solve builds none, however many Hessians it forms
        a = problem()
        base = QuadraticBase.identity(a.grid.dim)
        base.inverse()
        built, hessians = [], []
        for module in (grid, potential):
            self._spy(monkeypatch, "full_to_triangle", module, built)
        self._spy(monkeypatch, "hessian_stack", solver, hessians)
        continuity_solve(a, base=base)
        assert len(hessians) > 2 and built == []


class TestStoppingRule:
    """A Newton step that leaves P unchanged is a stagnated update."""

    @staticmethod
    def _stalled(monkeypatch):
        calls = []

        def stalled(record, forcing):
            calls.append(record)
            return record

        monkeypatch.setattr(solver, "newton_step", stalled)
        return calls

    @staticmethod
    def _attempt(amplitude):
        g = make_grid(1, [32])
        target = ScalarField(g, amplitude * np.cos(TWO_PI * g.axis_coordinates(0)))
        return solver._newton_solve(newton_record(Potential.flat(g), target), SolverConfig())

    def test_stagnation_far_above_tolerance_fails_at_once(self, monkeypatch):
        calls = self._stalled(monkeypatch)
        assert self._attempt(1.0) is None  # residual 1, about 5e9 tolerances
        assert len(calls) == 1

    def test_stagnation_within_ten_tolerances_accepts(self, monkeypatch):
        calls = self._stalled(monkeypatch)
        record, iterations = self._attempt(5e-10)
        assert (iterations, len(calls)) == (1, 1)
        assert sup_norm(record.potential.perturbation) == 0.0
        assert record.residual == pytest.approx(5e-10)

    def test_stagnation_in_the_noise_band_keeps_iterating(self, monkeypatch):
        # 50 tolerances: rounding noise could still dip within 10
        calls = self._stalled(monkeypatch)
        assert self._attempt(5e-9) is None
        assert len(calls) == solver._MAX_NEWTON_ITERS

    @pytest.mark.parametrize("mode, steps", [(10, 0), (1, 1)])
    def test_an_in_band_iterate_at_rounding_is_accepted_before_a_step(
            self, monkeypatch, mode, steps):
        # 2 tolerances on mode 10: its flat correction reads 2e-10 / (20 pi)^4,
        # about 1e-17, so no step is taken; on mode 1 it reads 1e-13, so the
        # attempt steps and accepts on the stalled update
        calls = self._stalled(monkeypatch)
        g = make_grid(1, [32])
        target = ScalarField(g, 2e-10 * np.cos(mode * TWO_PI * g.axis_coordinates(0)))
        record, iterations = solver._newton_solve(newton_record(Potential.flat(g), target),
                                                  SolverConfig())
        assert (iterations, len(calls)) == (steps, steps)
        assert sup_norm(record.potential.perturbation) == 0.0
        assert record.residual == pytest.approx(2e-10)


class TestRoundingAcceptance:
    """Accepting an in-band iterate at rounding moves the solution by
    rounding only."""

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(32,), (16, 16)]), seed=st.integers(0, 2**32 - 1),
           amplitude=st.floats(0.05, 4.0), max_mode=st.integers(1, 3),
           tolerance=st.sampled_from([1e-10, 1e-12]))
    def test_matches_a_solve_without_the_early_exit(self, shape, seed, amplitude, max_mode,
                                                    tolerance):
        # the tighter tolerance puts more of these floors in the band
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        a = random_band_limited(g, rng, max_mode=max_mode, amplitude=amplitude)
        a = ScalarField(g, a.values * min(1.0, 4.0 / sup_norm(a)))  # sup|A| <= 4
        cfg = SolverConfig(tolerance)
        P, trace = continuity_solve(a, cfg=cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_ROUNDING_BAND", 0.0)
            P_late, _ = continuity_solve(a, cfg=cfg)
        bound = 1e-14 * (1.0 + sup_norm(P_late.perturbation))
        assert sup_norm(P.perturbation - P_late.perturbation) <= bound
        assert trace.steps[-1].final_residual_norm <= 10.0 * tolerance * (1.0 + sup_norm(a))


class TestAttemptRecord:
    """An attempt's result is the record of its last iterate, and the trace
    step is read from it."""

    @pytest.mark.parametrize("retry", [False, True])
    def test_trace_step_reads_the_record(self, monkeypatch, retry):
        records = []
        newton_solve = solver._newton_solve

        def recording(start, cfg):
            box = [start]
            del start
            outcome = newton_solve(box.pop(), cfg)
            records.append(outcome)
            return outcome

        monkeypatch.setattr(solver, "_newton_solve", recording)
        if retry:  # t = 1 fails, so t = 1/2 is accepted first
            _fail_first_attempt(monkeypatch)
        a = _small_2d_problem()
        P, trace = continuity_solve(a)
        assert len(records) == len(trace.steps) == (2 if retry else 1)
        for (record, iterations), step in zip(records, trace.steps):
            assert step.newton_iterations == iterations
            assert step.final_residual_norm == record.residual
            assert step.functional_value == record.functional
        last = records[-1][0]
        assert last.potential is P and last.target.values.tobytes() == a.values.tobytes()
        assert last.residual == sup_norm(abreu_forward(P) - a)
        assert last.functional == functional_value(P, a)


def _one_mode(x):
    return np.cos(TWO_PI * x)


def _two_modes(x):
    return np.cos(TWO_PI * x) + 0.5 * np.sin(2.0 * TWO_PI * x + 0.3)


class TestOracleSolutions:
    """The solution itself against closed-form and manufactured potentials,
    at default settings."""

    @pytest.mark.parametrize("shape", [_one_mode, _two_modes], ids=["cos", "two-mode"])
    @pytest.mark.parametrize("size", [0.5, 1.0, 1.75, 2.5, 3.25])
    @pytest.mark.parametrize("n", [64, 128])
    def test_1d_matches_exact_discrete_solution(self, n, size, shape):
        g = make_grid(1, [n])
        values = shape(g.axis_coordinates(0))
        a = ScalarField(g, size * values / np.max(np.abs(values)))
        phi_star = exact_discrete_solution_1d(a.values)
        P, _ = continuity_solve(a)
        bound = 1e-12 * (1.0 + np.max(np.abs(phi_star)))
        assert np.max(np.abs(P.perturbation.values - phi_star)) <= bound

    def test_exact_discrete_solution_solves_the_equation(self):
        _, a, phi_star = manufactured_problem(64)
        exact = exact_discrete_solution_1d(a.values)
        P = Potential(QuadraticBase.identity(1), ScalarField(a.grid, exact))
        assert sup_norm(abreu_forward(P) - a) <= 1e-9 * (1.0 + sup_norm(a))
        # the continuous solution eps cos(2 pi x) agrees to discretization error
        assert sup_norm(P.perturbation - phi_star) <= 1e-10

    @pytest.mark.parametrize("dim, n", [(2, 32), (2, 64), (3, 8), (3, 16)])
    def test_nd_recovers_manufactured_potential(self, dim, n):
        a, phi_star = manufactured_nd_problem(make_grid(dim, [n] * dim))
        P, _ = continuity_solve(a)
        bound = 1e-12 * (1.0 + sup_norm(phi_star))
        assert sup_norm(P.perturbation - phi_star) <= bound
