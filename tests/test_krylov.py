"""The Krylov apply and solve on real-FFT spectra.

One apply of psi -> (u^ia psi_ab u^bj)_ij maps a spectrum to a spectrum:
a batched inverse transform of the second-derivative multiples, the
congruence with the potential's cached weights and a batched forward
transform of the centred components.  It is checked, through the node
values of `linearized_apply`, against the full-matrix formulation in
tests.support (h psi h by matrix products) on random convex potentials
over non-identity bases; the public `hessian` and `second_divergence`,
whose triangle stacks are the kernels' own layout, against the kernels
and a per-component reference bit for bit; one PCG iteration against its
transform budget; the PCG correction against a dense solve; and a
failing solve against the same iteration on node values.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import (
    HessianState,
    Potential,
    QuadraticBase,
    ScalarField,
    SymMatrixField,
    hessian,
    make_grid,
    newton_step,
    second_divergence,
    solver,
)
from abreu.errors import LinearSolveFailure
from abreu.grid import (
    fourier_multiplier,
    from_spectrum,
    hessian_from_spectrum,
    second_divergence_spectrum,
    to_spectrum,
    triangle_pairs,
    triangle_to_full,
)
from tests.support import (
    functional_second_derivative_oracle,
    linearized_apply,
    linearized_apply_oracle,
    newton_record,
    random_band_limited,
)

# the fused apply only reorders the rounding of the nodewise contraction
REL_TOL = 1e-13

SEEDS = st.integers(0, 2**32 - 1)
GRIDS = st.sampled_from([(16,), (8, 12), (12, 8), (8, 10, 8)])


def _random_base(rng, dim):
    """SPD matrix with eigenvalues in [0.5, 2] along random axes."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return QuadraticBase((q * rng.uniform(0.5, 2.0, dim)) @ q.T)


def _random_unimodular_base(rng, dim):
    """U^T U for U a random product of unit shears: an integer SPD matrix
    of determinant 1, such as [[2, 1], [1, 1]]."""
    u = np.eye(dim)
    for _ in range(2 if dim > 1 else 0):
        i, j = rng.choice(dim, 2, replace=False)
        u[i] += rng.choice([-1.0, 1.0]) * u[j]
    return QuadraticBase(u.T @ u)


def _random_potential(grid, rng, base):
    """Convex base + phi, phi band-limited with Hessian eigenvalues within
    a random fraction (at most 0.9) of the base's smallest eigenvalue."""
    f = random_band_limited(grid, rng, max_mode=2)
    probe = HessianState(grid, hessian(f).entries)
    spread = max(abs(probe.min_eigenvalue), abs(probe.max_eigenvalue))
    scale = rng.uniform(0.1, 0.9) * np.linalg.eigvalsh(base.matrix)[0] / spread
    return Potential(base, ScalarField(grid, scale * f.values))


def _setup(shape, seed):
    g = make_grid(len(shape), list(shape))
    rng = np.random.default_rng(seed)
    return g, rng, _random_potential(g, rng, _random_base(rng, g.dim))


def _pair_multiplier(g, i, j):
    orders = [0] * g.dim
    orders[i] += 1
    orders[j] += 1
    return fourier_multiplier(g, (tuple(orders),))[0]


def _per_component_hessian(g, values):
    """One inverse transform per triangle entry, written component-first."""
    axes = tuple(range(g.dim))
    spectrum = np.fft.rfftn(values, axes=axes)
    entries = np.empty((len(triangle_pairs(g.dim)),) + g.shape)
    for k, (i, j) in enumerate(triangle_pairs(g.dim)):
        mult = _pair_multiplier(g, i, j)
        entries[k] = np.fft.irfftn(spectrum * mult, s=g.shape, axes=axes)
    return entries


def _per_component_second_divergence(g, entries):
    """Weighted spectra of the centered components, summed in pair order."""
    axes = tuple(range(g.dim))
    acc = 0.0
    for k, (i, j) in enumerate(triangle_pairs(g.dim)):
        weight = 1.0 if i == j else 2.0
        comp = entries[k]
        spectrum = np.fft.rfftn(comp - comp.mean(), axes=axes)
        acc = acc + weight * _pair_multiplier(g, i, j) * spectrum
    return np.fft.irfftn(acc, s=g.shape, axes=axes)


class TestApplyMatchesMatrixOracle:
    @settings(max_examples=40, deadline=None)
    @given(shape=GRIDS, seed=SEEDS)
    def test_apply(self, shape, seed):
        g, rng, P = _setup(shape, seed)
        psi = rng.standard_normal(g.shape)
        got = linearized_apply(P, ScalarField(g, psi)).values
        ref = linearized_apply_oracle(P, psi)
        assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(shape=GRIDS, seed=SEEDS, t=st.floats(0.0, 1.0))
    def test_functional_second_derivative(self, shape, seed, t):
        g, rng, P0 = _setup(shape, seed)
        P1 = _random_potential(g, rng, P0.base)
        # the bilinear form of the apply at u_t: integral(psi L_t psi)
        psi = P1.perturbation - P0.perturbation
        phi_t = (1.0 - t) * P0.perturbation.values + t * P1.perturbation.values
        got = np.mean(psi.values * linearized_apply(P0.with_perturbation(phi_t), psi).values)
        ref = functional_second_derivative_oracle(P0, P1, t)
        assert ref > 0.0
        assert abs(got - ref) <= REL_TOL * ref

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8)])
    def test_repeated_applies_are_bitwise_equal(self, shape):
        g, rng, P = _setup(shape, 11)
        spectrum = to_spectrum(g, rng.standard_normal(g.shape))
        first = solver._linearized_operator(P.hessian_state)(spectrum)
        again = solver._linearized_operator(P.hessian_state)(spectrum)
        assert np.array_equal(first, again)
        assert np.array_equal(solver._linearized_operator(P.hessian_state)(spectrum), first)
        psi = ScalarField(g, from_spectrum(g, spectrum))
        assert np.array_equal(linearized_apply(P, psi).values,
                              linearized_apply(P, psi).values)


SHAPES = st.sampled_from(
    [(16,), (64,), (8, 12), (12, 8), (64, 64), (8, 10, 8), (16, 16, 16)]
)


class TestWrappersBitwise:
    @settings(max_examples=30, deadline=None)
    @given(shape=SHAPES, seed=SEEDS, log_scale=st.floats(-3.0, 3.0))
    def test_hessian(self, shape, seed, log_scale):
        g = make_grid(len(shape), list(shape))
        values = 10.0**log_scale * np.random.default_rng(seed).standard_normal(g.shape)
        got = hessian(ScalarField(g, values)).entries
        assert np.array_equal(got, _per_component_hessian(g, values))

    @settings(max_examples=30, deadline=None)
    @given(shape=SHAPES, seed=SEEDS, log_scale=st.floats(-3.0, 3.0))
    def test_second_divergence(self, shape, seed, log_scale):
        g = make_grid(len(shape), list(shape))
        m = len(triangle_pairs(g.dim))
        rng = np.random.default_rng(seed)
        entries = 10.0**log_scale * (1.0 + rng.standard_normal((m,) + g.shape))
        got = second_divergence(SymMatrixField(g, entries)).values
        assert np.array_equal(got, _per_component_second_divergence(g, entries))

    @settings(max_examples=20, deadline=None)
    @given(shape=SHAPES, seed=SEEDS)
    def test_hessian_entries_are_the_stack(self, shape, seed):
        g = make_grid(len(shape), list(shape))
        values = np.random.default_rng(seed).standard_normal(g.shape)
        got = hessian(ScalarField(g, values)).entries
        assert np.array_equal(got, hessian_from_spectrum(g, to_spectrum(g, values)))

    @settings(max_examples=20, deadline=None)
    @given(shape=SHAPES, seed=SEEDS)
    def test_second_divergence_is_the_weighted_stack(self, shape, seed):
        g = make_grid(len(shape), list(shape))
        pairs = triangle_pairs(g.dim)
        rng = np.random.default_rng(seed)
        M = SymMatrixField(g, 1.0 + rng.standard_normal((len(pairs),) + g.shape))
        weighted = np.stack(
            [c if i == j else 2.0 * c for c, (i, j) in zip(M.entries, pairs)]
        )
        got = second_divergence(M).values
        assert np.array_equal(got, _second_divergence_nodes(g, weighted))


def _second_divergence_nodes(g, stack):
    """`second_divergence_spectrum` of `stack` (centered in place) at the
    nodes."""
    return from_spectrum(g, second_divergence_spectrum(g, stack))


class TestSecondDivergenceStack:
    def test_centers_the_callers_stack_in_place(self):
        g = make_grid(2, [8, 12])
        rng = np.random.default_rng(5)
        stack = 1.0 + rng.standard_normal((3,) + g.shape)
        original = stack.copy()
        out = _second_divergence_nodes(g, stack)
        assert np.array_equal(stack, np.stack([c - c.mean() for c in original]))
        assert np.array_equal(out, _second_divergence_nodes(g, original.copy()))

    def test_rejects_a_read_only_stack(self):
        g = make_grid(1, [16])
        stack = np.ones((1, 16))
        stack.setflags(write=False)
        with pytest.raises(ValueError):
            second_divergence_spectrum(g, stack)


def _count_transforms(monkeypatch):
    """Count the per-axis real and complex transform passes: the calls of
    numpy's pocketfft kernels, which the transform pair looks up on each
    call, counted as rfft, irfft, fft and ifft."""
    calls = Counter()
    kernels = np.fft._pocketfft_umath
    for name, kernel in (("rfft", "rfft_n_even"), ("irfft", "irfft"),
                         ("fft", "fft"), ("ifft", "ifft")):

        def counted(*args, _name=name, _original=getattr(kernels, kernel), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, kernel, counted)
    return calls


def _one_apply(dim):
    """Per-axis calls of one batched inverse and one batched forward."""
    return Counter({"ifft": dim - 1, "irfft": 1, "rfft": 1, "fft": dim - 1})


class TestTransformBudget:
    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8)])
    def test_one_apply_is_one_inverse_and_one_forward(self, shape, monkeypatch):
        g, rng, P = _setup(shape, 3)
        apply = solver._linearized_operator(P.hessian_state)
        spectrum = to_spectrum(g, rng.standard_normal(g.shape))
        calls = _count_transforms(monkeypatch)
        apply(spectrum)
        assert calls == _one_apply(g.dim)

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8)])
    def test_preconditioner_and_inner_products_make_no_transform(
        self, shape, monkeypatch
    ):
        g, rng, P = _setup(shape, 4)
        apply = solver._linearized_operator(P.hessian_state)
        applies = []

        def counted(spectrum):
            applies.append(1)
            return apply(spectrum)

        inv_symbol = solver._inverse_flat_symbol(g, P.base)
        rhs = to_spectrum(g, rng.standard_normal(g.shape))
        calls = _count_transforms(monkeypatch)
        solver._pcg(counted, g, inv_symbol, rhs, 1e-12)
        assert len(applies) > 1
        per_apply = _one_apply(g.dim)
        assert calls == Counter({k: len(applies) * v for k, v in per_apply.items()})


def _extremes_on_every_node(H):
    """(min, max, row-major node of the first min) of the eigenvalues on
    every node of the triangle stack H: the 2x2 closed form in 2D, eigvalsh
    otherwise."""
    if len(H) == 3:
        a, b, c = H
        r = np.hypot(0.5 * (a - c), b)
        lo, hi = 0.5 * (a + c) - r, 0.5 * (a + c) + r
    else:
        eigs = np.linalg.eigvalsh(triangle_to_full(H))
        lo, hi = eigs[..., 0], eigs[..., -1]
    return lo.min(), hi.max(), np.unravel_index(lo.argmin(), lo.shape)


class TestFlatStart:
    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8)])
    def test_makes_no_transform(self, shape, monkeypatch):
        # the Hessian state of phi = 0, its forward field and log det
        P = Potential.flat(make_grid(len(shape), list(shape)))
        calls = _count_transforms(monkeypatch)
        state = P.hessian_state
        state.forward, state.log_det
        assert calls == Counter()

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (20, 20), (8, 10, 8), (16, 16, 16),
                                       (10, 10, 10)])
    @pytest.mark.parametrize("identity", [True, False])
    def test_state_is_the_transforms_bit_for_bit(self, shape, identity):
        # the Hessian, its extremes and worst node as the spectral Hessian of
        # phi = 0 and eigvalsh on every node give them, signed zeros included;
        # the forward field is the transforms' zero for the identity base and
        # exact where theirs keeps rounding of order eps^2
        g = make_grid(len(shape), list(shape))
        base = QuadraticBase(np.eye(g.dim) if identity else np.diag(0.3 * np.arange(1, g.dim + 1)))
        P = Potential.flat(g, base)
        state = P.hessian_state
        stack = hessian_from_spectrum(g, P.perturbation.spectrum)
        stack += base.triangle.reshape((-1,) + (1,) * g.dim)
        assert state.hessian.tobytes() == stack.tobytes()
        extremes = (state.min_eigenvalue, state.max_eigenvalue, state.worst_node)
        assert extremes == _extremes_on_every_node(state.hessian)
        transformed = second_divergence(SymMatrixField(g, state.inverse())).values
        assert not state.forward.any() and not np.signbit(state.forward).any()
        if identity:
            assert state.forward.tobytes() == transformed.tobytes()
        else:
            assert np.max(np.abs(transformed)) < 1e-20

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (20, 20), (8, 10, 8)])
    def test_step_takes_the_exact_correction_without_krylov(self, shape, monkeypatch):
        # at phi = 0 the operator is the inverse of the preconditioner, so the
        # step neither runs PCG nor applies the operator; PCG run to 1e-12
        # reaches the same correction to rounding
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(5)
        base = _random_base(rng, g.dim)
        target = 0.1 * random_band_limited(g, rng, max_mode=2)
        record = newton_record(Potential.flat(g, base), target)
        calls = Counter()
        pcg = solver._pcg

        def counted(name, func):
            def counting(*args):
                calls[name] += 1
                return func(*args)

            return counting

        monkeypatch.setattr(solver, "_pcg", counted("pcg", pcg))
        monkeypatch.setattr(HessianState, "congruent", counted("apply", HessianState.congruent))
        accepted = newton_step(record, 0.5)
        assert calls == Counter()
        correction = accepted.correction
        assert (correction.forcing, correction.applies) == (0.0, 0)
        flat = correction.delta
        assert flat.tobytes() == solver.newton_correction(record, None).delta.tobytes()
        P = record.potential
        trials = [P.with_perturbation(P.perturbation.values + solver._DAMPING**k * flat)
                  for k in range(11)]
        stepped = accepted.potential.perturbation.values
        assert any(np.array_equal(stepped, trial.perturbation.values) for trial in trials)
        solved = from_spectrum(g, pcg(solver._linearized_operator(record.hessian_state), g,
                                      solver._inverse_flat_symbol(g, base),
                                      record.defect_spectrum, 1e-12)[0])
        assert calls["apply"] > 0  # the spy sees the operator's applies
        eps = np.finfo(float).eps
        assert np.max(np.abs(flat - solved)) <= 4.0 * eps * np.max(np.abs(solved))

    def test_a_field_constant_along_the_last_axis_is_not_constant(self):
        # its first two nodes agree, so only the full comparison tells
        g = make_grid(2, [16, 8])
        x, _ = g.coordinate_arrays()
        P = Potential.flat(g).with_perturbation(0.01 * np.cos(2.0 * np.pi * x))
        state = P.hessian_state
        assert state.hessian[0, 0, 0] == state.hessian[0, 0, 1]
        extremes = (state.min_eigenvalue, state.max_eigenvalue, state.worst_node)
        assert extremes == _extremes_on_every_node(state.hessian)
        expected = second_divergence(SymMatrixField(g, state.inverse())).values
        assert state.forward.tobytes() == expected.tobytes()
        assert state.forward.any()


class TestNewtonCorrection:
    """`newton_correction` is the flat map where asked for an estimate or
    at phi = 0, and otherwise the PCG solve to the forcing asked for."""

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(16,), (8, 12), (8, 10, 8)]), seed=SEEDS,
           forcing=st.sampled_from([1e-12, 1e-6, 0.1, 0.5]))
    def test_is_the_flat_map_or_the_pcg_solve(self, shape, seed, forcing):
        g, rng, P = _setup(shape, seed)
        target = 0.1 * random_band_limited(g, rng, max_mode=2)
        inv_symbol = solver._inverse_flat_symbol(g, P.base)
        record = newton_record(P, target)
        start = newton_record(Potential.flat(g, P.base), target)
        for r in (record, start):
            flat = from_spectrum(g, inv_symbol * r.defect_spectrum)
            estimate = solver.newton_correction(r, None)
            assert estimate.delta.tobytes() == flat.tobytes() and estimate.applies == 0
        assert solver.newton_correction(record, None).forcing is None
        # at phi = 0 the flat map is exact, whatever forcing is asked for
        for asked in (None, forcing):
            exact = solver.newton_correction(start, asked)
            assert (exact.forcing, exact.applies) == (0.0, 0)
            assert exact.delta.tobytes() == flat.tobytes()
        spectrum, iterations = solver._pcg(solver._linearized_operator(P.hessian_state), g, inv_symbol,
                                           record.defect_spectrum, forcing)
        solved = solver.newton_correction(record, forcing)
        assert solved.delta.tobytes() == from_spectrum(g, spectrum).tobytes()
        assert (solved.forcing, solved.applies) == (forcing, iterations) and iterations > 0

    @pytest.mark.parametrize("flat", [True, False])
    def test_a_step_keeps_the_correction_it_moved_along(self, flat, monkeypatch):
        g, rng, P = _setup((8, 12), 3)
        if flat:
            P = Potential.flat(g, P.base)
        record = newton_record(P, 0.1 * random_band_limited(g, rng, max_mode=2))
        formed = []
        correction = solver.newton_correction

        def spying(*args):
            formed.append(correction(*args))
            return formed[-1]

        monkeypatch.setattr(solver, "newton_correction", spying)
        accepted = newton_step(record, 0.5)
        assert len(formed) == 1 and accepted.correction is formed[0]
        delta = formed[0].delta
        trials = [P.with_perturbation(P.perturbation.values + solver._DAMPING**k * delta)
                  for k in range(11)]
        stepped = accepted.potential.perturbation.values
        assert any(np.array_equal(stepped, trial.perturbation.values) for trial in trials)
        assert record.correction is None


class TestFlatPreconditioner:
    def test_symbol_built_once_per_grid_and_base(self):
        g = make_grid(2, [8, 12])
        rng = np.random.default_rng(2)
        base = _random_base(rng, 2)
        target = 0.1 * random_band_limited(g, rng, max_mode=2)
        solver._inverse_flat_symbol.cache_clear()
        for _ in range(3):
            newton_step(newton_record(Potential.flat(g, QuadraticBase(base.matrix.copy())), target), 0.5)
        info = solver._inverse_flat_symbol.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        symbol = solver._inverse_flat_symbol(g, QuadraticBase(base.matrix.copy()))
        assert symbol is solver._inverse_flat_symbol(g, base)
        assert not symbol.flags.writeable
        newton_step(newton_record(Potential.flat(g), target), 0.5)
        assert solver._inverse_flat_symbol.cache_info().misses == 2
        # two separately built identity bases share that one entry
        again = solver._inverse_flat_symbol(g, QuadraticBase(np.eye(2)))
        assert again is solver._inverse_flat_symbol(g, QuadraticBase.identity(2))
        assert solver._inverse_flat_symbol.cache_info().misses == 2

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.integers(1, 3).flatmap(
            lambda dim: st.tuples(*[st.integers(4, 16).map(lambda h: 2 * h)] * dim)
        ),
        kind=st.sampled_from(["identity", "spd", "unimodular"]),
        seed=SEEDS,
    )
    def test_inverts_the_flat_operator(self, shape, kind, seed):
        # random node values carry every mode, the Nyquist planes included,
        # where the discrete cross derivatives vanish
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        if kind == "spd":
            base = _random_base(rng, g.dim)
        elif kind == "unimodular":
            base = _random_unimodular_base(rng, g.dim)
        else:
            base = QuadraticBase.identity(g.dim)
        spectrum = to_spectrum(g, rng.standard_normal(g.shape))
        spectrum[(0,) * g.dim] = 0.0  # a mean-zero field
        flat = solver._linearized_operator(Potential.flat(g, base).hessian_state)
        back = solver._inverse_flat_symbol(g, base) * flat(spectrum)
        assert np.max(np.abs(back - spectrum)) <= 1e-10 * np.max(np.abs(spectrum))


def _operator_matrix(P):
    """The linearization at P on node values, a column per unit field."""
    g = P.grid
    columns = []
    for j in range(g.node_count):
        unit = np.zeros(g.node_count)
        unit[j] = 1.0
        columns.append(linearized_apply(P, ScalarField(g, unit.reshape(g.shape))).values)
    return np.stack([c.ravel() for c in columns], axis=1)


class TestPcgSolve:
    @pytest.mark.parametrize("shape", [(16,), (8, 10), (8, 8, 8)])
    def test_correction_matches_a_dense_solve(self, shape):
        g, rng, P = _setup(shape, 7)
        rhs = rng.standard_normal(g.shape)
        inv_symbol = solver._inverse_flat_symbol(g, P.base)
        got = from_spectrum(
            g, solver._pcg(solver._linearized_operator(P.hessian_state), g, inv_symbol,
                           to_spectrum(g, rhs), 1e-12)[0]
        )
        # the operator restricted to mean-zero fields, in an orthonormal
        # basis of them: the complement of the constants
        q, _ = np.linalg.qr(np.eye(g.node_count) - 1.0 / g.node_count)
        q = q[:, : g.node_count - 1]
        L = _operator_matrix(P)
        ref = q @ np.linalg.solve(q.T @ L @ q, q.T @ rhs.ravel())
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(16,), (8, 10), (8, 8, 8)])
    def test_indefinite_operator_fails_as_on_node_values(self, shape):
        g = make_grid(len(shape), list(shape))
        inv_symbol = solver._inverse_flat_symbol(g, QuadraticBase.identity(g.dim))
        # a diagonal stub: the flat symbol times 1 + |k|^2, negative on the
        # outermost shell, so the solve converges on the rest and then fails
        k2 = 0.0
        for axis in range(g.dim):
            k = np.abs(g.wavenumbers(axis)[: inv_symbol.shape[axis]]) ** 2.0
            k2 = np.add.outer(k2, k) if axis else k
        scale = np.where(k2 == k2.max(), -0.5, 1.0 + k2)
        stub = np.divide(scale, inv_symbol, out=np.zeros_like(k2), where=inv_symbol > 0)
        rhs = np.random.default_rng(0).standard_normal(g.shape)
        with pytest.raises(LinearSolveFailure) as spectral:
            solver._pcg(lambda s: stub * s, g, inv_symbol, to_spectrum(g, rhs), 1e-12)
        with pytest.raises(LinearSolveFailure) as nodal:
            _node_value_pcg(
                lambda v: _diagonal(g, stub, v), lambda v: _diagonal(g, inv_symbol, v),
                rhs, 1e-12,
            )
        assert spectral.value.iterations == nodal.value.iterations > 1
        assert spectral.value.relative_residual == pytest.approx(
            nodal.value.relative_residual, rel=1e-10
        )


def _diagonal(g, multiplier, values):
    """A diagonal Fourier operator on node values, projected to mean zero."""
    axes = tuple(range(g.dim))
    spectrum = multiplier * np.fft.rfftn(values, axes=axes)
    out = np.fft.irfftn(spectrum, s=g.shape, axes=axes)
    return out - out.mean()


def _node_value_pcg(apply_op, precond, rhs, rel_tol):
    """PCG on node values with the mean projected out every iteration:
    the reference the spectral solve must agree with."""
    r = rhs - rhs.mean()
    rhs_norm = np.sqrt(np.mean(r * r))
    x = np.zeros_like(r)
    z = precond(r)
    p = z.copy()
    rz = np.mean(r * z)
    for iteration in range(1, 1001):
        ap = apply_op(p)
        pap = np.mean(p * ap)
        if pap <= 0.0:
            residual = np.sqrt(np.mean(r * r)) / rhs_norm
            raise LinearSolveFailure(iteration, residual, rel_tol)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        r -= r.mean()
        if np.sqrt(np.mean(r * r)) <= rel_tol * rhs_norm:
            return x
        z = precond(r)
        rz_new = np.mean(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveFailure(1000, np.sqrt(np.mean(r * r)) / rhs_norm, rel_tol)
