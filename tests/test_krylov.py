"""The Krylov apply on raw component-first arrays.

One apply of psi -> (u^ia psi_ab u^bj)_ij is a batched Hessian, the
congruence with the potential's cached weights and a batched second
divergence.  It is checked against the full-matrix formulation in
tests.support (h psi h by matrix products) on random convex potentials
over non-identity bases; the public `hessian` and `second_divergence`,
whose triangle stacks are the kernels' own layout, against the kernels
and a per-component reference bit for bit; and one apply against its
transform budget.
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
    functional_second_derivative,
    hessian,
    make_grid,
    second_divergence,
    solver,
)
from abreu.grid import (
    fourier_multiplier,
    hessian_stack,
    second_divergence_stack,
    triangle_pairs,
)
from tests.support import (
    functional_second_derivative_oracle,
    linearized_apply_oracle,
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
    probe = HessianState(hessian(f))
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
        got = solver._linearized_operator(P)(psi)
        ref = linearized_apply_oracle(P, psi)
        assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(shape=GRIDS, seed=SEEDS, t=st.floats(0.0, 1.0))
    def test_functional_second_derivative(self, shape, seed, t):
        g, rng, P0 = _setup(shape, seed)
        P1 = _random_potential(g, rng, P0.base)
        got = functional_second_derivative(P0, P1, t)
        ref = functional_second_derivative_oracle(P0, P1, t)
        assert ref > 0.0
        assert abs(got - ref) <= REL_TOL * ref

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8)])
    def test_repeated_applies_are_bitwise_equal(self, shape):
        g, rng, P = _setup(shape, 11)
        psi = rng.standard_normal(g.shape)
        first = solver._linearized_operator(P)(psi)
        again = solver._linearized_operator(P)(psi)
        assert np.array_equal(first, again)
        assert np.array_equal(solver._linearized_operator(P)(psi), first)


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
        assert np.array_equal(got, hessian_stack(g, values))

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
        assert np.array_equal(got, second_divergence_stack(g, weighted))


class TestSecondDivergenceStack:
    def test_centers_the_callers_stack_in_place(self):
        g = make_grid(2, [8, 12])
        rng = np.random.default_rng(5)
        stack = 1.0 + rng.standard_normal((3,) + g.shape)
        original = stack.copy()
        out = second_divergence_stack(g, stack)
        assert np.array_equal(stack, np.stack([c - c.mean() for c in original]))
        assert np.array_equal(out, second_divergence_stack(g, original.copy()))

    def test_rejects_a_read_only_stack(self):
        g = make_grid(1, [16])
        stack = np.ones((1, 16))
        stack.setflags(write=False)
        with pytest.raises(ValueError):
            second_divergence_stack(g, stack)


class TestTransformBudget:
    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8)])
    def test_one_apply_is_two_forward_and_two_inverse(self, shape, monkeypatch):
        g, rng, P = _setup(shape, 3)
        apply = solver._linearized_operator(P)
        psi = rng.standard_normal(g.shape)
        calls = Counter()
        for name in ("rfftn", "irfftn"):

            def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        apply(psi)
        assert calls == {"rfftn": 2, "irfftn": 2}


class TestFlatPreconditioner:
    def test_symbol_built_once_per_grid_and_base(self):
        g = make_grid(2, [8, 12])
        matrix = _random_base(np.random.default_rng(2), 2).matrix
        solver._inverse_flat_symbol.cache_clear()
        psi = np.random.default_rng(3).standard_normal(g.shape)
        outs = [
            solver._flat_preconditioner(g, QuadraticBase(matrix.copy()))(psi)
            for _ in range(3)
        ]
        info = solver._inverse_flat_symbol.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert all(np.array_equal(out, outs[0]) for out in outs)
        symbol = solver._inverse_flat_symbol(g, QuadraticBase(matrix))
        assert not symbol.flags.writeable
        solver._flat_preconditioner(g, QuadraticBase.identity(2))
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
        psi = rng.standard_normal(g.shape)
        psi -= psi.mean()
        flat = solver._linearized_operator(Potential.flat(g, base))
        back = solver._flat_preconditioner(g, base)(flat(psi))
        assert np.max(np.abs(back - psi)) <= 1e-10 * np.max(np.abs(psi))
