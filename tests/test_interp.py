"""Blocked off-grid evaluation of trigonometric interpolants.

`TrigInterpolant.partials` is checked against a direct sum over every
Fourier mode, written here independently of the package, at random
off-grid points and at point counts around the evaluation block size.
Stacked partials are checked against interpolants of the spectral
partials themselves, which pins the odd/even Nyquist convention.  The
tolerance is a few hundred ulps of the sum of the absolute mode terms.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import ScalarField, TrigInterpolant, make_grid, partial
from abreu.grid import _BLOCK_BYTES
from abreu.legendre import _GradientEvaluator
from tests.support import random_convex_potential

TWO_PI = 2.0 * np.pi
TOL = 1e-12

SEEDS = st.integers(0, 2**32 - 1)
GRIDS = st.sampled_from([(16,), (8, 12), (12, 8), (8, 10, 8)])
ORDERS_UP_TO_2 = [(0,), (1,), (2,)]


def _axis_basis(n, x, order):
    """d^order/dx^order of each basis function along one axis, (P, n)."""
    k = np.rint(np.fft.fftfreq(n) * n)
    basis = np.exp(1j * TWO_PI * np.outer(x, k))
    basis[:, n // 2] = np.cos(np.pi * n * x)
    factor = (1j * TWO_PI * k) ** order
    if order % 2 == 1:
        factor[n // 2] = 0.0
    return basis * factor, np.abs(factor)


def _mode_sum(values, points, orders):
    """Partial `orders` of the interpolant at `points`, summed mode by mode.

    Returns the values and the sum of the absolute mode terms' bound
    sum_k |c_k| |factor_k|, the scale the tolerance is relative to.
    """
    coeffs = np.fft.fftn(values) / values.size
    total = np.broadcast_to(coeffs, (len(points),) + coeffs.shape)
    weight = np.abs(coeffs)
    for axis, order in enumerate(orders):
        basis, factor = _axis_basis(values.shape[axis], points[:, axis], order)
        shape = [1] * values.ndim
        shape[axis] = -1
        total = total * basis.reshape((len(points),) + tuple(shape))
        weight = weight * factor.reshape(shape)
    return total.reshape(len(points), -1).sum(axis=1).real, float(weight.sum())


def _block_points(grid, nfields):
    return _BLOCK_BYTES // (16 * (grid.node_count // grid.resolution[0]) * nfields)


def _orders_for(dim):
    """Per-axis multi-indices of total order at most 2."""
    return (
        st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
        .filter(lambda o: sum(o) <= 2)
        .map(tuple)
    )


class TestBlockedEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=GRIDS,
        seed=SEEDS,
        count=st.sampled_from(["one", "below", "above", "several"]),
        data=st.data(),
    )
    def test_matches_mode_sum(self, shape, seed, count, data):
        g = make_grid(len(shape), list(shape))
        orders = data.draw(st.lists(_orders_for(g.dim), min_size=1, max_size=4))
        block = _block_points(g, len(orders))
        npts = {"one": 1, "below": block - 1, "above": block + 1}.get(
            count, 3 * block + 5
        )
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(g.shape)
        pts = rng.uniform(-1.0, 2.0, (npts, g.dim))
        got = TrigInterpolant(ScalarField(g, values)).partials(pts, orders)
        assert got.shape == (npts, len(orders))
        for field, axes in enumerate(orders):
            ref, scale = _mode_sum(values, pts, axes)
            assert np.max(np.abs(got[:, field] - ref)) <= TOL * scale

    @settings(max_examples=20, deadline=None)
    @given(shape=GRIDS, seed=SEEDS)
    def test_stacked_partials_match_partial_fields(self, shape, seed):
        g = make_grid(len(shape), list(shape))
        eye = np.eye(g.dim, dtype=int)
        orders = [tuple(r) for r in eye] + [
            tuple(eye[i] + eye[j]) for i in range(g.dim) for j in range(i, g.dim)
        ]
        rng = np.random.default_rng(seed)
        f = ScalarField(g, rng.standard_normal(g.shape))
        pts = rng.uniform(0.0, 1.0, (37, g.dim))
        got = TrigInterpolant(f).partials(pts, orders)
        for field, axes in enumerate(orders):
            ref = TrigInterpolant(partial(f, axes)).evaluate(pts)
            _, scale = _mode_sum(f.values, pts, axes)
            assert np.max(np.abs(got[:, field] - ref)) <= TOL * scale

    @settings(max_examples=20, deadline=None)
    @given(shape=GRIDS, seed=SEEDS)
    def test_reproduces_node_values(self, shape, seed):
        g = make_grid(len(shape), list(shape))
        values = np.random.default_rng(seed).standard_normal(g.shape)
        got = TrigInterpolant(ScalarField(g, values)).evaluate(g.node_points())
        _, scale = _mode_sum(values, g.node_points()[:1], (0,) * g.dim)
        assert np.max(np.abs(got - values.ravel())) <= TOL * scale

    def test_single_point_gives_float(self):
        g = make_grid(2, [8, 8])
        f = ScalarField(g, np.random.default_rng(0).standard_normal(g.shape))
        val = TrigInterpolant(f).evaluate([0.3, 0.7])
        assert isinstance(val, float)


class TestEvaluationMemory:
    def test_gradient_and_hessian_at_all_nodes_stays_small(self):
        # unblocked, the first-axis GEMM alone would hold a (4096, 256 x 6)
        # complex temporary, about 100 MB
        g = make_grid(3, [16, 16, 16])
        P = random_convex_potential(g, np.random.default_rng(3), margin=0.5)
        ev = _GradientEvaluator(P)
        x = g.node_points()
        tracemalloc.start()
        try:
            grad = ev.grad_u(x)
            hess = ev.hess_u(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grad.shape == (4096, 3) and hess.shape == (4096, 3, 3)
        assert peak < 3 * 2**20
