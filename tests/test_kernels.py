"""Property tests of the pointwise and spectral kernels against numpy oracles.

The closed-form 2x2 Hessian algebra is checked against numpy.linalg on
random SPD stacks; the real-FFT derivatives against the plain complex-FFT
formulation they replace.  Tolerances are fixed beforehand from double
precision: a few ulps of the relevant scale, times the condition number
where the quantity is ill-conditioned.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import (
    HessianState,
    ScalarField,
    SymMatrixField,
    hessian,
    make_grid,
    partial,
    second_divergence,
)

TWO_PI = 2.0 * np.pi
TOL = 1e-14

SEEDS = st.integers(0, 2**32 - 1)
GRIDS = st.sampled_from([(16,), (8, 12), (12, 8), (8, 10, 8)])


def _spd_2x2_stack(rng, shape, log_cond, kind):
    """(a, b, c) entries with eigenvalues hi and hi / 10**log_cond per node.

    hi varies by at most a factor 2 across the stack, so one scale bounds
    the rounding of every node.
    """
    hi = 10.0 ** rng.uniform(-2.0, 2.0) * rng.uniform(1.0, 2.0, shape)
    lo = hi / 10.0**log_cond
    if kind == "equal":
        lo = hi
    theta = rng.uniform(0.0, np.pi, shape)
    if kind == "diagonal":
        theta = np.where(rng.random(shape) < 0.5, 0.0, 0.5 * np.pi)
    cs, sn = np.cos(theta), np.sin(theta)
    a = hi * cs * cs + lo * sn * sn
    c = hi * sn * sn + lo * cs * cs
    b = (hi - lo) * sn * cs
    if kind == "diagonal":
        b = np.zeros(shape)
    return np.stack([a, b, c], axis=-1)


class TestClosedForm2x2:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=SEEDS,
        log_cond=st.floats(0.0, 8.0),
        kind=st.sampled_from(["general", "diagonal", "equal"]),
    )
    def test_matches_linalg(self, seed, log_cond, kind):
        g = make_grid(2, [8, 8])
        H = SymMatrixField(
            g, _spd_2x2_stack(np.random.default_rng(seed), g.shape, log_cond, kind)
        )
        state = HessianState(H)
        full = H.to_full()
        eigs = np.linalg.eigvalsh(full)
        scale = eigs[..., -1]

        tol = TOL * scale.max()
        assert abs(state.min_eigenvalue - eigs[..., 0].min()) <= tol
        assert eigs[state.worst_node][0] <= eigs[..., 0].min() + 2 * tol
        assert abs(state.max_eigenvalue - eigs[..., -1].max()) <= tol

        det_ref = np.linalg.det(full)
        assert np.all(np.abs(state.det - det_ref) <= TOL * scale**2)

        inv_ref = np.linalg.inv(full)
        cond = eigs[..., -1] / eigs[..., 0]
        inv_tol = 10 * TOL * cond / eigs[..., 0]
        err = np.abs(state.inverse(0.0).to_full() - inv_ref)
        assert np.all(err <= inv_tol[..., None, None])


def _reference_multiplier(shape, orders):
    """Complex full-spectrum multiplier; odd orders zero their Nyquist mode."""
    mult = np.ones((1,) * len(shape), dtype=complex)
    for axis, (n, order) in enumerate(zip(shape, orders)):
        k = np.rint(np.fft.fftfreq(n) * n)
        factor = (1j * TWO_PI * k) ** order
        if order % 2 == 1:
            factor[n // 2] = 0.0
        axis_shape = [1] * len(shape)
        axis_shape[axis] = n
        mult = mult * factor.reshape(axis_shape)
    return mult


def _reference_partial(values, orders):
    mult = _reference_multiplier(values.shape, orders)
    return np.fft.ifftn(np.fft.fftn(values) * mult).real


def _pair_orders(dim, i, j):
    orders = [0] * dim
    orders[i] += 1
    orders[j] += 1
    return orders


def _close(actual, expected):
    # rounding of either transform scales with the largest output value
    scale = max(1.0, float(np.max(np.abs(expected))))
    return np.max(np.abs(actual - expected)) <= TOL * scale


class TestRealFFTDerivatives:
    @settings(max_examples=30, deadline=None)
    @given(shape=GRIDS, seed=SEEDS, data=st.data())
    def test_partial(self, shape, seed, data):
        g = make_grid(len(shape), list(shape))
        orders = data.draw(
            st.lists(st.integers(0, 4), min_size=g.dim, max_size=g.dim).filter(
                lambda o: 0 < sum(o) <= 4
            )
        )
        values = np.random.default_rng(seed).standard_normal(g.shape)
        got = partial(ScalarField(g, values), orders).values
        assert _close(got, _reference_partial(values, orders))

    @settings(max_examples=20, deadline=None)
    @given(shape=GRIDS, seed=SEEDS)
    def test_hessian(self, shape, seed):
        g = make_grid(len(shape), list(shape))
        values = np.random.default_rng(seed).standard_normal(g.shape)
        H = hessian(ScalarField(g, values))
        for i in range(g.dim):
            for j in range(i, g.dim):
                ref = _reference_partial(values, _pair_orders(g.dim, i, j))
                assert _close(H.component(i, j), ref)

    @settings(max_examples=20, deadline=None)
    @given(shape=GRIDS, seed=SEEDS)
    def test_second_divergence(self, shape, seed):
        g = make_grid(len(shape), list(shape))
        m = g.dim * (g.dim + 1) // 2
        entries = np.random.default_rng(seed).standard_normal(g.shape + (m,))
        M = SymMatrixField(g, entries)
        acc = np.zeros(g.shape, dtype=complex)
        for i in range(g.dim):
            for j in range(i, g.dim):
                comp = M.component(i, j)
                weight = 1.0 if i == j else 2.0
                mult = _reference_multiplier(g.shape, _pair_orders(g.dim, i, j))
                acc += weight * mult * np.fft.fftn(comp - comp.mean())
        assert _close(second_divergence(M).values, np.fft.ifftn(acc).real)
