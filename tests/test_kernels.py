"""Property tests of the pointwise and spectral kernels against numpy oracles.

The closed-form 2x2 and 3x3 Hessian algebra is checked against
numpy.linalg on random SPD stacks; the real-FFT derivatives against the
plain complex-FFT formulation they replace.  Tolerances are fixed beforehand from double
precision: a few ulps of the relevant scale, times the condition number
where the quantity is ill-conditioned.  The screened 3x3 eigen-extremes
have no tolerance: they must equal eigvalsh on every node bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import (
    HessianState,
    NotConvex,
    Potential,
    ScalarField,
    SymMatrixField,
    cofactor,
    hessian,
    make_grid,
    partial,
    potential,
    prescribe_curvature,
    second_divergence,
)
from abreu.grid import triangle_pairs, triangle_to_full
from tests.support import (
    cofactor_oracle,
    eigen_extremes_oracle,
    random_band_limited,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi
TOL = 1e-14

SEEDS = st.integers(0, 2**32 - 1)
GRIDS = st.sampled_from([(16,), (8, 12), (12, 8), (8, 10, 8)])


def _spd_2x2_stack(rng, shape, log_cond, kind):
    """(a, b, c) triangle stack with eigenvalues hi and hi / 10**log_cond per node.

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
    return np.stack([a, b, c])


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
        state = HessianState(H.grid, H.entries)
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
        # cond reaches 1e8, so eigenvalues may sit under the convexity
        # floor: check the closed form itself, past the guard
        err = np.abs(triangle_to_full(state._inverse) - inv_ref)
        assert np.all(err <= inv_tol[..., None, None])


class TestClosedForm3x3:
    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS)
    def test_matches_linalg(self, seed):
        # cofactor-expansion det and adjugate inverse on SPD stacks Q D Q^T
        # with eigenvalues in [0.1, 10], per node relative to numpy.linalg
        g = make_grid(3, [8, 10, 8])
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal(g.shape + (3, 3)))
        d = rng.uniform(0.1, 10.0, g.shape + (3,))
        full = (q * d[..., None, :]) @ np.swapaxes(q, -1, -2)
        state = HessianState(g, SymMatrixField.from_full(g, full).entries)
        full = triangle_to_full(state.hessian)  # the exactly symmetric stack
        det_ref = np.linalg.det(full)
        assert np.all(np.abs(state.det - det_ref) <= 1e-12 * np.abs(det_ref))
        inv_ref = np.linalg.inv(full)
        scale = np.max(np.abs(inv_ref), axis=(-2, -1), keepdims=True)
        err = np.abs(triangle_to_full(state.inverse()) - inv_ref)
        assert np.all(err <= 1e-12 * scale)


def _spd_stack(rng, n, count):
    """(count, n, n) SPD matrices Q D Q^T with eigenvalues in [0.1, 10]."""
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    d = rng.uniform(0.1, 10.0, (count, n))
    return (q * d[:, None, :]) @ np.swapaxes(q, -1, -2)


def _triangle(full):
    """Triangle stack (m, count) of a (count, n, n) symmetric stack."""
    rows, cols = np.array(triangle_pairs(full.shape[-1])).T
    return np.ascontiguousarray(full[:, rows, cols].T)


class TestTriangleInverse:
    """The one closed-form inverse, shared by HessianState and the
    gradient-map inversion."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.sampled_from([1, 2, 3, 4]), count=st.integers(1, 64))
    def test_matches_linalg_inv(self, seed, n, count):
        full = _spd_stack(np.random.default_rng(seed), n, count)
        e = _triangle(full)
        full = triangle_to_full(e)  # the exactly symmetric stack
        inv_ref = np.linalg.inv(full)
        got = triangle_to_full(potential.triangle_inverse(e))
        scale = np.max(np.abs(inv_ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - inv_ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_singular_matrix_is_non_finite_without_warning(self, n):
        # RuntimeWarnings are errors in this suite
        full = _spd_stack(np.random.default_rng(n), n, 3)
        full[1] = 0.0
        inv = potential.triangle_inverse(_triangle(full))
        finite = np.isfinite(inv).all(axis=0)
        assert finite.tolist() == [True, False, True]

    @pytest.mark.parametrize("shape", [(16,), (8, 12), (8, 10, 8), (8, 8, 8, 8)])
    def test_hessian_state_is_bitwise_the_former_formulas(self, shape):
        # the determinant and inverse HessianState held before they moved
        # into the shared function: solve outputs cannot move
        g = make_grid(len(shape), list(shape))
        count = int(np.prod(shape))
        full = _spd_stack(np.random.default_rng(len(shape)), len(shape), count)
        H = SymMatrixField.from_full(g, full.reshape(shape + full.shape[1:]))
        e = H.entries
        if g.dim == 1:
            det, inv = e[0].copy(), 1.0 / e
        elif g.dim == 2:
            a, b, c = e
            det = a * c - b * b
            inv = np.stack([c, -b, a]) / det
        elif g.dim == 3:
            a, b, c, d, f, h = e
            adj = np.stack([d * h - f * f, c * f - b * h, b * f - c * d,
                            a * h - c * c, b * c - a * f, a * d - b * b])
            det = a * adj[0] + b * adj[1] + c * adj[2]
            inv = adj / det
        else:
            det = np.linalg.det(H.to_full())
            inv = SymMatrixField.from_full(g, np.linalg.inv(H.to_full())).entries
        state = HessianState(H.grid, H.entries)
        assert np.array_equal(state.det, det)
        assert np.array_equal(state.inverse(), inv)


class TestOverflowingDeterminant:
    """A Hessian whose determinant overflows at a node is not convex, and
    forming its state raises no floating-point warning (RuntimeWarnings
    are errors in this suite)."""

    @pytest.mark.parametrize("shape", [(8, 10), (8, 8, 8)])
    def test_state_is_not_convex_at_the_first_such_node(self, shape):
        g = make_grid(len(shape), list(shape))
        full = np.broadcast_to(np.eye(g.dim), g.shape + (g.dim, g.dim)).copy()
        full[(1,) * g.dim] *= 1e200  # det 1e400 there
        full[(2,) * g.dim] *= 1e200
        state = HessianState(g, SymMatrixField.from_full(g, full).entries)
        assert np.isinf(state.det[(1,) * g.dim]) and not state.convex
        assert np.isnan(state.min_eigenvalue) and np.isnan(state.max_eigenvalue)
        assert state.worst_node == (1,) * g.dim
        with pytest.raises(NotConvex):
            state.inverse()

    def test_one_dimensional_state_with_an_infinite_entry_is_not_convex(self):
        g = make_grid(1, [8])
        stack = np.ones((1, 8))
        stack[0, 5] = np.inf
        state = HessianState(g, stack)
        assert state.min_eigenvalue == 1.0 and not state.convex
        assert not stack.flags.writeable  # the state took the stack over


def _stack_3x3(rng, shape, kind, log_cond, log_gap):
    """(*shape, 3, 3) symmetric stack of one kind; `log_cond` and `log_gap`
    are read by the kinds they name."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind in ("double", "triple", "constant"):
        # exact: integer a I + b w w^T (eigenvalues a, a, a + b|w|^2),
        # times a power of two
        a = rng.integers(-40, 41, shape).astype(float)
        b = rng.integers(-8, 9, shape).astype(float)
        w = rng.integers(-3, 4, shape + (3,)).astype(float)
        if kind != "double":
            b[...] = 0.0
        if kind == "constant":
            a[...] = rng.integers(-40, 41)
        full = a[..., None, None] * np.eye(3)
        full += b[..., None, None] * w[..., :, None] * w[..., None, :]
        return np.ldexp(full, int(rng.integers(-20, 21)))
    if kind == "conditioned":
        top = rng.uniform(1.0, 2.0, shape + (1,))
        eigs = top * 10.0 ** (-log_cond * rng.uniform(0.0, 1.0, shape + (3,)))
    elif kind in ("near-double", "shared-double"):
        # shared-double: one near-double pair at every node, at the top or
        # the bottom of the spectrum, so eigvalsh nearly ties there at
        # every node while the closed form scatters by up to sqrt(eps) of
        # the spread
        size = shape if kind == "near-double" else ()
        lam = np.broadcast_to(rng.uniform(0.5, 2.0, size), shape)
        near = lam * (1.0 + 10.0**log_gap * rng.uniform(0.5, 1.0, size))
        other = lam + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0, shape)
        eigs = np.stack([lam, near, other], axis=-1)
    elif kind == "shifted":
        q = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2.0, 8.0)
        eigs = q + 10.0 ** rng.uniform(-4.0, 0.0) * rng.standard_normal(shape + (3,))
    else:  # indefinite
        eigs = rng.standard_normal(shape + (3,))
    q, _ = np.linalg.qr(rng.standard_normal(shape + (3, 3)))
    return scale * (q * eigs[..., None, :]) @ np.swapaxes(q, -1, -2)


def _plant_minimum(H, rng, copies):
    """H with the matrix at its min node copied to `copies` random nodes,
    about half of them with the first entry moved by one ulp either way."""
    _, _, worst = eigen_extremes_oracle(H.entries)
    e = H.entries.reshape(6, -1).copy()
    idx = rng.choice(e.shape[1], copies, replace=False)
    e[:, idx] = H.entries[(slice(None),) + worst][:, None]
    nudge = idx[rng.random(copies) < 0.5]
    e[0, nudge] = np.nextafter(e[0, nudge], rng.choice([-np.inf, np.inf], len(nudge)))
    return SymMatrixField(H.grid, e.reshape(H.entries.shape))


def _extremes(state):
    return state.min_eigenvalue, state.max_eigenvalue, state.worst_node


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the stacks handed to numpy.linalg.eigvalsh, while active."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


class TestScreenedExtremes3x3:
    """3D extreme eigenvalues from eigvalsh on the screened candidate
    nodes only: min, max and worst node (with its row-major tie-break)
    equal eigvalsh on every node exactly."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=SEEDS,
        kind=st.sampled_from(
            [
                "conditioned",
                "double",
                "triple",
                "constant",
                "near-double",
                "shared-double",
                "shifted",
                "indefinite",
            ]
        ),
        log_cond=st.floats(0.0, 8.0),
        log_gap=st.floats(-12.0, -6.0),
        copies=st.sampled_from([0, 0, 2, 5]),
    )
    def test_equals_full_eigvalsh(self, seed, kind, log_cond, log_gap, copies):
        g = make_grid(3, [8, 10, 8])
        rng = np.random.default_rng(seed)
        full = _stack_3x3(rng, g.shape, kind, log_cond, log_gap)
        H = SymMatrixField.from_full(g, full)
        if copies:
            H = _plant_minimum(H, rng, copies)
        assert _extremes(HessianState(H.grid, H.entries)) == eigen_extremes_oracle(H.entries)

    def test_smooth_potential_sends_few_nodes(self, eigvalsh_shapes):
        g = make_grid(3, [16, 16, 16])
        P = random_convex_potential(g, np.random.default_rng(3), margin=0.5, max_mode=3)
        eigvalsh_shapes.clear()  # the potential's construction checks its base
        state = P.hessian_state
        (shape,) = eigvalsh_shapes
        assert shape[1:] == (3, 3) and shape[0] < 16**3 // 100
        assert _extremes(state) == eigen_extremes_oracle(state.hessian)

    def test_flat_potential_sends_one_matrix(self, eigvalsh_shapes):
        P = Potential.flat(make_grid(3, [8, 8, 8]))
        eigvalsh_shapes.clear()
        state = P.hessian_state
        assert eigvalsh_shapes == [(1, 3, 3)]
        assert _extremes(state) == eigen_extremes_oracle(state.hessian)

    def test_four_dimensions_stay_on_lapack(self, monkeypatch, eigvalsh_shapes):
        def unused(e):
            raise AssertionError("3x3 screening reached from n = 4")

        monkeypatch.setattr(potential, "_extreme_candidates_3x3", unused)
        g = make_grid(4, [8, 8, 8, 8])
        f = random_band_limited(g, np.random.default_rng(4), max_mode=1, amplitude=0.01)
        P = Potential.flat(g).with_perturbation(f.values)
        eigvalsh_shapes.clear()
        state = P.hessian_state
        assert eigvalsh_shapes == [g.shape + (4, 4)]
        assert _extremes(state) == eigen_extremes_oracle(state.hessian)

    def test_prescribe_iterates_equal_full_eigvalsh(self, monkeypatch):
        # every state built on the way: solver iterates, line-search
        # trials, the solved potential and the metric's potential
        compared = []
        original = HessianState.__post_init__

        def checked(state):
            original(state)
            compared.append(_extremes(state) == eigen_extremes_oracle(state.hessian))

        monkeypatch.setattr(HessianState, "__post_init__", checked)
        g = make_grid(3, [16, 16, 16])
        x1, x2, x3 = (TWO_PI * c for c in g.coordinate_arrays())
        s = (
            0.037 * np.cos(x1 + 2.55)
            + 0.037 * np.cos(x2 - x3 + 2.86)
            + 0.021 * np.cos(x1 + x2 + x3 + 3.26)
            + 0.023 * np.cos(x2 + 2.86)
        )
        metric, trace = prescribe_curvature(ScalarField(g, s - s.mean()))
        assert metric.is_positive()
        assert len(compared) >= 2 + sum(step.newton_iterations for step in trace.steps)
        assert all(compared)


class TestCofactor:
    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(16,), (8, 12), (8, 10, 8)]), seed=SEEDS)
    def test_matches_minors(self, shape, seed):
        # det H * H^-1 against signed minors on SPD stacks of condition
        # number at most a few tens, spread over four decades of scale
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        n = g.dim
        b = rng.standard_normal(g.shape + (n, n))
        full = b @ np.swapaxes(b, -1, -2) + n * np.eye(n)
        full *= 10.0 ** rng.uniform(-2.0, 2.0)
        got = cofactor(SymMatrixField.from_full(g, full)).to_full()
        ref = cofactor_oracle(full)
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)


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
        entries = np.random.default_rng(seed).standard_normal((m,) + g.shape)
        M = SymMatrixField(g, entries)
        acc = np.zeros(g.shape, dtype=complex)
        for i in range(g.dim):
            for j in range(i, g.dim):
                comp = M.component(i, j)
                weight = 1.0 if i == j else 2.0
                mult = _reference_multiplier(g.shape, _pair_orders(g.dim, i, j))
                acc += weight * mult * np.fft.fftn(comp - comp.mean())
        assert _close(second_divergence(M).values, np.fft.ifftn(acc).real)
