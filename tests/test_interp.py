"""Blocked off-grid evaluation of trigonometric interpolants.

`TrigInterpolant.partials` is checked against a direct sum over every
Fourier mode, written here independently of the package, at random
off-grid points and at point counts around the evaluation block size,
and splitting the points at a block edge must not change a bit.
Stacked partials are checked against interpolants of the spectral
partials themselves, which pins the odd/even Nyquist convention, the
split Nyquist mode cos(pi N x) is checked against closed forms, and
fields interpolated together against each field alone, bit for bit.  The
tolerance is a few hundred ulps of the sum of the absolute mode terms.
"""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import ScalarField, TrigInterpolant, interpolate, make_grid, partial
from abreu.grid import (
    _BLOCK_BYTES,
    _BLOCK_MIN_POINTS,
    _SPAN_BYTES,
    interpolate_fields,
    partial_orders,
)
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


def _stack_columns(grid, nfields):
    # a one-column stack gets a zero column
    return max(2, (grid.node_count // grid.resolution[0]) * nfields)


def _table_bytes(grid):
    """Bytes per point of the full-band tables, one per axis, and of their
    complex scratch."""
    return 8 * (sum(grid.resolution) + 2 * (max(grid.resolution) // 2))


def _block_points(grid, nfields):
    return max(_BLOCK_MIN_POINTS, min(_BLOCK_BYTES // (8 * _stack_columns(grid, nfields)),
                                      _SPAN_BYTES // _table_bytes(grid)))


def _span_points(grid, block):
    """Points per span of whole blocks whose tables, one per axis over the
    full band, and their scratch stay within `_SPAN_BYTES` together."""
    return block * max(1, _SPAN_BYTES // (block * _table_bytes(grid)))


def _full_band(interp):
    """Whether the interpolant keeps every mode, so that the stack has the
    width `_stack_columns` assumes."""
    return interp.band == tuple(n // 2 for n in interp.grid.resolution)


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
        interp = TrigInterpolant(ScalarField(g, values))
        assert _full_band(interp)  # so the counts straddle the real block edge
        got = interp.partials(pts, orders)
        assert got.shape == (npts, len(orders))
        for field, axes in enumerate(orders):
            ref, scale = _mode_sum(values, pts, axes)
            assert np.max(np.abs(got[:, field] - ref)) <= TOL * scale

    @pytest.mark.parametrize("count", ["below", "above", "several"])
    def test_point_floor_sets_the_block_of_wide_stacks(self, count):
        # three first partials at 16^3: the byte rule alone gives 42 points
        g = make_grid(3, [16, 16, 16])
        orders = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert _BLOCK_BYTES // (8 * _stack_columns(g, 3)) < _BLOCK_MIN_POINTS
        block = _block_points(g, len(orders))
        npts = {"below": block - 1, "above": block + 1}.get(count, 3 * block + 5)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(g.shape)
        pts = rng.uniform(-1.0, 2.0, (npts, g.dim))
        interp = TrigInterpolant(ScalarField(g, values))
        assert _full_band(interp)
        got = interp.partials(pts, orders)
        for field, axes in enumerate(orders):
            ref, scale = _mode_sum(values, pts, axes)
            assert np.max(np.abs(got[:, field] - ref)) <= TOL * scale

    @pytest.mark.parametrize(
        "shape, orders",
        [((16, 16), [(0, 0), (1, 0), (0, 2)]),
         ((16, 16, 16), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
         ((16, 16, 16), [(0, 0, 0)]),
         ((16, 16, 16), list(partial_orders(3, 2))),
         ((64,), [(0,)]),
         ((64,), [(0,), (1,)])],
        ids=["2d-full-band", "3d-gradient", "3d-value", "3d-hessian", "1d-value",
             "1d-value-and-slope"],
    )
    def test_blocking_changes_no_bit(self, shape, orders):
        # a point's partials do not depend on the block or span it falls in:
        # one call equals two calls split at a block or span edge or one
        # point either side, one-point tails included, and one call per point;
        # in 1D too, where one field's first-axis product would otherwise be
        # a matrix-vector product
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(11)
        interp = TrigInterpolant(ScalarField(g, rng.standard_normal(g.shape)))
        assert _full_band(interp)
        block = _block_points(g, len(orders))
        span = _span_points(g, block)
        # 2D and 3D stacks share each span's tables among blocks; a 1D
        # block's tables fill a span
        assert span > block if g.dim > 1 else span == block
        pts = rng.uniform(-1.0, 2.0, (2 * span + 1, g.dim))  # a one-point tail
        whole = interp.partials(pts, orders)
        for split in sorted({block - 1, block, block + 1, span - 1, span, span + 1,
                             2 * span}):
            halves = [interp.partials(pts[:split], orders),
                      interp.partials(pts[split:], orders)]
            assert np.array_equal(whole, np.concatenate(halves))
        for i in (0, block, span - 1, 2 * span):
            assert np.array_equal(whole[i : i + 1], interp.partials(pts[i : i + 1], orders))

    def test_no_points(self):
        g = make_grid(3, [8, 8, 8])
        f = ScalarField(g, np.random.default_rng(0).standard_normal(g.shape))
        got = TrigInterpolant(f).partials(np.empty((0, 3)), [(1, 0, 0), (0, 0, 2)])
        assert got.shape == (0, 2)

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
        # on a 1D grid a point is a scalar or a one-entry vector
        g1 = make_grid(1, [16])
        f1 = ScalarField(g1, np.random.default_rng(1).standard_normal(g1.shape))
        for point in (0.3, [0.3], np.float64(0.3)):
            assert isinstance(TrigInterpolant(f1).evaluate(point), float)
            assert isinstance(interpolate(f1, point), float)
        assert interpolate(f1, 0.3) == interpolate(f1, [0.3])

    def test_1d_vector_holds_one_point_per_entry(self):
        # on a 1D grid a (P,) vector is P points, read as the (P, 1) column
        g = make_grid(1, [16])
        f = ScalarField(g, np.random.default_rng(2).standard_normal(g.shape))
        x = np.array([0.1, 0.2, 0.3])
        got = f.interpolant.evaluate(x)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.array_equal(got, f.interpolant.evaluate(x[:, None]))
        partials = f.interpolant.partials(x[:2], [(1,)])
        assert partials.shape == (2, 1)
        assert np.array_equal(partials, f.interpolant.partials(x[:2, None], [(1,)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_raise(self, bad):
        g = make_grid(2, [8, 8])
        f = ScalarField(g, np.random.default_rng(0).standard_normal(g.shape))
        interp = TrigInterpolant(f)
        for point in ([bad, 0.2], [0.3, bad]):
            with pytest.raises(ValueError, match="finite"):
                interp.evaluate(point)
            with pytest.raises(ValueError, match="finite"):
                interp.evaluate([[0.1, 0.4], point])
            with pytest.raises(ValueError, match="finite"):
                interp.partials([point], [(1, 0), (0, 2)])
            with pytest.raises(ValueError, match="finite"):
                interpolate(f, point)

    @pytest.mark.parametrize("orders", [[], ()])
    def test_empty_request_raises(self, orders):
        # the block size used to divide by the zero columns of the stack
        g = make_grid(2, [16, 16])
        f = ScalarField(g, np.random.default_rng(0).standard_normal(g.shape))
        with pytest.raises(ValueError, match="no partials requested"):
            TrigInterpolant(f).partials([[0.3, 0.7]], orders)


def _all_orders(dim):
    """Every per-axis multi-index of total order at most 2."""
    return [o for o in itertools.product(range(3), repeat=dim) if sum(o) <= 2]


class TestResolvedBand:
    """Each axis keeps the modes up to its band, the largest |k_a| of a
    coefficient above the rounding plateau eps * sup|f|; a field with
    Nyquist content above the plateau keeps the full basis."""

    def test_closed_form_product(self):
        g = make_grid(2, [32, 32])
        f = ScalarField.from_function(
            g, lambda x, y: np.cos(3 * TWO_PI * x) * np.sin(2 * TWO_PI * y)
        )
        interp = TrigInterpolant(f)
        assert interp.band == (3, 2)
        pts = np.random.default_rng(5).uniform(-1.0, 2.0, (200, 2))
        orders = _all_orders(2)
        got = interp.partials(pts, orders)
        wx, wy = 3 * TWO_PI, 2 * TWO_PI
        for field, (a, b) in enumerate(orders):
            ref = (wx**a * np.cos(wx * pts[:, 0] + a * np.pi / 2)
                   * wy**b * np.sin(wy * pts[:, 1] + b * np.pi / 2))
            assert np.max(np.abs(got[:, field] - ref)) <= TOL * wx**a * wy**b

    @pytest.mark.parametrize("shape", [(16,), (16, 16), (8, 8, 8)])
    def test_zero_field(self, shape):
        g = make_grid(len(shape), list(shape))
        interp = TrigInterpolant(ScalarField.zeros(g))
        assert interp.band == (0,) * g.dim
        pts = np.random.default_rng(1).uniform(-1.0, 2.0, (9, g.dim))
        assert np.array_equal(interp.partials(pts, _all_orders(g.dim)),
                              np.zeros((9, len(_all_orders(g.dim)))))

    @pytest.mark.parametrize("shape", [(16,), (16, 16), (8, 8, 8)])
    def test_random_fields_keep_the_full_band(self, shape):
        g = make_grid(len(shape), list(shape))
        values = np.random.default_rng(2).standard_normal(g.shape)
        assert _full_band(TrigInterpolant(ScalarField(g, values)))

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.lists(st.sampled_from(range(8, 33, 2)), min_size=1, max_size=3),
        seed=SEEDS,
    )
    def test_matches_mode_sum_on_resolved_fields(self, shape, seed):
        # every mode varies along every axis, so each partial has signal at
        # the scale the tolerance is relative to; the nodal noise puts a
        # rounding plateau under the modes, which the band drops
        g = make_grid(len(shape), shape)
        rng = np.random.default_rng(seed)
        xs = g.coordinate_arrays()
        values = np.zeros(g.shape)
        amplitudes = 10.0 ** rng.uniform(-12.0, 0.0, rng.integers(0, 4))
        for amplitude in [1.0, *amplitudes]:
            k = [rng.integers(1, n // 4 + 1) * rng.choice([-1, 1]) for n in shape]
            phase = sum(ka * x for ka, x in zip(k, xs))
            values += amplitude * np.cos(TWO_PI * phase + rng.uniform(0.0, TWO_PI))
        sup = np.max(np.abs(values))
        values += np.finfo(float).eps * sup * rng.uniform(-1.0, 1.0, g.shape)
        pts = rng.uniform(-1.0, 2.0, (20, g.dim))
        orders = _all_orders(g.dim)
        got = TrigInterpolant(ScalarField(g, values)).partials(pts, orders)
        for field, axes in enumerate(orders):
            ref, scale = _mode_sum(values, pts, axes)
            assert np.max(np.abs(got[:, field] - ref)) <= TOL * scale
            if sum(axes) == 0:
                assert np.max(np.abs(got[:, field] - ref)) <= 1e-14 * (1.0 + sup)


def _nyquist_partial(n, x, order):
    """d^order/dx^order of the split Nyquist mode cos(pi n x), with odd
    orders zeroed as `partial` does."""
    if order % 2 == 1:
        return np.zeros_like(x)
    return (-((np.pi * n) ** 2)) ** (order // 2) * np.cos(np.pi * n * x)


def _sin_partial(x, order):
    """d^order/dx^order of sin(2 pi x)."""
    return TWO_PI**order * np.sin(TWO_PI * x + order * np.pi / 2)


class TestNyquistMode:
    """The split Nyquist mode, the one entry the real cos/sin basis carries
    over unchanged, against closed forms at the smallest grids."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_cos_nyquist(self, dim, order):
        g = make_grid(dim, 8)
        f = ScalarField.from_function(g, lambda *xs: np.cos(8 * np.pi * xs[-1]))
        pts = np.random.default_rng(order).uniform(-1.0, 2.0, (50, dim))
        orders = (0,) * (dim - 1) + (order,)
        got = TrigInterpolant(f).partials(pts, [orders])[:, 0]
        ref = _nyquist_partial(8, pts[:, -1], order)
        assert np.max(np.abs(got - ref)) <= TOL * (8 * np.pi) ** order

    @pytest.mark.parametrize("dim,a,b", [(2, 0, 1), (2, 1, 0), (3, 2, 0), (3, 1, 2)])
    @pytest.mark.parametrize("order_a,order_b",
                             [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
    def test_cos_nyquist_times_sin(self, dim, a, b, order_a, order_b):
        g = make_grid(dim, 8)
        f = ScalarField.from_function(
            g, lambda *xs: np.cos(8 * np.pi * xs[a]) * np.sin(TWO_PI * xs[b])
        )
        pts = np.random.default_rng(10 * a + b).uniform(-1.0, 2.0, (50, dim))
        orders = [0] * dim
        orders[a], orders[b] = order_a, order_b
        got = TrigInterpolant(f).partials(pts, [tuple(orders)])[:, 0]
        ref = _nyquist_partial(8, pts[:, a], order_a) * _sin_partial(pts[:, b], order_b)
        assert np.max(np.abs(got - ref)) <= TOL * (8 * np.pi) ** order_a * TWO_PI**order_b


class TestFieldsTogether:
    """`grid.interpolate_fields` evaluates several fields at the same points
    with one table build per span, each field on its own band's rows of the
    widest table: bitwise each field's own evaluation."""

    @settings(max_examples=25, deadline=None)
    @given(shape=st.sampled_from([(16,), (8, 12), (48, 48), (8, 10, 8)]), seed=SEEDS,
           count=st.sampled_from([1, 2, 63, 700, 1201]))
    def test_each_column_is_the_field_alone(self, shape, seed, count):
        # a full-band field, a resolved one, a constant and a pure mode:
        # bands from N/2 down to 0, so every narrower table is a prefix of
        # a wider one
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        x = g.coordinate_arrays()
        fields = [
            ScalarField(g, rng.standard_normal(g.shape)),
            random_convex_potential(g, rng, margin=0.5, max_mode=2).perturbation,
            ScalarField(g, np.full(g.shape, 0.25)),
            ScalarField(g, np.cos(TWO_PI * 3 * x[-1])),
        ]
        order = rng.permutation(len(fields))
        fields = [fields[i] for i in order]
        pts = rng.uniform(-1.0, 2.0, (count, g.dim))
        together = interpolate_fields(fields, pts)
        assert together.shape == (count, len(fields))
        for column, f in zip(together.T, fields):
            assert column.tobytes() == f.interpolant.evaluate(pts).tobytes()

    def test_checks_fields_and_points(self):
        g, h = make_grid(2, [8, 8]), make_grid(1, 8)
        with pytest.raises(ValueError, match="no fields"):
            interpolate_fields([], [[0.1, 0.2]])
        with pytest.raises(ValueError, match="dimensions"):
            interpolate_fields([ScalarField.zeros(g), ScalarField.zeros(h)], [[0.1, 0.2]])
        with pytest.raises(ValueError, match="finite"):
            interpolate_fields([ScalarField.zeros(g)], [[np.nan, 0.2]])


class TestConcurrentCalls:
    def test_threads_get_what_one_thread_gets(self):
        # each call builds its tables in a buffer of its own: eight threads
        # evaluating at once, switching as often as the interpreter allows,
        # each get bitwise what one thread gets, on one interpolant's
        # partials and on several fields sharing one table build
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(4)
        fields = [ScalarField(g, rng.standard_normal(g.shape)) for _ in range(4)]
        points = [rng.uniform(-1.0, 2.0, (700 + 111 * i, 2)) for i in range(5)]
        orders = [(0, 0), (1, 0)]
        calls = [lambda f=f, x=x: f.interpolant.partials(x, orders)
                 for f, x in zip(fields, points)]
        calls.append(lambda: interpolate_fields(fields[:3], points[4]))
        expected = [call() for call in calls]
        wrong = []

        def evaluate(i):
            for _ in range(20):
                if not np.array_equal(calls[i](), expected[i]):
                    wrong.append(i)

        threads = [threading.Thread(target=evaluate, args=(i % len(calls),))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestCallMemory:
    """One call's tables and their scratch hold at most max(_SPAN_BYTES,
    _BLOCK_MIN_POINTS t) + t bytes, t = 8 (sum N_a + max N_a) the bytes of
    one point's tables and scratch, and the call frees them when it
    returns: no call keeps memory for the next."""

    @pytest.mark.parametrize("shape, count", [((1024,), 2000), ((4096,), 300),
                                              ((32, 32, 32), 5000), ((256, 256), 3000)])
    def test_one_call_frees_its_bounded_tables(self, shape, count):
        # by _BLOCK_BYTES alone, a narrow 1D stack's block would hold 16384
        # points' tables: 256 MiB at N = 1024
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(5)
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert _full_band(f.interpolant)
        orders = [(0,) * g.dim, (1,) + (0,) * (g.dim - 1)]
        pts = rng.uniform(-1.0, 2.0, (count, g.dim))
        f.interpolant.partials(pts[:3], orders)  # builds the kept stack
        t = _table_bytes(g)
        tables = max(_SPAN_BYTES, _BLOCK_MIN_POINTS * t) + t
        # a block's first-axis product holds _BLOCK_BYTES, or
        # _BLOCK_MIN_POINTS points of a wider stack, and each later axis's
        # product at most half the one before it
        products = 2 * max(_BLOCK_BYTES, 8 * _BLOCK_MIN_POINTS * _stack_columns(g, 2))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = f.interpolant.partials(pts, orders)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= tables + out.nbytes + products
        # the returned array's own object and its data are all that stay
        assert 0 <= after - before - out.nbytes <= 4096


class TestEvaluationMemory:
    def test_gradient_and_hessian_at_all_nodes_stays_small(self):
        # unblocked, the first-axis GEMM alone would hold a (4096, 256 x 6)
        # float64 temporary, about 50 MB
        g = make_grid(3, [16, 16, 16])
        P = random_convex_potential(g, np.random.default_rng(3), margin=0.5)
        P.perturbation.interpolant  # built before the measurement, as it is kept
        x = g.node_points()
        tracemalloc.start()
        try:
            grad = P.gradient_at(x)
            hess = P.hessian_at(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grad.shape == (4096, 3) and hess.shape == (6, 4096)
        assert peak < 3 * 2**20


class TestFractionalPart:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-2.0, 2.0),
                              st.sampled_from([0.0, -0.0, 1.0, -1.0, -5e-324, 1e300,
                                               -1e300, -2.0**-60])),
                    min_size=1, max_size=64))
    def test_floor_difference_is_mod_bit_for_bit(self, values):
        # the interpolant's tables wrap the points by x - floor(x)
        x = np.array(values)
        assert (x - np.floor(x)).tobytes() == np.mod(x, 1.0).tobytes()
