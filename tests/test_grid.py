"""Grid construction and spectral calculus."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from abreu import (
    PeriodicGrid,
    Potential,
    QuadraticBase,
    ScalarField,
    SymMatrixField,
    gradient,
    hessian,
    interpolate,
    make_grid,
    mean,
    partial,
    periodicity_defect,
    project_mean_zero,
    second_divergence,
    sup_norm,
)
from abreu import functional_value, grid
from abreu.grid import (
    MEAN_TOLERANCE,
    from_spectrum,
    full_to_triangle,
    hessian_from_spectrum,
    kept_property,
    node_mean,
    partial_orders,
    second_divergence_spectrum,
    spectral_inner,
    to_spectrum,
    triangle_pairs,
    triangle_to_full,
)
from tests.support import random_band_limited, random_convex_potential

TWO_PI = 2.0 * np.pi


class TestMakeGrid:
    def test_1d(self):
        g = make_grid(1, [16])
        assert g.node_count == 16
        assert np.allclose(g.axis_coordinates(0), np.arange(16) / 16)
        assert g.spacing == (1.0 / 16,)

    def test_2d_anisotropic(self):
        g = make_grid(2, [8, 16])
        assert g.node_count == 128
        assert g.spacing == (1.0 / 8, 1.0 / 16)
        # spacing * N = 1 exactly
        assert all(s * n == 1.0 for s, n in zip(g.spacing, g.resolution))

    def test_node_count_does_not_wrap(self):
        # a product of numpy int64 wraps: 2^65 read 0, (2^61 + 2) * 8 read 16
        assert make_grid(2, (2**62, 8)).node_count == 2**65
        assert make_grid(2, (2**61 + 2, 8)).node_count == (2**61 + 2) * 8
        assert type(make_grid(3, 8).node_count) is int

    def test_rejects_odd_resolution(self):
        with pytest.raises(ValueError):
            make_grid(2, [7, 8])

    def test_rejects_undersized(self):
        with pytest.raises(ValueError):
            make_grid(1, [6])

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            make_grid(0, [])

    def test_rejects_non_integral_sizes(self):
        for build, dim, resolution, value in [
            (make_grid, 2, 64.5, "64.5"),
            (make_grid, 2.9, [16, 16], "2.9"),
            (make_grid, 2, [16, 16.7], "16.7"),
            (PeriodicGrid, 2.9, (16, 16), "2.9"),
            (PeriodicGrid, 2, (16.7, 16), "16.7"),
        ]:
            with pytest.raises(ValueError, match=f"whole number, got {value}"):
                build(dim, resolution)

    def test_integral_sizes_of_any_type(self):
        g = make_grid(np.int64(2), [np.int32(16), 16.0])
        assert g == make_grid(2, 16) == PeriodicGrid(2.0, (np.uint64(16), 16))
        assert type(g.dim) is int
        assert all(type(n) is int for n in g.resolution)


class TestScalarField:
    def test_shape_mismatch(self):
        g = make_grid(1, [16])
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(8))

    def test_rejects_nonfinite(self):
        g = make_grid(1, [16])
        vals = np.zeros(16)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            ScalarField(g, vals)

    def test_rejects_complex(self):
        g = make_grid(1, [16])
        with pytest.raises(ValueError, match="real"):
            ScalarField(g, np.zeros(16) + 1e-3j)

    def test_values_read_only(self):
        g = make_grid(1, [16])
        f = ScalarField.zeros(g)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_a_view_of_a_fresh_input_cannot_change_the_field(self):
        a = np.zeros(16)
        v = a[:]
        f = ScalarField(make_grid(1, 16), a)
        assert f.sup == 0.0
        v[0] = 5.0  # the caller's array stays the caller's
        assert a[0] == 5.0 and a.flags.writeable
        assert f.values[0] == 0.0 and f.sup == 0.0 and f.mean_zero

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["fresh", "strided", "read-only", "list", "float32"]),
        data=hnp.arrays(float, (8, 12), elements=st.floats(-1e6, 1e6)),
    )
    def test_values_are_a_read_only_copy_of_any_input(self, kind, data):
        g = make_grid(2, [8, 12])
        owner = np.repeat(data, 2, axis=1) if kind == "strided" else data.copy()
        if kind == "strided":
            values = owner[:, ::2]
        elif kind == "read-only":
            values = owner[:]
            values.setflags(write=False)
        elif kind == "list":
            owner = values = data.tolist()
        elif kind == "float32":
            owner = values = data.astype(np.float32)
        else:
            values = owner
        expected = np.array(values, dtype=float)
        f = ScalarField(g, values)
        assert np.array_equal(f.values, expected) and f.sup == np.abs(expected).max()
        assert not f.values.flags.writeable and f.values.flags.c_contiguous
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(f.values, values)
        if kind == "list":
            owner[0][0] = 5.0 + owner[0][0]
        else:
            owner[...] = 5.0 + owner
        assert np.array_equal(f.values, expected) and f.sup == np.abs(expected).max()

    @pytest.mark.parametrize(
        "kind", ["view", "read-only", "buffer", "list", "float32", "fortran"]
    )
    def test_copies_what_it_cannot_adopt(self, kind):
        g = make_grid(2, [8, 12])
        rng = np.random.default_rng(1)
        original = rng.standard_normal(g.shape)
        if kind == "view":
            values = np.stack([rng.standard_normal(g.shape), original])[1]
        elif kind == "read-only":
            values = original.copy()
            values.setflags(write=False)
        elif kind == "buffer":
            values = np.frombuffer(bytearray(original.tobytes()), float).reshape(g.shape)
        elif kind == "list":
            values = original.tolist()
        elif kind == "float32":
            values = original.astype(np.float32)
            original = values.astype(float)
        else:
            values = np.asfortranarray(original)
        f = ScalarField(g, values)
        assert np.array_equal(f.values, original)
        assert not f.values.flags.writeable and f.values.flags.c_contiguous
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(f.values, values)
            if values.flags.writeable:
                values[0, 0] = 7.0  # still the caller's, and not the field's
                assert f.values[0, 0] == original[0, 0]

    def test_arithmetic(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        f = ScalarField(g, np.cos(TWO_PI * x))
        h = 2.0 * f + 1.0 - f
        assert np.allclose(h.values, np.cos(TWO_PI * x) + 1.0)

    def test_compares_by_identity(self):
        # the values are an array: `==` answers a bool, never raises
        g = make_grid(2, [8, 8])
        f = ScalarField.zeros(g)
        assert (f == f) is True
        assert (f == ScalarField.zeros(g)) is False
        assert (f != ScalarField.zeros(g)) is True
        assert len({f, f}) == 1


class TestPartial:
    def test_second_derivative_of_cosine(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        f = ScalarField(g, np.cos(TWO_PI * x))
        d2 = partial(f, (2,))
        assert np.allclose(d2.values, -4 * np.pi**2 * np.cos(TWO_PI * x), atol=1e-11)

    def test_constant_derivative_zero(self):
        g = make_grid(2, [16, 16])
        f = ScalarField.constant(g, 3.7)
        for axes in [(1, 0), (0, 1), (2, 0), (1, 1)]:
            assert sup_norm(partial(f, axes)) < 1e-13

    def test_mixed_product_eigenfunction(self):
        g = make_grid(2, [32, 32])
        x, y = g.coordinate_arrays()
        f = ScalarField(g, np.sin(TWO_PI * x) * np.sin(2 * TWO_PI * y))
        d = partial(f, (1, 1))
        expected = 8 * np.pi**2 * np.cos(TWO_PI * x) * np.cos(2 * TWO_PI * y)
        assert np.allclose(d.values, expected, atol=1e-10)

    def test_differentiation_commutes(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(7)
        f = random_band_limited(g, rng, max_mode=3)
        once = partial(partial(f, (1, 0)), (0, 1))
        both = partial(f, (1, 1))
        assert sup_norm(once - both) < 1e-10 * (1 + sup_norm(both))

    def test_integration_by_parts(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(8)
        f = random_band_limited(g, rng, max_mode=3)
        h = random_band_limited(g, rng, max_mode=3)
        lhs = mean(f * partial(h, (1, 0)))
        rhs = -mean(partial(f, (1, 0)) * h)
        assert abs(lhs - rhs) < 1e-12

    def test_order_validation(self):
        g = make_grid(1, [16])
        f = ScalarField.zeros(g)
        with pytest.raises(ValueError):
            partial(f, (5,))
        with pytest.raises(ValueError):
            partial(f, (1, 1))  # wrong multi-index length


class TestMean:
    def test_constant(self):
        g = make_grid(2, [8, 8])
        assert mean(ScalarField.constant(g, 4.2)) == pytest.approx(4.2)

    def test_cosine_mean_zero(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        assert abs(mean(ScalarField(g, np.cos(TWO_PI * x)))) < 1e-15

    def test_offset_sine(self):
        g = make_grid(2, [8, 16])
        _, y = g.coordinate_arrays()
        f = ScalarField(g, 1.0 + 0.3 * np.sin(2 * TWO_PI * y))
        assert mean(f) == pytest.approx(1.0, abs=1e-14)

    def test_project_mean_zero(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        assert sup_norm(project_mean_zero(ScalarField.constant(g, 5.0))) < 1e-15
        f = ScalarField(g, np.cos(TWO_PI * x) + 2.0)
        assert np.allclose(
            project_mean_zero(f).values, np.cos(TWO_PI * x), atol=1e-14
        )
        g0 = project_mean_zero(f)
        assert sup_norm(project_mean_zero(g0) - g0) < 1e-15  # idempotent


# values with both zeros, subnormals and magnitudes up to 1e300
_EXTREME_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e300, -1e300]),
    st.floats(-1e300, 1e300),
)
_REDUCTION_SHAPES = [(8,), (30,), (8, 12), (8, 10, 8)]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestReductionsBitwise:
    """The package's direct ufunc reductions give the bits of the numpy
    calls they replace."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(_REDUCTION_SHAPES))
    def test_mean_sup_and_projection(self, data, shape):
        values = data.draw(hnp.arrays(np.float64, shape, elements=_EXTREME_VALUES))
        g = make_grid(len(shape), list(shape))
        f = ScalarField(g, values)
        assert _bits(mean(f)) == _bits(node_mean(values)) == _bits(np.mean(values))
        assert _bits(sup_norm(f)) == _bits(f.sup) == _bits(np.max(np.abs(values)))
        assert _bits(f.mean_bound) == _bits(MEAN_TOLERANCE * (1.0 + np.max(np.abs(values))))
        centered = values - np.mean(values)
        assert _bits(project_mean_zero(f).values) == _bits(centered)
        P = Potential.flat(g).with_perturbation(values)
        assert _bits(P.perturbation.values) == _bits(values - values.mean())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(_REDUCTION_SHAPES))
    def test_second_divergence_centering(self, data, shape):
        # the stack given up holds its centered components on return
        g = make_grid(len(shape), list(shape))
        m = len(partial_orders(g.dim, 2))
        stack = data.draw(hnp.arrays(np.float64, (m,) + g.shape, elements=_EXTREME_VALUES))
        centered = np.stack([comp - comp.mean() for comp in stack])
        with np.errstate(over="ignore", invalid="ignore"):
            second_divergence_spectrum(g, stack)
        assert _bits(stack) == _bits(centered)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(_REDUCTION_SHAPES))
    def test_functional_integrand(self, data, shape):
        # A*phi - log det against numpy's mean of -log det + A*phi
        arrays = hnp.arrays(np.float64, shape, elements=_EXTREME_VALUES)
        a, phi = data.draw(arrays), data.draw(arrays)
        log_det = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-745.0, 709.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = node_mean(a * phi - log_det)
            want = np.mean(-log_det + a * phi)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("shape", _REDUCTION_SHAPES)
    def test_functional_value(self, shape):
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(5)
        P = random_convex_potential(g, rng)
        a = random_band_limited(g, rng)
        want = np.mean(-P.hessian_state.log_det + a.values * P.perturbation.values)
        assert _bits(functional_value(P, a)) == _bits(want)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(_REDUCTION_SHAPES),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_validators_still_reject_non_finite(self, data, shape, bad):
        g = make_grid(len(shape), list(shape))
        values = data.draw(hnp.arrays(np.float64, shape, elements=_EXTREME_VALUES))
        at = data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape)))
        values[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(g, values)
        entries = np.broadcast_to(values, (g.dim * (g.dim + 1) // 2,) + g.shape)
        with pytest.raises(ValueError, match="non-finite"):
            SymMatrixField(g, entries)


class TestSecondDivergence:
    def test_identity_goes_to_zero(self):
        g = make_grid(2, [16, 16])
        assert sup_norm(second_divergence(SymMatrixField.identity(g))) < 1e-12

    def test_1d_single_mode(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        m = SymMatrixField(g, (1.0 + 0.1 * np.cos(TWO_PI * x))[None])
        out = second_divergence(m)
        assert np.allclose(
            out.values, -0.4 * np.pi**2 * np.cos(TWO_PI * x), atol=1e-11
        )

    def test_mean_zero_for_random_fields(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(3)
        entries = np.stack(
            [random_band_limited(g, rng, 4, 1.0).values + rng.normal() for _ in range(3)]
        )
        m = SymMatrixField(g, entries)
        out = second_divergence(m)
        scale = np.max(np.abs(entries))
        assert abs(mean(out)) < 1e-12 * scale


SYM_SHAPES = [(16,), (8, 12), (8, 10, 8), (8, 8, 8, 8)]


def _random_sym(shape, seed):
    g = make_grid(len(shape), list(shape))
    m = len(triangle_pairs(g.dim))
    entries = np.random.default_rng(seed).standard_normal((m,) + g.shape)
    return SymMatrixField(g, entries)


class TestKeptProperty:
    def test_computes_once_and_keeps_the_value_in_the_instance_dict(self):
        calls = []

        @dataclasses.dataclass(frozen=True)
        class Box:
            x: float

            @kept_property
            def double(self) -> float:
                """Twice x."""
                calls.append(self.x)
                return 2.0 * self.x

        box = Box(1.5)
        assert box.double == 3.0 and box.double == 3.0 and calls == [1.5]
        assert vars(box)["double"] == 3.0
        assert isinstance(Box.double, kept_property) and Box.double.__doc__ == "Twice x."
        assert Box(2.0).double == 4.0 and calls == [1.5, 2.0]  # one per instance


class TestSymMatrixField:
    """The triangle stack (m, *grid.shape) against its full expansion."""

    @pytest.mark.parametrize("shape", SYM_SHAPES)
    def test_components_are_full_entries(self, shape):
        M = _random_sym(shape, 1)
        full = M.to_full()
        n = M.grid.dim
        for i in range(n):
            for j in range(n):
                assert np.array_equal(M.component(i, j), full[..., i, j])

    def test_rejects_complex(self):
        g = make_grid(2, [8, 8])
        with pytest.raises(ValueError, match="real"):
            SymMatrixField(g, np.ones((3, 8, 8)) + 1e-3j)

    @pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (-1, 0), (0, -1), (3, 3), (5, 1)])
    def test_component_out_of_range_raises(self, i, j):
        M = _random_sym((8, 10, 8), 2)
        with pytest.raises(IndexError):
            M.component(i, j)

    def test_a_view_of_the_input_cannot_change_the_field(self):
        entries = np.zeros((3, 8, 8))
        view = entries[1:]
        M = SymMatrixField(make_grid(2, [8, 8]), entries)
        view[0, 0, 0] = 5.0
        assert M.component(0, 1)[0, 0] == 0.0 and not M.entries.flags.writeable
        assert not np.shares_memory(M.entries, entries)

    def test_compares_by_identity(self):
        M = SymMatrixField.identity(make_grid(2, [8, 8]))
        assert (M == M) is True
        assert (M == SymMatrixField.identity(M.grid)) is False

    def test_shape_is_component_first(self):
        g = make_grid(2, [8, 12])
        with pytest.raises(ValueError):
            SymMatrixField(g, np.zeros(g.shape + (3,)))

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(SYM_SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_full_round_trip(self, shape, seed):
        M = _random_sym(shape, seed)
        full = M.to_full()
        assert np.array_equal(SymMatrixField.from_full(M.grid, full).entries, M.entries)
        stack = M.entries.reshape(len(M.entries), -1)  # component-first
        assert np.array_equal(
            triangle_to_full(stack), full.reshape((-1,) + full.shape[-2:])
        )

    @pytest.mark.parametrize("m", [0, 2, 4, 7])
    def test_triangle_to_full_rejects_non_triangular_rows(self, m):
        with pytest.raises(ValueError):
            triangle_to_full(np.zeros((m, 5)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_full_to_triangle_inverts_triangle_to_full(self, data, n):
        # component-first stacks of any trailing shape come back bitwise:
        # the symmetrization (a + a) / 2 of a symmetric matrix is exact
        shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        finite = st.floats(-1e300, 1e300, allow_nan=False, width=64)
        stack = data.draw(hnp.arrays(np.float64, (n * (n + 1) // 2,) + shape, elements=finite))
        full = triangle_to_full(stack)
        assert full.shape == shape + (n, n)
        assert np.array_equal(full, np.swapaxes(full, -1, -2))
        back = full_to_triangle(full)
        assert back.shape == stack.shape
        assert back.tobytes() == stack.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_full_to_triangle_does_not_overflow(self, data, n):
        # equal mirrors keep their bits and unequal ones are averaged as
        # a/2 + b/2, so no entry overflows up to the largest double
        huge = st.floats(-1.7e308, 1.7e308, allow_nan=False, width=64)
        full = data.draw(hnp.arrays(np.float64, (3, n, n), elements=huge))
        mirror = np.swapaxes(full, -1, -2)
        with np.errstate(over="raise", invalid="raise"):
            back = full_to_triangle(full)
            symmetric = full_to_triangle(np.where(np.tri(n, dtype=bool), full, mirror))
        rows, cols = np.array(triangle_pairs(n)).T
        a, b = full[:, rows, cols].T, mirror[:, rows, cols].T
        assert np.array_equal(back, np.where(a == b, a, 0.5 * a + 0.5 * b))
        assert symmetric.tobytes() == np.ascontiguousarray(full[:, cols, rows].T).tobytes()

    def test_a_huge_base_has_a_triangle(self):
        with np.errstate(over="raise", invalid="raise"):
            base = QuadraticBase(np.array([[1e308, 0.0], [0.0, 1e308]]))
            assert base.triangle.tolist() == [1e308, 0.0, 1e308]

    def test_full_to_triangle_symmetrizes_and_rejects_non_square(self):
        full = np.array([[1.0, 2.0], [4.0, 3.0]])
        assert full_to_triangle(full).tolist() == [1.0, 3.0, 3.0]
        for bad in (np.zeros(3), np.zeros((3, 2)), np.zeros((2, 2, 3))):
            with pytest.raises(ValueError):
                full_to_triangle(bad)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_partial_orders_are_the_hand_built_ones(self, dim):
        # the unit rows and pair sums that the solver's preconditioner and
        # the potential's off-grid derivatives built for themselves
        eye = np.eye(dim, dtype=int)
        rows, cols = np.array(triangle_pairs(dim)).T
        assert partial_orders(dim, 1) == tuple(tuple(r) for r in eye)
        assert partial_orders(dim, 2) == tuple(tuple(r) for r in eye[rows] + eye[cols])
        assert partial_orders(dim, 2) == tuple(
            tuple(np.bincount(p, minlength=dim)) for p in triangle_pairs(dim)
        )

    @pytest.mark.parametrize("shape", SYM_SHAPES)
    def test_one_kept_pair_index_per_size(self, shape):
        M = _random_sym(shape, 3)
        n = M.grid.dim
        pairs = triangle_pairs(n)
        index = grid.pair_index(n)
        assert index is grid.pair_index(n) and not index.flags.writeable
        misses = grid.pair_index.cache_info().misses
        stack = np.random.default_rng(4).standard_normal((len(pairs), 5))
        full = np.empty((5, n, n))
        for k, (i, j) in enumerate(pairs):
            full[:, i, j] = full[:, j, i] = stack[k]
        assert np.array_equal(triangle_to_full(stack), full)
        for i in range(n):
            for j in range(n):
                assert M.triangle_index(i, j) == pairs.index((min(i, j), max(i, j)))
        assert grid.pair_index.cache_info().misses == misses


TRANSFORM_SHAPES = [(16,), (64,), (8, 12), (12, 8), (8, 10, 8), (16, 8, 10)]


def _nyquist_mode(g):
    """prod_a cos(pi N_a x_a): +-1 alternating along every axis."""
    signs = [(-1.0) ** np.arange(n) for n in g.resolution]
    return functools.reduce(np.multiply.outer, signs)


def _laid_out(a, layout):
    """`a` as it is ("fresh"), read-only, or as a strided view of equal
    values (every other entry of a last axis twice as long)."""
    if layout == "read-only":
        a = a.copy()
        a.setflags(write=False)
    elif layout == "strided":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
        wide[..., ::2] = a
        a = wide[..., ::2]
        assert not a.flags.c_contiguous
    return a


class TestTransformPair:
    """`to_spectrum` / `from_spectrum` are numpy's n-D real transforms
    made pass by pass, and `spectral_inner` is the node mean."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(TRANSFORM_SHAPES),
        stack=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["fresh", "read-only", "strided"]),
    )
    def test_bitwise_numpy_nd_transforms(self, shape, stack, seed, layout):
        # the kernels read any float64 layout: a read-only input, and a
        # strided view (every other entry of the last axis), both ways
        g = make_grid(len(shape), list(shape))
        lead = (stack,) if stack else ()
        rng = np.random.default_rng(seed)
        values = _laid_out(rng.standard_normal(lead + g.shape), layout)
        axes = tuple(range(len(lead), values.ndim))
        spectrum = _laid_out(to_spectrum(g, values), layout)
        assert np.array_equal(spectrum, np.fft.rfftn(values, axes=axes))
        kept = spectrum.copy()
        back = from_spectrum(g, spectrum)
        assert np.array_equal(back, np.fft.irfftn(kept, s=g.shape, axes=axes))
        assert np.array_equal(spectrum, kept)  # the input is not overwritten

    @pytest.mark.parametrize("shape, bad", [
        ((16,), (12,)), ((16,), (3, 20)), ((16,), ()),
        ((8, 8), (8, 12)), ((8, 8), (12, 8)), ((8, 8), (8,)), ((8, 8), (3, 8, 6)),
    ])
    def test_to_spectrum_rejects_other_shapes(self, shape, bad):
        # the real kernel takes its length from the output, so these were
        # cropped or zero-padded into a spectrum of the grid's size
        g = make_grid(len(shape), list(shape))
        with pytest.raises(ValueError, match="does not end in"):
            to_spectrum(g, np.zeros(bad))

    @pytest.mark.parametrize("shape, bad", [
        ((16,), (5,)), ((16,), (16,)), ((16,), (3, 10)), ((16,), ()),
        ((8, 8), (8, 8)), ((8, 8), (6, 5)), ((8, 8), (5,)), ((8, 8), (3, 5, 8)),
    ])
    def test_from_spectrum_rejects_other_shapes(self, shape, bad):
        g = make_grid(len(shape), list(shape))
        with pytest.raises(ValueError, match="does not end in"):
            from_spectrum(g, np.zeros(bad, complex))

    @pytest.mark.parametrize("shape", [(16,), (8, 12)])
    def test_the_grid_and_spectrum_shapes_pass_with_any_lead(self, shape):
        g = make_grid(len(shape), list(shape))
        assert g.spectrum_shape == shape[:-1] + (shape[-1] // 2 + 1,)
        for lead in [(), (1,), (3,), (2, 3)]:
            assert to_spectrum(g, np.zeros(lead + g.shape)).shape == lead + g.spectrum_shape
            assert from_spectrum(g, np.zeros(lead + g.spectrum_shape, complex)).shape == (
                lead + g.shape
            )

    def test_second_multipliers_are_kept_on_the_grid(self):
        g = make_grid(2, [8, 12])
        mults = g.second_multipliers
        assert mults is g.second_multipliers and not mults.flags.writeable
        assert mults is grid.fourier_multiplier(g, partial_orders(2, 2))
        spectrum = to_spectrum(g, np.random.default_rng(0).standard_normal(g.shape))
        info = grid.fourier_multiplier.cache_info()
        hessian_from_spectrum(g, spectrum)
        second_divergence_spectrum(g, np.ones((3,) + g.shape))
        assert grid.fourier_multiplier.cache_info() == info  # no lookup per apply

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(TRANSFORM_SHAPES),
        seed=st.integers(0, 2**32 - 1),
        nyquist=st.floats(-10.0, 10.0),
        offset=st.floats(-10.0, 10.0),
    )
    def test_parseval_inner_is_the_node_mean(self, shape, seed, nyquist, offset):
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(g.shape) + nyquist * _nyquist_mode(g) + offset
        b = rng.standard_normal(g.shape) + a
        sa, sb = to_spectrum(g, a), to_spectrum(g, b)
        for x, y, sx, sy in [(a, b, sa, sb), (a, a, sa, sa), (b, b, sb, sb)]:
            scale = np.sqrt(np.mean(x * x) * np.mean(y * y))
            assert abs(spectral_inner(g, sx, sy) - np.mean(x * y)) <= 1e-14 * scale


def _full_fft_defect(values):
    """The periodicity defect by the full n-D FFT: 2-norm of the
    coefficients with |k_a| > N_a / 3 on some axis over that of all."""
    coeffs = np.fft.fftn(values)
    outer = np.zeros(values.shape, dtype=bool)
    for axis, n in enumerate(values.shape):
        k = np.abs(np.rint(np.fft.fftfreq(n) * n))
        outer |= (k > n / 3).reshape([n if a == axis else 1 for a in range(values.ndim)])
    power = np.abs(coeffs) ** 2
    return np.sqrt(power[outer].sum() / power.sum())


class TestFieldSpectrum:
    """Each field keeps one real-FFT spectrum, and everything spectral
    about the field reads it: its one forward transform."""

    @pytest.mark.parametrize("shape", TRANSFORM_SHAPES)
    def test_kept_read_only_and_bitwise_rfftn(self, shape):
        g = make_grid(len(shape), list(shape))
        f = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
        assert f.spectrum is f.spectrum
        assert not f.spectrum.flags.writeable
        assert np.array_equal(f.spectrum, np.fft.rfftn(f.values))
        with pytest.raises(ValueError):
            f.spectrum[(0,) * g.dim] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(
            [(8,), (30,), (64,), (8, 12), (12, 8), (10, 32), (8, 10, 8), (16, 8, 10)]
        ),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(-1.0, 1.0),
        nyquist=st.floats(-10.0, 10.0),
    )
    def test_periodicity_defect_matches_full_fft(self, shape, seed, noise, nyquist):
        # low modes, white noise in every mode and Nyquist content on the
        # last (real-FFT) axis, whose weights differ from the other modes'
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        values = random_band_limited(g, rng, max_mode=2).values
        values = values + 10.0**noise * rng.standard_normal(g.shape)
        last = (-1.0) ** np.arange(g.resolution[-1])
        values = values + nyquist * rng.standard_normal(g.shape[:-1] + (1,)) * last
        got = periodicity_defect(ScalarField(g, values))
        ref = _full_fft_defect(values)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("shape", [(64,), (8, 12)])
    def test_periodicity_defect_is_scale_invariant(self, shape):
        # the moduli are scaled by the largest before they are squared: a
        # tiny multiple of a non-periodic sampling does not read 0 (and
        # escape the CLI's warning), a huge one does not overflow
        g = make_grid(len(shape), list(shape))
        values = g.coordinate_arrays()[0] + 1e-3 * np.random.default_rng(6).standard_normal(
            g.shape)
        ref = periodicity_defect(ScalarField(g, values))
        assert ref > 1e-2
        for s in 10.0 ** np.arange(-200, 201, 10):
            got = periodicity_defect(ScalarField(g, s * values))
            assert abs(got - ref) <= 1e-12 * ref
        assert periodicity_defect(ScalarField.zeros(g)) == 0.0

    def test_each_field_is_transformed_forward_once(self, monkeypatch):
        g = make_grid(2, [8, 12])
        rng = np.random.default_rng(4)
        phi = random_band_limited(g, rng, max_mode=2, amplitude=1e-3)
        transformed = []
        original = grid.to_spectrum

        def counted(grid_, values):
            transformed.append(values)
            return original(grid_, values)

        monkeypatch.setattr(grid, "to_spectrum", counted)
        P = Potential(QuadraticBase.identity(2), phi)
        P.hessian_state.inverse()
        P.perturbation_gradient
        x = rng.uniform(size=(5, 2))
        P.phi_and_gradient_at(x), P.gradient_at(x), P.hessian_at(x)
        partial(phi, (1, 1)), gradient(phi), hessian(phi), periodicity_defect(phi)
        assert sum(v is phi.values for v in transformed) == 1


class TestInterpolate:
    def test_node_values_exact(self):
        g = make_grid(2, [8, 8])
        rng = np.random.default_rng(5)
        f = ScalarField(g, rng.standard_normal(g.shape))
        for idx in [(0, 0), (3, 5), (7, 7)]:
            point = np.array([idx[0] / 8, idx[1] / 8])
            assert interpolate(f, point) == pytest.approx(
                f.values[idx], abs=1e-12
            )

    def test_band_limited_exactness(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        f = ScalarField(g, np.cos(TWO_PI * x))
        assert interpolate(f, np.array([0.35])) == pytest.approx(
            np.cos(0.7 * np.pi), abs=1e-13
        )

    def test_periodic_wrapping(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(6)
        f = random_band_limited(g, rng, max_mode=5)
        p = np.array([0.23, 0.71])
        assert interpolate(f, p + np.array([2.0, -3.0])) == pytest.approx(
            interpolate(f, p), abs=1e-12
        )

    def test_random_band_limited_at_arbitrary_points(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(9)
        # construct explicitly so the reference is evaluable anywhere
        terms = [
            (rng.normal(), kx, ky)
            for kx in range(-3, 4)
            for ky in range(-3, 4)
            if (kx, ky) != (0, 0)
        ]

        def reference(p):
            return sum(a * np.cos(TWO_PI * (kx * p[0] + ky * p[1])) for a, kx, ky in terms)

        x, y = g.coordinate_arrays()
        vals = np.zeros(g.shape)
        for a, kx, ky in terms:
            vals += a * np.cos(TWO_PI * (kx * x + ky * y))
        f = ScalarField(g, vals)
        scale = sup_norm(f)
        for p in rng.random((10, 2)):
            assert interpolate(f, p) == pytest.approx(
                reference(p), abs=1e-12 * scale
            )
