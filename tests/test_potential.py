"""Potentials, Hessian algebra and the fourth-order operator."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from abreu import estimates
from abreu import (
    NotConvex,
    Potential,
    QuadraticBase,
    ScalarField,
    SymMatrixField,
    TrigInterpolant,
    abreu_forward,
    cofactor,
    convexity_margin,
    det_hessian,
    divergence_form_residual,
    gradient_map_inverse,
    hessian_u,
    inverse_hessian,
    make_grid,
    mean,
    partial,
    sup_norm,
    verify_solution,
)
from abreu.grid import pair_index, triangle_pairs, triangle_to_full
from abreu.potential import CONVEXITY_FLOOR
from tests.support import (
    A_AT_0,
    A_AT_EIGHTH,
    A_AT_QUARTER,
    manufactured_potential,
    manufactured_problem,
    manufactured_rhs_values,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi


class TestQuadraticBase:
    def test_identity_default(self):
        base = QuadraticBase.identity(3)
        assert np.array_equal(base.matrix, np.eye(3))

    def test_one_identity_per_dimension(self):
        # a read-only base is shared, with the inverse it keeps
        assert QuadraticBase.identity(2) is QuadraticBase.identity(2)
        assert QuadraticBase.identity(2).inverse() is QuadraticBase.identity(2).inverse()
        assert QuadraticBase.identity(2) is not QuadraticBase.identity(3)
        assert not QuadraticBase.identity(2).matrix.flags.writeable

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadraticBase(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticBase(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_equal_and_hashed_by_matrix(self):
        base = QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]]))
        same = QuadraticBase(base.matrix.copy())
        assert (base == same) is True and hash(base) == hash(same)
        assert (base == QuadraticBase.identity(2)) is False
        assert (QuadraticBase.identity(2) == QuadraticBase.identity(3)) is False
        assert (base == "base") is False
        assert len({base, same, QuadraticBase.identity(2)}) == 2
        # 0.0 and -0.0 are equal, so they must hash alike
        signed = np.array([[1.0, -0.0], [-0.0, 1.0]])
        assert hash(QuadraticBase(signed)) == hash(QuadraticBase.identity(2))
        assert QuadraticBase(signed) == QuadraticBase.identity(2)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            QuadraticBase(np.array([[entry]]))
        with pytest.raises(ValueError, match="non-finite"):
            QuadraticBase(np.array([[1.0, entry], [entry, 1.0]]))

    def test_huge_entries_do_not_overflow(self):
        mat = np.array([[1e308, 0.0], [0.0, 1e308]])
        assert np.array_equal(QuadraticBase(mat).matrix, mat)

    @given(st.data())
    def test_exactly_symmetric_matrix_keeps_its_bits(self, data):
        # strictly diagonally dominant with a positive diagonal: positive
        # definite; off the diagonal +-0.0, subnormals and up to 4e307
        n = data.draw(st.integers(1, 3))
        mat = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                mat[i, j] = mat[j, i] = data.draw(st.floats(-4e307, 4e307))
        for i in range(n):
            least = max(2.0 * float(np.sum(np.abs(mat[i]))), 1e-300)
            mat[i, i] = data.draw(st.floats(least, 1.7e308))
        assume(np.linalg.eigvalsh(mat)[0] > 0.0)  # rounding aside
        assert QuadraticBase(mat).matrix.tobytes() == mat.tobytes()

    @given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-8.0, 8.0))
    def test_inverse_of_a_base_at_any_scale(self, n, seed, log_scale):
        # LAPACK's inverse is symmetric only to rounding relative to its
        # entries, above the constructor's absolute tolerance once they are
        # large; the inverse is symmetrized as the constructor does, and kept
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mat = 10.0**log_scale * (q * rng.uniform(0.5, 2.0, n)) @ q.T
        base = QuadraticBase(0.5 * (mat + mat.T))
        inverse = base.inverse()
        assert inverse is base.inverse()
        assert np.array_equal(inverse.matrix, inverse.matrix.T)
        np.testing.assert_allclose(inverse.matrix @ base.matrix, np.eye(n), atol=1e-12)

    def test_small_base_inverts_its_gradient_map(self):
        base = QuadraticBase(np.array([[2e-5, 1e-5], [1e-5, 3e-5]]))
        assert not np.allclose(np.linalg.inv(base.matrix), np.linalg.inv(base.matrix).T,
                               rtol=0.0, atol=1e-13)
        x = np.random.default_rng(2).uniform(0.0, 1.0, (5, 2))
        got = gradient_map_inverse(Potential.flat(make_grid(2, 8), base), x @ base.matrix)
        np.testing.assert_allclose(got, x, rtol=0.0, atol=1e-6)


class TestPotential:
    def test_gauge_enforced(self):
        g = make_grid(1, [16])
        with pytest.raises(ValueError):
            Potential(QuadraticBase.identity(1), ScalarField.constant(g, 1.0))

    def test_dim_mismatch(self):
        g = make_grid(1, [16])
        with pytest.raises(ValueError):
            Potential(QuadraticBase.identity(2), ScalarField.zeros(g))

    def test_compares_by_identity(self):
        g = make_grid(2, [8, 8])
        P = Potential.flat(g)
        assert (P == P) is True
        assert (P == Potential.flat(g)) is False


def _hessian(P):
    """D^2 u as the public matrix-field container."""
    return SymMatrixField(P.grid, hessian_u(P))


class TestHessian:
    def test_flat_identity(self):
        g = make_grid(2, [16, 16])
        H = hessian_u(Potential.flat(g))
        assert np.allclose(H[pair_index(2)[0, 0]], 1.0)
        assert np.allclose(H[pair_index(2)[1, 1]], 1.0)
        assert np.allclose(H[pair_index(2)[0, 1]], 0.0)

    def test_1d_single_mode(self):
        P = manufactured_potential(64)
        x = P.grid.axis_coordinates(0)
        H = hessian_u(P)
        expected = 1.0 - 0.04 * np.pi**2 * np.cos(TWO_PI * x)
        assert np.allclose(H[0], expected, atol=1e-11)

    def test_entries_periodic(self):
        # the Hessian comes from spectral differentiation of the periodic
        # perturbation, so wrap-around neighbours must agree smoothly
        g = make_grid(1, [32])
        rng = np.random.default_rng(0)
        P = random_convex_potential(g, rng)
        col = hessian_u(P)[0]
        jumps = np.abs(np.diff(np.concatenate([col, col[:1]])))
        assert jumps.max() < 10 * np.median(jumps) + 1e-8


class TestInverseHessian:
    def test_identity(self):
        g = make_grid(2, [16, 16])
        H = _hessian(Potential.flat(g))
        assert np.allclose(inverse_hessian(H).entries, H.entries)

    def test_1d_reciprocal(self):
        P = manufactured_potential(64)
        H = _hessian(P)
        Hinv = inverse_hessian(H)
        assert np.allclose(Hinv.entries, 1.0 / H.entries, atol=1e-14)

    def test_product_is_identity(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(1)
        H = _hessian(random_convex_potential(g, rng))
        Hinv = inverse_hessian(H)
        prod = np.einsum("...ij,...jk->...ik", triangle_to_full(H.entries),
                         triangle_to_full(Hinv.entries))
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    def test_involution(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(2)
        H = _hessian(random_convex_potential(g, rng))
        again = inverse_hessian(inverse_hessian(H))
        assert np.max(np.abs(again.entries - H.entries)) < 1e-12

    def test_not_convex_error(self):
        g = make_grid(1, [16])
        vals = np.ones((1,) + g.shape)
        vals[0, 5] = -0.1
        with pytest.raises(NotConvex) as info:
            inverse_hessian(SymMatrixField(g, vals))
        assert info.value.node == (5,)
        assert info.value.min_eigenvalue == pytest.approx(-0.1)


class TestDeterminantAndCofactor:
    def test_det_identity(self):
        g = make_grid(2, [16, 16])
        assert np.allclose(det_hessian(_hessian(Potential.flat(g))).values, 1.0)

    def test_det_diagonal(self):
        g = make_grid(2, [16, 16])
        entries = np.zeros((3,) + g.shape)
        entries[0] = 2.0
        entries[2] = 3.5
        d = det_hessian(SymMatrixField(g, entries))
        assert np.allclose(d.values, 7.0)

    def test_det_product_identity(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(3)
        H = _hessian(random_convex_potential(g, rng))
        prod = det_hessian(H).values * det_hessian(inverse_hessian(H)).values
        assert np.max(np.abs(prod - 1.0)) < 1e-12

    def test_cofactor_identity_2d(self):
        g = make_grid(2, [16, 16])
        identity = _hessian(Potential.flat(g))
        assert np.allclose(cofactor(identity).entries, identity.entries)

    def test_cofactor_1d_convention(self):
        g = make_grid(1, [16])
        x = g.axis_coordinates(0)
        H = SymMatrixField(g, (2.0 + np.cos(TWO_PI * x))[None])
        assert np.allclose(cofactor(H).entries, 1.0)

    def test_cofactor_equals_det_times_inverse(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(4)
        H = _hessian(random_convex_potential(g, rng))
        C = cofactor(H)
        ref = det_hessian(H).values * inverse_hessian(H).entries
        assert np.max(np.abs(C.entries - ref)) < 1e-12

    def test_cofactor_rows_divergence_free(self):
        # sum_i d(U^ij)/dx_i = 0: the structural identity behind the
        # divergence form of the equation
        g = make_grid(2, [32, 32])
        rng = np.random.default_rng(5)
        H = _hessian(random_convex_potential(g, rng, margin=0.5, max_mode=2))
        U = cofactor(H)
        for j in range(2):
            div = np.zeros(g.shape)
            for i in range(2):
                comp = ScalarField(g, U.entries[pair_index(2)[i, j]])
                orders = [0, 0]
                orders[i] = 1
                div += partial(comp, orders).values
            assert np.max(np.abs(div)) < 1e-7


class TestAbreuForward:
    def test_flat_gives_zero(self):
        g = make_grid(2, [16, 16])
        assert sup_norm(abreu_forward(Potential.flat(g))) < 1e-12

    def test_manufactured_closed_form(self):
        P = manufactured_potential(64)
        x = P.grid.axis_coordinates(0)
        out = abreu_forward(P)
        assert np.max(np.abs(out.values - manufactured_rhs_values(x))) < 1e-8

    def test_sympy_cross_check_of_oracle(self):
        # the hand-derived closed form must agree with symbolic
        # differentiation; also pins the frozen spot values
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x")
        upp = 1 - 4 * sympy.pi**2 * sympy.Rational(1, 100) * sympy.cos(2 * sympy.pi * xs)
        a_sym = sympy.diff(1 / upp, xs, 2)
        for xv, frozen in [(0.0, A_AT_0), (0.125, A_AT_EIGHTH), (0.25, A_AT_QUARTER)]:
            numeric = float(a_sym.subs(xs, sympy.Rational(xv).limit_denominator()))
            assert numeric == pytest.approx(frozen, abs=1e-12)
            assert manufactured_rhs_values(np.array([xv]))[0] == pytest.approx(
                frozen, abs=1e-12
            )

    def test_mean_zero_for_random_convex(self):
        rng = np.random.default_rng(6)
        g = make_grid(2, [16, 16])
        for _ in range(10):
            P = random_convex_potential(g, rng, margin=0.3)
            out = abreu_forward(P)
            scale = 1.0 + np.max(np.abs(P.hessian_state.inverse()))
            assert abs(mean(out)) < 1e-12 * scale

    def test_propagates_not_convex(self):
        g = make_grid(1, [32])
        x = g.axis_coordinates(0)
        P = Potential(QuadraticBase.identity(1), ScalarField(g, 1.0 * np.cos(TWO_PI * x)))
        with pytest.raises(NotConvex):
            abreu_forward(P)


class TestDivergenceForm:
    def test_flat_zero(self):
        g = make_grid(2, [16, 16])
        r = divergence_form_residual(Potential.flat(g), ScalarField.zeros(g))
        assert sup_norm(r) < 1e-12

    def test_consistency_with_raw_form(self):
        # the two forms agree only up to the spectral tails of w and u^ij,
        # so the random potentials must be well resolved at this N
        rng = np.random.default_rng(7)
        g = make_grid(2, [64, 64])
        for _ in range(3):
            P = random_convex_potential(g, rng, margin=0.7, max_mode=2)
            r = divergence_form_residual(P, abreu_forward(P))
            assert sup_norm(r) < 1e-8

    def test_manufactured(self):
        _, a, _ = manufactured_problem(64)
        P = manufactured_potential(64)
        assert sup_norm(divergence_form_residual(P, a)) < 1e-8

    def test_nonzero_mean_shows_as_residual(self):
        # computed for any A; the zero-mean test belongs to the callers
        g = make_grid(1, [16])
        r = divergence_form_residual(Potential.flat(g), ScalarField.constant(g, 1.0))
        assert np.array_equal(r.values, np.full(g.shape, -1.0))


class TestConvexityMargin:
    def test_flat(self):
        g = make_grid(2, [16, 16])
        assert convexity_margin(Potential.flat(g)) == pytest.approx(1.0)

    def test_manufactured_extremes(self):
        P = manufactured_potential(64)
        assert convexity_margin(P) == pytest.approx(1.0 - 0.04 * np.pi**2, abs=1e-11)

    def test_large_amplitude_not_convex(self):
        g = make_grid(1, [32])
        x = g.axis_coordinates(0)
        P = Potential(QuadraticBase.identity(1), ScalarField(g, np.cos(TWO_PI * x)))
        assert convexity_margin(P) < 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "c, convex",
        [(CONVEXITY_FLOOR, False), (np.nextafter(CONVEXITY_FLOOR, 1.0), True)],
        ids=["at-floor", "next-above"],
    )
    def test_floor_boundary(self, dim, c, convex, monkeypatch):
        # the flat potential over c I has Hessian c I: min eigenvalue c exactly
        P = Potential.flat(make_grid(dim, [8] * dim), QuadraticBase(c * np.eye(dim)))
        state = P.hessian_state
        assert state.min_eigenvalue == c
        assert state.convex is convex
        for use in (state.require_convex, state.inverse, lambda: state.log_det):
            if convex:
                use()
            else:
                with pytest.raises(NotConvex):
                    use()

        # the c I base has no Legendre transform onto the unit torus (it does
        # not preserve the lattice): end verify's duality part there, so the
        # report of a convex P is returned as well
        def no_transform(V):
            raise NotConvex((0,) * dim, 0.0)

        monkeypatch.setattr(estimates, "legendre_transform", no_transform)
        outcome = verify_solution(P, ScalarField.zeros(P.grid))
        assert outcome.passed is False
        check, *rest = outcome.bounds.inequalities
        assert check.name == "convexity-margin"
        assert bool(rest) is convex  # the remaining checks run only if convex
        assert (check.lhs, check.rhs, check.satisfied) == (c, CONVEXITY_FLOOR, convex)

    def test_scaled_bases_forward_zero(self):
        # for phi = 0 the operator vanishes for every positive base
        g = make_grid(2, [16, 16])
        for mat in (0.5 * np.eye(2), 2.0 * np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])):
            P = Potential.flat(g, QuadraticBase(mat))
            assert sup_norm(abreu_forward(P)) < 1e-12


_UNIMODULAR = [[2.0, 1.0], [1.0, 1.0]]


class TestDerivativesOffAndOnTheGrid:
    """`Potential.phi_and_gradient_at` gives bitwise phi with grad u, and
    `gradient_at`, `hessian_at` and `node_gradient` the base plus phi's
    partials, written out here from an interpolant of phi of the test's
    own."""

    @pytest.fixture(
        params=[((32,), [[1.0]]), ((16, 16), np.eye(2)), ((8, 8, 8), np.eye(3)),
                ((16, 16), _UNIMODULAR)],
        ids=["1d", "2d", "3d", "2d-unimodular"],
    )
    def case(self, request):
        shape, base = request.param
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(len(shape))
        phi = random_convex_potential(g, rng, margin=0.5).perturbation
        P = Potential(QuadraticBase(np.array(base)), phi)
        x = rng.uniform(-1.0, 2.0, (50, g.dim))
        return P, x, TrigInterpolant(phi), P.base.matrix

    def test_value(self, case):
        # phi and grad u from one stacked call of phi and its first partials
        P, x, phi, M = case
        orders = [tuple(row) for row in np.eye(P.grid.dim + 1, P.grid.dim, -1, dtype=int)]
        expected = phi.partials(x, orders)
        value, grad = P.phi_and_gradient_at(x)
        assert np.array_equal(value, expected[:, 0])
        assert np.array_equal(grad, expected[:, 1:] + x @ M)

    def test_gradient(self, case):
        P, x, phi, M = case
        eye = [tuple(row) for row in np.eye(P.grid.dim, dtype=int)]
        assert np.array_equal(P.gradient_at(x), phi.partials(x, eye) + x @ M)

    def test_hessian(self, case):
        P, x, phi, M = case
        eye = np.eye(P.grid.dim, dtype=int)
        rows, cols = np.array(triangle_pairs(P.grid.dim)).T
        expected = phi.partials(x, [tuple(r) for r in eye[rows] + eye[cols]])
        expected += M[rows, cols]
        got = P.hessian_at(x)
        assert got.shape == (len(rows), len(x))
        assert np.array_equal(got, expected.T)

    def test_node_gradient(self, case):
        P, x, _, M = case
        res = np.array(P.grid.resolution)
        j = np.rint(x * res)
        on = j / res  # nodes, inside and outside [0, 1)^n
        nodes = (j % res).astype(int)
        at = tuple(nodes.T)
        grad_phi = np.stack([partial(P.perturbation, axes).values[at]
                             for axes in np.eye(P.grid.dim, dtype=int)], -1)
        assert np.array_equal(P.node_gradient(on, nodes), on @ M + grad_phi)
