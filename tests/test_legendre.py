"""Legendre transform, gradient-map inversion and the dual equation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from abreu import (
    DualPotential,
    GradientInversionFailure,
    NotConvex,
    Potential,
    QuadraticBase,
    ScalarField,
    TrigInterpolant,
    dual_residual,
    gradient,
    gradient_map,
    gradient_map_inverse,
    legendre,
    legendre_transform,
    make_grid,
    mean,
    project_mean_zero,
    pullback_rhs,
    sup_norm,
    verify_solution,
)
from abreu.grid import partial_orders
from abreu.solver import continuity_solve
from tests.support import (
    EPS,
    corrupt_first_dual,
    exact_discrete_solution_1d,
    manufactured_potential,
    manufactured_problem,
    random_band_limited,
    random_convex_potential,
)

TWO_PI = 2.0 * np.pi


def bisect_gradient_inverse(y, eps=EPS):
    """Independent scalar oracle: solve x - 2 pi eps sin(2 pi x) = y."""
    lo, hi = y - 0.5, y + 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - TWO_PI * eps * np.sin(TWO_PI * mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGradientMap:
    def test_flat_identity(self):
        g = make_grid(2, [16, 16])
        P = Potential.flat(g)
        pts = g.node_points()
        assert np.max(np.abs(gradient_map(P, pts) - pts)) < 1e-13
        assert np.max(np.abs(gradient_map_inverse(P, pts) - pts)) < 1e-13

    def test_inverse_against_bisection(self):
        P = manufactured_potential(64)
        ys = np.array([[0.1], [0.3], [0.55], [0.925]])
        xs = gradient_map_inverse(P, ys)
        for y, x in zip(ys[:, 0], xs[:, 0]):
            assert x == pytest.approx(bisect_gradient_inverse(y), abs=1e-10)

    def test_mutually_inverse(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(0)
        P = random_convex_potential(g, rng, margin=0.5)
        pts = g.node_points()
        forward = gradient_map(P, pts)
        back = gradient_map_inverse(P, forward)
        assert np.max(np.abs(back - pts)) < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("base", [np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]])])
    def test_non_finite_points_raise(self, bad, base):
        # alone and beside a finite point; the other coordinate on a node
        # (0.25) or off the grid (0.3)
        g = make_grid(2, [16, 16])
        f = random_convex_potential(g, np.random.default_rng(1), margin=0.5)
        P = Potential(QuadraticBase(base), f.perturbation)
        for point in ([bad, 0.25], [0.3, bad], [bad, bad]):
            for pts in ([point], [[0.1, 0.4], point]):
                for evaluate in (
                    lambda pts: gradient_map(P, pts),
                    lambda pts: gradient_map_inverse(P, pts),
                    P.phi_and_gradient_at,
                    P.gradient_at,
                    P.hessian_at,
                ):
                    with pytest.raises(ValueError, match="finite"):
                        evaluate(np.array(pts))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_raise_in_1d(self, bad):
        # a non-finite target is rejected before its start node is rounded
        P = manufactured_potential(32)
        for evaluate in (gradient_map, gradient_map_inverse):
            with pytest.raises(ValueError, match="finite"):
                evaluate(P, [[bad]])


    def test_overflowing_start_raises(self):
        # finite targets whose start node index M^{-1} y N overflows
        g = make_grid(2, [16, 16])
        P = Potential.flat(g, QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]])))
        with pytest.raises(ValueError, match="too large"):
            gradient_map_inverse(P, [[1e308, -1e308]])


class TestPointShape:
    @pytest.mark.parametrize(
        "dim, points", [(2, np.full((3, 3), 0.25)), (1, np.full((2, 3), 0.25))]
    )
    def test_wrong_dimension_raises_before_the_start(self, dim, points, monkeypatch):
        g = make_grid(dim, [16] * dim)
        P = random_convex_potential(g, np.random.default_rng(1), margin=0.5)

        def no_start(P, y):
            raise AssertionError("the start solve ran")

        monkeypatch.setattr(legendre, "_newton_start", no_start)
        message = f"points have dimension 3, grid has {dim}"
        for evaluate in (gradient_map, gradient_map_inverse):
            with pytest.raises(ValueError, match=message):
                evaluate(P, points)

    def test_1d_vector_holds_one_point_per_entry(self):
        g = make_grid(1, [16])
        P = random_convex_potential(g, np.random.default_rng(3), margin=0.5)
        x = np.array([0.1, 0.6])
        y = gradient_map(P, x)
        assert y.shape == (2, 1) and np.array_equal(y, gradient_map(P, x[:, None]))
        assert np.array_equal(gradient_map_inverse(P, y[:, 0]), gradient_map_inverse(P, y))

    def test_gradient_at_takes_a_1d_point_vector(self):
        g = make_grid(1, [16])
        P = random_convex_potential(g, np.random.default_rng(3), margin=0.5)
        x = np.array([0.1, 0.6])
        y = P.gradient_at(x)
        assert np.array_equal(y, P.gradient_at(x[:, None]))
        assert np.array_equal(y, gradient_map(P, x))

    def test_stacked_points_raise(self):
        P = Potential.flat(make_grid(2, [16, 16]))
        for evaluate in (gradient_map, gradient_map_inverse):
            with pytest.raises(ValueError, match=r"\(P, n\) array"):
                evaluate(P, np.full((2, 2, 2), 0.25))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_points(self, dim):
        g = make_grid(dim, [8] * dim)
        P = random_convex_potential(g, np.random.default_rng(1), margin=0.5)
        assert gradient_map_inverse(P, np.empty((0, dim))).shape == (0, dim)


class TestInversionFailure:
    def test_names_the_failing_target_point(self, monkeypatch):
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(4), margin=0.3)
        monkeypatch.setattr(legendre, "_INVERSION_MAX_ITERS", 1)
        with pytest.raises(GradientInversionFailure) as info:
            gradient_map_inverse(P, g.node_points())
        exc = info.value
        nodes = g.node_points().reshape(g.shape + (g.dim,))
        assert exc.node is not None
        assert exc.point == tuple(nodes[exc.node])
        assert exc.tolerance == legendre._INVERSION_TOLERANCE
        assert exc.residual > exc.tolerance
        assert f"dual node {exc.node}" in str(exc)
        # Newton runs independently per point, so the reported point alone
        # fails with the same residual
        with pytest.raises(GradientInversionFailure) as alone:
            gradient_map_inverse(P, [exc.point])
        assert alone.value.residual == pytest.approx(exc.residual, rel=1e-6)
        assert alone.value.node == exc.node

    def test_off_grid_target_has_no_node(self, monkeypatch):
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(4), margin=0.3)
        monkeypatch.setattr(legendre, "_INVERSION_MAX_ITERS", 1)
        with pytest.raises(GradientInversionFailure) as info:
            gradient_map_inverse(P, [[0.31, 0.77]])
        assert info.value.node is None
        assert info.value.point == (0.31, 0.77)
        assert "dual node" not in str(info.value)

    def test_huge_target_names_no_node(self):
        # y N = 1.6e301 is an integer in floating point, but no node index
        g = make_grid(2, [16, 16])
        P = Potential.flat(g, QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]])))
        with pytest.raises(GradientInversionFailure) as info:
            gradient_map_inverse(P, [[1e300, 0.5]])
        assert info.value.node is None
        assert "dual node" not in str(info.value)
        assert legendre._grid_nodes(g, np.array([[1e300, 0.5]])) is None
        # the largest node index that is still exact is named
        big = np.array([[(2.0**52 - 16) / 16, 0.5]])
        assert legendre._grid_nodes(g, big).tolist() == [[0, 8]]

    def test_raises_only_when_unconverged(self, monkeypatch):
        # a run that converges on its last allowed iteration succeeds
        P = manufactured_potential(32)
        ys = np.array([[0.1], [0.55]])
        outcomes = []
        for iters in range(1, 8):
            monkeypatch.setattr(legendre, "_INVERSION_MAX_ITERS", iters)
            try:
                gradient_map_inverse(P, ys)
                outcomes.append(True)
            except GradientInversionFailure as exc:
                assert exc.residual > exc.tolerance
                outcomes.append(False)
        assert outcomes[0] is False and outcomes[-1] is True


class TestStuckPoint:
    def test_stuck_point_leaves_the_iteration(self, monkeypatch):
        # the stalled target's residual cannot drop below 5e-12, from its
        # start node (0.02 away) on, so every line search on it fails; the
        # other targets converge in one step
        g = make_grid(2, [16, 16])
        stalled = np.array([0.31, 0.77])
        ys = np.array([[0.1, 0.2], stalled, [0.6, 0.45]])
        grad_calls = []

        def stall(x, grad):
            grad[np.max(np.abs(x - stalled), axis=1) < 0.05] = stalled + 5e-12
            return grad

        phi_and_gradient_at = Potential.phi_and_gradient_at
        node_gradient = Potential.node_gradient

        def stalling_gradient_at(self, x):
            grad_calls.append(len(x))
            phi, grad = phi_and_gradient_at(self, x)
            return phi, stall(x, grad)

        def stalling_node_gradient(self, x, nodes):
            return stall(x, node_gradient(self, x, nodes))

        monkeypatch.setattr(Potential, "phi_and_gradient_at", stalling_gradient_at)
        monkeypatch.setattr(Potential, "node_gradient", stalling_node_gradient)
        with pytest.raises(GradientInversionFailure) as info:
            gradient_map_inverse(Potential.flat(g), ys)
        exc = info.value
        assert exc.point == tuple(stalled)
        assert exc.residual == np.max(np.abs(stalled + 5e-12 - stalled))
        assert exc.tolerance == legendre._INVERSION_TOLERANCE
        assert exc.node is None
        # one line search of 40 halvings (its first trial also steps the
        # other targets); repeating it on every outer iteration took about
        # 2000 calls
        assert len(grad_calls) <= 45

    def test_kept_hessian_is_refreshed_before_the_point_is_stuck(self, monkeypatch):
        # the target is a node, so the first step uses the node Hessian; it
        # lands where the residual is held at 5e-12, which predicts that the
        # kept Hessian converges, but every step from there fails
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(3), margin=0.999)
        y = np.array([[3 / 16, 5 / 16]])
        solution = gradient_map_inverse(P, y)[0]
        events = []

        phi_and_gradient_at = Potential.phi_and_gradient_at
        hessian_at = Potential.hessian_at

        def stalling_gradient_at(self, x):
            events.append(("grad", len(x)))
            phi, out = phi_and_gradient_at(self, x)
            out[np.max(np.abs(x - solution), axis=1) < 1e-3] = y[0] + 5e-12
            return phi, out

        def counted_hessian_at(self, x):
            events.append(("hess", len(x)))
            return hessian_at(self, x)

        monkeypatch.setattr(Potential, "phi_and_gradient_at", stalling_gradient_at)
        monkeypatch.setattr(Potential, "hessian_at", counted_hessian_at)
        with pytest.raises(GradientInversionFailure) as info:
            gradient_map_inverse(P, y)
        exc = info.value
        assert exc.point == tuple(y[0])
        assert exc.residual == np.max(np.abs(y[0] + 5e-12 - y[0]))
        assert exc.tolerance == legendre._INVERSION_TOLERANCE
        assert exc.node == (3, 5)
        # accepted node step, 40 failed halvings with the kept Hessian, one
        # refresh, 40 failed halvings with the fresh one
        search = [("grad", 1)] * 40
        assert events == [("grad", 1)] + search + [("hess", 1)] + search


@pytest.fixture
def partials_calls(monkeypatch):
    """Points passed to every TrigInterpolant.partials call, while active."""
    calls = []
    partials = TrigInterpolant.partials

    def spy(self, points, orders):
        calls.append(np.array(points, dtype=float))
        return partials(self, points, orders)

    monkeypatch.setattr(TrigInterpolant, "partials", spy)
    return calls


@pytest.fixture
def partials_orders(monkeypatch):
    """(points, highest derivative order) of every TrigInterpolant.partials
    call, while active."""
    calls = []
    partials = TrigInterpolant.partials

    def spy(self, points, orders):
        calls.append((np.array(points, dtype=float), max(map(sum, orders))))
        return partials(self, points, orders)

    monkeypatch.setattr(TrigInterpolant, "partials", spy)
    return calls


def _gradient_residual(P, x, y):
    """|grad u(x) - y| per point, from an interpolant of its own."""
    eye = [tuple(row) for row in np.eye(P.grid.dim, dtype=int)]
    grad = x @ P.base.matrix + TrigInterpolant(P.perturbation).partials(x, eye)
    return np.max(np.abs(grad - y), axis=1)


def _unimodular_potential():
    """2D 16^2 potential on the integer SPD base [[2, 1], [1, 1]], whose
    start points M^{-1} y at the nodes leave [0, 1)^2 on both sides."""
    g = make_grid(2, [16, 16])
    phi = random_convex_potential(g, np.random.default_rng(8), margin=0.9)
    base = QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]]))
    P = Potential(base, phi.perturbation)
    assert P.hessian_state.min_eigenvalue > 0.2
    return P


class TestNodeStart:
    """Every target starts at the grid node nearest M^{-1} y and takes its
    first Newton step from spectral data: no start point reaches the
    interpolant."""

    @pytest.mark.parametrize(
        "shape, base",
        [((32,), [[1.0]]), ((16, 16), np.eye(2)), ((8, 8, 8), np.eye(3)),
         ((48, 48), [[2.0, 1.0], [1.0, 1.0]])],
        ids=["1d", "2d", "3d", "2d-unimodular"],
    )
    @pytest.mark.parametrize("targets", ["nodes", "off", "mixed"])
    def test_no_start_point_is_interpolated(
        self, shape, base, targets, monkeypatch, partials_calls
    ):
        g = make_grid(len(shape), list(shape))
        phi = random_convex_potential(g, np.random.default_rng(8), margin=0.9)
        P = Potential(QuadraticBase(np.array(base)), phi.perturbation)
        on = g.node_points()
        off = on + 1.0 / (3 * g.resolution[0])
        y = {"nodes": on, "off": off, "mixed": np.concatenate([on[::2], off[1::2]])}[
            targets
        ]
        starts = []
        node_gradient = Potential.node_gradient

        def spy(self, x, nodes):
            starts.append(x.copy())
            return node_gradient(self, x, nodes)

        monkeypatch.setattr(Potential, "node_gradient", spy)
        x = gradient_map_inverse(P, y)
        (x0,) = starts
        res = np.array(g.resolution)
        assert np.array_equal(np.rint(x0 * res) / res, x0)
        exact = np.linalg.solve(P.base.matrix, y.T).T
        assert np.all(np.abs(exact - x0) <= 0.5 / res + 1e-12)
        start = {row.tobytes() for row in x0}
        assert partials_calls
        for pts in partials_calls:
            assert not any(row.tobytes() in start for row in pts)
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    @pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
    def test_identity_base_nodes_skip_interpolation_at_start(
        self, shape, partials_calls
    ):
        g = make_grid(len(shape), list(shape))
        P = random_convex_potential(g, np.random.default_rng(len(shape)), margin=0.5)
        y = g.node_points()
        x = gradient_map_inverse(P, y)
        start = {row.tobytes() for row in y}
        assert partials_calls
        for pts in partials_calls:
            assert not any(row.tobytes() in start for row in pts)
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    def test_unimodular_base_gathers_nodes_modulo_n(self, partials_calls):
        P = _unimodular_potential()
        y = P.grid.node_points()
        x0 = np.linalg.solve(P.base.matrix, y.T).T
        assert (x0 < 0.0).any() and (x0 >= 1.0).any()
        x = gradient_map_inverse(P, y)
        start = {row.tobytes() for row in x0}
        for pts in partials_calls:
            assert not any(row.tobytes() in start for row in pts)
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    def test_unimodular_base_starts_on_nodes_where_solve_rounds(self, monkeypatch):
        # at 48^2 the solve rounds M^{-1} y off the nodes; the start is
        # still the node
        g = make_grid(2, [48, 48])
        phi = random_convex_potential(g, np.random.default_rng(8), margin=0.9)
        base = QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]]))
        P = Potential(base, phi.perturbation)
        y = g.node_points()
        x0 = np.linalg.solve(P.base.matrix, y.T).T
        assert legendre._grid_nodes(g, x0) is None
        gathered = []
        node_gradient = Potential.node_gradient

        def spy(self, x, nodes):
            gathered.append(len(nodes))
            return node_gradient(self, x, nodes)

        monkeypatch.setattr(Potential, "node_gradient", spy)
        x = gradient_map_inverse(P, y)
        assert gathered == [len(y)]
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    def test_identity_base_start_is_the_target(self):
        g = make_grid(2, [48, 48])
        P = random_convex_potential(g, np.random.default_rng(2), margin=0.5)
        y = g.node_points()
        x, nodes = legendre._newton_start(P, y)
        assert np.array_equal(x, y)
        assert np.array_equal(nodes, legendre._grid_nodes(g, y))
        # an off-grid target starts at its nearest node
        x, off_nodes = legendre._newton_start(P, y + 1.0 / 144.0)
        assert np.array_equal(x, y) and np.array_equal(off_nodes, nodes)


class TestKeptHessian:
    """Each point keeps its Hessian and re-interpolates D^2 u only where
    r^2 > _INVERSION_TOLERANCE r', r' the residual before the last step."""

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    def test_small_perturbation_interpolates_no_hessian(self, shape, partials_orders):
        g = make_grid(len(shape), list(shape))
        P = random_convex_potential(g, np.random.default_rng(0), margin=0.999)
        y = g.node_points()
        x = gradient_map_inverse(P, y)
        assert partials_orders
        assert all(order == 1 for _, order in partials_orders)
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    def test_large_perturbation_refreshes_some_hessians(self, partials_orders):
        g = make_grid(2, [32, 32])
        P = random_convex_potential(g, np.random.default_rng(0), margin=0.05)
        y = g.node_points()
        x = gradient_map_inverse(P, y)
        refreshed = [len(pts) for pts, order in partials_orders if order == 2]
        assert refreshed and refreshed[0] <= len(y)
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    @pytest.mark.parametrize("shape", [(32,), (16, 16), (8, 8, 8)])
    def test_off_grid_targets_interpolate_hessian_first(self, shape, partials_orders):
        # a target h/3 off its start node: the node Hessian is not kept past
        # the first step, D^2 u is re-interpolated at the first interpolated
        # points before any second gradient call.  The perturbation is
        # large enough that some first steps miss r^2 <= tol r': at margin
        # 0.999, Chebyshev's first step meets it at every 1D point, which
        # keeps the node inverse for the second step
        g = make_grid(len(shape), list(shape))
        P = random_convex_potential(g, np.random.default_rng(1), margin=0.99)
        nodes = g.node_points()
        y = nodes + 1.0 / (3 * g.resolution[0])
        x = gradient_map_inverse(P, y)
        (stepped, first), (at, second) = partials_orders[:2]
        assert first == 1 and second == 2
        start = {row.tobytes() for row in nodes}
        assert not any(row.tobytes() in start for row in stepped)
        assert {row.tobytes() for row in at} <= {row.tobytes() for row in stepped}
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE


class TestKeptInverseRobustness:
    """A refreshed Hessian that cannot give a Newton step, and a potential
    whose node Hessians have no inverse, end in classified errors."""

    @pytest.mark.parametrize(
        "entries",
        [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [-1.0, 0.0, -1.0]],
        ids=["singular", "zero", "indefinite", "negative"],
    )
    def test_bad_refreshed_hessian_fails_cleanly(self, entries, monkeypatch):
        # the middle target, off the grid, gets D^2 u re-interpolated after
        # its node step; that Hessian is replaced near it (RuntimeWarnings
        # are errors in this suite)
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(1), margin=0.999)
        y = np.array([[0.1, 0.2], [1 / 3, 0.7], [0.6, 0.45]])
        refreshed = []

        hessian_at = Potential.hessian_at

        def corrupted(self, x):
            hess = hessian_at(self, x)
            near = np.max(np.abs(x - y[1]), axis=1) < 0.05
            hess[:, near] = np.array(entries)[:, None]
            refreshed.append(near.any())
            return hess

        monkeypatch.setattr(Potential, "hessian_at", corrupted)
        with pytest.raises(GradientInversionFailure) as info:
            gradient_map_inverse(P, y)
        assert any(refreshed)
        assert info.value.point == tuple(y[1])
        assert info.value.node is None
        # the other targets converge, alone, as before
        monkeypatch.undo()
        x = gradient_map_inverse(P, y[[0, 2]])
        assert np.max(_gradient_residual(P, x, y[[0, 2]])) <= legendre._INVERSION_TOLERANCE

    @pytest.mark.parametrize("targets", ["nodes", "off"])
    def test_node_start_of_non_convex_potential_raises(self, targets):
        g = make_grid(2, [16, 16])
        P = random_convex_potential(g, np.random.default_rng(2), margin=-0.1)
        assert not P.hessian_state.convex
        y = g.node_points() + (0.0 if targets == "nodes" else 1.0 / 48.0)
        with pytest.raises(NotConvex) as info:
            gradient_map_inverse(P, y)
        assert info.value.node == P.hessian_state.worst_node
        with pytest.raises(NotConvex):
            legendre_transform(P)


def _curved_potential(dim, n, a):
    """phi = a (sum_i cos(2 pi x_i + i) + sin(2 pi sum_i x_i) / 2), i =
    0..dim-1, on the n^dim grid: near the convexity floor at the given a."""
    g = make_grid(dim, [n] * dim)
    x = g.coordinate_arrays()
    phi = a * (sum(np.cos(TWO_PI * x[i] + i) for i in range(dim))
               + 0.5 * np.sin(TWO_PI * sum(x)))
    return Potential(QuadraticBase.identity(dim), project_mean_zero(ScalarField(g, phi)))


class TestChebyshevFirstStep:
    """From a node start the first candidate is x + d - H^{-1} T[d, d] / 2,
    T phi's third partials at the node, and the points it does not improve
    go on from the Newton step d."""

    @pytest.mark.parametrize("dim, k", [(1, (3,)), (2, (1, -2)), (3, (1, -1, 2))])
    def test_third_partials_at_the_nodes(self, dim, k):
        g = make_grid(dim, [8] * dim)
        amp, theta = 0.01, 0.3
        k = np.array(k)
        P = Potential(QuadraticBase.identity(dim), ScalarField.from_function(
            g, lambda *x: amp * np.cos(TWO_PI * sum(ki * xi for ki, xi in zip(k, x)) + theta)))
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 8, size=(20, dim))
        third = P.node_third_partials(tuple(nodes.T))
        orders = partial_orders(dim, 3)
        assert third.shape == (len(orders), 20)
        phase = TWO_PI * (nodes / 8.0) @ k + theta
        scale = amp * TWO_PI**3
        expected = scale * np.sin(phase) * np.array(
            [np.prod(k.astype(float) ** np.array(o)) for o in orders])[:, None]
        assert np.max(np.abs(third - expected)) <= 1e-13 * scale * np.abs(k).max() ** 3

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_contraction_is_the_full_tensor_and_rowwise(self, dim):
        # T[d, d] against the full symmetric tensor, and each row bitwise
        # what it gives alone
        rng = np.random.default_rng(dim)
        orders = partial_orders(dim, 3)
        third = rng.normal(size=(len(orders), 40))
        d = rng.normal(size=(40, dim))
        full = np.empty((40, dim, dim, dim))
        for i, j, k in np.ndindex(dim, dim, dim):
            full[:, i, j, k] = third[orders.index(tuple((i, j, k).count(a) for a in range(dim)))]
        got = legendre._third_contraction(third, d)
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, np.einsum("pijk,pj,pk->pi", full, d, d),
                                   rtol=1e-13, atol=1e-13)
        for row in range(40):
            alone = legendre._third_contraction(third[:, row : row + 1], d[row : row + 1])
            assert alone.tobytes() == got[row].tobytes()

    @pytest.mark.parametrize("shape", [(32, 32), (16, 16, 16)])
    def test_small_perturbation_converges_in_one_sweep(self, shape, partials_orders):
        # the Newton step from the nodes left 72-78% of these points above
        # tolerance, for a second sweep
        g = make_grid(len(shape), list(shape))
        P = random_convex_potential(g, np.random.default_rng(0), margin=0.999)
        y = g.node_points()
        x = gradient_map_inverse(P, y)
        assert [(len(pts), order) for pts, order in partials_orders] == [(len(y), 1)]
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    def test_huge_target_takes_the_newton_step(self):
        # the start's residual, 5e173, is the rounding of M^{-1} y, and
        # Chebyshev's candidate overflows; the Newton step converges, and
        # no overflow warning is raised (the suite makes one an error)
        g = make_grid(2, [16, 16])
        phi = random_convex_potential(g, np.random.default_rng(4), margin=0.95).perturbation
        P = Potential(QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]])), phi)
        y = np.array([[1e190, 3.7e189]])
        x = gradient_map_inverse(P, y)
        assert np.isfinite(x).all() and np.max(np.abs(x @ P.base.matrix - y)) < 1e176

    @pytest.mark.parametrize("dim, n, a", [(1, 64, 0.02), (2, 16, 0.012), (2, 32, 0.012),
                                           (3, 16, 0.008), (3, 16, 0.01)])
    def test_strongly_curved_potentials_invert(self, dim, n, a):
        # near the convexity floor the first candidate raises the residual
        # at some points (15 of 64 in 1D, 162 of 4096 in 3D at a = 0.01),
        # which then take the Newton step; halving the corrected step
        # instead stalls on 1D, 2D 32^2 and 3D 16^3 at a = 0.01
        P = _curved_potential(dim, n, a)
        V = legendre_transform(P)
        y = P.grid.node_points()
        assert np.max(_gradient_residual(P, V.preimages, y)) <= legendre._INVERSION_TOLERANCE


class TestRowSup:
    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(0, 20), st.integers(1, 3)),
                      elements=st.one_of(st.floats(), st.sampled_from([-0.0, -np.inf]))))
    def test_is_the_row_max_of_abs(self, a):
        # bit for bit, but for the payload of a NaN
        got, expected = legendre._row_sup(a), np.max(np.abs(a), axis=1)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert got[~np.isnan(got)].tobytes() == expected[~np.isnan(got)].tobytes()


def _solved_potential(n):
    """Solution of A = (cos 2 pi x + cos 2 pi y) / 2 on the n^2 grid."""
    g = make_grid(2, [n, n])
    a = ScalarField.from_function(
        g, lambda x, y: 0.5 * (np.cos(TWO_PI * x) + np.cos(TWO_PI * y))
    )
    return continuity_solve(a)[0], a


@pytest.fixture
def inversion_orders(monkeypatch):
    """(potential, [highest derivative order of each TrigInterpolant.partials
    call]) for each node inversion, from either start, run while active, in
    order."""
    runs, active = [], []
    partials = TrigInterpolant.partials

    def spying(invert):
        def spy(P, points):
            runs.append((P, []))
            active.append(P)
            try:
                return invert(P, points)
            finally:
                active.pop()

        return spy

    def partials_spy(self, points, orders):
        if active:  # inversions do not nest
            runs[-1][1].append(max(map(sum, orders)))
        return partials(self, points, orders)

    for name in ("_node_inversion", "_warm_preimages"):
        monkeypatch.setattr(legendre, name, spying(getattr(legendre, name)))
    monkeypatch.setattr(TrigInterpolant, "partials", partials_spy)
    return runs


@pytest.fixture
def warm_starts(monkeypatch):
    """The duals whose transform started from the duality with their primal
    while active, in order."""
    duals = []
    warm_preimages = legendre._warm_preimages

    def spy(V, z):
        duals.append(V)
        return warm_preimages(V, z)

    monkeypatch.setattr(legendre, "_warm_preimages", spy)
    return duals


class TestDualStart:
    """The transform of a dual starts its inversion at x = grad u(z), u its
    primal, with D^2 u(z) as its kept inverse Hessian."""

    def test_verify_inverts_the_dual_with_one_gradient_call(self, inversion_orders):
        P, a = _solved_potential(48)
        P = Potential(P.base, P.perturbation)  # nothing kept from the solve
        outcome = verify_solution(P, a)
        assert outcome.passed
        (primal, first), (dual, second) = inversion_orders
        assert primal is P and dual.primal is P
        # Chebyshev's first step leaves every residual within the kept
        # inverse's reach (r^2 <= tol r'): the primal refreshes no Hessian
        assert first and 2 not in first
        assert second == [1]

    def test_warm_and_cold_start_agree_on_a_perturbed_dual(self, monkeypatch):
        # the dual is 1e-7 off the transform's, so its start is not a root
        # and Newton must step from it
        P, _ = _solved_potential(16)
        g = P.grid
        bump = 1e-7 * ScalarField.from_function(
            g, lambda x, y: np.cos(TWO_PI * (x + 2 * y))
        ).values
        corrupt_first_dual(monkeypatch, bump)
        V = legendre_transform(P)
        starts = []
        newton = legendre._newton

        def spy(P, y, x, phi, grad, hinv, third):
            starts.append((third is not None, np.max(np.abs(grad - y))))
            return newton(P, y, x, phi, grad, hinv, third)

        monkeypatch.setattr(legendre, "_newton", spy)
        warm = legendre_transform(V).preimages
        cold = gradient_map_inverse(V, g.node_points())
        (warm_node, warm_residual), (cold_node, _) = starts
        assert not warm_node and cold_node
        assert warm_residual > 1e3 * legendre._INVERSION_TOLERANCE
        assert np.max(np.abs(warm - cold)) <= 1e-12

    def test_corrupted_dual_fails_involution(self, monkeypatch, warm_starts):
        P, a = _solved_potential(16)
        bump = 1e-6 * ScalarField.from_function(
            P.grid, lambda x, y: np.cos(TWO_PI * (x + 2 * y))
        ).values
        corrupt_first_dual(monkeypatch, bump)
        outcome = verify_solution(P, a)
        assert [V.primal for V in warm_starts] == [P]
        (check,) = [c for c in outcome.bounds.inequalities
                    if c.name == "legendre-involution"]
        assert not check.satisfied and 1e-7 < check.lhs < 1e-5
        assert outcome.passed is False

    def test_warm_start_returns_psi_at_its_roots(self):
        # the start's psi comes with its gradient, one stacked call, and
        # is kept where a point does not step
        P, _ = _solved_potential(16)
        V = legendre_transform(P)
        y = V.grid.node_points()
        x, psi = legendre._warm_preimages(V, y)
        expected = TrigInterpolant(V.perturbation).evaluate(x)
        bound = 4 * np.finfo(float).eps * (1.0 + sup_norm(V.perturbation))
        assert np.max(np.abs(psi - expected)) <= bound

    def test_verify_evaluates_each_point_set_once(self, monkeypatch):
        # phi comes with grad u from the inversions' stacked calls, psi
        # with grad v from the dual's start, and det u and A are pulled
        # back together: at most 5 partials calls and one pullback pass,
        # and no lone value evaluation
        P, a = _solved_potential(48)
        P = Potential(P.base, P.perturbation)  # nothing kept from the solve
        calls, passes, values = [], [], []
        partials, evaluate = TrigInterpolant.partials, TrigInterpolant.evaluate
        together = legendre.interpolate_fields

        def spy_partials(self, points, orders):
            calls.append(len(points))
            return partials(self, points, orders)

        def spy_evaluate(self, points):
            values.append(len(points))
            return evaluate(self, points)

        def spy_together(fields, points):
            passes.append(fields)
            return together(fields, points)

        monkeypatch.setattr(TrigInterpolant, "partials", spy_partials)
        monkeypatch.setattr(TrigInterpolant, "evaluate", spy_evaluate)
        monkeypatch.setattr(legendre, "interpolate_fields", spy_together)
        outcome = verify_solution(P, a)
        assert outcome.passed
        assert 0 < len(calls) <= 5 and values == []
        ((det_u, atilde),) = passes
        assert np.array_equal(det_u.values, P.hessian_state.det) and atilde is a
        assert not hasattr(Potential, "perturbation_at")

    def test_a_potential_built_from_a_dual_starts_from_the_nodes(self, warm_starts):
        P, _ = _solved_potential(16)
        V = legendre_transform(P)
        W = Potential(V.base, V.perturbation)  # the same values, no primal
        cold = legendre_transform(W).preimages
        assert warm_starts == []
        warm = legendre_transform(V).preimages
        assert warm_starts == [V]
        assert np.max(np.abs(warm - cold)) <= 1e-12


class TestDualPotential:
    def test_transform_keeps_its_primal_and_preimages(self):
        P, _ = _solved_potential(16)
        V = legendre_transform(P)
        assert isinstance(V, DualPotential) and V.primal is P
        assert np.array_equal(V.preimages, gradient_map_inverse(P, P.grid.node_points()))
        assert not V.preimages.flags.writeable
        with pytest.raises(ValueError):
            V.preimages[0, 0] = 0.0

    def test_pullback_samples_at_the_preimages(self):
        P, a = _solved_potential(16)
        V = legendre_transform(P)
        out = pullback_rhs(a, V)
        assert np.array_equal(out.values.ravel(), a.interpolant.evaluate(V.preimages))

    def test_preimages_are_copied_and_checked(self):
        P, _ = _solved_potential(16)
        V = legendre_transform(P)
        x = np.array(V.preimages)
        W = DualPotential(V.base, V.perturbation, P, x)
        x[0, 0] = 5.0
        assert np.array_equal(W.preimages, V.preimages)
        with pytest.raises(ValueError, match="one preimage per node"):
            DualPotential(V.base, V.perturbation, P, x[1:])
        Q = Potential.flat(make_grid(2, [8, 8]))
        with pytest.raises(ValueError, match="one preimage per node"):
            DualPotential(V.base, V.perturbation, Q, x)


@st.composite
def _inversion_cases(draw):
    """A random band-limited convex potential on a grid of 8 to 16 points
    per axis, in 2D also on the unimodular base [[2, 1], [1, 1]] where it
    stays convex, and targets on the nodes, off them, or both."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.lists(st.sampled_from([8, 10, 12, 16]), min_size=dim, max_size=dim))
    g = make_grid(dim, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    margin = draw(st.floats(0.02, 0.999))
    P = random_convex_potential(g, rng, margin=margin, max_mode=draw(st.integers(1, 3)))
    if dim == 2 and draw(st.booleans()):
        base = QuadraticBase(np.array([[2.0, 1.0], [1.0, 1.0]]))
        P = Potential(base, P.perturbation)
        assume(P.hessian_state.min_eigenvalue > 0.05)
    nodes = g.node_points()
    count = draw(st.integers(1, 40))
    on = nodes[rng.choice(len(nodes), size=count)]
    off = rng.uniform(-1.0, 2.0, size=(count, dim))
    targets = {"nodes": on, "off": off, "mixed": np.concatenate([on, off])}
    return P, targets[draw(st.sampled_from(sorted(targets)))]


class TestInversionProperty:
    @settings(max_examples=30, deadline=None)
    @given(case=_inversion_cases())
    def test_meets_tolerance_or_fails_cleanly(self, case):
        P, y = case
        try:
            x = gradient_map_inverse(P, y)
        except GradientInversionFailure as exc:
            assert exc.residual > exc.tolerance
            return
        assert x.shape == y.shape
        assert np.max(_gradient_residual(P, x, y)) <= legendre._INVERSION_TOLERANCE

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           margin=st.floats(0.05, 0.95))
    def test_each_row_is_its_own_inversion(self, dim, seed, margin):
        # a point's Newton run reads nothing of the other points, bit for
        # bit: the sweeps compact the points still running, the row
        # gathers that do it keep the per-point arrays C-contiguous, on
        # which einsum's 3 x 3 mat-vec rounds as on one point, and the
        # interpolant's first-axis product is a GEMM, which rounds each
        # row alone, in 1D too
        g = make_grid(dim, [12] * dim)
        rng = np.random.default_rng(seed)
        P = random_convex_potential(g, rng, margin=margin, max_mode=2)
        nodes = g.node_points()
        y = np.concatenate([nodes[rng.choice(len(nodes), size=16)],
                            rng.uniform(-1.0, 2.0, size=(16, dim))])
        x = gradient_map_inverse(P, y)
        for target, row in zip(y, x):
            assert gradient_map_inverse(P, target[None]).tobytes() == row.tobytes()


    @settings(max_examples=30, deadline=None)
    @given(case=_inversion_cases())
    def test_returns_phi_at_its_roots(self, case):
        # the inversion evaluates phi in the stacked call that gives grad u
        # and keeps it at each accepted x, or the node value where a point
        # never leaves its node start: phi's interpolant there, to within
        # 4 ulps of 1 + sup|phi|
        P, y = case
        try:
            x, phi = legendre._node_inversion(P, P.grid.check_points(y))
        except GradientInversionFailure:
            return
        assert x.tobytes() == gradient_map_inverse(P, y).tobytes()
        expected = TrigInterpolant(P.perturbation).evaluate(x)
        bound = 4 * np.finfo(float).eps * (1.0 + sup_norm(P.perturbation))
        assert phi.shape == (len(y),) and np.max(np.abs(phi - expected)) <= bound


class TestLegendreTransform:
    def test_flat_maps_to_flat(self):
        g = make_grid(2, [16, 16])
        V = legendre_transform(Potential.flat(g))
        assert sup_norm(V.perturbation) < 1e-13
        assert np.array_equal(V.base.matrix, np.eye(2))  # the exact inverse

    def test_dual_of_manufactured_against_bisection(self):
        P = manufactured_potential(64)
        g = P.grid
        y = g.axis_coordinates(0)
        v_raw = np.empty_like(y)
        for i, yv in enumerate(y):
            xv = bisect_gradient_inverse(yv)
            u = 0.5 * xv * xv + EPS * np.cos(TWO_PI * xv)
            v_raw[i] = yv * xv - u
        psi_oracle = v_raw - 0.5 * y * y
        psi_oracle -= psi_oracle.mean()  # transform output is gauge-fixed
        V = legendre_transform(P)
        assert np.max(np.abs(V.perturbation.values - psi_oracle)) < 1e-9

    def test_involution(self):
        # the dual perturbation must itself be resolved at this N, which
        # needs a healthy margin; rougher potentials need higher N
        rng = np.random.default_rng(1)
        for dim in (1, 2):
            g = make_grid(dim, [64] * dim)
            P = random_convex_potential(g, rng, margin=0.55, max_mode=2)
            V = legendre_transform(P)
            back = legendre_transform(V)
            assert sup_norm(back.perturbation - P.perturbation) < 1e-8

    def test_determinant_duality(self):
        P = manufactured_potential(64)
        V = legendre_transform(P)
        x_of_y = gradient_map_inverse(P, P.grid.node_points())
        det_u = TrigInterpolant(ScalarField(P.grid, P.hessian_state.det))
        det_v = V.hessian_state.det.ravel()
        assert np.max(np.abs(det_v * det_u.evaluate(x_of_y) - 1.0)) < 1e-8

    def test_dual_gauge_is_mean_zero(self):
        g = make_grid(2, [16, 16])
        rng = np.random.default_rng(2)
        V = legendre_transform(random_convex_potential(g, rng, margin=0.6))
        assert abs(mean(V.perturbation)) < 1e-14

    def test_rejects_lattice_breaking_base(self):
        g = make_grid(1, [16])
        P = Potential.flat(g, QuadraticBase(np.array([[2.0]])))
        with pytest.raises(ValueError):
            legendre_transform(P)


_UNIMODULAR_BASES = {
    2: [[2.0, 1.0], [1.0, 1.0]],
    3: [[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


@st.composite
def _resolved_potentials(draw):
    """A potential whose dual its grid resolves to rounding: phi a random
    trigonometric polynomial with |k|_inf <= 1 and sup|phi| between 1e-7
    and 3e-5 times the smallest eigenvalue of the base, on 32, 32^2 or
    32 x 32 x 16 nodes, with the identity base or (2D, 3D) a unimodular
    one."""
    dim = draw(st.integers(1, 3))
    base = np.eye(dim)
    if dim > 1 and draw(st.booleans()):
        base = np.array(_UNIMODULAR_BASES[dim])
    g = make_grid(dim, [32, 32, 16][:dim])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 10.0 ** draw(st.floats(-7.0, -4.5)) * np.linalg.eigvalsh(base)[0]
    phi = size * random_band_limited(g, rng, max_mode=1)
    return Potential(QuadraticBase(base), phi)


class TestDualOnItsOwnScale:
    """psi = v - y^T M^{-1} y / 2 is formed as -phi(x) - g^T M^{-1} g / 2
    with g = y - x M, so no O(1) term cancels: psi carries rounding at its
    own scale, and its interpolant keeps the band psi resolves."""

    def test_dual_band_is_the_primal_band(self):
        P, _ = _solved_potential(48)
        V = legendre_transform(P)
        for primal, dual in zip(P.perturbation.interpolant.band,
                                V.perturbation.interpolant.band):
            assert abs(dual - primal) <= 1

    def test_exact_1d_solution_meets_the_dual_residual_bound(self):
        g = make_grid(1, [256])
        a = ScalarField.from_function(g, lambda x: 0.5 * np.cos(TWO_PI * x))
        phi = ScalarField(g, exact_discrete_solution_1d(a.values))
        outcome = verify_solution(Potential(QuadraticBase.identity(1), phi), a)
        (check,) = [c for c in outcome.bounds.inequalities
                    if c.name == "dual-residual"]
        assert check.satisfied

    @settings(max_examples=25, deadline=None)
    @given(P=_resolved_potentials())
    def test_agrees_with_the_direct_formula_and_inverts_at_phi_scale(self, P):
        eps = np.finfo(float).eps
        y = P.grid.node_points()
        x = gradient_map_inverse(P, y)
        # v(y) - y^T M^{-1} y / 2 term by term, each term O(1)
        terms = [
            np.einsum("pi,pi->p", x, y),
            -0.5 * np.einsum("pi,ij,pj->p", x, P.base.matrix, x),
            -P.perturbation.interpolant.evaluate(x),
            -0.5 * np.einsum("pi,ij,pj->p", y, P.base.inverse().matrix, y),
        ]
        direct = sum(terms)
        direct -= direct.mean()
        rounding = eps * np.max(sum(np.abs(t) for t in terms))
        V = legendre_transform(P)
        assert np.max(np.abs(V.perturbation.values.ravel() - direct)) <= 4 * rounding
        phi = P.perturbation
        scale = sup_norm(phi) + max(sup_norm(d) for d in gradient(phi))
        back = legendre_transform(V)
        assert sup_norm(back.perturbation - phi) <= 16 * eps * scale


class TestPullbackRhs:
    def test_flat_is_identity(self):
        g = make_grid(1, [32])
        x = g.axis_coordinates(0)
        a = ScalarField(g, np.cos(TWO_PI * x))
        out = pullback_rhs(a, legendre_transform(Potential.flat(g)))
        assert sup_norm(out - a) < 1e-12

    def test_zero_stays_zero(self):
        P = manufactured_potential(32)
        out = pullback_rhs(ScalarField.zeros(P.grid), legendre_transform(P))
        assert sup_norm(out) < 1e-13

    @pytest.mark.parametrize("shape", [[32], [16, 16], [8, 10, 8]], ids=["1d", "2d", "3d"])
    def test_fields_pulled_back_together_are_each_pulled_back_alone(self, shape):
        # bit for bit, whatever the fields' bands: a full one, phi's, a
        # constant and a single mode
        g = make_grid(len(shape), shape)
        rng = np.random.default_rng(len(shape))
        P = random_convex_potential(g, rng, margin=0.5, max_mode=2)
        V = legendre_transform(P)
        fields = (ScalarField(g, rng.standard_normal(g.shape)), P.perturbation,
                  ScalarField(g, np.full(g.shape, 2.0)),
                  ScalarField(g, np.sin(TWO_PI * 2 * g.coordinate_arrays()[0])))
        together = pullback_rhs(fields, V)
        assert isinstance(together, tuple) and len(together) == len(fields)
        for pulled, f in zip(together, fields):
            alone = pullback_rhs(f, V)
            assert isinstance(alone, ScalarField) and pulled.grid == V.grid
            assert pulled.values.tobytes() == alone.values.tobytes()
        (one,) = pullback_rhs([fields[1]], V)
        assert one.values.tobytes() == together[1].values.tobytes()

    def test_sup_norm_preserved(self):
        _, a, _ = manufactured_problem(64)
        P = manufactured_potential(64)
        atilde = pullback_rhs(a, legendre_transform(P))
        assert sup_norm(atilde) <= sup_norm(a) * (1.0 + 1e-6)
        # dense-sampling oracle of sup A(x(y))
        y_dense = np.linspace(0.0, 1.0, 5000, endpoint=False)[:, None]
        x_dense = gradient_map_inverse(P, y_dense)
        a_interp = TrigInterpolant(a)
        assert sup_norm(atilde) == pytest.approx(
            np.max(np.abs(a_interp.evaluate(x_dense))), rel=1e-4
        )


class TestDualResidual:
    def test_flat_zero(self):
        g = make_grid(2, [16, 16])
        out = dual_residual(Potential.flat(g), ScalarField.zeros(g))
        assert sup_norm(out) < 1e-12

    def test_manufactured_dual_equation(self):
        from abreu import continuity_solve

        _, a, _ = manufactured_problem(64)
        P, _ = continuity_solve(a)
        V = legendre_transform(P)
        atilde = pullback_rhs(a, V)
        assert sup_norm(dual_residual(V, atilde)) < 1e-6
