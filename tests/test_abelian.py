"""Scalar curvature of invariant metrics and curvature prescription."""

import numpy as np
import pytest

from abreu import (
    HessianState,
    InvariantMetric,
    MeanNotZero,
    NotConvex,
    ScalarField,
    TrigInterpolant,
    convexity_margin,
    gradient_map,
    make_grid,
    mean,
    metric_volume_mean,
    prescribe_curvature,
    scalar_curvature,
    scalar_curvature_symplectic,
    sup_norm,
)
from abreu.potential import CONVEXITY_FLOOR
from tests.support import EPS, S_AT_0, S_AT_QUARTER, random_convex_potential

TWO_PI = 2.0 * np.pi


def manufactured_metric(n=64, eps=EPS):
    g = make_grid(1, [n])
    x = g.axis_coordinates(0)
    return InvariantMetric(ScalarField(g, eps * np.cos(TWO_PI * x)))


class TestScalarCurvature:
    def test_flat_metric_is_scalar_flat(self):
        g = make_grid(2, [16, 16])
        m = InvariantMetric(ScalarField.zeros(g))
        assert sup_norm(scalar_curvature(m)) < 1e-12
        assert sup_norm(scalar_curvature_symplectic(m)) < 1e-12

    def test_manufactured_closed_form(self):
        m = manufactured_metric(64)
        s = scalar_curvature(m)
        assert s.values[0] == pytest.approx(S_AT_0, abs=1e-8)
        assert s.values[16] == pytest.approx(S_AT_QUARTER, abs=1e-8)

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x")
        vpp = 1 - 4 * sympy.pi**2 * sympy.Rational(1, 100) * sympy.cos(2 * sympy.pi * xs)
        s_sym = -sympy.Rational(1, 4) * (1 / vpp) * sympy.diff(sympy.log(vpp), xs, 2)
        assert float(s_sym.subs(xs, 0)) == pytest.approx(S_AT_0, abs=1e-12)
        assert float(s_sym.subs(xs, sympy.Rational(1, 4))) == pytest.approx(
            S_AT_QUARTER, abs=1e-12
        )

    def test_volume_weighted_mean_vanishes(self):
        # the x-coordinate sampling is mean-zero against the metric volume
        # element det(v_ab) dx, not against dx
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = make_grid(1, [64])
            psi = random_convex_potential(g, rng, margin=0.6, max_mode=2).perturbation
            m = InvariantMetric(psi)
            s = scalar_curvature(m)
            assert abs(metric_volume_mean(m, s)) < 1e-10

    def test_volume_mean_rejects_a_field_on_another_grid(self):
        # 8 nodes on one axis broadcast against 8 x 8 values without the check
        g = make_grid(2, [8, 8])
        m = InvariantMetric(random_convex_potential(g, np.random.default_rng(9)).perturbation)
        f = ScalarField(make_grid(1, [8]), np.cos(TWO_PI * np.arange(8) / 8))
        with pytest.raises(ValueError, match="different grid"):
            metric_volume_mean(m, f)

    def test_symplectic_sampling_plain_mean_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = make_grid(1, [64])
            psi = random_convex_potential(g, rng, margin=0.6, max_mode=2).perturbation
            m = InvariantMetric(psi)
            assert abs(mean(scalar_curvature_symplectic(m))) < 1e-10

    def test_coordinate_samplings_agree_through_gradient_map(self):
        # S(x) must equal the symplectic sampling composed with t = grad v
        m = manufactured_metric(64)
        s_x = scalar_curvature(m)
        s_t = scalar_curvature_symplectic(m)
        t_of_x = gradient_map(m.potential, m.psi.grid.node_points())
        pulled = TrigInterpolant(s_t).evaluate(t_of_x).reshape(m.psi.grid.shape)
        assert np.max(np.abs(pulled - s_x.values)) < 1e-6

    def test_rejects_nonconvex_metric(self):
        from abreu import NotConvex

        g = make_grid(1, [32])
        x = g.axis_coordinates(0)
        m = InvariantMetric(ScalarField(g, 0.5 * np.cos(TWO_PI * x)))
        with pytest.raises(NotConvex):
            scalar_curvature(m)


    def test_rejects_metric_off_the_gauge(self):
        g = make_grid(1, [16])
        with pytest.raises(ValueError):
            InvariantMetric(ScalarField.constant(g, 0.1))

    def test_margin_at_the_floor_is_not_positive(self):
        # v'' = 1 - (1 - 5e-9) cos(2 pi x) has margin 5e-9, inside the floor
        g = make_grid(1, [32])
        x = g.axis_coordinates(0)
        psi = (1.0 - 5e-9) / (4.0 * np.pi**2) * np.cos(TWO_PI * x)
        m = InvariantMetric(ScalarField(g, psi))
        assert 0.0 < convexity_margin(m.potential) <= CONVEXITY_FLOOR
        assert not m.is_positive()
        with pytest.raises(NotConvex):
            scalar_curvature(m)

    def test_one_hessian_state_per_metric(self, monkeypatch):
        built = []
        original = HessianState.__post_init__

        def counting(state):
            built.append(state)
            original(state)

        monkeypatch.setattr(HessianState, "__post_init__", counting)
        m = manufactured_metric(64)
        metric_volume_mean(m, scalar_curvature(m))
        assert m.is_positive()
        assert len(built) == 1


class TestPrescribeCurvature:
    def test_zero_curvature_gives_flat(self):
        g = make_grid(1, [32])
        m, trace = prescribe_curvature(ScalarField.zeros(g))
        assert sup_norm(m.psi) == 0.0
        assert [s.t for s in trace.steps] == [1.0]

    def test_round_trip_manufactured(self):
        m = manufactured_metric(64)
        s_t = scalar_curvature_symplectic(m)
        recovered, _ = prescribe_curvature(s_t)
        assert sup_norm(recovered.psi - m.psi) < 1e-6

    def test_2d_prescription_matches_target(self):
        g = make_grid(2, [32, 32])
        t1, t2 = g.coordinate_arrays()
        s = ScalarField(g, 0.1 * (np.cos(TWO_PI * t1) - np.cos(TWO_PI * t2)))
        metric, trace = prescribe_curvature(s)
        measured = scalar_curvature_symplectic(metric)
        assert sup_norm(measured - s) < 1e-6
        assert trace.steps[-1].t == 1.0

    def test_3d_round_trip_to_rounding(self):
        # the metric side is transformed at psi's own scale, so the round
        # trip is limited by the solve, not by the O(1) Legendre terms
        g = make_grid(3, [16, 16, 16])
        t1, t2, t3 = g.coordinate_arrays()
        s = ScalarField(g, 0.05 * np.cos(TWO_PI * (t1 + t2))
                        + 0.04 * np.sin(TWO_PI * (t2 - t3))
                        + 0.03 * np.cos(TWO_PI * t3))
        metric, _ = prescribe_curvature(s)
        assert sup_norm(scalar_curvature_symplectic(metric) - s) < 1e-10

    def test_rejects_nonzero_mean(self):
        g = make_grid(1, [16])
        with pytest.raises(MeanNotZero):
            prescribe_curvature(ScalarField.constant(g, 0.2))

    def test_metric_gauge_and_positivity(self):
        m = manufactured_metric(64)
        s_t = scalar_curvature_symplectic(m)
        recovered, _ = prescribe_curvature(s_t)
        assert abs(mean(recovered.psi)) < 1e-12
        assert recovered.is_positive()
