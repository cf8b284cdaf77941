"""Bound monitors minimize over lattice shifts one axis at a time.

The reference is the tiled minimization: the test function evaluated on
the whole periodic tiling of the covering box, (reps N)^n points, and a
row-major argmin over it.  Both monitors' reports, and the minimizer and
node behind each, must equal the reference's exactly, on random convex
potentials and on symmetric ones whose minima tie between shifts.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import (
    Potential,
    QuadraticBase,
    ScalarField,
    choose_beta,
    estimates,
    lower_bound_monitor,
    make_grid,
    potential,
    upper_bound_monitor,
)
from tests.support import random_convex_potential

TWO_PI = 2.0 * np.pi


def tiled_minimum(value, grid, reps, origin):
    """Row-major argmin of `value` over the tiled box [origin, origin+reps)^n.

    Axis a of the box has the coordinates origin + arange(reps N_a)/N_a,
    the node at box index t being t mod N_a.  The coordinates are laid out
    as (shift_0, .., shift_{n-1}, node_0, .., node_{n-1}) so that the node
    fields `value` closes over broadcast, then interleaved into the box.
    """
    n = grid.dim
    axes, ys = [], []
    for a, size in enumerate(grid.resolution):
        axes.append(origin + np.arange(reps * size) / size)
        shape = [1] * (2 * n)
        shape[a], shape[n + a] = reps, size
        ys.append(axes[a].reshape(shape))
    values = np.broadcast_to(value(ys), (reps,) * n + grid.shape)
    interleave = [i for a in range(n) for i in (a, n + a)]
    box = values.transpose(interleave).reshape([len(ax) for ax in axes])
    idx = np.unravel_index(np.argmin(box), box.shape)
    point = np.array([ax[i] for ax, i in zip(axes, idx)])
    return point, tuple(int(i) % size for i, size in zip(idx, grid.resolution))


def _recorded(helper, calls):
    def minimum(*args):
        calls.append(helper(*args))
        return calls[-1]

    return minimum


def _monitor_reports(V, atilde, helper, calls):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimates, "_lattice_minimum", _recorded(helper, calls))
        return [
            monitor(V, atilde).to_dict()
            for monitor in (upper_bound_monitor, lower_bound_monitor)
        ]


def _symmetric_potential(grid, amplitude):
    """amplitude * sum_a cos(2 pi x_a): even in every axis."""
    vals = amplitude * sum(np.cos(TWO_PI * c) for c in grid.coordinate_arrays())
    return Potential(
        QuadraticBase.identity(grid.dim), ScalarField(grid, vals - vals.mean())
    )


class TestLatticeMinimum:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(16,), (8, 12), (12, 8), (8, 10, 8)]),
        seed=st.integers(0, 2**32 - 1),
        symmetric=st.booleans(),
    )
    def test_reports_match_tiled_box(self, shape, seed, symmetric):
        g = make_grid(len(shape), list(shape))
        rng = np.random.default_rng(seed)
        if symmetric:
            # margin 1 - 4 pi^2 |amplitude| >= 0.2
            V = _symmetric_potential(g, rng.uniform(-0.02, 0.02))
            atilde = ScalarField.zeros(g)
        else:
            V = random_convex_potential(g, rng, margin=rng.uniform(0.05, 0.9))
            atilde = ScalarField(g, rng.standard_normal(g.shape))
        by_axis, tiled = [], []
        got = _monitor_reports(V, atilde, estimates._lattice_minimum, by_axis)
        ref = _monitor_reports(V, atilde, tiled_minimum, tiled)
        assert got == ref
        assert len(by_axis) == len(tiled) == 2
        for (point, node), (ref_point, ref_node) in zip(by_axis, tiled):
            assert node == ref_node
            assert np.array_equal(point, ref_point)

    @pytest.mark.parametrize(
        "lifted, expected",
        [
            # nodes 1 and 7 tie at y = 1/8 and y = -1/8
            ([0], ([-0.125], (7,))),
            # node 4 ties between its shifts, y = -1/2 and y = 1/2
            ([0, 1, 2, 3, 5, 6, 7], ([-0.5], (4,))),
        ],
    )
    def test_ties_go_to_smaller_coordinates(self, lifted, expected):
        g = make_grid(1, [8])
        lift = np.zeros(8)
        lift[lifted] = 1.0

        def value(ys):
            return lift + estimates._half_square(ys)

        for minimum in (estimates._lattice_minimum, tiled_minimum):
            point, node = minimum(value, g, 2, -1.0)
            assert (point.tolist(), node) == expected


class TestMonitorMemory:
    def test_lower_monitor_3d_stays_small(self):
        # the tiled box of the lower monitor at 16^3 holds (8 * 16)^3
        # doubles per array, about 17 MB each and 118 MB at peak
        g = make_grid(3, [16, 16, 16])
        V = random_convex_potential(g, np.random.default_rng(3), margin=0.5)
        V.hessian_state
        tracemalloc.start()
        try:
            report = lower_bound_monitor(V, ScalarField.zeros(g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.beta is not None
        assert peak < 8 * 2**20


class TestMonitorGradients:
    def test_lower_monitor_takes_one_gradient(self, monkeypatch):
        g = make_grid(2, [16, 16])
        V = random_convex_potential(g, np.random.default_rng(4), margin=0.5)
        calls = []
        gradient = potential.gradient

        def spy(f):
            calls.append(f)
            return gradient(f)

        # the gradient is kept on the potential, so choose_beta takes none
        monkeypatch.setattr(potential, "gradient", spy)
        report = lower_bound_monitor(V, ScalarField.zeros(g))
        assert len(calls) == 1 and calls[0] is V.perturbation
        assert report.beta == choose_beta(V)
        assert len(calls) == 1
