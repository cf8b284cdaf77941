"""The one zero-mean test, `ScalarField.mean_zero` in grid.py.

A field is mean-zero when |mean f| <= MEAN_TOLERANCE * (1 + sup|f|).  The
bound is relative because the rounding error of a computed mean grows with
sup|f| (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
sec. 4.2), so large zero-mean fields must pass it.  The solve side
(continuity_solve, newton_step, prescribe_curvature) and verify's
rhs-mean-zero check must give the same verdict on every field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abreu import (
    AbreuError,
    MeanNotZero,
    Potential,
    ScalarField,
    continuity_solve,
    make_grid,
    mean,
    newton_step,
    prescribe_curvature,
    sup_norm,
    verify_solution,
)
from abreu import abelian, solver
from abreu.grid import MEAN_TOLERANCE
from tests.support import newton_record

TWO_PI = 2.0 * np.pi


def _four_cosines():
    """1e6 (cos 2 pi x + cos 4 pi y + cos 6 pi x + cos 8 pi y) on 64^2: an
    exactly zero-mean field whose floating-point mean is above 1e-10."""
    g = make_grid(2, [64, 64])
    x, y = g.coordinate_arrays()
    waves = np.cos(TWO_PI * x) + np.cos(2 * TWO_PI * y)
    waves += np.cos(3 * TWO_PI * x) + np.cos(4 * TWO_PI * y)
    f = ScalarField(g, 1e6 * waves)
    assert abs(mean(f)) > 1e-10  # what an absolute 1e-10 bound rejects
    return f


class _Reached(Exception):
    """Raised by a stub past the mean test: the test passed."""


def _reached(*args, **kwargs):
    raise _Reached


class TestLargeAmplitude:
    def test_passes_the_guard(self):
        f = _four_cosines()
        assert f.mean_zero
        f.require_mean_zero()
        assert f.mean_bound == MEAN_TOLERANCE * (1.0 + sup_norm(f))

    def test_continuity_solve_passes_mean_test(self, monkeypatch):
        monkeypatch.setattr(solver, "_newton_solve", _reached)
        with pytest.raises(_Reached):
            continuity_solve(_four_cosines())

    def test_prescribe_passes_mean_test(self, monkeypatch):
        monkeypatch.setattr(abelian, "continuity_solve", _reached)
        with pytest.raises(_Reached):
            prescribe_curvature(_four_cosines())

    def test_newton_step_passes_mean_test(self):
        f = _four_cosines()
        try:
            newton_step(newton_record(Potential.flat(f.grid), f), 0.5)
        except MeanNotZero:
            pytest.fail("newton_step rejected a zero-mean field")
        except AbreuError:
            pass  # far from convex at this amplitude; any other class is fine


def test_error_names_the_applied_bound():
    g = make_grid(1, [16])
    f = ScalarField.constant(g, 1.0)
    with pytest.raises(MeanNotZero) as info:
        f.require_mean_zero()
    assert info.value.bound == f.mean_bound == 2e-10
    assert "bound 2.000e-10" in str(info.value)


def _solve_verdict(f):
    """Whether newton_step lets f through its mean test."""
    try:
        newton_step(newton_record(Potential.flat(f.grid), f), 0.5)
    except MeanNotZero:
        return False
    except AbreuError:
        pass
    return True


def _verify_verdict(f):
    """verify_solution's rhs-mean-zero verdict on f."""
    report = verify_solution(Potential.flat(f.grid), f)
    (check,) = [c for c in report.bounds.inequalities if c.name == "rhs-mean-zero"]
    assert check.lhs == abs(mean(f)) and check.rhs == f.mean_bound
    return check.satisfied


@st.composite
def _trig_fields(draw):
    """sup-normalized sums of cos(2 pi k.x + theta), 0 < |k_i| <= 3 below
    Nyquist, times an amplitude from 1e-3 to 1e8."""
    shape = draw(st.sampled_from([(16,), (8, 8), (8, 8, 8)]))
    g = make_grid(len(shape), shape)
    wave = st.tuples(*[st.integers(-3, 3)] * g.dim).filter(any)
    ks = draw(st.lists(wave, min_size=1, max_size=4, unique=True))
    coords = g.coordinate_arrays()
    values = np.zeros(g.shape)
    for k in ks:
        phase = draw(st.floats(0.0, TWO_PI))
        weight = draw(st.floats(0.1, 1.0))
        values += weight * np.cos(TWO_PI * sum(c * x for c, x in zip(k, coords)) + phase)
    amplitude = 10.0 ** draw(st.floats(-3.0, 8.0))
    return ScalarField(g, amplitude * values / np.max(np.abs(values)))


class TestZeroMeanProperty:
    @settings(max_examples=40, deadline=None)
    @given(f=_trig_fields())
    def test_trig_fields_pass_and_shifted_fail(self, f):
        assert f.mean_zero
        shifted = f + 2.0 * f.mean_bound
        assert not shifted.mean_zero
        for field in (f, shifted):
            assert _solve_verdict(field) == _verify_verdict(field) == field.mean_zero
