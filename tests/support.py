"""Shared oracles and random-field generators for the test suite.

The manufactured 1D problem uses phi*(x) = eps cos(2 pi x) with identity
base, for which u'' = 1 - 4 pi^2 eps cos(2 pi x) and the right-hand side
A = (1/u'')'' has the closed form implemented in `manufactured_rhs_values`
(hand-differentiated; cross-checked against sympy in test_potential).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from abreu import (
    NewtonRecord,
    Potential,
    QuadraticBase,
    ScalarField,
    SymMatrixField,
    abreu_forward,
    convexity_margin,
    hessian,
    legendre,
    make_grid,
    project_mean_zero,
    second_divergence,
    solver,
)
from abreu.fieldlang import Bin, Call, Const, Neg, Num, Pow, Var
from abreu.grid import from_spectrum, full_to_triangle, triangle_to_full

EPS = 0.01
DELTA = 4.0 * np.pi**2 * EPS

# frozen sympy values for the manufactured problem (eps = 1/100):
#   A = d^2/dx^2 [ (1 - 4 pi^2 eps cos(2 pi x))^{-1} ]
A_AT_0 = -42.54993728716309
A_AT_EIGHTH = -4.7822071249037332
A_AT_QUARTER = 12.305781677763896
# F_0(eps cos) = -log((1 + sqrt(1 - delta^2)) / 2)
FUNCTIONAL_AT_STAR = 0.0414607993416872
# curvature of the metric psi = eps cos(2 pi x):  S = -(1/4)(1/v'')(log v'')''
S_AT_0 = -10.637484321790772
S_AT_QUARTER = 1.538222709720487


def grid1d(n=64):
    return make_grid(1, [n])


def manufactured_phi_values(x, eps=EPS):
    return eps * np.cos(2.0 * np.pi * x)


def manufactured_rhs_values(x, eps=EPS):
    """Closed form of (1/u'')'' for u'' = 1 - 4 pi^2 eps cos(2 pi x)."""
    delta = 4.0 * np.pi**2 * eps
    c = np.cos(2.0 * np.pi * x)
    s = np.sin(2.0 * np.pi * x)
    g = 1.0 / (1.0 - delta * c)
    return -delta * (2.0 * np.pi) ** 2 * g**2 * (c - 2.0 * delta * s**2 * g)


def manufactured_problem(n=64, eps=EPS):
    """(grid, A, phi_star) for the 1D manufactured solve."""
    grid = grid1d(n)
    x = grid.coordinate_arrays()[0]
    rhs = manufactured_rhs_values(x, eps)
    a = ScalarField(grid, rhs - rhs.mean())
    phi_star = ScalarField(grid, manufactured_phi_values(x, eps))
    return grid, a, phi_star


def manufactured_potential(n=64, eps=EPS):
    grid = grid1d(n)
    x = grid.coordinate_arrays()[0]
    return Potential(
        QuadraticBase.identity(1), ScalarField(grid, manufactured_phi_values(x, eps))
    )


def inverse_second_derivative_1d(values):
    """Spectral inverse of d^2/dx^2 on a 1D grid function, into the
    mean-zero fields; the Nyquist mode is kept, as even-order derivatives
    keep it."""
    n = len(values)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    spectrum = np.fft.rfft(values)
    out = np.zeros_like(spectrum)
    out[1:] = -spectrum[1:] / k[1:] ** 2
    return np.fft.irfft(out, n)


def exact_discrete_solution_1d(a_values):
    """The discrete 1D solution phi* for the right-hand side A, in closed form.

    In 1D u^11 = w = 1/u'' and the equation reads w'' = A, so
    w = c + D^{-1} A with D^{-1} the spectral inverse of d^2/dx^2.  The
    scalar c makes mean(1/w) = 1, the mean of u'' = 1 + phi''; mean(1/w)
    falls monotonically in c, so bisection between -min(D^{-1} A) (where
    w vanishes) and 1 - min(D^{-1} A) (where w >= 1) finds it to the last
    bit.  Then phi* = D^{-1}(1/w - mean(1/w)) solves the spectral
    equation up to rounding, in mean-zero gauge.
    """
    b = inverse_second_derivative_1d(a_values)
    lo, hi = -b.min(), 1.0 - b.min()
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (mid + b)) > 1.0:
            lo = mid
        else:
            hi = mid
    inverse_w = 1.0 / (hi + b)
    return inverse_second_derivative_1d(inverse_w - inverse_w.mean())


def manufactured_nd_problem(grid, amplitude=0.01):
    """(A, phi*) with A := forward(phi*) for a smooth convex phi*: one
    phase-shifted cosine per axis plus, from n = 2 on, a mixed mode along
    the diagonal.  phi* is returned in mean-zero gauge."""
    coords = grid.coordinate_arrays()
    values = sum(np.cos(2.0 * np.pi * c + axis) for axis, c in enumerate(coords))
    if grid.dim > 1:
        values = values + 0.5 * np.sin(2.0 * np.pi * sum(coords))
    values = amplitude * values
    phi_star = ScalarField(grid, values - values.mean())
    P = Potential(QuadraticBase.identity(grid.dim), phi_star)
    P.hessian_state.require_convex()
    return project_mean_zero(abreu_forward(P)), phi_star


def random_band_limited(grid, rng, max_mode=3, amplitude=1.0):
    """Random real trigonometric polynomial with |k|_inf <= max_mode,
    zero mean, normalized to the requested sup amplitude."""
    vals = np.zeros(grid.shape)
    coords = grid.coordinate_arrays()
    for k in product(range(-max_mode, max_mode + 1), repeat=grid.dim):
        if all(kk == 0 for kk in k):
            continue
        phase = 2.0 * np.pi * sum(kk * c for kk, c in zip(k, coords))
        vals += rng.normal() * np.cos(phase) + rng.normal() * np.sin(phase)
    top = np.max(np.abs(vals))
    if top > 0.0:
        vals *= amplitude / top
    return ScalarField(grid, vals - vals.mean())


def random_convex_potential(grid, rng, margin=0.5, max_mode=2):
    """Random potential rescaled so the Hessian margin is exactly `margin`.

    The Hessian is affine in the perturbation, so scaling phi by s moves
    the margin linearly: margin(s phi) = 1 - s (1 - margin(phi)).
    """
    f = random_band_limited(grid, rng, max_mode=max_mode, amplitude=1.0)
    probe = Potential(QuadraticBase.identity(grid.dim), f)
    m = convexity_margin(probe)
    scale = (1.0 - margin) / (1.0 - m) if m < 1.0 else 1.0
    return Potential(
        QuadraticBase.identity(grid.dim), ScalarField(grid, scale * f.values)
    )


def newton_record(P, target):
    """The Newton record of the potential P toward `target`, from P's node
    values; the record forms its own Hessian state."""
    return NewtonRecord(P.base, P.perturbation.values, target)


def linearized_apply(P, psi):
    """The solver's linearization at P applied to the field psi: its Krylov
    operator, which maps spectrum to spectrum, between the field's spectrum
    and node values."""
    out = solver._linearized_operator(P.hessian_state)(psi.spectrum)
    return ScalarField(P.grid, from_spectrum(P.grid, out))


def linearized_apply_oracle(P, values):
    """psi -> (u^ia psi_ab u^bj)_ij as full n x n stacks: h psi h by two
    batched matrix products, then the double divergence of the result."""
    hinv = triangle_to_full(P.hessian_state.inverse())
    psi_h = triangle_to_full(hessian(ScalarField(P.grid, values)).entries)
    g = hinv @ psi_h @ hinv
    out = second_divergence(SymMatrixField(P.grid, full_to_triangle(g))).values
    return out - out.mean()


def functional_second_derivative_oracle(P0, P1, t):
    """integral(u_t^ia psi_ab u_t^bj psi_ij) as a 4-index einsum over full
    stacks, psi = phi_1 - phi_0 and u_t on the linear path at time t."""
    psi = P1.perturbation - P0.perturbation
    phi_t = (1.0 - t) * P0.perturbation.values + t * P1.perturbation.values
    P_t = Potential(P0.base, project_mean_zero(ScalarField(P0.grid, phi_t)))
    hinv = triangle_to_full(P_t.hessian_state.inverse())
    psi_h = triangle_to_full(hessian(psi).entries)
    integrand = np.einsum("...ia,...ab,...bj,...ij->...", hinv, psi_h, hinv, psi_h)
    return float(np.mean(integrand))


def to_string(e):
    """Canonical text of a field expression, the parser's round-trip oracle:
    parse(to_string(e)) == e."""
    return _print(e, 0)


def _print(e, parent_level):
    # precedence levels: add 1, mul 2, unary 3, power 4, atom 5
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Call):
        return f"{e.name}({_print(e.arg, 0)})"
    if isinstance(e, Neg):
        text = f"-{_print(e.operand, 3)}"
        return f"({text})" if parent_level > 3 else text
    if isinstance(e, Pow):
        text = f"{_print(e.base, 5)}^{e.exponent}"
        return f"({text})" if parent_level > 4 else text
    if isinstance(e, Bin):
        level = 1 if e.op in "+-" else 2
        # left associativity: the right child needs one level more
        text = f"{_print(e.left, level)}{e.op}{_print(e.right, level + 1)}"
        return f"({text})" if parent_level > level else text
    raise TypeError(f"not an expression node: {e!r}")


def eigen_extremes_oracle(H):
    """(min eigenvalue, max eigenvalue, node of the min) of a triangle
    stack (m, *shape) from LAPACK's eigvalsh on every node; ties in the min go to the first
    node in row-major order."""
    eigs = np.linalg.eigvalsh(triangle_to_full(H))
    lo = eigs[..., 0]
    worst = np.unravel_index(np.argmin(lo), lo.shape)
    return float(lo[worst]), float(eigs[..., -1].max()), tuple(int(i) for i in worst)


def cofactor_oracle(full):
    """Cofactor matrices of a (..., n, n) stack from signed minors, with
    no inversion; the empty minor of n = 1 gives 1."""
    n = full.shape[-1]
    if n == 1:
        return np.ones_like(full)
    cof = np.empty_like(full)
    idx = np.arange(n)
    for i in range(n):
        rows = idx[idx != i]
        for j in range(i, n):
            cols = idx[idx != j]
            minor = full[..., rows[:, None], cols[None, :]]
            cof[..., i, j] = (-1.0) ** (i + j) * _det_stack(minor)
            cof[..., j, i] = cof[..., i, j]
    return cof


def _det_stack(m):
    if m.shape[-1] == 1:
        return m[..., 0, 0]
    return np.linalg.det(m)


def corrupt_first_dual(monkeypatch, bump):
    """Make the next `legendre_transform` return its dual with `bump` (mean
    zero, node values) added to the perturbation; later transforms are
    exact.  The corrupted dual is still the transform's `DualPotential`,
    with its primal and preimages, so its own transform still starts from
    the duality with that primal."""
    project = legendre.project_mean_zero
    done = []

    def corrupted(f):
        out = project(f)
        if not done:
            done.append(True)
            out = ScalarField(f.grid, out.values + bump)
        return out

    monkeypatch.setattr(legendre, "project_mean_zero", corrupted)
