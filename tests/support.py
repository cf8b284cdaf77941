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
    Potential,
    QuadraticBase,
    ScalarField,
    SymMatrixField,
    convexity_margin,
    hessian,
    make_grid,
    second_divergence,
)

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


def linearized_apply_oracle(P, values):
    """psi -> (u^ia psi_ab u^bj)_ij as full n x n stacks: h psi h by two
    batched matrix products, then the double divergence of the result."""
    hinv = P.hessian_state.inverse().to_full()
    psi_h = hessian(ScalarField(P.grid, values)).to_full()
    g = hinv @ psi_h @ hinv
    out = second_divergence(SymMatrixField.from_full(P.grid, g)).values
    return out - out.mean()


def functional_second_derivative_oracle(P0, P1, t):
    """integral(u_t^ia psi_ab u_t^bj psi_ij) as a 4-index einsum over full
    stacks, psi = phi_1 - phi_0 and u_t on the linear path at time t."""
    psi = P1.perturbation - P0.perturbation
    phi_t = (1.0 - t) * P0.perturbation.values + t * P1.perturbation.values
    hinv = P0.with_perturbation(phi_t).hessian_state.inverse().to_full()
    psi_h = hessian(psi).to_full()
    integrand = np.einsum("...ia,...ab,...bj,...ij->...", hinv, psi_h, hinv, psi_h)
    return float(np.mean(integrand))


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
