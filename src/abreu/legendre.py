"""Legendre duality between primal and dual convex potentials.

For u = x^T M x / 2 + phi the gradient map y = grad u(x) is a strictly
monotone bijection and the transform v(y) = x.y - u(x) is again of the
form y^T M^{-1} y / 2 + psi with psi periodic.  The dual potential is
sampled on its own uniform grid (same resolution), which keeps it a
first-class object for all spectral calculus.

Gradient-map inversion runs a damped Newton iteration per dual node,
vectorized over nodes, with grad phi and D^2 phi evaluated off-grid by
trigonometric interpolation.  The identity-map guess x = M^{-1} y is exact
at phi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradientInversionFailure
from .grid import (
    ScalarField,
    TrigInterpolant,
    gradient,
    hessian,
    project_mean_zero,
)
from .potential import CONVEXITY_FLOOR, Potential, QuadraticBase, double_contract

__all__ = [
    "GradientMapSolveConfig",
    "gradient_map",
    "gradient_map_inverse",
    "legendre_transform",
    "pullback_rhs",
    "dual_residual",
]


@dataclass(frozen=True)
class GradientMapSolveConfig:
    """Newton controls for inverting the gradient map per dual node."""

    tolerance: float = 1e-12
    max_iters: int = 50

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _check_dual_lattice(base: QuadraticBase) -> None:
    """The dual perturbation is periodic for the lattice M Z^n; it fits the
    fixed [0,1]^n fundamental domain only when M preserves Z^n."""
    mat = base.matrix
    if not (
        np.allclose(mat, np.rint(mat), rtol=0.0, atol=1e-12)
        and abs(np.linalg.det(mat) - 1.0) <= 1e-9
    ):
        raise ValueError(
            "Legendre transform onto the unit torus requires a base matrix "
            "that preserves the integer lattice (in practice the identity); "
            f"got\n{mat}"
        )


class _GradientEvaluator:
    """Off-grid evaluation of grad u and D^2 u via trig interpolation."""

    def __init__(self, P: Potential):
        self.base_matrix = P.base.matrix
        self.n = P.grid.dim
        phi = P.perturbation
        self.grad_interp = [TrigInterpolant(g) for g in gradient(phi)]
        hess = hessian(phi)
        self.hess_interp = [
            TrigInterpolant(ScalarField(P.grid, hess.entries[..., k]))
            for k in range(hess.entries.shape[-1])
        ]
        self.phi_interp = TrigInterpolant(phi)
        self._pairs = [(i, j) for i in range(self.n) for j in range(i, self.n)]

    def grad_u(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.base_matrix
        for a in range(self.n):
            out[:, a] += self.grad_interp[a].evaluate(x)
        return out

    def hess_u(self, x: np.ndarray) -> np.ndarray:
        h = np.empty((x.shape[0], self.n, self.n))
        for k, (i, j) in enumerate(self._pairs):
            vals = self.hess_interp[k].evaluate(x) + self.base_matrix[i, j]
            h[:, i, j] = vals
            h[:, j, i] = vals
        return h

    def u(self, x: np.ndarray) -> np.ndarray:
        quad = 0.5 * np.einsum("pi,ij,pj->p", x, self.base_matrix, x)
        return quad + self.phi_interp.evaluate(x)


def gradient_map(P: Potential, points) -> np.ndarray:
    """Evaluate y = grad u at a (P, n) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _GradientEvaluator(P).grad_u(pts.copy())


def gradient_map_inverse(
    P: Potential, points, cfg: GradientMapSolveConfig | None = None
) -> np.ndarray:
    """Solve grad u(x) = y for each row y of `points` by damped Newton.

    Strict convexity makes the root unique; backtracking halves the step
    wherever the residual fails to decrease.  Raises
    GradientInversionFailure naming the first unconverged node.
    """
    cfg = cfg or GradientMapSolveConfig()
    ev = _GradientEvaluator(P)
    y = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.linalg.solve(ev.base_matrix, y.T).T  # exact at phi = 0

    residual = ev.grad_u(x) - y
    rnorm = np.max(np.abs(residual), axis=1)
    for _ in range(cfg.max_iters):
        active = rnorm > cfg.tolerance
        if not active.any():
            return x
        idx = np.flatnonzero(active)
        h = ev.hess_u(x[idx])
        step = np.linalg.solve(h, -residual[idx][..., None])[..., 0]
        scale = np.ones(len(idx))
        remaining = np.arange(len(idx))
        for _ in range(40):
            trial = x[idx[remaining]] + scale[remaining, None] * step[remaining]
            trial_res = ev.grad_u(trial) - y[idx[remaining]]
            trial_norm = np.max(np.abs(trial_res), axis=1)
            improved = trial_norm < rnorm[idx[remaining]]
            good = idx[remaining[improved]]
            x[good] = trial[improved]
            residual[good] = trial_res[improved]
            rnorm[good] = trial_norm[improved]
            remaining = remaining[~improved]
            if remaining.size == 0:
                break
            scale[remaining] *= 0.5
    worst = int(np.argmax(rnorm))
    raise GradientInversionFailure((worst,), rnorm[worst])


def legendre_transform(
    P: Potential, cfg: GradientMapSolveConfig | None = None
) -> Potential:
    """Dual potential v(y) = y^T M^{-1} y / 2 + psi(y) on the dual grid.

    Each dual node is pulled back through the gradient map and
    v(y) = x.y - u(x); psi is returned in mean-zero gauge.  Applying the
    transform twice recovers the original potential (convex involution).
    """
    _check_dual_lattice(P.base)
    grid = P.grid
    dual_base = P.base.inverse()
    y = grid.node_points()
    x = gradient_map_inverse(P, y, cfg)
    ev = _GradientEvaluator(P)
    v = np.einsum("pi,pi->p", y, x) - ev.u(x)
    quad = 0.5 * np.einsum("pi,ij,pj->p", y, dual_base.matrix, y)
    psi = (v - quad).reshape(grid.shape)
    return Potential(dual_base, project_mean_zero(ScalarField(grid, psi)))


def pullback_rhs(
    A: ScalarField, P: Potential, cfg: GradientMapSolveConfig | None = None
) -> ScalarField:
    """Sample A at the gradient-map preimages of the dual nodes.

    The pullback takes the same values as A (at transported points), so
    its sup over dual nodes cannot exceed sup|A| beyond interpolation
    error.
    """
    _check_dual_lattice(P.base)
    grid = P.grid
    x = gradient_map_inverse(P, grid.node_points(), cfg)
    vals = TrigInterpolant(A).evaluate(x).reshape(grid.shape)
    return ScalarField(grid, vals)


def dual_residual(V: Potential, Atilde: ScalarField) -> ScalarField:
    """Residual of the dual-coordinate equation v^ij L_ij = Atilde.

    L = log det(v_ab); the contraction runs pointwise against the inverse
    Hessian of the dual potential.  Vanishes (to transform accuracy) when
    V is the dual of a solution and Atilde the pulled-back right-hand side.
    """
    state = V.hessian_state
    hinv = state.inverse(CONVEXITY_FLOOR)
    L = ScalarField(V.grid, np.log(state.det))
    return double_contract(hinv, hessian(L)) - Atilde
