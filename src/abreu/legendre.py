"""Legendre duality between primal and dual convex potentials.

For u = x^T M x / 2 + phi the gradient map y = grad u(x) is a strictly
monotone bijection and the transform v(y) = x.y - u(x) is again of the
form y^T M^{-1} y / 2 + psi with psi periodic.  The dual potential is
sampled on its own uniform grid (same resolution), which keeps it a
first-class object for all spectral calculus.

psi is formed on its own scale.  For any x and symmetric M, with
g = y - x M,

    x.y - x^T M x / 2 - y^T M^{-1} y / 2 = -g^T M^{-1} g / 2,

so psi(y) = -phi(x) - g^T M^{-1} g / 2 at the preimage x of y.  Written
as x.y - u(x) - y^T M^{-1} y / 2 instead, three O(1) terms cancel down
to psi, whose sup is often 1e-4 or less, and their rounding (of order
eps) leaves a plateau under psi's spectrum that keeps every mode of its
interpolant and sets the floor of the duality checks (cancellation:
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
ch. 1).  In the form above
psi carries rounding of order eps * (sup|phi| + sup|grad phi|).

This module holds only the inversion of the gradient map and the
duality built on it.  Every derivative of u comes from the potential:
on the grid `Potential.node_gradient` and the Hessian state, off it
`Potential.phi_and_gradient_at` and `hessian_at`, from the one kept
interpolant of phi.  The inversion evaluates phi in the same stacked
call as grad u and hands it back with the roots, so the transform forms
psi with no evaluation of its own.  The pullback reads each right-hand
side's own kept interpolant, and fields pulled back together share one
table build (`grid.interpolate_fields`).

Gradient-map inversion runs a damped Newton iteration per target point,
vectorized over points.  Each point keeps the inverse of its Hessian,
so a Newton step is a batched mat-vec; D^2 u is interpolated and
inverted anew (`potential.triangle_inverse`, the closed forms the
Hessian state uses) only where the point's last step predicts that the
kept inverse would miss the tolerance.

`legendre_transform` returns a `DualPotential`, which keeps its primal
and the preimages x (grad u(x) = y) of the grid nodes y where psi was
sampled; the pullbacks sample there, so each transform inverts once.
There are two starts.  A target y starts at the grid node nearest
M^{-1} y, exact at phi = 0, so its first step reads grad u and the
inverse of D^2 u there from the potential's spectral data.  The
transform of a dual V starts at the grid nodes z from the duality with
its primal u: (grad v)^{-1} = grad u and D^2 v(grad u(z)) =
D^2 u(z)^{-1}, so x = grad u(z) with D^2 u(z) as the kept inverse, both
from the primal's spectral data.  That start is within transform
accuracy of the root, and its residual is still checked by interpolating
grad v there; if its Newton run stalls, V is inverted from the nodes.

From a node start the first step is Chebyshev's (Traub, Iterative Methods
for the Solution of Equations, 1964, sec. 5): with d = -H^{-1} r the
Newton step of the node's residual r and inverse Hessian H^{-1}, the first
candidate is x + d - H^{-1} T[d, d] / 2, T the third partials of phi at
the node, exact from phi's spectrum in one batched inverse transform.  Its
error is third order in the node's residual where Newton's is second, so
most points meet the tolerance after one sweep, and their next residual
estimate keeps the node's inverse.  Where the candidate does not lower a
point's residual, that point's line search goes on from the Newton step
(full, then halved) as on any other step.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GradientInversionFailure
from .grid import (
    PeriodicGrid,
    ScalarField,
    fourier_multiplier,
    from_spectrum,
    interpolate_fields,
    partial_orders,
    project_mean_zero,
    triangle_pairs,
    triangle_to_full,
)
from .potential import Potential, triangle_inverse

__all__ = [
    "DualPotential",
    "gradient_map",
    "gradient_map_inverse",
    "legendre_transform",
    "pullback_rhs",
    "dual_residual",
]


# Per-point Newton controls of the gradient-map inversion: sup-norm
# residual |grad u(x) - y| accepted, and iterations before giving up.
_INVERSION_TOLERANCE = 1e-12
_INVERSION_MAX_ITERS = 50


@dataclass(frozen=True, eq=False)
class DualPotential(Potential):
    """The dual of `primal` as `legendre_transform` returns it, with the
    points where psi was sampled: `preimages` (read-only, one row per grid
    node y, row-major) holds the x with grad u(x) = y, u the primal."""

    primal: Potential
    preimages: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        preimages = np.array(self.preimages, dtype=float)
        grid = self.grid
        if self.primal.grid != grid or preimages.shape != (grid.node_count, grid.dim):
            raise ValueError("a dual shares its primal's grid and keeps one preimage per node")
        preimages.setflags(write=False)
        object.__setattr__(self, "preimages", preimages)


def _warm_preimages(V: DualPotential, z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """x with grad v(x) = z at all grid nodes z (row-major), v the dual V,
    started from the duality with V's primal (see the module docstring),
    and V's psi at each x; None when that Newton run stalls."""
    primal = V.primal
    nodes = np.indices(V.grid.shape).reshape(V.grid.dim, -1).T
    hess = primal.hessian_state.hessian.reshape(-1, len(nodes))
    start = primal.node_gradient(z, nodes)
    try:
        return _newton(V, z, start, *V.phi_and_gradient_at(start), triangle_to_full(hess),
                       third=None)
    except GradientInversionFailure:
        return None


def _grid_nodes(grid: PeriodicGrid, points: np.ndarray) -> np.ndarray | None:
    """Multi-indices (mod N) of the grid nodes at a (P, dim) array of points;
    None unless every point is exactly a node (up to periodicity) whose
    index j = rint(y N) is an exact integer, |j| < 2^52 (beyond, every
    float y N is an integer and names no node)."""
    res = np.array(grid.resolution)
    j = np.rint(points * res)
    if not (np.abs(j) < 2.0**52).all() or not np.array_equal(j / res, points):
        return None
    return j.astype(int) % res


def _newton_start(P: Potential, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton start at the grid node j/N nearest M^{-1} y (the exact root at
    phi = 0), and its multi-index j mod N, one row per target."""
    res = np.array(P.grid.resolution)
    with np.errstate(over="ignore"):  # caught as non-finite below
        j = np.rint(y @ P.base.inverse().matrix * res)
    if not np.isfinite(j).all():
        raise ValueError("target points too large: M^{-1} y N overflows")
    # the integer-valued j wraps as integers where it fits in int64: the
    # float remainder's result at about half its cost
    wrap = j.astype(int) % res if (np.abs(j) < 2.0**62).all() else (j % res).astype(int)
    return j / res, wrap


def gradient_map(P: Potential, points) -> np.ndarray:
    """Evaluate y = grad u at a (P, n) array of points."""
    return P.gradient_at(points)


def gradient_map_inverse(P: Potential, points) -> np.ndarray:
    """Solve grad u(x) = y for each row y of `points` by damped Newton.

    Strict convexity makes the root unique; backtracking halves the step
    wherever the residual fails to decrease.  Each point starts at the
    grid node nearest M^{-1} y (`_newton_start`), so the residual and
    inverse Hessian of its first step are the spectral ones at that node;
    a potential that fails the convexity test raises NotConvex there.
    The iteration itself is `_newton`.
    """
    return _node_inversion(P, P.grid.check_points(points))[0]


def _node_inversion(P: Potential, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gradient_map_inverse` of the checked targets y, with phi at each
    root: the node value where a point never leaves its start."""
    x, nodes = _newton_start(P, y)
    at = tuple(nodes.T)
    inverse = P.hessian_state.inverse()
    # gradients, inverses and third partials are handed over, not kept
    # here, so that `_newton` frees them once it has gathered the rows it
    # iterates on
    return _newton(P, y, x, P.perturbation.values[at], P.node_gradient(x, nodes),
                   triangle_to_full(inverse[(slice(None),) + at]), _node_third_partials(P, at))


def _node_third_partials(P: Potential, at: tuple) -> np.ndarray:
    """phi's third partials at the grid nodes `at`, component-first (m3, P)
    in `partial_orders(dim, 3)` order: one batched inverse of phi's kept
    spectrum times their multipliers, freed once gathered."""
    grid = P.grid
    orders = partial_orders(grid.dim, 3)
    third = from_spectrum(grid, P.perturbation.spectrum * fourier_multiplier(grid, orders))
    return third[(slice(None),) + at]


def _third_pairs(n: int) -> list[tuple[int, int, list[int], float]]:
    """The terms of T[d, d], one per triangle pair (j, k) of
    `triangle_pairs(n)`: j, k, the rows of T_ijk, i = 0..n-1, in
    `partial_orders(n, 3)` order, and the pair's weight, 1 on the diagonal
    and 2 off it."""
    row = {orders: r for r, orders in enumerate(partial_orders(n, 3))}
    return [(j, k, [row[tuple((i, j, k).count(a) for a in range(n))] for i in range(n)],
             1.0 if j == k else 2.0)
            for j, k in triangle_pairs(n)]


def _third_contraction(third: np.ndarray, d: np.ndarray) -> np.ndarray:
    """T[d, d]_i = sum_jk T_ijk d_j d_k per point, T the third partials
    `third` (m3, P) and d the steps (P, n), as a C-contiguous (P, n) array,
    on which the mat-vec with the kept inverse rounds as on one point: the
    pairs' terms are elementwise products summed in a fixed order, so that
    each point's is computed alone."""
    out = None
    for j, k, rows, weight in _third_pairs(d.shape[1]):
        term = third[rows]
        term *= weight * d[:, j] * d[:, k]
        if out is None:
            out = term
        else:
            out += term
    return np.ascontiguousarray(out.T)


def _row_sup(a: np.ndarray) -> np.ndarray:
    """max_i |a_pi| per row of a (P, n) array, column by column: bitwise
    np.max(np.abs(a), axis=1) but for the payload of a NaN, at a twentieth
    of its cost on three columns, where numpy reduces each row on its own."""
    a = np.abs(a)
    out = a[:, 0].copy()
    for column in a.T[1:]:
        np.maximum(out, column, out=out)
    return out


def _newton(
    P: Potential,
    y: np.ndarray,
    x: np.ndarray,
    phi: np.ndarray,
    grad: np.ndarray,
    hinv: np.ndarray,
    third: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped simplified Newton for grad u(x) = y, u = Q + phi the
    potential P, from the start x, with phi = phi(x), grad = grad u(x) and
    hinv (P, n, n) the kept inverse Hessians.  `third` (m3, P) holds the
    third partials of phi at x for a node start, where hinv is the inverse
    of D^2 u at x itself; it is None for the dual's start, where hinv is an
    estimate of it.  Returns the roots x and phi there.  Off the grid,
    phi with grad u is `Potential.phi_and_gradient_at`, one stacked call
    per set of candidates, and D^2 u is `hessian_at`.

    Each point keeps its inverse Hessian across steps, so a step is
    d = -hinv r.  With r the residual now and r' the one before the point's
    last accepted step, r^2 / r' estimates the residual after one more
    step with the kept inverse, so it is reused while it is fresh
    (evaluated at the current x), before the first step, or while
    r^2 <= _INVERSION_TOLERANCE r'; every other point gets D^2 u
    interpolated and inverted anew, in one stacked call.  The line search
    tries the full step at every point, then halves the steps that did not
    decrease the residual, on those points alone.  From a node start the
    first candidate is Chebyshev's x + d - hinv T[d, d] / 2 (Traub 1964,
    sec. 5; see the module docstring), and the full step is the first of
    the fallbacks of the points it did not improve.  A line search
    whose 40 halvings all fail refreshes a kept inverse; a point whose
    fresh inverse fails the same way, or whose refreshed Hessian is
    singular, leaves the iteration, since nothing would change its step.
    The per-point arrays hold only the points still iterating, so a sweep
    in which no point leaves and every full step decreases the residual
    gathers and scatters nothing.
    Raises GradientInversionFailure naming the target point with the
    largest residual left after _INVERSION_MAX_ITERS iterations (and its
    grid node when the point is one).
    """
    residual = grad - y
    del grad
    rnorm = _row_sup(residual)
    x_all, y_all, phi_all, rnorm_all = x, y, phi, rnorm
    # the sweeps run on the live points, those above tolerance and not
    # stuck: `ids` holds their rows, and every per-point array below only
    # them, gathered once and compacted whenever a point leaves, whose x,
    # phi and residual norm then go back to the caller's rows.  Row gathers
    # leave the arrays C-contiguous, which einsum's 3 x 3 mat-vec needs to
    # round as on one point: on the layout `triangle_to_full` returns,
    # points innermost, it sums some rows in another order
    ids = np.flatnonzero(rnorm > _INVERSION_TOLERANCE)
    x, y, phi, residual, rnorm, hinv = (a[ids] for a in (x, y, phi, residual, rnorm, hinv))
    fresh = np.full(len(ids), third is not None)
    if third is not None:
        third = third[:, ids]
    # residual before the last accepted step: inf (no estimate) trusts the
    # kept inverse for the first step, 0 forces its refresh
    before = np.full(len(ids), np.inf)
    stuck = np.zeros(len(ids), dtype=bool)
    for _ in range(_INVERSION_MAX_ITERS):
        live = (rnorm > _INVERSION_TOLERANCE) & ~stuck
        with np.errstate(over="ignore"):  # a square past the float range is inf, and large
            refresh = live & ~fresh & (rnorm * rnorm > _INVERSION_TOLERANCE * before)
        if refresh.any():
            inverse = triangle_inverse(P.hessian_at(x[refresh]))
            hinv[refresh] = triangle_to_full(inverse)
            fresh |= refresh
            live &= ~refresh | np.isfinite(hinv).all(axis=(1, 2))  # singular: stuck
        if not live.all():
            left = ids[~live]
            x_all[left], phi_all[left], rnorm_all[left] = x[~live], phi[~live], rnorm[~live]
            ids, y, x, phi, residual, rnorm, hinv, fresh, before, stuck = (
                a[live] for a in (ids, y, x, phi, residual, rnorm, hinv, fresh, before, stuck))
        if not ids.size:
            break
        step = -np.einsum("pij,pj->pi", hinv, residual)
        # line search: the full step of every live point, then halvings of
        # the steps that did not decrease the residual, on those points
        # (`at`) alone; a point takes its first candidate that decreased it.
        # A node start's first candidate is Chebyshev's step, and the full
        # step (k = 0) is the first of its fallbacks.  No point has left
        # before the first step, so `third` holds the live rows
        if third is None:
            cand, first = x + step, 1
        else:
            # a point whose Chebyshev step leaves the float range (a huge
            # target's rounding in its residual) takes the Newton step
            with np.errstate(over="ignore", invalid="ignore"):
                bend = np.einsum("pij,pj->pi", hinv, _third_contraction(third, step))
                cand = x + (step - 0.5 * bend)
            wild = ~np.isfinite(_row_sup(cand))
            cand[wild] = x[wild] + step[wild]
            first, third = 0, None
        cand_phi, cand_res = P.phi_and_gradient_at(cand)
        cand_res -= y
        cand_norm = _row_sup(cand_res)
        at = np.flatnonzero(~(cand_norm < rnorm))
        for k in range(first, 40):
            if not at.size:
                break
            trial = x[at] + 0.5**k * step[at]
            trial_phi, trial_res = P.phi_and_gradient_at(trial)
            trial_res -= y[at]
            trial_norm = _row_sup(trial_res)
            improved = trial_norm < rnorm[at]
            good = at[improved]
            cand[good], cand_phi[good], cand_res[good], cand_norm[good] = (
                trial[improved], trial_phi[improved], trial_res[improved],
                trial_norm[improved])
            at = at[~improved]
        accepted = cand_norm < rnorm
        np.copyto(x, cand, where=accepted[:, None])
        np.copyto(phi, cand_phi, where=accepted)
        np.copyto(residual, cand_res, where=accepted[:, None])
        np.copyto(before, rnorm, where=accepted)
        np.copyto(rnorm, cand_norm, where=accepted)
        fresh &= ~accepted
        stuck[at] = fresh[at]
        before[at] = 0.0
    x_all[ids], phi_all[ids], rnorm_all[ids] = x, phi, rnorm
    if not (rnorm_all > _INVERSION_TOLERANCE).any():
        return x_all, phi_all
    worst = int(np.argmax(rnorm_all))
    node = _grid_nodes(P.grid, y_all[worst : worst + 1])
    node = None if node is None else tuple(int(i) for i in node[0])
    raise GradientInversionFailure(y_all[worst], rnorm_all[worst], _INVERSION_TOLERANCE, node)


def legendre_transform(P: Potential) -> DualPotential:
    """Dual potential v(y) = y^T M^{-1} y / 2 + psi(y) on the dual grid.

    Each dual node y is pulled back through the gradient map to x (from
    the duality when P is itself a dual), and psi(y) = v(y) - y^T M^{-1}
    y / 2 = -phi(x) - g^T M^{-1} g / 2 with g = y - x M, formed on psi's
    own scale (see the module docstring) from the phi(x) the inversion
    returns with x; psi is returned in mean-zero gauge, with P and x kept
    as the dual's primal and preimages.  Applying the transform twice
    recovers the original potential (convex involution).
    """
    grid = P.grid
    dual_base = P.base.inverse()
    if not P.base.is_unimodular():  # psi is M Z^n-periodic: it fits [0,1]^n iff M Z^n = Z^n
        raise ValueError(
            "Legendre transform onto the unit torus requires a base matrix "
            "that preserves the integer lattice (in practice the identity); "
            f"got\n{P.base.matrix}"
        )
    y = grid.node_points()
    found = _warm_preimages(P, y) if isinstance(P, DualPotential) else None
    x, phi = found if found is not None else _node_inversion(P, y)
    g = y - x @ P.base.matrix
    quad = 0.5 * np.einsum("pi,ij,pj->p", g, dual_base.matrix, g)
    psi = (-phi - quad).reshape(grid.shape)
    return DualPotential(dual_base, project_mean_zero(ScalarField(grid, psi)), P, x)


def pullback_rhs(A: ScalarField | Sequence[ScalarField],
                 V: DualPotential) -> ScalarField | tuple[ScalarField, ...]:
    """Sample A at the preimages of the dual nodes, `V.preimages`, for the
    dual V that `legendre_transform` returned: a field for a field, a
    tuple of fields for a sequence of them, pulled back in one pass
    (`grid.interpolate_fields`), each bitwise its own pullback.

    The pullback takes the same values as A (at transported points), so
    its sup over dual nodes cannot exceed sup|A| beyond interpolation
    error.
    """
    fields = (A,) if isinstance(A, ScalarField) else tuple(A)
    vals = interpolate_fields(fields, V.preimages)
    out = tuple(ScalarField(V.grid, v.reshape(V.grid.shape)) for v in vals.T)
    return out[0] if isinstance(A, ScalarField) else out


def dual_residual(V: Potential, Atilde: ScalarField) -> ScalarField:
    """Residual of the dual-coordinate equation v^ij L_ij = Atilde.

    L = log det(v_ab); the contraction runs pointwise against the inverse
    Hessian of the dual potential.  Vanishes (to transform accuracy) when
    V is the dual of a solution and Atilde the pulled-back right-hand side.
    """
    return ScalarField(V.grid, V.hessian_state.log_det_contraction) - Atilde
