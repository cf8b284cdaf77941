"""Convex potentials u = Q + phi and the fourth-order operator they feed.

A potential is a strictly convex quadratic base Q(x) = x^T M x / 2 plus a
periodic perturbation phi in mean-zero gauge.  The Hessian is computed
spectrally from phi and shifted by M (u itself is not periodic, so it is
never differenced directly).  On top of the Hessian algebra this module
provides the fourth-order operator in both raw form,

    sum_ij d^2 (u^ij) / dx_i dx_j,

and the equivalent divergence form  sum_ij U^ij w_ij - A  with U the
cofactor matrix of the Hessian and w = 1/det(u_ab).

Each per-potential quantity lives on the potential's `HessianState`, as
plain arrays.  `HessianState.convex` (smallest eigenvalue above
CONVEXITY_FLOOR) is the package's one convexity test: the guard reads it,
and so do the Newton line search, the convexity-margin check of
`verify_solution` and `InvariantMetric.is_positive`.  The mean-zero gauge
of phi is `ScalarField.mean_zero`, the grid module's one zero-mean test;
the divergence-form residual is computed for any right-hand side.  The
flat start phi = 0, whose Hessian is the base, makes no transform at all.
Each base keeps its inverse.  Every derivative of u lives here: on the
grid the Hessian state and the spectral gradient of phi kept beside it
(`node_gradient`), off it `gradient_at`, `phi_and_gradient_at` (phi with
grad u, in one stacked call) and `hessian_at`, from phi's one kept
interpolant (`ScalarField.interpolant`); all of them read phi's one
spectrum (`ScalarField.spectrum`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConvex
from .grid import (
    PeriodicGrid,
    ScalarField,
    SymMatrixField,
    full_to_triangle,
    gradient,
    hessian,
    hessian_from_spectrum,
    kept_property,
    mean,
    node_mean,
    pair_index,
    pair_weights,
    partial_orders,
    second_divergence_values,
    to_spectrum,
    triangle_pairs,
    triangle_to_full,
)

__all__ = [
    "QuadraticBase",
    "Potential",
    "HessianState",
    "CONVEXITY_FLOOR",
    "triangle_inverse",
    "hessian_u",
    "hessian_stack",
    "inverse_hessian",
    "det_hessian",
    "cofactor",
    "abreu_forward",
    "divergence_form_residual",
    "convexity_margin",
]

#: Minimal admissible Hessian eigenvalue; below this the solver must fail
#: loudly rather than invert a near-singular matrix.
CONVEXITY_FLOOR = 1e-8

# entrywise distance from the identity that `QuadraticBase.is_identity` accepts
_IDENTITY_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class QuadraticBase:
    """Strictly convex quadratic form Q(x) = x^T matrix x / 2; bases compare
    and hash by the entries of their read-only matrix, kept as a tuple of
    floats (so -0.0 equals 0.0), and a base can key a cache cheaply.

    The matrix is symmetrized exactly by the grid's triangle rule
    (`full_to_triangle`), so a symmetric matrix keeps its bits; its
    read-only (m,) triangle, built once, is kept for every Hessian."""

    matrix: np.ndarray
    triangle: np.ndarray = field(init=False, repr=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"base matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("base matrix contains non-finite entries")
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-13):
            raise ValueError("base matrix must be symmetric")
        triangle = full_to_triangle(mat)
        mat = triangle_to_full(triangle)
        if np.linalg.eigvalsh(mat)[0] <= 0.0:
            raise ValueError("base matrix must be positive definite")
        mat.setflags(write=False)
        triangle.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "triangle", triangle)
        object.__setattr__(self, "_key", tuple(mat.ravel().tolist()))

    def __eq__(self, other):
        return isinstance(other, QuadraticBase) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @classmethod
    @functools.cache
    def identity(cls, dim: int) -> "QuadraticBase":
        """The identity base, one instance per dimension: a base is
        read-only, so every caller can share it and the inverse it keeps."""
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "QuadraticBase":
        """The base of the inverse matrix, kept: LAPACK's inverse,
        symmetrized by the constructor's rule before the constructor's
        check, since its rounding leaves mirror entries apart by more than
        that check's absolute tolerance once the inverse's entries are
        large."""
        return self._inverse

    @kept_property
    def _inverse(self) -> "QuadraticBase":
        inverse = np.linalg.inv(self.matrix)
        return QuadraticBase(triangle_to_full(full_to_triangle(inverse)))

    def is_identity(self) -> bool:
        eye = np.eye(self.dim)
        return bool(np.allclose(self.matrix, eye, rtol=0.0, atol=_IDENTITY_TOLERANCE))

    def is_unimodular(self) -> bool:
        """Whether the matrix is an integer matrix of determinant 1, so that
        it maps the integer lattice onto itself."""
        mat = self.matrix
        return bool(
            np.allclose(mat, np.rint(mat), rtol=0.0, atol=1e-12)
            and abs(np.linalg.det(mat) - 1.0) <= 1e-9
        )


@dataclass(frozen=True, eq=False)
class Potential:
    """u = Q + phi with periodic phi in mean-zero gauge.

    Strict convexity is not enforced at construction (diagnostics must be
    able to measure how non-convex a candidate is); operations that invert
    the Hessian raise NotConvex when the eigenvalue floor is crossed.

    `state`, when given, is the Hessian state of this very potential, as
    the solver hands over its last iterate's; `hessian_state` returns it.
    """

    base: QuadraticBase
    perturbation: ScalarField
    state: "HessianState | None" = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        if self.base.dim != self.perturbation.grid.dim:
            raise ValueError(
                f"base dimension {self.base.dim} does not match grid "
                f"dimension {self.perturbation.grid.dim}"
            )
        if not self.perturbation.mean_zero:
            raise ValueError(
                f"perturbation violates the mean-zero gauge "
                f"(mean = {abs(mean(self.perturbation)):.3e}); project it first"
            )

    @classmethod
    def flat(cls, grid: PeriodicGrid, base: QuadraticBase | None = None) -> "Potential":
        if base is None:
            base = QuadraticBase.identity(grid.dim)
        return cls(base, ScalarField.zeros(grid))

    @property
    def grid(self) -> PeriodicGrid:
        return self.perturbation.grid

    def with_perturbation(self, values: np.ndarray) -> "Potential":
        """Same base, new perturbation values re-projected to mean zero."""
        vals = np.asarray(values, dtype=float)
        return Potential(self.base, ScalarField(self.grid, vals - node_mean(vals)))

    @kept_property
    def hessian_state(self) -> "HessianState":
        """Hessian quantities of this potential, built on first use and kept."""
        return self.state or HessianState(self.grid, hessian_u(self).entries)

    @kept_property
    def perturbation_gradient(self) -> tuple[ScalarField, ...]:
        """Spectral first partials of phi (read-only fields, one per axis),
        built on first use and kept."""
        return tuple(gradient(self.perturbation))

    def node_gradient(self, x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """grad u at points x (P, n) lying on the grid nodes `nodes`
        (multi-indices mod N, one row per point), from the kept spectral
        gradient of phi: no interpolation."""
        at = tuple(nodes.T)
        grad_phi = np.stack([g.values[at] for g in self.perturbation_gradient], -1)
        return x @ self.base.matrix + grad_phi

    def phi_and_gradient_at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi (P,) and grad u (P, n) at the points x (P, n) off the grid:
        one stacked evaluation of phi and its first partials, from its kept
        interpolant (`ScalarField.interpolant`), which rejects bad points."""
        x = self.grid.check_points(x)
        orders = partial_orders(self.grid.dim, 0) + partial_orders(self.grid.dim, 1)
        vals = self.perturbation.interpolant.partials(x, orders)
        # a copy, so that phi does not keep the whole stack of values alive
        return vals[:, 0].copy(), vals[:, 1:] + x @ self.base.matrix

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        """grad u at the points x (P, n) off the grid, shape (P, n): one
        stacked evaluation of all first partials of phi."""
        x = self.grid.check_points(x)
        orders = partial_orders(self.grid.dim, 1)
        return self.perturbation.interpolant.partials(x, orders) + x @ self.base.matrix

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        """D^2 u at the points x (P, n) off the grid as a component-first
        triangle stack (m, P): one stacked evaluation of the second partials
        of phi (`partial_orders`), plus the base's triangle."""
        vals = self.perturbation.interpolant.partials(x, partial_orders(self.grid.dim, 2))
        vals += self.base.triangle
        return vals.T


def hessian_stack(grid: PeriodicGrid, base: QuadraticBase,
                  spectrum: np.ndarray | None) -> np.ndarray:
    """Nodewise Hessian M + D^2 phi, a fresh triangle stack, from phi's
    spectrum; M at every node, with no transform, for None (phi = 0)."""
    tri = base.triangle
    stack = (np.zeros(tri.shape + grid.shape) if spectrum is None
             else hessian_from_spectrum(grid, spectrum))
    stack += tri.reshape(tri.shape + (1,) * grid.dim)
    return stack


def hessian_u(P: Potential) -> SymMatrixField:
    """Nodewise Hessian M + D^2 phi (`hessian_stack`), from phi's one
    spectrum, none when phi is identically zero, as at the flat start."""
    phi = P.perturbation
    spectrum = None if phi.sup == 0.0 else phi.spectrum
    return SymMatrixField(P.grid, hessian_stack(P.grid, P.base, spectrum))


@dataclass(frozen=True, eq=False)
class HessianState:
    """Nodewise Hessian quantities of one potential, each computed once.

    Holds the grid, the Hessian as a triangle stack (m, *grid.shape) that
    the state takes over read-only, its determinant, the extreme
    eigenvalues and the node of the smallest one; the inverse, log det, its
    contraction h^ij (log det H)_ij, the forward field (u^ij)_ij and the
    weights of the congruence psi -> H^-1 psi H^-1 are formed on first use,
    behind the convexity guard, and kept.  All are plain arrays, copied and
    checked nowhere: fields are built of them only where they leave the
    package (`abreu_forward`, `inverse_hessian`, ...).  For n <= 2
    everything has a closed form (a 2x2 [[a, b], [b, c]] has eigenvalues
    m -+ hypot((a - c)/2, b) with m = (a + c)/2 and determinant ac - b^2).
    For n = 3 the determinant is the cofactor expansion, and the extremes
    are LAPACK's eigvalsh on the nodes that `_extreme_candidates_3x3`
    cannot rule out, bitwise those of eigvalsh on every node, worst node
    (the first in row-major order) included.  From n = 4 on det, inv and
    the eigenvalues are LAPACK's.

    A determinant that is not finite at some node (it overflowed, with no
    floating-point warning) makes the state not convex: for n = 1 an
    extreme is NaN or infinite; from n = 2 on both are NaN, none is formed,
    and the first such node is the worst node.  A constant field, such as
    the flat start's, is recognized first (its first two nodes rule out
    almost any other field with one comparison) and decided on its one
    matrix, with node 0 as the worst node; its forward field is zero.
    """

    grid: PeriodicGrid
    hessian: np.ndarray
    det: np.ndarray = field(init=False)
    min_eigenvalue: float = field(init=False)
    max_eigenvalue: float = field(init=False)
    worst_node: tuple[int, ...] = field(init=False)
    _constant: bool = field(init=False, repr=False)

    def __post_init__(self):
        grid, H = self.grid, self.hessian
        if H.shape != (grid.dim * (grid.dim + 1) // 2,) + grid.shape:
            raise ValueError(f"Hessian stack shape {H.shape} does not fit the grid")
        H.setflags(write=False)
        e = H.reshape(len(H), -1)  # (m, nodes), row-major
        det = _triangle_det(H)
        constant = bool(e[0, 0] == e[0, 1] and (e == e[:, :1]).all())
        nodes = None  # flat indices of the nodes in lo and hi when not all
        if constant:
            e, nodes = e[:, :1], np.zeros(1, dtype=int)
        if len(H) > 1 and not np.isfinite(det).all():  # n = 1: det is the entry
            nodes = np.flatnonzero(~np.isfinite(det))[:1]
            lo = hi = np.full(1, np.nan)
        elif grid.dim == 1:
            lo = hi = e[0]
        elif grid.dim == 2:
            a, b, c = e
            m = 0.5 * (a + c)
            r = np.hypot(0.5 * (a - c), b)
            lo, hi = m - r, m + r
        elif grid.dim == 3 or constant:
            if nodes is None:
                nodes = _extreme_candidates_3x3(H)
                e = e[:, nodes]
            eigs = np.linalg.eigvalsh(triangle_to_full(e))
            lo, hi = eigs[:, 0], eigs[:, -1]
        else:
            eigs = np.linalg.eigvalsh(triangle_to_full(H))
            lo, hi = eigs[..., 0], eigs[..., -1]
        k = int(lo.argmin())
        worst = np.unravel_index(k if nodes is None else nodes[k], det.shape)
        det.setflags(write=False)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "min_eigenvalue", float(lo.flat[k]))
        object.__setattr__(self, "max_eigenvalue",
                           float(np.maximum.reduce(hi, axis=None)))
        object.__setattr__(self, "worst_node", tuple(int(i) for i in worst))
        object.__setattr__(self, "_constant", constant)

    @property
    def convex(self) -> bool:
        """Whether the smallest eigenvalue clears CONVEXITY_FLOOR and the
        largest is finite."""
        return self.min_eigenvalue > CONVEXITY_FLOOR and self.max_eigenvalue < np.inf

    def require_convex(self) -> None:
        """Raise NotConvex naming the worst node unless `convex`."""
        if not self.convex:
            raise NotConvex(self.worst_node, self.min_eigenvalue)

    def inverse(self) -> np.ndarray:
        """Nodewise inverse Hessian stack, guarded by the convexity floor."""
        self.require_convex()
        return self._inverse

    @kept_property
    def log_det(self) -> np.ndarray:
        """Nodewise log det H, guarded by the convexity floor."""
        self.require_convex()
        log_det = np.log(self.det)
        log_det.setflags(write=False)
        return log_det

    @kept_property
    def log_det_contraction(self) -> np.ndarray:
        """sum_ij h^ij (log det H)_ij, guarded: the dual equation's left
        side and -4 times the scalar curvature."""
        log_det = to_spectrum(self.grid, self.log_det)
        return self.contract(hessian_from_spectrum(self.grid, log_det))

    @kept_property
    def forward(self) -> np.ndarray:
        """The fourth-order field sum_ij (h^ij)_ij, h = H^-1, guarded; zero
        with no transform when H is constant, as at the flat start (for the
        identity base bitwise the transforms' zero, where other constant
        fields may leave rounding of order eps^2)."""
        hinv = self.inverse()
        forward = (np.zeros(self.grid.shape) if self._constant
                   else second_divergence_values(self.grid, hinv))
        forward.setflags(write=False)
        return forward

    def contract(self, second: np.ndarray) -> np.ndarray:
        """sum_ij h^ij f_ij, h = H^-1, for the triangle stack of f_ij, guarded."""
        hinv = self.inverse()
        acc = np.zeros(self.grid.shape)
        for weight, m, s in zip(pair_weights(self.grid.dim), hinv, second):
            acc += weight * m * s
        return acc

    def congruent(self, second: np.ndarray) -> np.ndarray:
        """Triangle entries of h psi h, h = H^-1, times pair weights.

        `second` is the triangle stack (m, *shape) of a symmetric field psi,
        as `hessian_from_spectrum` returns it; so is the result.  With pairs
        k = (i, j), l = (a, b) and `grid.pair_weights` w (1 on the diagonal,
        2 off it) entry k is sum_l S_kl psi_l, where

            S_kl = w_k * (h_ia h_jb + h_ib h_ja) / 2 * w_l,

        so sum_k psi_k (entry k) is the full contraction tr(h psi h psi)
        and the double divergence of the result, each pair once, is the
        linearization (u^ia psi_ab u^bj)_ij.  The weights S are formed on
        first use, behind the convexity guard, and kept.
        """
        self.require_convex()
        weights = self._weights
        out = np.zeros(second.shape)
        term = np.empty(second.shape[1:])  # one buffer for every product
        for k, l, s in weights:
            out[k] += np.multiply(s, second[l], out=term)
            if k != l:
                out[l] += np.multiply(s, second[k], out=term)
        return out

    @kept_property
    def _weights(self) -> tuple[tuple[int, int, np.ndarray], ...]:
        """(k, l, S_kl) for k <= l: m(m+1)/2 read-only arrays, kept apart
        rather than stacked so that each allocation stays small."""
        e, n = self._inverse, self.grid.dim
        at, w = pair_index(n).tolist(), pair_weights(n)
        pairs = triangle_pairs(n)
        weights = []
        for k, (i, j) in enumerate(pairs):
            for l, (a, b) in enumerate(pairs[k:], start=k):
                scale = 0.5 * w[k] * w[l]
                cross = e[at[i][a]] * e[at[j][b]]
                cross += e[at[i][b]] * e[at[j][a]]
                cross *= scale
                cross.setflags(write=False)
                weights.append((k, l, cross))
        return tuple(weights)

    @kept_property
    def _inverse(self) -> np.ndarray:
        inverse = triangle_inverse(self.hessian, self.det)
        inverse.setflags(write=False)
        return inverse


#: Half-width of the eigenvalue screening band of `_extreme_candidates_3x3`,
#: relative to the largest |q| + 2p of the stack.
_SCREEN_BAND = 1e-6


def _extreme_candidates_3x3(e: np.ndarray) -> np.ndarray:
    """Flat indices, ascending (row-major), of the nodes whose smallest or
    largest eigenvalue may attain the extreme over the stack.

    The trigonometric closed form (Smith, CACM 4 (1961) 168) gives per node
    q = tr/3, p = |H - qI|_F / sqrt(6), r = det((H - qI)/p)/2 clipped to
    [-1, 1] (r = 0 when p = 0, a triple eigenvalue) and phi = arccos(r)/3;
    the extremes are q + 2p cos(phi + 2pi/3) and q + 2p cos(phi), and
    every eigenvalue has modulus at most S = |q| + 2p.  Rounding puts an
    error of order eps (1 + |q|/p) on r, which arccos (Hoelder-1/2 with
    constant pi/sqrt(2)) turns into at most about 5e-8 S on the
    eigenvalues near a double one (1.2e-8 S is the largest seen on
    random stacks), and eps S elsewhere.  A node is kept
    when its closed-form minimum is within the band 1e-6 max S of the
    smallest closed-form minimum, or its maximum within the band of the
    largest.  The band exceeds twice that error plus LAPACK's eps S by a
    factor of ten, so every node whose eigvalsh extreme ties or nearly
    ties the global one is kept; eigvalsh returns the same bits for a
    matrix however it is batched, so the extremes and the first node of
    the minimum over the kept nodes are those over all nodes.
    """
    # exact power-of-two rescale to entries below 1: no overflow or
    # underflow in the squares and the determinant
    b = np.ldexp(e.reshape(6, -1), -np.frexp(np.abs(e).max())[1])
    q = (b[0] + b[3] + b[5]) / 3.0
    b[[0, 3, 5]] -= q
    p = np.sqrt(pair_weights(3) @ (b * b) / 6.0)
    b /= np.where(p > 0.0, p, 1.0)
    phi = np.arccos(np.clip(0.5 * _det_3x3(b), -1.0, 1.0)) / 3.0
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    hi = q + 2.0 * p * np.cos(phi)
    band = _SCREEN_BAND * np.max(np.abs(q) + 2.0 * p)
    return np.flatnonzero((lo <= lo.min() + band) | (hi >= hi.max() - band))


def _cofactor_3x3(e: np.ndarray) -> np.ndarray:
    """Triangle stack of the cofactor matrices (adjugates) of symmetric 3x3
    matrices given by their triangle stack [a, b, c, d, f, g] =
    (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)."""
    a, b, c, d, f, g = e
    return np.stack([d * g - f * f, c * f - b * g, b * f - c * d,
                     a * g - c * c, b * c - a * f, a * d - b * b])


def _det_3x3(e: np.ndarray) -> np.ndarray:
    """Determinants by cofactor expansion along the first row, with the
    first-row cofactors of `_cofactor_3x3` (same entry layout)."""
    a, b, c, d, f, g = e
    return a * (d * g - f * f) + b * (c * f - b * g) + c * (b * f - c * d)


def _triangle_det(e: np.ndarray) -> np.ndarray:
    """Determinants of the symmetric matrices of a triangle stack
    (m, *shape): closed forms for n <= 3 (m = 1, 3, 6), LAPACK from n = 4
    on; one that overflows is infinite or NaN, with no warning."""
    if len(e) == 1:
        return e[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        if len(e) == 3:
            a, b, c = e
            return a * c - b * b
        if len(e) == 6:
            return _det_3x3(e)
    return np.linalg.det(triangle_to_full(e))


def triangle_inverse(entries: np.ndarray, det: np.ndarray | None = None) -> np.ndarray:
    """Component-first triangle stack (m, *shape) of the inverses of the
    symmetric matrices of a component-first triangle stack (m, *shape),
    with their determinants `det` (computed when not given).

    Closed forms for n <= 3 (m = 1, 3, 6): 1/a, [c, -b, a]/det for
    [[a, b], [b, c]], and the adjugate over det; from n = 4 on LAPACK's inv
    of `triangle_to_full`, taken back by `full_to_triangle`, which
    symmetrizes it.  A singular matrix gets non-finite entries, with no
    floating-point warning.  `HessianState` and the gradient-map inversion
    share it.
    """
    e = np.asarray(entries, dtype=float)
    if det is None and len(e) > 1:
        det = _triangle_det(e)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if len(e) == 1:
            return 1.0 / e
        if len(e) == 3:
            a, b, c = e
            return np.stack([c, -b, a]) / det
        if len(e) == 6:
            return _cofactor_3x3(e) / det
    full = triangle_to_full(e)
    inv = np.full_like(full, np.nan)
    regular = det != 0.0  # LAPACK's inv raises on any exactly singular one
    inv[regular] = np.linalg.inv(full[regular])
    return full_to_triangle(inv)


def inverse_hessian(H: SymMatrixField) -> SymMatrixField:
    """Nodewise matrix inverse, guarded by the convexity floor."""
    return SymMatrixField(H.grid, HessianState(H.grid, H.entries).inverse())


def det_hessian(H: SymMatrixField) -> ScalarField:
    """Nodewise determinant."""
    return ScalarField(H.grid, HessianState(H.grid, H.entries).det)


def cofactor(H: SymMatrixField) -> SymMatrixField:
    """Nodewise cofactor matrix det(H) H^-1, guarded by the convexity floor.

    For n = 1 it is the constant field 1 (the empty minor), up to rounding.
    """
    state = HessianState(H.grid, H.entries)
    return SymMatrixField(H.grid, state.det * state.inverse())


def abreu_forward(P: Potential) -> ScalarField:
    """The fourth-order operator sum_ij (u^ij)_ij applied to the potential.

    The output has exactly zero mean: it is a double divergence of a
    periodic matrix field, integrated by parts on the torus.  The Hessian
    state evaluates it once per potential.
    """
    return ScalarField(P.grid, P.hessian_state.forward)


def divergence_form_residual(P: Potential, A: ScalarField) -> ScalarField:
    """Residual of the divergence form, sum_ij U^ij w_ij - A.

    U = det(u_ab) u^ij is the cofactor matrix of the Hessian and
    w = 1/det(u_ab); the field vanishes identically on exact solutions.
    It is computed for any A: a nonzero mean of A shows as a residual.
    """
    state = P.hessian_state
    state.require_convex()
    w = hessian(ScalarField(P.grid, 1.0 / state.det))
    return ScalarField(P.grid, state.det * state.contract(w.entries)) - A


def convexity_margin(P: Potential) -> float:
    """Smallest Hessian eigenvalue over all nodes; positive iff convex."""
    return P.hessian_state.min_eigenvalue
