"""Convex potentials u = Q + phi and the fourth-order operator they feed.

A potential is a strictly convex quadratic base Q(x) = x^T M x / 2 plus a
periodic perturbation phi in mean-zero gauge.  The Hessian is computed
spectrally from phi and shifted by M (u itself is not periodic, so it is
never differenced directly).  On top of the Hessian algebra this module
provides the fourth-order operator in both raw form,

    sum_ij d^2 (u^ij) / dx_i dx_j,

and the equivalent divergence form  sum_ij U^ij w_ij - A  with U the
cofactor matrix of the Hessian and w = 1/det(u_ab).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MeanNotZero, NotConvex
from .grid import (
    PeriodicGrid,
    ScalarField,
    SymMatrixField,
    hessian,
    mean,
    second_divergence,
    sup_norm,
)

__all__ = [
    "QuadraticBase",
    "Potential",
    "HessianState",
    "CONVEXITY_FLOOR",
    "hessian_u",
    "inverse_hessian",
    "det_hessian",
    "cofactor",
    "abreu_forward",
    "divergence_form_residual",
    "convexity_margin",
    "double_contract",
]

#: Minimal admissible Hessian eigenvalue; below this the solver must fail
#: loudly rather than invert a near-singular matrix.
CONVEXITY_FLOOR = 1e-8

#: Gauge tolerance on mean(phi) accepted at construction.
_GAUGE_TOL = 1e-10


@dataclass(frozen=True)
class QuadraticBase:
    """Strictly convex quadratic form Q(x) = x^T matrix x / 2."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"base matrix must be square, got shape {mat.shape}")
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-13):
            raise ValueError("base matrix must be symmetric")
        mat = 0.5 * (mat + mat.T)
        if np.linalg.eigvalsh(mat)[0] <= 0.0:
            raise ValueError("base matrix must be positive definite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, dim: int) -> "QuadraticBase":
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "QuadraticBase":
        return QuadraticBase(np.linalg.inv(self.matrix))

    def is_identity(self, tol: float = 1e-12) -> bool:
        return bool(np.allclose(self.matrix, np.eye(self.dim), rtol=0.0, atol=tol))


@dataclass(frozen=True)
class Potential:
    """u = Q + phi with periodic phi in mean-zero gauge.

    Strict convexity is not enforced at construction (diagnostics must be
    able to measure how non-convex a candidate is); operations that invert
    the Hessian raise NotConvex when the eigenvalue floor is crossed.
    """

    base: QuadraticBase
    perturbation: ScalarField

    def __post_init__(self):
        if self.base.dim != self.perturbation.grid.dim:
            raise ValueError(
                f"base dimension {self.base.dim} does not match grid "
                f"dimension {self.perturbation.grid.dim}"
            )
        gauge = abs(mean(self.perturbation))
        scale = 1.0 + sup_norm(self.perturbation)
        if gauge > _GAUGE_TOL * scale:
            raise ValueError(
                f"perturbation violates the mean-zero gauge "
                f"(mean = {gauge:.3e}); project it first"
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
        return Potential(self.base, ScalarField(self.grid, vals - vals.mean()))

    @cached_property
    def hessian_state(self) -> "HessianState":
        """Hessian quantities of this potential, built on first use and kept."""
        return HessianState(hessian_u(self))


def hessian_u(P: Potential) -> SymMatrixField:
    """Nodewise Hessian M + D^2 phi, computed spectrally from phi."""
    h = hessian(P.perturbation)
    mat = P.base.matrix
    entries = h.entries.copy()
    for k, (i, j) in enumerate(
        (i, j) for i in range(P.grid.dim) for j in range(i, P.grid.dim)
    ):
        entries[..., k] += mat[i, j]
    return SymMatrixField(P.grid, entries)


@dataclass(frozen=True, eq=False)
class HessianState:
    """Nodewise Hessian quantities of one potential, each computed once.

    Holds the Hessian entries, their determinant, the extreme eigenvalues
    and the node of the smallest one; the inverse is formed on first use,
    behind the convexity guard.  For n <= 2 everything has a closed form
    (a 2x2 [[a, b], [b, c]] has eigenvalues m -+ hypot((a - c)/2, b) with
    m = (a + c)/2, determinant ac - b^2 and inverse [c, -b, a]/det); from
    n = 3 on LAPACK's eigvalsh, det and inv are used.
    """

    hessian: SymMatrixField
    det: np.ndarray = field(init=False)
    min_eigenvalue: float = field(init=False)
    max_eigenvalue: float = field(init=False)
    worst_node: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        H = self.hessian
        e = H.entries
        if H.grid.dim == 1:
            lo = hi = e[..., 0]
            det = lo.copy()
        elif H.grid.dim == 2:
            a, b, c = e[..., 0], e[..., 1], e[..., 2]
            det = a * c - b * b
            m = 0.5 * (a + c)
            r = np.hypot(0.5 * (a - c), b)
            lo, hi = m - r, m + r
        else:
            full = H.to_full()
            det = np.linalg.det(full)
            eigs = np.linalg.eigvalsh(full)
            lo, hi = eigs[..., 0], eigs[..., -1]
        worst = np.unravel_index(np.argmin(lo), lo.shape)
        det.setflags(write=False)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "min_eigenvalue", float(lo[worst]))
        object.__setattr__(self, "max_eigenvalue", float(hi.max()))
        object.__setattr__(self, "worst_node", tuple(int(i) for i in worst))

    def require_convex(self, floor: float = CONVEXITY_FLOOR) -> None:
        """Raise NotConvex naming the worst node if min eigenvalue <= floor."""
        if self.min_eigenvalue <= floor:
            raise NotConvex(self.worst_node, self.min_eigenvalue)

    def inverse(self, floor: float = CONVEXITY_FLOOR) -> SymMatrixField:
        """Nodewise inverse Hessian, guarded by the convexity floor."""
        self.require_convex(floor)
        return self._inverse

    @cached_property
    def _inverse(self) -> SymMatrixField:
        H = self.hessian
        e = H.entries
        if H.grid.dim == 1:
            return SymMatrixField(H.grid, 1.0 / e)
        if H.grid.dim == 2:
            a, b, c = e[..., 0], e[..., 1], e[..., 2]
            inv = np.stack([c, -b, a], axis=-1) / self.det[..., None]
            return SymMatrixField(H.grid, inv)
        return SymMatrixField.from_full(H.grid, np.linalg.inv(H.to_full()))


def inverse_hessian(
    H: SymMatrixField, convexity_floor: float = CONVEXITY_FLOOR
) -> SymMatrixField:
    """Nodewise matrix inverse, guarded by the convexity floor."""
    return HessianState(H).inverse(convexity_floor)


def det_hessian(H: SymMatrixField) -> ScalarField:
    """Nodewise determinant."""
    return ScalarField(H.grid, HessianState(H).det)


def cofactor(H: SymMatrixField) -> SymMatrixField:
    """Nodewise cofactor matrix, computed from minors (no inversion).

    Equals det(H) * H^{-1} wherever H is invertible; for n = 1 the empty
    minor convention gives the constant field 1.
    """
    grid = H.grid
    n = grid.dim
    if n == 1:
        return SymMatrixField(grid, np.ones(grid.shape + (1,)))
    full = H.to_full()
    cof = np.empty_like(full)
    idx = np.arange(n)
    for i in range(n):
        rows = idx[idx != i]
        for j in range(i, n):
            cols = idx[idx != j]
            minor = full[..., rows[:, None], cols[None, :]]
            cof[..., i, j] = (-1.0) ** (i + j) * _det_stack(minor)
            cof[..., j, i] = cof[..., i, j]
    return SymMatrixField.from_full(grid, cof)


def _det_stack(m: np.ndarray) -> np.ndarray:
    if m.shape[-1] == 1:
        return m[..., 0, 0]
    return np.linalg.det(m)


def double_contract(M: SymMatrixField, S: SymMatrixField) -> ScalarField:
    """Pointwise full contraction sum_ij M^ij S_ij of two symmetric fields."""
    if M.grid != S.grid:
        raise ValueError("matrix fields live on different grids")
    n = M.grid.dim
    acc = np.zeros(M.grid.shape)
    for k, (i, j) in enumerate(
        (i, j) for i in range(n) for j in range(i, n)
    ):
        weight = 1.0 if i == j else 2.0
        acc += weight * M.entries[..., k] * S.entries[..., k]
    return ScalarField(M.grid, acc)


def abreu_forward(
    P: Potential, convexity_floor: float = CONVEXITY_FLOOR
) -> ScalarField:
    """The fourth-order operator sum_ij (u^ij)_ij applied to the potential.

    The output has exactly zero mean: it is a double divergence of a
    periodic matrix field, integrated by parts on the torus.
    """
    return second_divergence(P.hessian_state.inverse(convexity_floor))


def divergence_form_residual(
    P: Potential,
    A: ScalarField,
    convexity_floor: float = CONVEXITY_FLOOR,
    mean_tolerance: float = 1e-10,
) -> ScalarField:
    """Residual of the divergence form, sum_ij U^ij w_ij - A.

    U is the cofactor matrix of the Hessian and w = 1/det(u_ab); the field
    vanishes identically on exact solutions.
    """
    if abs(mean(A)) > mean_tolerance * (1.0 + sup_norm(A)):
        raise MeanNotZero(mean(A), mean_tolerance)
    state = P.hessian_state
    state.require_convex(convexity_floor)
    w = ScalarField(P.grid, 1.0 / state.det)
    return double_contract(cofactor(state.hessian), hessian(w)) - A


def convexity_margin(P: Potential) -> float:
    """Smallest Hessian eigenvalue over all nodes; positive iff convex."""
    return P.hessian_state.min_eigenvalue
