"""Uniform periodic grids on [0,1]^n and their spectral calculus.

Fields live on tensor-product collocation grids with nodes at k/N along
each axis.  All differentiation, quadrature and off-grid evaluation is
Fourier based: exact for band-limited fields below the Nyquist frequency,
superalgebraically accurate for smooth periodic fields.  Every operation
is a pure function; field values are stored read-only so instances can be
shared freely across threads.

Conventions:
  * integer wavenumbers, fundamental domain fixed to [0,1]^n;
  * odd-order derivatives zero the Nyquist mode (symmetric choice);
  * quadrature is the plain node average, which integrates trigonometric
    polynomials below Nyquist exactly (the domain has unit volume, so the
    average equals the integral).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicGrid",
    "ScalarField",
    "SymMatrixField",
    "make_grid",
    "partial",
    "gradient",
    "hessian",
    "mean",
    "project_mean_zero",
    "second_divergence",
    "interpolate",
    "TrigInterpolant",
    "sup_norm",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform tensor grid on [0,1]^n with wraparound index arithmetic.

    resolution holds the per-axis node count N_k; nodes sit at j/N_k, so
    spacing * N_k = 1 exactly.  Resolutions must be even and at least 8:
    spectral differentiation needs an unambiguous Nyquist convention and
    a few modes of headroom.
    """

    dim: int
    resolution: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"grid dimension must be >= 1, got {self.dim}")
        res = tuple(int(n) for n in self.resolution)
        object.__setattr__(self, "resolution", res)
        if len(res) != self.dim:
            raise ValueError(
                f"expected {self.dim} per-axis resolutions, got {len(res)}"
            )
        for axis, n in enumerate(res):
            if n < 8 or n % 2 != 0:
                raise ValueError(
                    f"resolution along axis {axis} must be even and >= 8, "
                    f"got {n}"
                )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.resolution)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.resolution))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """1D node coordinates j/N along one axis."""
        n = self.resolution[axis]
        return np.arange(n) / n

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Meshgrid ('ij' indexing) coordinate array per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def node_points(self) -> np.ndarray:
        """All node coordinates as a (node_count, dim) array, row-major."""
        coords = self.coordinate_arrays()
        return np.stack([c.ravel() for c in coords], axis=-1)

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer wavenumbers in FFT layout (Nyquist stored as -N/2)."""
        n = self.resolution[axis]
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    def wrap(self, point) -> np.ndarray:
        """Map arbitrary coordinates into the fundamental domain [0,1)^n."""
        p = np.asarray(point, dtype=float)
        return np.mod(p, 1.0)


def make_grid(dim: int, resolution) -> PeriodicGrid:
    """Create a periodic grid; rejects odd or undersized resolutions."""
    if np.isscalar(resolution):
        resolution = (int(resolution),) * dim
    return PeriodicGrid(dim=int(dim), resolution=tuple(int(n) for n in resolution))


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node, row-major with the last axis fastest."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"value shape {vals.shape} does not match grid "
                f"resolution {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("scalar field contains non-finite values")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "ScalarField":
        """Sample a callable fn(*coordinate_arrays) on the grid."""
        return cls(grid, fn(*grid.coordinate_arrays()))

    def _binary(self, other, op):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return ScalarField(self.grid, op(self.values, other.values))
        return ScalarField(self.grid, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return ScalarField(self.grid, float(other) - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


def _triangle_indices(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class SymMatrixField:
    """Symmetric n x n matrix per node, upper triangle stored row by row.

    Symmetry is structural: only the n(n+1)/2 triangle entries exist, in
    the order (0,0), (0,1), ..., (0,n-1), (1,1), ...
    """

    grid: PeriodicGrid
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.dim
        m = n * (n + 1) // 2
        vals = np.asarray(self.entries, dtype=float)
        if vals.shape != self.grid.shape + (m,):
            raise ValueError(
                f"entry shape {vals.shape} does not match grid shape "
                f"{self.grid.shape} + ({m},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix field contains non-finite entries")
        object.__setattr__(self, "entries", _freeze(vals))

    @classmethod
    def identity(cls, grid: PeriodicGrid) -> "SymMatrixField":
        return cls.from_constant(grid, np.eye(grid.dim))

    @classmethod
    def from_constant(cls, grid: PeriodicGrid, matrix) -> "SymMatrixField":
        mat = np.asarray(matrix, dtype=float)
        pairs = _triangle_indices(grid.dim)
        entries = np.empty(grid.shape + (len(pairs),))
        for k, (i, j) in enumerate(pairs):
            entries[..., k] = mat[i, j]
        return cls(grid, entries)

    @classmethod
    def from_full(cls, grid: PeriodicGrid, full: np.ndarray) -> "SymMatrixField":
        """Build from a (*grid.shape, n, n) stack, symmetrizing exactly."""
        pairs = _triangle_indices(grid.dim)
        entries = np.empty(grid.shape + (len(pairs),))
        for k, (i, j) in enumerate(pairs):
            entries[..., k] = 0.5 * (full[..., i, j] + full[..., j, i])
        return cls(grid, entries)

    def triangle_index(self, i: int, j: int) -> int:
        n = self.grid.dim
        if i > j:
            i, j = j, i
        return i * n - i * (i - 1) // 2 + (j - i)

    def component(self, i: int, j: int) -> np.ndarray:
        """Nodewise values of entry (i, j) (read-only array)."""
        return self.entries[..., self.triangle_index(i, j)]

    def to_full(self) -> np.ndarray:
        """Expand to a (*grid.shape, n, n) stack of symmetric matrices."""
        n = self.grid.dim
        full = np.empty(self.grid.shape + (n, n))
        for k, (i, j) in enumerate(_triangle_indices(n)):
            full[..., i, j] = self.entries[..., k]
            full[..., j, i] = self.entries[..., k]
        return full


# ---------------------------------------------------------------------------
# spectral differentiation


@functools.lru_cache(maxsize=128)
def _derivative_multiplier(grid: PeriodicGrid, orders: tuple[int, ...]) -> np.ndarray:
    """Fourier multiplier of the mixed derivative with per-axis `orders`.

    Laid out for real-FFT spectra (the last axis keeps its N/2 + 1
    non-negative modes, Nyquist last) and cached read-only per grid.  Odd
    orders zero the Nyquist mode of their axis; even orders keep it.  The
    multiplier is real whenever the total order is even.
    """
    mult = np.ones((1,) * grid.dim)
    for axis, order in enumerate(orders):
        if order == 0:
            continue
        n = grid.resolution[axis]
        k = grid.wavenumbers(axis).astype(float)
        if axis == grid.dim - 1:
            k = k[: n // 2 + 1]
        factor = (_TWO_PI * k) ** order
        if order % 2 == 1:
            factor[n // 2] = 0.0
        shape = [1] * grid.dim
        shape[axis] = len(k)
        mult = mult * factor.reshape(shape)
    mult = mult * 1j ** sum(orders)
    if sum(orders) % 2 == 0:
        mult = mult.real
    mult.setflags(write=False)
    return mult


def _rfft(values: np.ndarray) -> np.ndarray:
    return np.fft.rfftn(values, axes=tuple(range(values.ndim)))


def _irfft(spectrum: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return np.fft.irfftn(spectrum, s=grid.shape, axes=tuple(range(grid.dim)))


def _pair_orders(dim: int, i: int, j: int) -> tuple[int, ...]:
    """Per-axis orders of the second partial d^2 / dx_i dx_j."""
    orders = [0] * dim
    orders[i] += 1
    orders[j] += 1
    return tuple(orders)


def _check_axes(grid: PeriodicGrid, axes) -> tuple[int, ...]:
    axes = tuple(int(a) for a in axes)
    if len(axes) != grid.dim:
        raise ValueError(
            f"derivative multi-index length {len(axes)} does not match "
            f"grid dimension {grid.dim}"
        )
    if any(a < 0 for a in axes):
        raise ValueError("derivative orders must be non-negative")
    if sum(axes) > 4:
        raise ValueError("total derivative order above 4 is not supported")
    return axes


def partial(f: ScalarField, axes) -> ScalarField:
    """Spectral mixed partial derivative with per-axis orders `axes`.

    Exact for band-limited fields below Nyquist.
    """
    axes = _check_axes(f.grid, axes)
    if sum(axes) == 0:
        return f
    spectrum = _rfft(f.values) * _derivative_multiplier(f.grid, axes)
    return ScalarField(f.grid, _irfft(spectrum, f.grid))


def _unit_orders(dim: int, axis: int, order: int = 1) -> tuple[int, ...]:
    orders = [0] * dim
    orders[axis] = order
    return tuple(orders)


def gradient(f: ScalarField) -> list[ScalarField]:
    """All first partials, sharing a single forward transform."""
    grid = f.grid
    spectrum = _rfft(f.values)
    out = []
    for axis in range(grid.dim):
        mult = _derivative_multiplier(grid, _unit_orders(grid.dim, axis))
        out.append(ScalarField(grid, _irfft(spectrum * mult, grid)))
    return out


def hessian(f: ScalarField) -> SymMatrixField:
    """All second partials as a symmetric matrix field (one forward FFT)."""
    grid = f.grid
    n = grid.dim
    spectrum = _rfft(f.values)
    pairs = _triangle_indices(n)
    entries = np.empty(grid.shape + (len(pairs),))
    for k, (i, j) in enumerate(pairs):
        mult = _derivative_multiplier(grid, _pair_orders(n, i, j))
        entries[..., k] = _irfft(spectrum * mult, grid)
    return SymMatrixField(grid, entries)


def mean(f: ScalarField) -> float:
    """Average of node values == integral over [0,1]^n (unit volume)."""
    return float(np.mean(f.values))


def project_mean_zero(f: ScalarField) -> ScalarField:
    """Subtract the mean; fixes the additive-constant gauge."""
    return ScalarField(f.grid, f.values - np.mean(f.values))


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


def second_divergence(M: SymMatrixField) -> ScalarField:
    """Double divergence sum_ij d^2 M^ij / dx_i dx_j of a matrix field.

    Accumulated in frequency space with a single inverse transform; the
    zero mode carries no contribution, so the output has exactly zero mean.
    """
    grid = M.grid
    n = grid.dim
    acc = 0.0
    for k, (i, j) in enumerate(_triangle_indices(n)):
        mult = _derivative_multiplier(grid, _pair_orders(n, i, j))
        weight = 1.0 if i == j else 2.0
        # centering is exact (the zero mode is annihilated) and avoids
        # scattering the large DC coefficient's rounding into high modes,
        # which the fourth-order multipliers would amplify
        comp = M.entries[..., k]
        acc = acc + weight * mult * _rfft(comp - comp.mean())
    return ScalarField(grid, _irfft(acc, grid))


# ---------------------------------------------------------------------------
# trigonometric interpolation


class TrigInterpolant:
    """Band-limited interpolant of a sampled field.

    The Nyquist coefficient of each (even) axis is split symmetrically
    between +N/2 and -N/2, which makes the interpolant real-valued and
    reproduces node values exactly.  Evaluation at P points costs
    O(P * node_count) via axis-by-axis tensor contraction.
    """

    def __init__(self, f: ScalarField):
        self.grid = f.grid
        self.coeffs = np.fft.fftn(f.values) / f.grid.node_count

    def _axis_matrix(self, axis: int, x: np.ndarray) -> np.ndarray:
        grid = self.grid
        k = grid.wavenumbers(axis).astype(float)
        e = np.exp((1j * _TWO_PI) * np.outer(x, k))
        # symmetric Nyquist: exp(+-i pi N x) averaged -> cos(pi N x)
        nyq = grid.resolution[axis] // 2
        e[:, nyq] = np.cos(np.pi * grid.resolution[axis] * x)
        return e

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at a (P, dim) array of points (wrapped periodically)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.grid.dim:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, grid has {self.grid.dim}"
            )
        npts = pts.shape[0]
        acc = np.broadcast_to(self.coeffs, (npts,) + self.coeffs.shape)
        for axis in range(self.grid.dim):
            e = self._axis_matrix(axis, pts[:, axis])
            # contract the leading grid axis against this axis' exponentials
            acc = np.einsum("pk,pk...->p...", e, acc)
        out = acc.real
        return float(out[0]) if single else out


def interpolate(f: ScalarField, point) -> float:
    """Trigonometric interpolation of f at one point in R^n.

    Agrees with stored values at nodes exactly and with the underlying
    function at arbitrary points whenever f is band-limited below Nyquist.
    Points outside [0,1)^n are wrapped by periodicity.
    """
    return TrigInterpolant(f).evaluate(np.asarray(point, dtype=float))
