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
  * off-grid evaluation (`TrigInterpolant`) works in the real separable
    basis [1, cos 2 pi k x, cos pi N x, sin 2 pi k x] (0 < k < N/2) per
    axis, so a real field is evaluated with real products only;
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
    "hessian_stack",
    "mean",
    "project_mean_zero",
    "second_divergence",
    "second_divergence_stack",
    "interpolate",
    "TrigInterpolant",
    "sup_norm",
    "triangle_pairs",
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
    # row-major whatever the input's layout (`hessian` passes a transposed view)
    out = np.array(values, dtype=float, copy=True, order="C")
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


def triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i <= j) of an n x n symmetric matrix, in the entry
    order of `SymMatrixField` and of component-first stacks."""
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
        pairs = triangle_pairs(grid.dim)
        entries = np.empty(grid.shape + (len(pairs),))
        for k, (i, j) in enumerate(pairs):
            entries[..., k] = mat[i, j]
        return cls(grid, entries)

    @classmethod
    def from_full(cls, grid: PeriodicGrid, full: np.ndarray) -> "SymMatrixField":
        """Build from a (*grid.shape, n, n) stack, symmetrizing exactly."""
        pairs = triangle_pairs(grid.dim)
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
        for k, (i, j) in enumerate(triangle_pairs(n)):
            full[..., i, j] = self.entries[..., k]
            full[..., j, i] = self.entries[..., k]
        return full


# ---------------------------------------------------------------------------
# spectral differentiation


@functools.lru_cache(maxsize=128)
def _axis_factor(grid: PeriodicGrid, axis: int, order: int) -> np.ndarray:
    """(2 pi k)^order along one axis, complex-FFT layout, cached read-only;
    odd orders zero the Nyquist mode.  The caller applies i^order."""
    factor = (_TWO_PI * grid.wavenumbers(axis).astype(float)) ** order
    if order % 2 == 1:
        factor[grid.resolution[axis] // 2] = 0.0
    factor.setflags(write=False)
    return factor


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
        factor = _axis_factor(grid, axis, order)
        if axis == grid.dim - 1:
            factor = factor[: grid.resolution[axis] // 2 + 1]
        shape = [1] * grid.dim
        shape[axis] = len(factor)
        mult = mult * factor.reshape(shape)
    mult = mult * 1j ** sum(orders)
    if sum(orders) % 2 == 0:
        mult = mult.real
    mult.setflags(write=False)
    return mult


def _grid_axes(a: np.ndarray, grid: PeriodicGrid) -> tuple[int, ...]:
    """The trailing grid axes of a field or of a component-first stack."""
    return tuple(range(a.ndim - grid.dim, a.ndim))


def _rfft(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    # with an output array the passes after the first run in place
    out = np.empty(values.shape[:-1] + (grid.resolution[-1] // 2 + 1,), complex)
    return np.fft.rfftn(values, axes=_grid_axes(values, grid), out=out)


def _irfft(spectrum: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    return np.fft.irfftn(spectrum, s=grid.shape, axes=_grid_axes(spectrum, grid))


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
    spectrum = _rfft(f.values, f.grid) * _derivative_multiplier(f.grid, axes)
    return ScalarField(f.grid, _irfft(spectrum, f.grid))


def _unit_orders(dim: int, axis: int, order: int = 1) -> tuple[int, ...]:
    orders = [0] * dim
    orders[axis] = order
    return tuple(orders)


def gradient(f: ScalarField) -> list[ScalarField]:
    """All first partials, sharing a single forward transform."""
    grid = f.grid
    spectrum = _rfft(f.values, grid)
    out = []
    for axis in range(grid.dim):
        mult = _derivative_multiplier(grid, _unit_orders(grid.dim, axis))
        out.append(ScalarField(grid, _irfft(spectrum * mult, grid)))
    return out


@functools.lru_cache(maxsize=128)
def _pair_multipliers(grid: PeriodicGrid) -> tuple[np.ndarray, ...]:
    """Multipliers of the second partials d^2 / dx_i dx_j over the triangle
    pairs (i <= j) in `SymMatrixField` order, each broadcastable to a
    real-FFT spectrum."""
    n = grid.dim
    return tuple(
        _derivative_multiplier(grid, _pair_orders(n, i, j))
        for i, j in triangle_pairs(n)
    )


def hessian_stack(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Second partials of raw node values, component-first (m, *grid.shape).

    Components follow the triangle order of `SymMatrixField`.  One forward
    real transform, one batched inverse over all m multiplied spectra.
    """
    mults = _pair_multipliers(grid)
    spectrum = _rfft(values, grid)
    spectra = np.empty((len(mults),) + spectrum.shape, complex)
    for mult, out in zip(mults, spectra):
        np.multiply(spectrum, mult, out=out)
    del spectrum  # the inverse's temporaries set the peak memory of an apply
    return _irfft(spectra, grid)


def hessian(f: ScalarField) -> SymMatrixField:
    """All second partials as a symmetric matrix field (one forward FFT)."""
    return SymMatrixField(f.grid, np.moveaxis(hessian_stack(f.grid, f.values), 0, -1))


def mean(f: ScalarField) -> float:
    """Average of node values == integral over [0,1]^n (unit volume)."""
    return float(np.mean(f.values))


def project_mean_zero(f: ScalarField) -> ScalarField:
    """Subtract the mean; fixes the additive-constant gauge."""
    return ScalarField(f.grid, f.values - np.mean(f.values))


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


def second_divergence_stack(grid: PeriodicGrid, stack: np.ndarray) -> np.ndarray:
    """Centers each component of `stack` in place, then returns the sum over
    triangle pairs k = (i, j) of d^2 stack_k / dx_i dx_j.

    `stack` is a writable component-first (m, *grid.shape) array that the
    caller gives up: on return it holds the centered components.  Each
    pair counts once, so the full double divergence of a symmetric field
    passes its off-diagonal entries doubled.  One batched forward real
    transform of the centered components, one inverse of the summed
    spectra; the zero mode carries no contribution, so the output has
    exactly zero mean.
    """
    # centering is exact (the zero mode is annihilated) and avoids
    # scattering the large DC coefficient's rounding into high modes,
    # which the fourth-order multipliers would amplify
    for comp in stack:
        comp -= comp.mean()
    spectra = _rfft(stack, grid)
    acc = 0.0
    for mult, spectrum in zip(_pair_multipliers(grid), spectra):
        acc = acc + mult * spectrum
    return _irfft(acc, grid)


def second_divergence(M: SymMatrixField) -> ScalarField:
    """Double divergence sum_ij d^2 M^ij / dx_i dx_j of a matrix field.

    Accumulated in frequency space with a single inverse transform; the
    output has exactly zero mean.
    """
    grid = M.grid
    stack = np.empty((M.entries.shape[-1],) + grid.shape)
    for k, (i, j) in enumerate(triangle_pairs(grid.dim)):
        # doubling is exact, so it commutes bitwise with the transform
        stack[k] = M.entries[..., k] if i == j else 2.0 * M.entries[..., k]
    return ScalarField(grid, second_divergence_stack(grid, stack))


# ---------------------------------------------------------------------------
# trigonometric interpolation


#: Bytes one block of evaluation points may hold in its first-axis product:
#: block points times stack columns, 8-byte (float64) entries.
_BLOCK_BYTES = 256 * 1024


def _real_axis_coefficients(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Re-express FFT-layout coefficients along `axis` in the real basis
    [1, cos 2 pi k x (0 < k < N/2), cos pi N x, sin 2 pi k x (0 < k < N/2)]:
    a_cos = c_k + c_-k and a_sin = i (c_k - c_-k); the DC and the split
    Nyquist entries carry over unchanged."""
    c = np.moveaxis(coeffs, axis, 0)
    half = c.shape[0] // 2
    pos, neg = c[1:half], c[: half : -1]
    out = np.empty_like(c)
    out[0], out[half] = c[0], c[half]
    out[1:half] = pos + neg
    out[half + 1 :] = 1j * (pos - neg)
    return np.moveaxis(out, 0, axis)


def _axis_matrix(x: np.ndarray, t: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The real basis along one axis at `x`, a row per point and a column
    per basis function: a transposed view of `t`, which is filled a basis
    function per row.  Cosines and sines are the real and imaginary parts
    of the powers of exp(2 pi i x), formed row by row in the complex buffer
    `powers`; no trigonometric call per entry."""
    half = len(t) // 2
    w = np.exp(_TWO_PI * 1j * np.mod(x, 1.0))
    powers[0] = w
    for k in range(1, half):
        np.multiply(powers[k - 1], w, out=powers[k])
    t[0] = 1.0
    t[1 : half + 1] = powers[:half].real  # cos 2 pi k x, Nyquist last
    t[half + 1 :] = powers[: half - 1].imag
    return t.T


class TrigInterpolant:
    """Band-limited interpolant of a sampled field and its partials.

    The Nyquist coefficient of each (even) axis is split symmetrically
    between +N/2 and -N/2 (basis cos(pi N x)), which makes the interpolant
    real-valued and reproduces node values exactly.  Partials follow
    `partial`: odd orders zero the Nyquist mode, even orders keep it.

    Evaluation works in the real separable basis, along each axis
    [1, cos 2 pi k x (0 < k < N/2), cos pi N x, sin 2 pi k x (0 < k < N/2)],
    so all products are real.  Partials asked for together share one
    cached coefficient stack: fftn(f) times the derivative factors, mapped
    axis by axis onto that basis (`_real_axis_coefficients`) and kept as
    its real part, which is exact up to rounding for a real field.  Points
    go in blocks of bounded memory (`_BLOCK_BYTES` over 8-byte entries per
    stack column): per block one cos/sin table per axis, from the real and
    imaginary parts of the powers of exp(2 pi i x), then one real GEMM for
    the first axis and batched real row products for the rest, all into
    buffers allocated once per call and reused by every block.  Work is
    O(P * node_count) per field.
    """

    def __init__(self, f: ScalarField):
        self.grid = f.grid
        self.coeffs = np.fft.fftn(f.values) / f.grid.node_count
        self._stacks: dict = {}

    def _stack(self, orders: tuple) -> np.ndarray:
        """Real-basis coefficients of the partials `orders`, as
        (N_0, rest * fields) float64."""
        if orders not in self._stacks:
            grid = self.grid
            stack = np.empty(grid.shape + (len(orders),), dtype=complex)
            for field, axes in enumerate(orders):
                factors = [_axis_factor(grid, a, m) for a, m in enumerate(axes)]
                mult = functools.reduce(np.multiply.outer, factors)
                stack[..., field] = self.coeffs * (mult * 1j ** sum(axes))
            for axis in range(grid.dim):
                stack = _real_axis_coefficients(stack, axis)
            stack = np.ascontiguousarray(stack.real).reshape(grid.resolution[0], -1)
            stack.setflags(write=False)
            self._stacks[orders] = stack
        return self._stacks[orders]

    def partials(self, points, orders) -> np.ndarray:
        """Mixed partials at a (P, dim) array of points, shape (P, fields);
        `orders` holds one per-axis multi-index per field, as for `partial`.
        """
        grid = self.grid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != grid.dim:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, grid has {grid.dim}"
            )
        stack = self._stack(tuple(_check_axes(grid, axes) for axes in orders))
        block = max(1, min(_BLOCK_BYTES // (8 * stack.shape[1]), pts.shape[0]))
        # fresh block arrays sit above glibc's mmap threshold and would
        # page-fault on every block
        tables = [np.empty((n, block)) for n in grid.resolution]
        powers = np.empty((max(grid.resolution) // 2, block), complex)
        accs = [
            np.empty((block, stack.shape[1] // int(np.prod(grid.resolution[1:a]))))
            for a in range(1, grid.dim + 1)
        ]
        out = np.empty((pts.shape[0], len(orders)))
        for start in range(0, pts.shape[0], block):
            x = pts[start : start + block]
            b = len(x)
            t = _axis_matrix(x[:, 0], tables[0][:, :b], powers[:, :b])
            acc = np.matmul(t, stack, out=accs[0][:b])
            for axis in range(1, grid.dim):
                t = _axis_matrix(x[:, axis], tables[axis][:, :b], powers[:, :b])
                acc = np.matmul(t[:, None, :], acc.reshape(b, t.shape[-1], -1),
                                out=accs[axis][:b, None, :])[:, 0]
            out[start : start + b] = acc
        return out

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at a (P, dim) array of points (wrapped periodically)."""
        pts = np.asarray(points, dtype=float)
        out = self.partials(pts, [(0,) * self.grid.dim])[:, 0]
        return float(out[0]) if pts.ndim == 1 else out


def interpolate(f: ScalarField, point) -> float:
    """Trigonometric interpolation of f at one point in R^n.

    Agrees with stored values at nodes exactly and with the underlying
    function at arbitrary points whenever f is band-limited below Nyquist.
    Points outside [0,1)^n are wrapped by periodicity.
    """
    return TrigInterpolant(f).evaluate(np.asarray(point, dtype=float))
