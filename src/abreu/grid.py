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
  * this module alone knows the Fourier layout, and it has one, the
    real-FFT one: `to_spectrum` and `from_spectrum` are the transform pair,
    `ScalarField.spectrum` each field's one spectrum, which its
    derivatives, its interpolant and `periodicity_defect` read,
    `spectral_inner` the node-mean inner product of two spectra (Parseval)
    and `fourier_multiplier` the one multiplier table, whose second-order
    table each grid keeps (`PeriodicGrid.second_multipliers`); the solver's
    Krylov iteration runs on spectra through `hessian_from_spectrum` and
    `second_divergence_spectrum`;
  * the pair calls numpy's pocketfft kernels (`numpy.fft._pocketfft_umath`)
    with the passes and scale factors of `np.fft.rfftn`/`irfftn`, so its
    results are bitwise theirs: on the Krylov loop's small arrays numpy's
    Python wrappers cost about as much as the kernels;
  * a field's values are a read-only copy of what it is given, so its kept
    per-instance values (`kept_property`s, which take no lock) never go stale;
  * off-grid evaluation (`TrigInterpolant`) works in the real separable
    basis [1, cos 2 pi k x, cos pi N x, sin 2 pi k x] (0 < k < N/2) per
    axis, so a real field is evaluated with real products only, and only
    on the field's resolved band: per axis the modes up to the largest
    |k_a| of a coefficient above its rounding plateau eps * sup|f|; each
    field keeps its one interpolant (`ScalarField.interpolant`), which
    `interpolate`, the potential's off-grid derivatives and the pullbacks
    share, and `PeriodicGrid.check_points` is the one check of the points;
    each axis's cos/sin table is built once per span of evaluation blocks,
    into one buffer per call that the call frees when it returns, and
    fields evaluated at the same points (`interpolate_fields`) share it,
    each on its own band's rows; a call's buffer holds at most
    max(1 MiB, 64 t) + t bytes, t <= 8 (sum_a N_a + max_a N_a) the bytes
    of one point's tables (`_SPAN_BYTES`): 1 MiB and t on every grid with
    sum_a N_a + max_a N_a <= 2048;
  * quadrature is the plain node average, which integrates trigonometric
    polynomials below Nyquist exactly (the domain has unit volume, so the
    average equals the integral);
  * `ScalarField.mean_zero` is the package's one zero-mean test, relative
    since a computed mean's rounding grows with sup|f|: solve, Newton
    step, prescribe, CLI solve/residual, Potential gauge and verify use it;
  * each field keeps its sup (`ScalarField.sup`), each grid its Parseval
    weights; `node_mean` and `node_sup` are direct ufunc reductions,
    bitwise np.mean and np.max(np.abs(.)) without their Python wrappers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MeanNotZero

__all__ = [
    "MEAN_TOLERANCE",
    "PeriodicGrid",
    "ScalarField",
    "SymMatrixField",
    "make_grid",
    "kept_property",
    "to_spectrum",
    "from_spectrum",
    "spectral_inner",
    "fourier_multiplier",
    "partial",
    "gradient",
    "hessian",
    "hessian_from_spectrum",
    "mean",
    "node_mean",
    "node_sup",
    "node_partials",
    "project_mean_zero",
    "second_divergence",
    "second_divergence_spectrum",
    "second_divergence_values",
    "interpolate",
    "interpolate_fields",
    "periodicity_defect",
    "TrigInterpolant",
    "sup_norm",
    "partial_orders",
    "triangle_pairs",
    "pair_index",
    "pair_weights",
    "triangle_to_full",
    "full_to_triangle",
]

_TWO_PI = 2.0 * np.pi

#: A field is mean-zero when |mean f| <= MEAN_TOLERANCE * (1 + sup|f|).
MEAN_TOLERANCE = 1e-10


class kept_property:
    """`functools.cached_property` without its lock, which Python 3.10 and
    3.11 take class-wide on every first access (about ten per Newton step):
    the value is computed on first access and kept in the instance dict,
    frozen dataclasses included.  Threads racing on a first access may
    each compute it, all the same value, and one of them is kept."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _whole(value, name: str) -> int:
    """`value` as an int; ValueError naming it unless it is a whole number."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


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
        dim = _whole(self.dim, "grid dimension")
        if dim < 1:
            raise ValueError(f"grid dimension must be >= 1, got {dim}")
        res = tuple(
            _whole(n, f"resolution along axis {axis}")
            for axis, n in enumerate(self.resolution)
        )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "resolution", res)
        if len(res) != dim:
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
        return math.prod(self.resolution)

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

    @kept_property
    def spectrum_shape(self) -> tuple[int, ...]:
        """Shape of a field's real-FFT spectrum."""
        return self.resolution[:-1] + (self.resolution[-1] // 2 + 1,)

    @kept_property
    def parseval_weights(self) -> np.ndarray:
        """Weights along the last real-FFT axis that make the half-spectrum
        sum the node mean: 1 on the modes 0 and N/2, 2 on the others (each
        stands for its conjugate mirror too), over node_count^2; kept
        read-only."""
        weights = np.full(self.resolution[-1] // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        weights /= float(self.node_count) ** 2
        weights.setflags(write=False)
        return weights

    @kept_property
    def second_multipliers(self) -> np.ndarray:
        """`fourier_multiplier` of the second partials, kept for the Krylov
        apply."""
        return fourier_multiplier(self, partial_orders(self.dim, 2))

    def check_points(self, points) -> np.ndarray:
        """`points` (one point, or one per row; on a 1D grid also a vector of
        P points) as a finite (P, dim) float array, else ValueError: the one
        check of off-grid points."""
        pts = np.asarray(points, dtype=float)
        pts = pts[:, None] if self.dim == 1 and pts.ndim == 1 else np.atleast_2d(pts)
        if pts.ndim != 2:
            raise ValueError(f"points must be a (P, n) array, got shape {pts.shape}")
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, grid has {self.dim}"
            )
        if not np.isfinite(pts).all():
            raise ValueError("evaluation points must be finite")
        return pts


def make_grid(dim: int, resolution) -> PeriodicGrid:
    """Create a periodic grid; rejects odd, undersized or fractional sizes."""
    if np.isscalar(resolution):
        resolution = (resolution,) * _whole(dim, "grid dimension")
    return PeriodicGrid(dim=dim, resolution=tuple(resolution))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per grid node, row-major with the last axis fastest.

    The values are a read-only copy of what the field is given, so no
    later write to the input changes the field under its kept sup,
    mean-zero test and spectrum.
    """

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("scalar field values must be real, got complex")
        vals = np.array(self.values, dtype=float, order="C")
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"value shape {vals.shape} does not match grid "
                f"resolution {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("scalar field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @kept_property
    def sup(self) -> float:
        """sup|f| over the nodes, kept (the values are read-only)."""
        return node_sup(self.values)

    @kept_property
    def mean_bound(self) -> float:
        """MEAN_TOLERANCE * (1 + sup|f|): the largest |mean| of a mean-zero field."""
        return MEAN_TOLERANCE * (1.0 + self.sup)

    @kept_property
    def mean_zero(self) -> bool:
        """The package's one zero-mean test, kept (the values are read-only)."""
        return abs(mean(self)) <= self.mean_bound

    @kept_property
    def spectrum(self) -> np.ndarray:
        """The field's one real-FFT spectrum (`to_spectrum`), built on first
        use and kept read-only: its only forward transform."""
        spectrum = to_spectrum(self.grid, self.values)
        spectrum.setflags(write=False)
        return spectrum

    @kept_property
    def interpolant(self) -> "TrigInterpolant":
        """The field's one trigonometric interpolant, built on first use and
        kept with its coefficient stacks."""
        return TrigInterpolant(self)

    def require_mean_zero(self) -> None:
        if not self.mean_zero:
            raise MeanNotZero(mean(self), self.mean_bound)

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
    """Index pairs (i <= j) of an n x n symmetric matrix, row by row: the
    component order of every triangle stack, as in `SymMatrixField`."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@functools.lru_cache(maxsize=None)
def pair_index(n: int) -> np.ndarray:
    """(n, n) table of the triangle component of entry (i, j) (or (j, i)),
    built once per n and kept read-only."""
    index = np.empty((n, n), dtype=int)
    for k, (i, j) in enumerate(triangle_pairs(n)):
        index[i, j] = index[j, i] = k
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=None)
def pair_weights(n: int) -> np.ndarray:
    """(m,) weights, 1 on the diagonal and 2 off it, kept read-only per n:
    sum_k w_k M_k S_k is the contraction sum_ij M^ij S_ij."""
    weights = np.array([1.0 if i == j else 2.0 for i, j in triangle_pairs(n)])
    weights.setflags(write=False)
    return weights


def triangle_to_full(stack) -> np.ndarray:
    """Symmetric (..., n, n) matrices from a component-first triangle stack
    (m, ...), m = n(n+1)/2, whose component k holds entry
    `triangle_pairs(n)[k]`; `full_to_triangle` is its inverse."""
    stack = np.asarray(stack, dtype=float)
    m = len(stack)
    n = (math.isqrt(8 * m + 1) - 1) // 2
    if m == 0 or n * (n + 1) // 2 != m:
        raise ValueError(f"{m} entries are not the triangle of a square matrix")
    return np.moveaxis(stack, 0, -1)[..., pair_index(n)]


def full_to_triangle(full) -> np.ndarray:
    """Component-first triangle stack (m, ...) of (..., n, n) matrices,
    symmetrized exactly: component (i, j) is a_ij / 2 + a_ji / 2 where the
    two differ, so a symmetric matrix keeps its bits and nothing overflows.
    The inverse of `triangle_to_full`."""
    full = np.asarray(full, dtype=float)
    if full.ndim < 2 or full.shape[-1] != full.shape[-2]:
        raise ValueError(f"shape {full.shape} is not a stack of square matrices")
    rows, cols = np.array(triangle_pairs(full.shape[-1])).T
    upper, lower = full[..., rows, cols], full[..., cols, rows]  # fresh arrays
    differ = upper != lower
    upper[differ] = 0.5 * upper[differ] + 0.5 * lower[differ]
    return np.moveaxis(upper, -1, 0)


@dataclass(frozen=True, eq=False)
class SymMatrixField:
    """Symmetric n x n matrix per node as a triangle stack: entries has
    shape (m, *grid.shape), m = n(n+1)/2, and component k holds entry
    `triangle_pairs(n)[k]`, in the order (0,0), (0,1), ..., (0,n-1), (1,1), ...

    Symmetry is structural: only the triangle entries exist.  The stacks of
    `hessian_from_spectrum` and `second_divergence_spectrum` share this
    layout, and `triangle_to_full`, `full_to_triangle` and `pair_index`, its
    one interface, convert it to and from (*grid.shape, n, n) matrices as
    it is, with no transpose.  The class is only the public matrix-field
    container; its entries are a read-only copy, as `ScalarField`'s are.
    """

    grid: PeriodicGrid
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.dim
        shape = (n * (n + 1) // 2,) + self.grid.shape
        if np.iscomplexobj(self.entries):
            raise ValueError("matrix field entries must be real, got complex")
        vals = np.array(self.entries, dtype=float, order="C")
        if vals.shape != shape:
            raise ValueError(f"entry shape {vals.shape} is not {shape}")
        if not np.isfinite(vals).all():
            raise ValueError("matrix field contains non-finite entries")
        vals.setflags(write=False)
        object.__setattr__(self, "entries", vals)


# ---------------------------------------------------------------------------
# spectral differentiation


@functools.lru_cache(maxsize=None)
def partial_orders(dim: int, total: int) -> tuple[tuple[int, ...], ...]:
    """Per-axis orders of all partials of order `total`, the package's one
    source of derivative multi-indices: the axes in turn for total 1, the
    triangle pairs in `triangle_pairs` order for total 2."""
    return tuple(
        tuple(axes.count(a) for a in range(dim))
        for axes in itertools.combinations_with_replacement(range(dim), total)
    )


@functools.lru_cache(maxsize=128)
def fourier_multiplier(grid: PeriodicGrid, orders) -> np.ndarray:
    """Fourier multipliers of the mixed partials `orders` (a tuple of
    per-axis multi-indices), stacked first and cached read-only per grid.

    Entry k is prod_a (2 pi i k_a)^orders[k][a]; odd orders zero the
    Nyquist mode of their axis, even orders keep it.  Laid out for
    real-FFT spectra (the last axis keeps its N/2 + 1 non-negative
    modes, Nyquist last).  The stack is real when every total order is
    even, complex otherwise.
    """
    # as Python ints, so that 1j ** k below is Python's exact power
    orders = [_check_axes(grid, axes) for axes in orders]
    sizes = list(grid.resolution)
    sizes[-1] = sizes[-1] // 2 + 1
    mults = []
    for axes in orders:
        factors = []
        for axis, order in enumerate(axes):
            factor = (_TWO_PI * grid.wavenumbers(axis)[: sizes[axis]]) ** order
            if order % 2 == 1:
                factor[grid.resolution[axis] // 2] = 0.0
            factors.append(factor)
        mults.append(functools.reduce(np.multiply.outer, factors) * 1j ** sum(axes))
    stack = np.stack(mults)
    if all(sum(axes) % 2 == 0 for axes in orders):
        stack = np.ascontiguousarray(stack.real)
    stack.setflags(write=False)
    return stack


def _first_grid_axis(a: np.ndarray, shape: tuple[int, ...], what: str) -> int:
    """The first of the trailing axes of `a`, which must have `shape`."""
    first = a.ndim - len(shape)
    if first < 0 or a.shape[first:] != shape:
        raise ValueError(f"{what} shape {a.shape} does not end in {shape}")
    return first


def to_spectrum(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Real-FFT spectrum over the trailing grid axes of a field or of a
    component-first stack: the last axis keeps its N/2 + 1 non-negative
    modes, Nyquist last.  ValueError unless the trailing axes have the
    grid's shape, which the kernels would crop or pad to.

    `np.fft.rfftn`'s passes, bitwise, without numpy's wrappers: the real
    transform of the last axis into a fresh array, then the complex ones
    in place from the last axis but one down.
    """
    kernels = np.fft._pocketfft_umath
    first = _first_grid_axis(values, grid.shape, "values")
    spectrum = np.empty(values.shape[:first] + grid.spectrum_shape, complex)
    kernels.rfft_n_even(values, 1.0, out=spectrum)  # core axis: the last
    for axis in range(values.ndim - 2, first - 1, -1):
        kernels.fft(spectrum, 1.0, axes=[(axis,), (), (axis,)], out=spectrum)
    return spectrum


def from_spectrum(grid: PeriodicGrid, spectrum: np.ndarray) -> np.ndarray:
    """Node values of a real-FFT spectrum, of a field or of a stack: the
    inverse of `to_spectrum`.  ValueError unless the trailing axes have
    the shape `PeriodicGrid.spectrum_shape`.

    `np.fft.irfftn`'s passes, bitwise, without numpy's wrappers: the
    complex inverses scaled by 1/N_a from the first axis on, the first
    into a fresh array (the input is never overwritten), then the real
    inverse of the last axis scaled by 1/N.
    """
    kernels = np.fft._pocketfft_umath
    first = _first_grid_axis(spectrum, grid.spectrum_shape, "spectrum")
    for axis in range(first, spectrum.ndim - 1):
        out = np.empty(spectrum.shape, complex) if axis == first else spectrum
        kernels.ifft(spectrum, 1.0 / grid.resolution[axis - first],
                     axes=[(axis,), (), (axis,)], out=out)
        spectrum = out
    values = np.empty(spectrum.shape[:first] + grid.shape)
    kernels.irfft(spectrum, 1.0 / grid.resolution[-1], out=values)  # the last axis
    return values


def spectral_inner(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Node mean of x * y for the real fields x, y whose real-FFT spectra
    are `a` and `b` (Parseval), with no transform."""
    return float(np.vdot(a, b * grid.parseval_weights).real)


def node_partials(f: ScalarField, orders) -> np.ndarray:
    """The partials `orders` of a field at the nodes, component-first: its
    kept spectrum times their multipliers, then one batched inverse; read
    by `partial`, `gradient` and `Potential.node_third_partials`."""
    return from_spectrum(f.grid, f.spectrum * fourier_multiplier(f.grid, orders))


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
    return ScalarField(f.grid, node_partials(f, (axes,))[0])


def gradient(f: ScalarField) -> list[ScalarField]:
    """All first partials, from the field's one spectrum."""
    partials = node_partials(f, partial_orders(f.grid.dim, 1))
    return [ScalarField(f.grid, d) for d in partials]


def hessian_from_spectrum(grid: PeriodicGrid, spectrum: np.ndarray) -> np.ndarray:
    """Second partials, component-first (m, *grid.shape), of the field with
    real-FFT spectrum `spectrum`: one batched inverse over all m multiplied
    spectra.  Components follow the triangle order of `SymMatrixField`."""
    return from_spectrum(grid, grid.second_multipliers * spectrum)


def hessian(f: ScalarField) -> SymMatrixField:
    """All second partials as a symmetric matrix field, from the field's
    one spectrum."""
    return SymMatrixField(f.grid, hessian_from_spectrum(f.grid, f.spectrum))


def node_mean(values: np.ndarray) -> float:
    """Average of a float64 array's entries, bitwise `np.mean`."""
    return float(np.add.reduce(values, axis=None) / values.size)


def node_sup(values: np.ndarray) -> float:
    """Largest |entry| of a float64 array, bitwise `np.max(np.abs(values))`."""
    return float(np.maximum.reduce(np.abs(values), axis=None))


def mean(f: ScalarField) -> float:
    """Average of node values == integral over [0,1]^n (unit volume)."""
    return node_mean(f.values)


def project_mean_zero(f: ScalarField) -> ScalarField:
    """Subtract the mean; fixes the additive-constant gauge."""
    return ScalarField(f.grid, f.values - mean(f))


def sup_norm(f: ScalarField) -> float:
    return f.sup


def second_divergence_spectrum(grid: PeriodicGrid, stack: np.ndarray) -> np.ndarray:
    """Centers each component of `stack` in place, then returns the real-FFT
    spectrum of the sum over triangle pairs k = (i, j) of
    d^2 stack_k / dx_i dx_j.

    `stack` is a writable component-first (m, *grid.shape) array that the
    caller gives up: on return it holds the centered components.  Each
    pair counts once, so the full double divergence of a symmetric field
    passes its off-diagonal entries doubled.  One batched forward real
    transform of the centered components, then the multiplier sum; the
    multipliers vanish on the zero mode, so the result's is exactly zero.
    """
    # centering is exact (the zero mode is annihilated) and avoids
    # scattering the large DC coefficient's rounding into high modes,
    # which the fourth-order multipliers would amplify
    for comp in stack:
        comp -= node_mean(comp)
    acc = 0.0
    for mult, spectrum in zip(grid.second_multipliers, to_spectrum(grid, stack)):
        acc = acc + mult * spectrum
    return acc


def second_divergence_values(grid: PeriodicGrid, entries: np.ndarray) -> np.ndarray:
    """Node values of the double divergence sum_ij d^2 M^ij / dx_i dx_j of
    the symmetric field with triangle stack `entries`, accumulated in
    frequency space with one inverse transform: its zero mode is zero."""
    # the weights are exact (1 or 2), so they commute bitwise with the transform
    weights = pair_weights(grid.dim).reshape((-1,) + (1,) * grid.dim)
    return from_spectrum(grid, second_divergence_spectrum(grid, weights * entries))


def second_divergence(M: SymMatrixField) -> ScalarField:
    """Double divergence of a matrix field (`second_divergence_values`)."""
    return ScalarField(M.grid, second_divergence_values(M.grid, M.entries))


# ---------------------------------------------------------------------------
# trigonometric interpolation


#: Bytes one block of evaluation points may hold in its first-axis product:
#: block points times stack columns, 8-byte (float64) entries.  Wide stacks
#: (a 3D Hessian) would get so few points per block that the fixed cost of
#: each block's numpy calls dominates, so no block holds fewer than
#: _BLOCK_MIN_POINTS points, whatever its bytes.
_BLOCK_BYTES = 256 * 1024
_BLOCK_MIN_POINTS = 64
#: Bytes a span's tables and their complex scratch may hold, and a block's
#: too, unless _BLOCK_MIN_POINTS points' tables need more: the bound on
#: one call's tables the module docstring states.
_SPAN_BYTES = 1024 * 1024


def _real_axis_coefficients(coeffs: np.ndarray, axis: int, band: int,
                            last: bool) -> np.ndarray:
    """Re-express the coefficients along `axis` in the real basis
    [1, cos 2 pi x, sin 2 pi x, cos 4 pi x, sin 4 pi x, ..., cos pi N x]
    (cosine and sine of each 0 < k <= band, k < N/2, in turn): a_cos =
    c_k + c_-k and a_sin = i (c_k - c_-k); the DC and the split Nyquist
    entries carry over unchanged, the Nyquist one only when `band` is N/2
    (the full basis).  So a narrower band's basis is a prefix of a wider
    one's.  The `last` axis holds the real-FFT half k = 0..N/2 and goes
    last, when the others are in the real basis: there a real field's c_-k
    is conj(c_k), so a_cos = 2 Re c_k, a_sin = -2 Im c_k."""
    c = np.moveaxis(coeffs, axis, 0)
    half = c.shape[0] - 1 if last else c.shape[0] // 2
    pairs = min(band, half - 1)
    pos = c[1 : pairs + 1]
    neg = pos.conj() if last else c[::-1][:pairs]
    out = np.empty((1 + 2 * pairs + (band == half),) + c.shape[1:], complex)
    out[0] = c[0]
    out[1 : 2 * pairs + 1 : 2] = pos + neg
    out[2 : 2 * pairs + 2 : 2] = 1j * (pos - neg)
    if band == half:
        out[-1] = c[half]
    return np.moveaxis(out, 0, axis)


def _fill_table(x: np.ndarray, table: np.ndarray, powers: np.ndarray) -> None:
    """Write the real basis along one axis at the points `x` into `table`,
    (rows, points): row 0 is 1, rows 2k - 1 and 2k are cos 2 pi k x and
    sin 2 pi k x, the real and imaginary parts of the powers w^k of
    w = exp(2 pi i x), which go through the complex scratch `powers`
    (rows // 2 or more, points).  The only trigonometric calls are the
    cosine and sine of w (the parts of np.exp(2 pi i x), at about half its
    cost)."""
    rows, half = len(table), len(table) // 2
    table[0] = 1.0
    if half:
        w = powers[:half]
        # x - floor(x) is bitwise np.mod(x, 1.0), at a tenth of its cost
        theta = _TWO_PI * (x - np.floor(x))
        np.cos(theta, out=w[0].real)
        np.sin(theta, out=w[0].imag)
        for k in range(1, half):
            np.multiply(w[k - 1], w[0], out=w[k])
        table[1::2] = w.real  # cos 2 pi k x, Nyquist last if full
        table[2::2] = w[: (rows - 1) // 2].imag


def _block_partials(stack: np.ndarray, tables: list) -> np.ndarray:
    """Partials at one block of points from its per-axis tables, (points,
    rows) each: one real GEMM for the first axis, then batched real row
    products for the rest."""
    acc = tables[0] @ stack
    for t in tables[1:]:
        acc = np.matmul(t[:, None, :], acc.reshape(*t.shape, -1))[:, 0]
    return acc


def _stacked_partials(pts: np.ndarray, stacks: list) -> np.ndarray:
    """The columns of several coefficient stacks at the same (P, dim)
    points, side by side: `stacks` holds (stack, rows per axis, columns
    wanted) per interpolant.

    Points go in blocks of bounded memory (`_BLOCK_BYTES` over 8-byte
    entries per column of the widest stack, and tables within
    `_SPAN_BYTES`, but at least `_BLOCK_MIN_POINTS` points) and blocks in
    spans of whole blocks whose tables, with their complex scratch, stay
    within `_SPAN_BYTES` (or one block).  Per span, each axis's table is
    built once, to the widest band any stack has on that axis, into the
    call's one buffer; each stack reads the prefix rows of its own
    band (the real basis nests, see `_real_axis_coefficients`).  A table
    row depends on its point alone, and every first-axis product is a GEMM
    of at least two points and two columns on the points-innermost table,
    which BLAS rounds row by row: a matrix-vector product would round a row
    by its position.  So neither blocks, spans, nor the other stacks change
    a bit, and a row is what its point gives alone."""
    wide = [max(rows[a] for _, rows, _ in stacks) for a in range(pts.shape[1])]
    half = max(wide) // 2
    # bytes per point of the tables and their complex scratch
    table_bytes = 8 * (sum(wide) + 2 * half)
    columns = max(stack.shape[1] for stack, _, _ in stacks)
    block = max(_BLOCK_MIN_POINTS,
                min(_BLOCK_BYTES // (8 * columns), _SPAN_BYTES // table_bytes))
    span = block * max(1, _SPAN_BYTES // (block * table_bytes))
    # one row more: a one-point block goes in with its point twice
    size = min(span, len(pts)) + 1
    # one buffer: an array per table plus one for the scratch ran verify 13% slower
    work = np.empty(size * table_bytes // 8)
    powers = work[: 2 * half * size].view(complex).reshape(half, size)
    tables, at = [], 2 * half * size
    for rows in wide:
        tables.append(work[at : at + rows * size].reshape(rows, size))
        at += rows * size
    out = np.empty((len(pts), sum(wanted for _, _, wanted in stacks)))
    for start in range(0, len(pts), span):
        x = pts[start : start + span]
        n = len(x)
        if n % block == 1:
            x = np.concatenate([x, x[-1:]])
        for a, table in enumerate(tables):
            _fill_table(x[:, a], table[:, : len(x)], powers[:, : len(x)])
        for lo in range(0, n, block):
            m, hi = min(block, n - lo), min(lo + block, len(x))
            rows_out = out[start + lo : start + lo + m]
            col = 0
            for stack, rows, wanted in stacks:
                views = [t[:r, lo:hi].T for t, r in zip(tables, rows)]
                rows_out[:, col : col + wanted] = _block_partials(stack, views)[:m, :wanted]
                col += wanted
    return out


class TrigInterpolant:
    """Band-limited interpolant of a sampled field and its partials.

    The Nyquist coefficient of each (even) axis is split symmetrically
    between +N/2 and -N/2 (basis cos(pi N x)), which makes the interpolant
    real-valued and reproduces node values to the field's rounding
    plateau.  Partials follow `partial`: odd orders zero the Nyquist mode,
    even orders keep it.

    Each axis keeps only its band K_a (`band`): the largest |k_a| of a
    Fourier coefficient above eps * sup|f|, the plateau the rounding of the
    node values puts under the spectrum.  The coefficients outside
    |k_a| <= K_a are dropped, so a partial moves by at most their sum times
    their multipliers; an axis with Nyquist content above the plateau
    (K_a = N/2) keeps the full basis.  The coefficients are the field's
    one real-FFT spectrum (`ScalarField.spectrum`) over the node count.

    Evaluation works in the real separable basis, along each axis
    [1, cos 2 pi x, sin 2 pi x, ..., cos 2 pi K_a x, sin 2 pi K_a x] (the
    Nyquist cosine cos pi N x last, on a full band only), so all products
    are real.  Partials asked for together share one cached coefficient
    stack: the coefficients times the multipliers, mapped axis by axis onto
    that basis (`_real_axis_coefficients`), the real-FFT axis last by
    conjugate symmetry, and kept as its real part.  Evaluation is
    `_stacked_partials`: per span of point blocks one cos/sin table per
    axis, then per block one real GEMM for the first axis and batched real
    row products for the rest.  A row is its point's own value, whatever
    the other points.  Work is O(P * kept modes) per field.
    """

    def __init__(self, f: ScalarField):
        grid = self.grid = f.grid
        self._coeffs = f.spectrum / grid.node_count
        resolved = np.nonzero(np.abs(self._coeffs) > np.finfo(float).eps * sup_norm(f))
        self._band = tuple(int(np.abs(grid.wavenumbers(a)[k]).max(initial=0))
                           for a, k in enumerate(resolved))
        # basis functions per axis: all N on a full band, else 1 + 2 K
        self._rows = tuple(n if k == n // 2 else 2 * k + 1
                           for n, k in zip(grid.resolution, self._band))
        self._stacks: dict = {}

    @property
    def band(self) -> tuple[int, ...]:
        """Per axis, the largest |k_a| of a coefficient above the rounding
        plateau eps * sup|f|; N/2 means the full basis."""
        return self._band

    def _stack(self, orders: tuple) -> tuple[np.ndarray, tuple[int, ...], int]:
        """Real-basis coefficients of the partials `orders` on the band, as
        (rows_0, rest * fields) float64, with the rows per axis and the
        field count: `_stacked_partials`' entry.  A one-column stack gets a
        zero column, so that its first-axis product is a GEMM."""
        if orders not in self._stacks:
            grid = self.grid
            mults = fourier_multiplier(grid, orders)
            stack = np.moveaxis(self._coeffs * mults, 0, -1)
            for axis in range(grid.dim):
                stack = _real_axis_coefficients(stack, axis, self._band[axis],
                                                last=axis == grid.dim - 1)
            stack = np.ascontiguousarray(stack.real).reshape(self._rows[0], -1)
            if stack.shape[1] == 1:
                stack = np.hstack([stack, np.zeros_like(stack)])
            stack.setflags(write=False)
            self._stacks[orders] = (stack, self._rows, len(orders))
        return self._stacks[orders]

    def partials(self, points, orders) -> np.ndarray:
        """Mixed partials at a (P, dim) array of points, shape (P, fields);
        `orders` holds one per-axis multi-index per field, as for `partial`.
        Raises ValueError unless `PeriodicGrid.check_points` accepts them.
        """
        grid = self.grid
        pts = grid.check_points(points)
        if len(orders) == 0:
            raise ValueError("no partials requested: `orders` is empty")
        orders = tuple(_check_axes(grid, axes) for axes in orders)
        return _stacked_partials(pts, [self._stack(orders)])

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at a (P, dim) array of points (wrapped periodically; in
        1D also a (P,) vector), or at one point (a (dim,) vector, or a
        scalar or one-entry vector in 1D) to a float."""
        pts = np.asarray(points, dtype=float)
        out = self.partials(pts, [(0,) * self.grid.dim])[:, 0]
        return float(out[0]) if pts.ndim < 2 and out.size == 1 else out


def interpolate_fields(fields, points) -> np.ndarray:
    """Values of several fields at the same (P, dim) points, shape
    (P, fields), in one pass: each span's tables are built once, to the
    widest band, and each field's interpolant reads its own band's rows.
    Column i is bitwise `fields[i].interpolant.evaluate(points)`.  The
    fields share one dimension; raises ValueError unless the first one's
    `PeriodicGrid.check_points` accepts the points."""
    if not fields:
        raise ValueError("no fields to interpolate")
    pts = fields[0].grid.check_points(points)
    if any(f.grid.dim != pts.shape[1] for f in fields):
        raise ValueError("fields of different dimensions")
    value = ((0,) * pts.shape[1],)
    return _stacked_partials(pts, [f.interpolant._stack(value) for f in fields])


def interpolate(f: ScalarField, point) -> float:
    """Trigonometric interpolation of f at one point in R^n.

    Agrees with stored values at nodes to the field's rounding plateau
    (see `TrigInterpolant` for the band rule) and with the underlying
    function at arbitrary points whenever f is band-limited below Nyquist.
    Points outside [0,1)^n are wrapped by periodicity.
    """
    return f.interpolant.evaluate(np.asarray(point, dtype=float))


def periodicity_defect(f: ScalarField) -> float:
    """2-norm of the Fourier coefficients with |k_a| > N_a / 3 on some axis
    (above 2/3 of that axis's Nyquist frequency), relative to the 2-norm
    of all of them, read off the field's one spectrum (Parseval).

    Smooth periodic fields have (super)algebraically small tails;
    non-periodic samplings (such as "x1") leak O(1/k) energy into the
    highest modes.  The CLI warns above 1e-8.  The moduli are scaled by the
    largest before squaring, so no scale of f underflows or overflows.
    """
    modulus = np.abs(f.spectrum)
    largest = modulus.max()
    if largest == 0.0:
        return 0.0
    power = (modulus / largest) ** 2 * f.grid.parseval_weights
    total = power.sum()
    outer = functools.reduce(np.logical_or.outer, [
        np.abs(f.grid.wavenumbers(a)[:n]) > f.grid.resolution[a] // 3
        for a, n in enumerate(power.shape)
    ])
    return float(np.sqrt(power[outer].sum() / total))
