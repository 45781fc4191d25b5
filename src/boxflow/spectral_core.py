"""Periodic box grids, sampled fields, and constant-coefficient spectral operators.

Fields live on the cubic torus (-alpha, alpha)^3 sampled on a uniform N^3
lattice.  Spectral coefficients follow the Fourier-series convention

    f(x) = sum_k fhat_k exp(i k.(x + alpha)),    k = (pi/alpha) * m,

with integer triples m in [-N/2, N/2)^3: the phase origin sits at the box
corner (plain forward-normalized FFT of the samples), which shifts each
coefficient by (-1)^(m1+m2+m3) relative to a center-origin expansion.  Every
operator in this package is a diagonal multiplier in k (ik, |k|^2, masks),
so the corner origin is never observable outside the raw phases.  A constant
field has fhat_0 equal to that constant and Parseval reads
int |f|^2 = (2 alpha)^3 sum |fhat|^2.

Every field is real, so only its half-spectrum is stored (the rfftn layout,
last axis m_3 = 0..N/2, shape (..., N, N, N/2+1)); the coefficients with
m_3 < 0 are conj(fhat_{-m}).  The first two axes hold m_1, m_2 in FFT order.
A sum over the full spectrum counts the columns m_3 = 1..N/2-1 twice
(`BoxGrid.mult`).  The last column is the +-N/2 plane: its entries stand for
both m_3 = N/2 and m_3 = -N/2, counted once.

The m_i = -N/2 (Nyquist) modes have no negation partner on the grid, so
every differential operator here forces their wavevector component to zero
(on the last axis: the whole +-N/2 column).  That keeps the operator algebra
closed to machine precision (div curl = 0, curl grad = 0, laplacian =
div grad) at the cost of ignoring content that resolved fields do not carry
anyway.

Grids meant to be compared share the lattice spacing h = 2*alpha/N: a larger
box means proportionally larger N, and the lattices of nested boxes then
coincide point for point, so extension never resamples.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import ConfigurationError, DataError, UsageError

_workers = 1
_pool = None  # `_workers` - 1 threads that share `_map` with its caller; None at 1


def set_default_workers(n: int) -> None:
    """Set the worker count n: the scipy.fft workers of every whole-array
    transform, and the threads `_map` runs the solver stage's slabs on, the
    calling thread and a pool of n - 1 (1 is the deterministic reference
    path, with no pool).

    Transforms are batches of independent 1-d FFTs and each slab writes
    only its own rows, so results are bit-identical for any worker count;
    only 1 is the documented reference configuration.  Leaving n > 1 shuts
    the pool down and joins its threads.
    """
    global _workers, _pool
    if int(n) < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n!r}")
    n = int(n)
    if n != _workers:
        if _pool is not None:
            _pool.shutdown()
        _pool = ThreadPoolExecutor(n - 1, "boxflow-slab") if n > 1 else None
    _workers = n


def _map(fn, items) -> list:
    """[fn(x) for x in items], run in order at one worker; at n workers the
    calling thread and the pool's n - 1 threads each take the next item
    until none is left.  The caller works rather than waits: a pool thread
    more would keep one more slab's working set in its allocator arena."""
    items = list(items)
    if _pool is None:
        return [fn(x) for x in items]
    out = [None] * len(items)
    todo, lock = iter(range(len(items))), threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            out[i] = fn(items[i])

    futures = [_pool.submit(drain) for _ in range(_workers - 1)]
    try:
        drain()
    finally:
        wait(futures)  # no item is still running once the call returns
    for f in futures:
        f.result()  # raises a pool thread's exception
    return out


# Every transform in the package goes through these helpers, so the worker
# count of `set_default_workers` reaches all of them: as FFT workers, or as
# `_map`'s threads for the slab passes below.  They map the samples of a
# real field to its half-spectrum m_3 = 0..N/2 (last axis) and back.
_AXES = (-3, -2, -1)


def _rfftn(a: np.ndarray) -> np.ndarray:
    return scipy.fft.rfftn(a, axes=_AXES, norm="forward", workers=_workers)


def _irfftn(a: np.ndarray, n: int) -> np.ndarray:
    # One worker: per component (same bits, a third of the c2r's scratch).  Threaded
    # calls (vector `Field.samples`) stay batched: split, an N=64 solve ran 18% slower.
    if a.ndim > 3 and _workers == 1:
        out = np.empty(a.shape[:-3] + (n, n, n))
        for a_i, out_i in zip(a, out):
            out_i[...] = _irfftn(a_i, n)
        return out
    return scipy.fft.irfftn(
        a, s=(n, n, n), axes=_AXES, norm="forward", workers=_workers
    )


# Unnormalized 1-d passes.  pocketfft runs `_irfftn` as c2c along axis -3, -2, then
# c2r along -1, and `_rfftn` as r2c along -1 scaled by T(1/N^3) (long double), then
# c2c along -3, -2: passes taken in that order and scaled alike give the same bits.
# A c2c pass writes its result into a (overwrite_x), a view of a wider array too.
# The c2r and r2c are the solver stage's slab passes: they run on `_map`'s threads,
# so each takes one worker, as does a c2c pass given workers=1.
def _fft(a: np.ndarray, axis: int, inverse: bool = False, workers=None) -> np.ndarray:
    fft, norm = (scipy.fft.ifft, "forward") if inverse else (scipy.fft.fft, "backward")
    return fft(a, axis=axis, norm=norm, overwrite_x=True, workers=workers or _workers)


def _irfft(a: np.ndarray, n: int) -> np.ndarray:  # missing columns count as 0
    return scipy.fft.irfft(a, n, axis=-1, norm="forward", workers=1)


def _rfft(a: np.ndarray) -> np.ndarray:
    return scipy.fft.rfft(a, axis=-1, workers=1)


def _max_abs(a: np.ndarray) -> float:
    """max |a| without the copy that np.abs would make."""
    return float(np.maximum(a.max(), -a.min()))


class BoxGrid:
    """Uniform N^3 sampling lattice on the periodic cube (-alpha, alpha)^3.

    Args:
        alpha: box half-width, > 0.
        N: even number of samples per axis, >= 8.
    """

    def __init__(self, alpha: float, N: int):
        if not np.isfinite(alpha) or alpha <= 0:
            raise ConfigurationError(f"box half-width must be positive, got {alpha!r}")
        if N != int(N) or int(N) < 8 or int(N) % 2 != 0:
            raise ConfigurationError(f"N must be an even integer >= 8, got {N!r}")
        self.alpha = float(alpha)
        self.N = int(N)

    @property
    def h(self) -> float:
        """Lattice spacing 2*alpha/N."""
        return 2.0 * self.alpha / self.N

    @property
    def volume(self) -> float:
        return (2.0 * self.alpha) ** 3

    @cached_property
    def x1d(self) -> np.ndarray:
        """Sample coordinates along one axis, [-alpha, alpha - h]."""
        return -self.alpha + self.h * np.arange(self.N)

    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the lattice, shape (N, N, N), built by broadcasting."""
        x2 = self.x1d**2
        return x2[:, None, None] + x2[None, :, None] + x2[None, None, :]

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full 3-d coordinate arrays indexed [x, y, z]."""
        return np.meshgrid(self.x1d, self.x1d, self.x1d, indexing="ij")

    @cached_property
    def modes1d(self) -> np.ndarray:
        """Integer mode numbers m in FFT storage order, m in [-N/2, N/2)."""
        return np.rint(np.fft.fftfreq(self.N) * self.N).astype(np.int64)

    @cached_property
    def k1d(self) -> np.ndarray:
        """Wavevector components (pi/alpha) * m, Nyquist row included."""
        return (np.pi / self.alpha) * self.modes1d

    @cached_property
    def k1d_diff(self) -> np.ndarray:
        """Wavevector components for differentiation: Nyquist entry zeroed."""
        k = self.k1d.copy()
        k[self.modes1d == -self.N // 2] = 0.0
        return k

    def k_axes(self):
        """The three differentiation wavevector components shaped for
        broadcasting over the half-spectrum: the last axis holds
        m_3 = 0..N/2, its last entry the (zeroed) +-N/2 plane."""
        k = self.k1d_diff
        return k[:, None, None], k[None, :, None], k[None, None, : self.N // 2 + 1]

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 on the half-spectrum (true wavevectors, Nyquist included)."""
        k, m = self.k1d, self.N // 2 + 1
        return k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :m] ** 2

    @cached_property
    def ksq_diff(self) -> np.ndarray:
        """|k|^2 built from the differentiation wavevectors."""
        kx, ky, kz = self.k_axes()
        return kx**2 + ky**2 + kz**2

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1 / `ksq_diff`, and 0 where that vanishes: the zero mode and the
        modes whose every component is 0 or Nyquist."""
        ksq = self.ksq_diff
        return np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0.0)

    @cached_property
    def mult(self) -> np.ndarray:
        """How often each half-spectrum column occurs in the full spectrum:
        2 for m_3 = 1..N/2-1, 1 for the m_3 = 0 and +-N/2 columns."""
        mult = np.full(self.N // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        return mult

    @cached_property
    def two_thirds_mask(self) -> np.ndarray:
        """The 2/3 rule on the half-spectrum as 1.0 (kept) / 0.0 (dropped):
        a mode is kept when 3|m_i| < N on every axis.  Strict, so a sum of
        two kept modes aliases only onto dropped ones."""
        keep = 3 * np.abs(self.modes1d) < self.N
        return (
            keep[:, None, None] & keep[None, :, None] & keep[: self.N // 2 + 1]
        ) * 1.0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoxGrid)
            and self.alpha == other.alpha
            and self.N == other.N
        )

    def __hash__(self) -> int:
        return hash((self.alpha, self.N))

    def __repr__(self) -> str:
        return f"BoxGrid(alpha={self.alpha!r}, N={self.N})"


class Field:
    """A real scalar or 3-vector field on a BoxGrid.

    Holds physical samples (float64, shape (N,N,N) or (3,N,N,N)) and/or the
    rfftn half-spectrum (complex128, shape (N,N,N/2+1) or (3,N,N,N/2+1), see
    the module docstring); whichever is missing is computed on demand and
    cached, so a field is transformed at most once each way; `samples`
    gives the physical samples of a spectrum without caching them.  On one
    worker a vector's inverse transform runs per component.  Instances are
    treated as immutable: arithmetic returns new fields.
    """

    def __init__(self, grid: BoxGrid, physical=None, spectral=None):
        if physical is None and spectral is None:
            raise UsageError("Field needs physical samples or spectral coefficients")
        self.grid = grid
        self._physical = physical
        self._spectral = spectral
        n = grid.N
        if physical is not None:
            shape, lattice, label = physical.shape, (n, n, n), "N"
        else:
            shape, lattice, label = spectral.shape, (n, n, n // 2 + 1), "N/2+1"
        if shape == lattice:
            self.rank = "scalar"
        elif shape == (3,) + lattice:
            self.rank = "vector"
        else:
            raise UsageError(
                f"field shape {shape} does not match grid N={n} "
                f"(expected (N,N,{label}) or (3,N,N,{label}))"
            )

    @classmethod
    def from_physical(cls, grid: BoxGrid, values) -> "Field":
        return cls(grid, physical=np.asarray(values, dtype=np.float64))

    @classmethod
    def from_spectral(cls, grid: BoxGrid, coeffs) -> "Field":
        return cls(grid, spectral=np.asarray(coeffs, dtype=np.complex128))

    @property
    def physical(self) -> np.ndarray:
        if self._physical is None:
            self._physical = self.samples()
        return self._physical

    def samples(self) -> np.ndarray:
        """The physical samples, not cached when transformed from the spectrum."""
        if self._physical is not None:
            return self._physical
        if not np.all(np.isfinite(self._spectral.view(np.float64))):
            raise DataError("non-finite spectral coefficients")
        return _irfftn(self._spectral, self.grid.N)

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            if not np.all(np.isfinite(self._physical)):
                raise DataError("non-finite field samples")
            self._spectral = _rfftn(self._physical)
        return self._spectral

    @property
    def has_spectral(self) -> bool:
        return self._spectral is not None

    def mean_value(self) -> np.ndarray:
        """Lattice mean per component (equals the k = 0 coefficient exactly)."""
        if self._spectral is not None:
            return np.real(self._spectral[..., 0, 0, 0])
        return self._physical.mean(axis=(-3, -2, -1))

    def magnitude(self) -> np.ndarray:
        """Pointwise |f|: abs for scalars, Euclidean norm for vectors."""
        if self.rank == "scalar":
            return np.abs(self.physical)
        acc = self.physical[0] ** 2  # summed in place, in np.sum's order
        for p_i in self.physical[1:]:
            acc += p_i**2
        return np.sqrt(acc, out=acc)

    def component(self, i: int) -> "Field":
        if self.rank != "vector":
            raise UsageError("component() applies to vector fields")
        if self._physical is not None:
            return Field(self.grid, physical=self._physical[i], spectral=None if self._spectral is None else self._spectral[i])
        return Field.from_spectral(self.grid, self._spectral[i])

    def _binary(self, other, op):
        if not isinstance(other, Field):
            return NotImplemented
        if other.grid != self.grid or other.rank != self.rank:
            raise UsageError("field arithmetic needs matching grids and ranks")
        if self._spectral is not None and other._spectral is not None:
            return Field(self.grid, spectral=op(self._spectral, other._spectral))
        return Field(self.grid, physical=op(self.physical, other.physical))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        if self._spectral is not None:
            return Field(
                self.grid,
                physical=None if self._physical is None else c * self._physical,
                spectral=c * self._spectral,
            )
        return Field(self.grid, physical=c * self._physical)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __repr__(self) -> str:
        return f"Field({self.rank}, {self.grid!r})"


def gradient(f: Field) -> Field:
    """Spectral gradient of a scalar field (rank scalar -> vector)."""
    if f.rank != "scalar":
        raise UsageError("gradient expects a scalar field")
    fh = f.spectral
    out = np.empty((3,) + fh.shape, dtype=np.complex128)
    for k_i, out_i in zip(f.grid.k_axes(), out):
        np.multiply(1j * k_i, fh, out=out_i)
    return Field(f.grid, spectral=out)


def divergence(f: Field) -> Field:
    """Spectral divergence of a vector field (rank vector -> scalar)."""
    if f.rank != "vector":
        raise UsageError("divergence expects a vector field")
    kx, ky, kz = f.grid.k_axes()
    fh = f.spectral
    return Field(f.grid, spectral=1j * (kx * fh[0] + ky * fh[1] + kz * fh[2]))


def curl(f: Field) -> Field:
    """Spectral curl of a vector field."""
    if f.rank != "vector":
        raise UsageError("curl expects a vector field")
    return Field(f.grid, spectral=_curl(f.spectral, f.grid.k_axes()))


def _curl(fh: np.ndarray, k) -> np.ndarray:
    """The array core of `curl`, for wavevector components k on fh's modes."""
    out = np.empty_like(fh)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # (curl f)_i = i(k_j f_l - k_l f_j)
        np.multiply(k[j], fh[l], out=out[i])
        out[i] -= k[l] * fh[j]
    out *= 1j
    return out


def laplacian(f: Field) -> Field:
    """Spectral Laplacian, componentwise for vector fields."""
    return Field(f.grid, spectral=-f.grid.ksq_diff * f.spectral)


def leray_project(f: Field) -> Field:
    """L^2-orthogonal projection onto divergence-free vector fields.

    In spectral space u_k -> u_k - k (k.u_k)/|k|^2 for k != 0; the k = 0
    (mean) mode is untouched.  Uses the differentiation wavevectors, so the
    projected field is annihilated by `divergence` to machine precision.
    """
    if f.rank != "vector":
        raise UsageError("leray_project expects a vector field")
    g = f.grid
    return Field(g, spectral=_leray_in_place(f.spectral.copy(), g.k_axes(), g.inv_ksq))


def _leray_in_place(fh: np.ndarray, k, inv_ksq: np.ndarray) -> np.ndarray:
    """The array core of `leray_project`, for k and `inv_ksq` on fh's
    modes: overwrites the vector spectrum fh with its projection."""
    kx, ky, kz = k
    coef = (kx * fh[0] + ky * fh[1] + kz * fh[2]) * inv_ksq
    for k_i, f_i in zip(k, fh):
        f_i -= k_i * coef
    return fh


def dilate(f: Field, alpha: float) -> Field:
    """The field x -> f(x * alpha_old / alpha) on Q_alpha, same N.

    Pure dilation relabels the lattice, so the samples (and spectral
    coefficients) are shared with f; only the wavevectors change.
    """
    grid = BoxGrid(alpha, f.grid.N)
    return Field(grid, physical=f._physical, spectral=f._spectral)


def _lattice_lp(values: np.ndarray, h: float, p: float) -> float:
    if np.isinf(p):
        return float(np.max(values))
    return float((np.sum(values**p) * h**3) ** (1.0 / p))


def _deriv_magnitude(f: Field, order: int) -> np.ndarray:
    """Pointwise Euclidean magnitude over all derivatives of given order.

    order 0: |f|; order 1: sqrt(sum_i |d_i f|^2) (summed over components
    too for vectors); order 2: same over all ordered pairs (i, j).
    """
    if order == 0:
        return f.magnitude()
    kaxes = f.grid.k_axes()
    fh = f.spectral
    comps = fh[None] if f.rank == "scalar" else fh
    acc = np.zeros((f.grid.N,) * 3)
    for c in comps:
        if order == 1:
            for ki in kaxes:
                acc += _irfftn(1j * ki * c, f.grid.N) ** 2
        else:
            for ki in kaxes:
                for kj in kaxes:
                    acc += _irfftn(-ki * kj * c, f.grid.N) ** 2
    return np.sqrt(acc)


@dataclass(frozen=True)
class ScalingReport:
    """Measured vs predicted norm ratio for a dilated field."""

    alpha: float
    p: float
    order: int
    norm_base: float
    norm_dilated: float
    measured_ratio: float
    predicted_ratio: float

    @property
    def rel_error(self) -> float:
        return abs(self.measured_ratio - self.predicted_ratio) / self.predicted_ratio


def rescale_field(f: Field, alpha: float, p: float, k: int) -> ScalingReport:
    """Check the norm scaling law for the dilation f_alpha(x) = f(x/alpha).

    For f on Q_1 the k-th derivatives obey
        || D^k f_alpha ||_{L^p(Q_alpha)} = alpha^(3/p - k) || D^k f ||_{L^p(Q_1)},
    measured here with the Euclidean magnitude over all order-k derivatives.

    Args:
        f: base field (conventionally on Q_1; any base box works, the law is
           applied with the ratio alpha/alpha_base).
        alpha: half-width of the dilated box.
        p: Lebesgue exponent >= 1 (np.inf allowed).
        k: derivative order, 0 <= k <= 2.
    """
    if k not in (0, 1, 2):
        raise UsageError(f"derivative order must be 0, 1 or 2, got {k!r}")
    if not np.isinf(p) and p < 1:
        raise UsageError(f"Lebesgue exponent must satisfy p >= 1, got {p!r}")
    lam = alpha / f.grid.alpha
    if lam <= 0:
        raise ConfigurationError("target alpha must be positive")
    g = dilate(f, alpha)
    norm_base = _lattice_lp(_deriv_magnitude(f, k), f.grid.h, p)
    norm_dilated = _lattice_lp(_deriv_magnitude(g, k), g.grid.h, p)
    predicted = lam ** ((0.0 if np.isinf(p) else 3.0 / p) - k)
    measured = norm_dilated / norm_base
    return ScalingReport(
        alpha=float(alpha),
        p=float(p),
        order=k,
        norm_base=norm_base,
        norm_dilated=norm_dilated,
        measured_ratio=measured,
        predicted_ratio=predicted,
    )

