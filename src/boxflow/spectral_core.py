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

Samples and half-spectra share one layout, FFTW's in-place real one: the N
samples of a row sit in the float64 view of that row's N/2+1 complex slots.
`_irfftn` writes the samples over its buffer (a copy of the spectrum, or the
spectrum itself when the caller hands it over) and returns the `[..., :N]`
view, "padded samples" whose rows are N+2 floats apart; `_rfftn` writes a
spectrum over padded samples it is handed.  So a field moves between samples
and spectrum in one buffer.  Padded samples are values like any others, but
a sum or mean over them runs in another pairwise order than over a
contiguous array: every sum whose bits the reports carry runs over a fresh
contiguous array (a square, a product, a boolean selection) or a spectrum.

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
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DataError, UsageError

_workers = 1
_pool = None  # `_workers` - 1 threads that share `_map` with its caller; None at 1


def set_default_workers(n: int) -> None:
    """Set the worker count n: the threads `_map` runs every transform's
    passes and the solver stage's slabs on, the calling thread and a pool
    of n - 1 (none at 1).  n must be an int >= 1.

    The count picks no code path: every transform and slab runs the same
    code at any n.  Each pass transforms independent 1-d lines and each
    chunk or slab writes only its own rows, so results are bit-identical
    for any worker count; only 1 is the documented reference configuration.
    Leaving n > 1 shuts the pool down and joins its threads.
    """
    global _workers, _pool
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigurationError(f"worker count must be >= 1 and an int, got {n!r}")
    if n != _workers:
        if _pool is not None:
            _pool.shutdown()
        _pool = ThreadPoolExecutor(n - 1, "boxflow-slab") if n > 1 else None
    _workers = n


def _map(fn, items) -> list:
    """[fn(x) for x in items]: the calling thread and min(n, len(items)) - 1
    of the pool's threads each take the next item until none is left (at one
    worker, the caller alone, in order).  The caller works rather than
    waits: a pool thread more would keep one more slab's working set in its
    allocator arena.  fn must not call `_map`: the pool thread running it
    would wait on a drain only it could run."""
    items = list(items)
    out = [None] * len(items)
    todo, lock = iter(range(len(items))), threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            out[i] = fn(items[i])

    futures = [_pool.submit(drain) for _ in range(min(_workers, len(items)) - 1)]
    try:
        drain()
    finally:
        wait(futures)  # no item is still running once the call returns
    for f in futures:
        f.result()  # raises a pool thread's exception
    return out


# Every transform in the package goes through these helpers, and each runs
# numpy.fft's unnormalized 1-d pocketfft passes.  They map the samples of a
# real field to its half-spectrum m_3 = 0..N/2 (last axis) and back.
_SLAB = 8  # rows of axis -3 per slab of the passes that run on `_map`'s threads
_CHUNK = 1 << 16  # elements: a smaller chunk costs less than handing it to a thread


def _rfftn(a: np.ndarray, consume: bool = False) -> np.ndarray:
    """scipy.fft.rfftn(a, axes=(-3, -2, -1), norm="forward") bit for bit.

    When consume, a is padded samples the caller hands over, and the
    spectrum is written over them into their buffer: each slab's r2c pass
    reads a copy of its own rows, which numpy makes as it would for any
    output that overlaps its input."""
    n = a.shape[-1]
    out = _padded_buffer(a) if consume else np.empty(a.shape[:-1] + (n // 2 + 1,), complex)
    scale = float(1 / np.longdouble(n) ** 3)

    def chunk(rows):  # r2c and its scaling a slab at a time, while it is in cache
        for r in range(rows.start, min(rows.stop, n), _SLAB):
            at = (Ellipsis, slice(r, min(r + _SLAB, rows.stop)), slice(None), slice(None))
            re_im = _rfft(a[at], out[at]).view(np.float64)
            re_im *= scale

    _map(chunk, _chunks(out, -3))
    return _fft_split(_fft_split(out, -3), -2)


def _irfftn(a: np.ndarray, n: int, consume: bool = False) -> np.ndarray:
    """scipy.fft.irfftn(a, (n, n, n), norm="forward") bit for bit, as padded
    samples over one buffer: a copy of a or, when consume, a itself.  One
    component at a time: c2c along axis -3, then per slab of rows c2c along
    -2 and c2r along -1 written over the slab's own columns, so no N^3
    temporary is made beside the buffer."""
    buf = a if consume else a.copy()
    for b in buf[None] if buf.ndim == 3 else buf:
        _fft_split(b, -3, inverse=True)

        def slab(r):
            rows = _fft(b[r : r + _SLAB], -2, inverse=True)
            _irfft(rows, n, out=rows.view(np.float64)[..., :n])

        _map(slab, range(0, n, _SLAB))
    return buf.view(np.float64)[..., :n]


def _padded(shape: tuple, zero: bool = False) -> np.ndarray:
    """Padded samples of shape (..., N, N, N) over a fresh buffer, zeros or
    unset, for a caller that builds samples to transform in place."""
    n = shape[-1]
    buf = (np.zeros if zero else np.empty)(shape[:-1] + (n // 2 + 1,), complex)
    return buf.view(np.float64)[..., :n]


def _padded_buffer(p: np.ndarray) -> np.ndarray:
    """The half-spectrum buffer of the padded samples p (see the module
    docstring); anything else is rejected."""
    buf, n = p.base, p.shape[-1]
    if not (
        isinstance(buf, np.ndarray)
        and buf.dtype == complex
        and buf.flags.c_contiguous
        and buf.shape == p.shape[:-1] + (n // 2 + 1,)
        and buf.ctypes.data == p.ctypes.data
    ):
        raise UsageError("only padded samples can be transformed in place")
    return buf


# Unnormalized 1-d passes on the calling thread.  pocketfft runs irfftn as c2c
# along axis -3, -2, then c2r along -1, and rfftn as r2c along -1 scaled by
# T(1/N^3) (long double), then c2c along -3, -2: passes taken in that order and
# scaled alike give the same bits.  A c2c pass writes its result into a, a view
# of a wider array too.
def _fft(a: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    fft, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    return fft(a, axis=axis, norm=norm, out=a)


def _irfft(a: np.ndarray, n: int, out=None) -> np.ndarray:  # missing columns count as 0
    return np.fft.irfft(a, n, axis=-1, norm="forward", out=out)


def _rfft(a: np.ndarray, out=None) -> np.ndarray:
    return np.fft.rfft(a, axis=-1, out=out)


def _chunks(a: np.ndarray, axis: int) -> list[slice]:
    """a's rows along axis in one chunk per worker, but in no more chunks
    than a holds `_CHUNK`s of elements: a whole-array pass runs on `_map`'s
    threads split along an axis it does not transform."""
    n = a.shape[axis]
    step = -(-n // max(1, min(_workers, a.size // _CHUNK)))
    return [slice(r, r + step) for r in range(0, n, step)]


def _slabs(a: np.ndarray) -> list[slice]:
    """a's rows along axis -3 in slabs of at most `_CHUNK` elements of a,
    all components counted (at least one row): a pointwise pass run slab by
    slab makes temporaries of one slab, not of the whole array."""
    step = max(1, _CHUNK * a.shape[-3] // a.size)
    return [slice(r, r + step) for r in range(0, a.shape[-3], step)]


def _fft_split(a: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    """`_fft` of a whole array along axis -3 or -2, on `_map`'s threads by
    `_chunks` of the other axis."""
    tail = (slice(None),) * (axis + 4)  # the axes after the split one
    _map(lambda rows: _fft(a[(Ellipsis, rows) + tail], axis, inverse), _chunks(a, -5 - axis))
    return a


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
        if not np.isfinite(N) or N != int(N) or int(N) < 8 or int(N) % 2 != 0:
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

    @property
    def two_thirds_cut(self) -> int:
        """The 2/3 rule: the largest |m_i| kept, (N - 1) // 3, so a mode is
        kept when 3|m_i| < N on every axis.  Strict, so a sum of two kept
        modes aliases only onto dropped ones."""
        return (self.N - 1) // 3

    @cached_property
    def two_thirds_mask(self) -> np.ndarray:
        """`two_thirds_cut` on the half-spectrum as 1.0 (kept) / 0.0 (dropped)."""
        keep = np.abs(self.modes1d) <= self.two_thirds_cut
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
    the module docstring).  The spectrum of samples is computed on demand
    and cached; the samples of a spectrum are computed on each read of
    `physical` and never kept, so a caller that reads them twice holds them
    in a local or a view `Field(grid, physical=..., spectral=...)`.

    Samples read from a spectrum are padded samples, a fresh buffer of the
    spectrum's shape seen as its `[..., :N]` float64 view, and the caller
    may write to them.  Samples may be given in either layout; the field
    never writes to the samples or the spectrum it was given.
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
        """The samples: those given, else a fresh transform of the spectrum."""
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
        p = self.physical
        if self.rank == "scalar":
            return np.abs(p)
        acc = p[0] ** 2  # summed in place, in np.sum's order
        for p_i in p[1:]:
            acc += p_i**2
        return np.sqrt(acc, out=acc)

    def component(self, i: int) -> "Field":
        if self.rank != "vector":
            raise UsageError("component() applies to vector fields")
        if self._physical is not None:
            return Field(self.grid, physical=self._physical[i], spectral=None if self._spectral is None else self._spectral[i])
        return Field.from_spectral(self.grid, self._spectral[i])

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
    out = np.empty(fh.shape[1:], complex)
    for rows in _slabs(fh):  # i(kx f_x + ky f_y + kz f_z), summed into out
        o, f_r = out[rows], fh[:, rows]
        np.multiply(kx[rows], f_r[0], out=o)
        o += ky * f_r[1]
        o += kz * f_r[2]
        o *= 1j
    return Field(f.grid, spectral=out)


def curl(f: Field) -> Field:
    """Spectral curl of a vector field."""
    if f.rank != "vector":
        raise UsageError("curl expects a vector field")
    return Field(f.grid, spectral=_curl(f.spectral, f.grid.k_axes()))


def _curl(fh: np.ndarray, k, out=None) -> np.ndarray:
    """The array core of `curl`, for wavevector components k on fh's modes:
    k[0] runs along axis -3, k[1] and k[2] broadcast along it.

    Writes the curl into out, fh's shape and possibly a view of a wider
    array or fh itself (a new array when None), and returns it.  It runs in
    `_slabs` of fh's rows, so its only temporaries are one slab's k_l f_j
    and, when out is fh, a copy of the slab's input."""
    out = np.empty_like(fh) if out is None else out
    kx, ky, kz = k
    for rows in _slabs(fh):
        f_r = fh[:, rows].copy() if out is fh else fh[:, rows]
        o, k_r = out[:, rows], (kx[rows], ky, kz)
        for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # (curl f)_i = i(k_j f_l - k_l f_j)
            np.multiply(k_r[j], f_r[l], out=o[i])
            o[i] -= k_r[l] * f_r[j]
        o *= 1j
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
