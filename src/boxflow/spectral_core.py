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

The m_i = -N/2 (Nyquist) rows have no negation partner on the grid, so every
differential operator here forces their wavevector component to zero.  That
keeps the operator algebra closed to machine precision (div curl = 0,
curl grad = 0, laplacian = div grad) at the cost of ignoring content that
resolved fields do not carry anyway.

Grids meant to be compared share the lattice spacing h = 2*alpha/N: a larger
box means proportionally larger N, and the lattices of nested boxes then
coincide point for point, so extension and restriction never resample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.fft

from .errors import ConfigurationError, DataError, UsageError

_workers = 1


def set_default_workers(n: int) -> None:
    """Set the scipy.fft worker count (1 is the deterministic reference path).

    Transforms are batches of independent 1-d FFTs, so results are
    bit-reproducible for any fixed worker count; only 1 is the documented
    reference configuration.
    """
    global _workers
    if int(n) < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {n!r}")
    _workers = int(n)


def get_default_workers() -> int:
    return _workers


# Every transform in the package goes through these helpers, so the worker
# count of `set_default_workers` reaches all of them.  The real pair works on
# the half-spectrum m_3 = 0..N/2 (last axis) of a real field.
_AXES = (-3, -2, -1)


def _fftn(a: np.ndarray) -> np.ndarray:
    return scipy.fft.fftn(a, axes=_AXES, norm="forward", workers=_workers)


def _ifftn(a: np.ndarray) -> np.ndarray:
    return scipy.fft.ifftn(a, axes=_AXES, norm="forward", workers=_workers)


def _rfftn(a: np.ndarray) -> np.ndarray:
    return scipy.fft.rfftn(a, axes=_AXES, norm="forward", workers=_workers)


def _irfftn(a: np.ndarray, n: int) -> np.ndarray:
    return scipy.fft.irfftn(
        a, s=(n, n, n), axes=_AXES, norm="forward", workers=_workers
    )


def _hermitian_fill(half: np.ndarray) -> np.ndarray:
    """Full coefficients of a real field from its half-spectrum: columns
    m_3 = N/2+1 .. N-1 become conj(fhat_{-m}), stored ones are copied."""
    n = half.shape[-2]
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    neg = -np.arange(n) % n
    mirror = half[..., neg, :, n // 2 - 1 : 0 : -1][..., neg, :]
    np.conjugate(mirror, out=full[..., n // 2 + 1 :])
    return full


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

    def k_axes(self, diff: bool = True):
        """The three wavevector components shaped for broadcasting over [x,y,z]."""
        k = self.k1d_diff if diff else self.k1d
        return k[:, None, None], k[None, :, None], k[None, None, :]

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 on the full mode lattice (true wavevectors, Nyquist included)."""
        kx, ky, kz = self.k_axes(diff=False)
        return kx**2 + ky**2 + kz**2

    @cached_property
    def ksq_diff(self) -> np.ndarray:
        """|k|^2 built from the differentiation wavevectors."""
        kx, ky, kz = self.k_axes(diff=True)
        return kx**2 + ky**2 + kz**2

    @cached_property
    def dealias_keep1d(self) -> np.ndarray:
        """Boolean 3|m| < N mask along one axis (the 2/3 rule); strict, so a
        sum of two kept modes aliases only onto dropped ones."""
        return 3 * np.abs(self.modes1d) < self.N

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

    Holds physical samples (float64, shape (N,N,N) or (3,N,N,N)) and/or
    spectral coefficients (complex128, same shape); whichever is missing is
    computed on demand and cached.  Instances are treated as immutable:
    arithmetic returns new fields.
    """

    def __init__(self, grid: BoxGrid, physical=None, spectral=None):
        if physical is None and spectral is None:
            raise UsageError("Field needs physical samples or spectral coefficients")
        self.grid = grid
        self._physical = physical
        self._spectral = spectral
        shape = physical.shape if physical is not None else spectral.shape
        n = grid.N
        if shape == (n, n, n):
            self.rank = "scalar"
        elif shape == (3, n, n, n):
            self.rank = "vector"
        else:
            raise UsageError(
                f"field shape {shape} does not match grid N={n} "
                "(expected (N,N,N) or (3,N,N,N))"
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
            if not np.all(np.isfinite(self._spectral.view(np.float64))):
                raise DataError("non-finite spectral coefficients")
            self._physical = np.ascontiguousarray(_ifftn(self._spectral).real)
        return self._physical

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            if not np.all(np.isfinite(self._physical)):
                raise DataError("non-finite field samples")
            self._spectral = _fftn(self._physical)
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
        return np.sqrt(np.sum(self.physical**2, axis=0))

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
    kx, ky, kz = f.grid.k_axes()
    fh = f.spectral
    out = np.empty((3,) + fh.shape, dtype=np.complex128)
    out[0] = 1j * kx * fh
    out[1] = 1j * ky * fh
    out[2] = 1j * kz * fh
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
    kx, ky, kz = f.grid.k_axes()
    fh = f.spectral
    out = np.empty_like(fh)
    out[0] = 1j * (ky * fh[2] - kz * fh[1])
    out[1] = 1j * (kz * fh[0] - kx * fh[2])
    out[2] = 1j * (kx * fh[1] - ky * fh[0])
    return Field(f.grid, spectral=out)


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
    kx, ky, kz = f.grid.k_axes()
    fh = f.spectral
    ksq = f.grid.ksq_diff
    kdotu = kx * fh[0] + ky * fh[1] + kz * fh[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(ksq > 0.0, kdotu / np.where(ksq > 0.0, ksq, 1.0), 0.0)
    out = np.empty_like(fh)
    out[0] = fh[0] - kx * coef
    out[1] = fh[1] - ky * coef
    out[2] = fh[2] - kz * coef
    return Field(f.grid, spectral=out)


def dealias(f: Field) -> Field:
    """Zero all coefficients with any 3|m_i| >= N (the 2/3 rule)."""
    keep = f.grid.dealias_keep1d
    mask = (
        keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
    )
    return Field(f.grid, spectral=f.spectral * mask)


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
    acc = np.zeros(comps.shape[1:], dtype=np.float64)
    for c in comps:
        if order == 1:
            for ki in kaxes:
                acc += _ifftn(1j * ki * c).real ** 2
        else:
            for ki in kaxes:
                for kj in kaxes:
                    acc += _ifftn(-ki * kj * c).real ** 2
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


# ---------------------------------------------------------------------------
# Snapshot files: raw little-endian float64 in x-fastest order plus a sidecar
# text file with `key = value` lines (alpha, N, rank, time, name).
# ---------------------------------------------------------------------------

_RANK_LABEL = {"scalar": "scalar", "vector": "vector3"}
_LABEL_RANK = {v: k for k, v in _RANK_LABEL.items()}


def write_snapshot(f: Field, base_path, *, name: str = "field", time: float = 0.0) -> Path:
    """Write <base>.f64 (raw data) and <base>.meta (sidecar) for a field.

    Data layout: float64 little-endian, x index fastest, then y, then z;
    vector fields store component 0 fully, then 1, then 2.
    """
    base = Path(base_path)
    data = f.physical
    comps = data[None] if f.rank == "scalar" else data
    with open(base.with_suffix(".f64"), "wb") as fh:
        for c in comps:
            fh.write(np.ascontiguousarray(c.transpose(2, 1, 0)).astype("<f8").tobytes())
    meta = {
        "name": name,
        "alpha": repr(f.grid.alpha),
        "N": str(f.grid.N),
        "rank": _RANK_LABEL[f.rank],
        "time": repr(float(time)),
        "dtype": "float64-le",
        "order": "x-fastest",
    }
    with open(base.with_suffix(".meta"), "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key} = {val}\n")
    return base.with_suffix(".f64")


def read_snapshot(base_path) -> tuple[Field, dict]:
    """Read a snapshot written by `write_snapshot`; returns (field, metadata)."""
    base = Path(base_path)
    meta: dict[str, str] = {}
    with open(base.with_suffix(".meta")) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            meta[key.strip()] = val.strip()
    try:
        alpha = float(meta["alpha"])
        n = int(meta["N"])
        rank = _LABEL_RANK[meta["rank"]]
        time = float(meta["time"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"bad snapshot metadata in {base}.meta: {exc}") from exc
    grid = BoxGrid(alpha, n)
    ncomp = 1 if rank == "scalar" else 3
    raw = np.fromfile(base.with_suffix(".f64"), dtype="<f8")
    if raw.size != ncomp * n**3:
        raise DataError(
            f"snapshot {base}.f64 holds {raw.size} values, expected {ncomp * n**3}"
        )
    comps = raw.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1)
    data = comps[0] if rank == "scalar" else comps
    field = Field.from_physical(grid, data)
    meta_out = dict(meta)
    meta_out["time"] = time
    return field, meta_out
