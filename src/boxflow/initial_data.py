"""Compactly supported, divergence-free, zero-mean vorticity families.

Two deterministic generators:

* `bump_vorticity` — curl of a mollifier-shaped vector potential
  A = amplitude * g(|x|/r) * e with g(s) = exp(-9 s^2/(1-s^2)).  A curl is
  divergence-free and mean-free identically, so the construction needs no
  projection; the only imperfection is spectral truncation of the sampled
  profile, which leaks exponentially little outside the support ball as the
  resolution grows (the generator measures it, tests audit it across
  resolutions).

* `trefoil_vorticity` — a vortex tube along a (2,3) torus knot.  The field
  is the mollified line integral

      omega(x) = (strength / c_rho) * sum_j rho(|x - gamma_j|) gamma'_j dt,

  a closed-loop convolution whose continuum divergence vanishes identically
  (the integrand is a total derivative around the loop), sampled by the
  periodic trapezoid rule, which converges spectrally for this analytic
  integrand.  rho is a Gaussian in the tube distance cut off smoothly at
  three tube radii, and c_rho normalizes so `strength` is the circulation
  carried by a tube cross-section.  One Leray projection plus one support
  re-truncation mop up the (tiny) discretization residues; both residues are
  measured and attached to the result, never hidden.

A trefoil knot is chiral, so the integral H = int u . omega has a definite
sign; negative `strength` selects the mirror-image knot (z -> -z) with
circulation |strength|, which flips H's sign along with the sign of the
requested circulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .norms import relative_divergence
from .spectral_core import BoxGrid, Field, _curl, _slabs, leray_project
from .vorticity import VorticityField

_MOLLIFIER_RATE = 9.0


def mollifier(s: np.ndarray) -> np.ndarray:
    """The classic bump exp(-c/(1-s^2)), peak-normalized: exp(-c s^2/(1-s^2)).

    Identically 0 outside |s| < 1.  Near the center it looks like a Gaussian
    of scale 1/sqrt(c); c = 9 (`_MOLLIFIER_RATE`) puts that core at a third
    of the support radius, which keeps spectral truncation ringing at the
    1e-4 level even on grids with only ~8 points per support radius and
    drives it down superalgebraically from there.
    """
    s = np.asarray(s, dtype=np.float64)
    inside = np.abs(s) < 1.0
    # two full-size arrays: the exponent, and the denominator then the result
    arg = s * s
    out = np.subtract(1.0, arg, out=np.ones(s.shape), where=inside)
    arg *= -_MOLLIFIER_RATE
    arg /= out
    out.fill(0.0)
    return np.exp(arg, where=inside, out=out)


@dataclass(frozen=True)
class BumpSpec:
    """Mollifier vector potential: direction, size, and strength of the bump.

    `support_tol` bounds the acceptable spectral-truncation leak outside the
    support ball relative to max |omega|.  The default admits coarse grids
    (~4 points per support radius leak at the 1e-2 level); tighten it when
    the resolution is known to be generous — at 16 points per radius the
    measured leak is already below 1e-6, and it keeps falling
    superalgebraically.
    """

    support_radius: float
    amplitude: float = 1.0
    direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    support_tol: float = 1e-2


def bump_vorticity(spec: BumpSpec, grid: BoxGrid) -> VorticityField:
    """omega = curl(amplitude * g(|x|/r) * e), exactly div-free and mean-free.

    The field is checked against `spec.support_tol` and records the actual
    leak outside the support ball in `support_leak_rel` either way.
    """
    r = float(spec.support_radius)
    e = np.asarray(spec.direction, dtype=np.float64)
    norm = np.sqrt(np.sum(e * e))
    if norm == 0.0:
        raise UsageError("bump direction must be a nonzero vector")
    e = e / norm
    g = mollifier(np.sqrt(grid.radius_sq()) / r) * spec.amplitude
    # the potential's spectrum is e times that of the scalar profile: it is
    # made and curled one slab of rows at a time, never held whole
    ghat = Field.from_physical(grid, g).spectral
    del g
    kx, ky, kz = grid.k_axes()
    omega = np.empty((3,) + ghat.shape, complex)
    for rows in _slabs(omega):
        _curl(
            e[:, None, None, None] * ghat[rows], (kx[rows], ky, kz), out=omega[:, rows]
        )
    del ghat
    return VorticityField(Field(grid, spectral=omega), r, support_tol=spec.support_tol)


@dataclass(frozen=True)
class TrefoilSpec:
    """Vortex tube along a (2,3) torus knot.

    The knot lives on the torus with the given major radius and minor radius
    half of it; `tube_radius` is the Gaussian core scale (support reaches
    3x that); `strength` is the signed circulation (sign = chirality);
    `resolution` is the number of quadrature samples along the curve.
    `div_tol` and `support_tol` are the `VorticityField` tolerances the
    final field must meet.  The strict default `div_tol` needs the tube
    cross-section resolved by ~28 grid spacings (3a/h >= 28); coarser grids
    should pass the tolerance their resolution actually delivers.
    """

    major_radius: float
    tube_radius: float
    strength: float
    resolution: int = 512
    div_tol: float = 1e-10
    support_tol: float = 1e-6

    @property
    def support_radius(self) -> float:
        """Radius of the ball around the tube: max |gamma| + 3a, where the
        knot reaches 1.5 * major_radius at t = 0."""
        return 1.5 * self.major_radius + 3.0 * self.tube_radius


def _trefoil_curve(spec: TrefoilSpec) -> tuple[np.ndarray, np.ndarray]:
    """Points and derivatives of the knot, mirrored for negative strength."""
    t = np.linspace(0.0, 2.0 * np.pi, spec.resolution, endpoint=False)
    big_r, small_r = spec.major_radius, 0.5 * spec.major_radius
    # the z-mirror with positive writhe, so positive circulation gives
    # positive int u . omega; negative strength selects the other enantiomer
    chirality = -1.0 if spec.strength >= 0 else 1.0
    ring = big_r + small_r * np.cos(3 * t)
    gamma = np.stack(
        [ring * np.cos(2 * t), ring * np.sin(2 * t), chirality * small_r * np.sin(3 * t)],
        axis=1,
    )
    dgamma = np.stack(
        [
            -3 * small_r * np.sin(3 * t) * np.cos(2 * t) - 2 * ring * np.sin(2 * t),
            -3 * small_r * np.sin(3 * t) * np.sin(2 * t) + 2 * ring * np.cos(2 * t),
            chirality * 3 * small_r * np.cos(3 * t),
        ],
        axis=1,
    )
    return gamma, dgamma


def _tube_profile(dist: np.ndarray, a: float) -> np.ndarray:
    """Gaussian exp(-d^2/a^2) blended smoothly to zero at d = 3a."""
    s = dist / (3.0 * a)
    inside = s < 1.0
    out = np.zeros(dist.shape)
    denom = np.where(inside, 1.0 - s * s, 1.0)
    np.exp(-(dist / a) ** 2 / denom, where=inside, out=out)
    return out


def _profile_cross_section(a: float) -> float:
    """2D integral of the tube profile over a cross-sectional plane."""
    d = np.linspace(0.0, 3.0 * a, 4001)
    return float(2.0 * np.pi * np.trapezoid(_tube_profile(d, a) * d, d))


def trefoil_vorticity(spec: TrefoilSpec, grid: BoxGrid) -> VorticityField:
    """Sample the knotted tube, project once, re-truncate once.

    The returned field carries two audit attributes:
    `projection_div_rel` — relative divergence right after the projection
    (roundoff-level), and `truncation_leak_rel` — the largest relative
    magnitude the final support truncation removed.  The truncation is what
    limits the final field's divergence residual, at roughly the removed
    magnitude, which `spec.div_tol` bounds.  Like every `VorticityField`,
    the tube's ball B(0, `spec.support_radius`) must fit strictly inside
    the box.
    """
    a = float(spec.tube_radius)
    if a <= 0 or spec.major_radius <= 0 or spec.resolution < 1:
        raise UsageError(
            "tube and major radius must be positive and the resolution >= 1"
        )
    gamma, dgamma = _trefoil_curve(spec)
    support_radius = spec.support_radius

    x1d = grid.x1d
    n = grid.N
    cut = 3.0 * a
    raw = np.zeros((3, n, n, n))
    if spec.strength != 0.0:
        dt = 2.0 * np.pi / spec.resolution
        scale = spec.strength / _profile_cross_section(a)
        if spec.strength < 0:
            scale = -scale  # mirror knot carries circulation |strength|
        for point, tangent in zip(gamma, dgamma):
            lo = np.searchsorted(x1d, point - cut, side="left")
            hi = np.searchsorted(x1d, point + cut, side="right")
            if np.any(lo >= hi):
                continue
            wx = x1d[lo[0] : hi[0]] - point[0]
            wy = x1d[lo[1] : hi[1]] - point[1]
            wz = x1d[lo[2] : hi[2]] - point[2]
            dist = np.sqrt(
                wx[:, None, None] ** 2
                + wy[None, :, None] ** 2
                + wz[None, None, :] ** 2
            )
            prof = _tube_profile(dist, a) * (scale * dt)
            window = (
                slice(None),
                slice(lo[0], hi[0]),
                slice(lo[1], hi[1]),
                slice(lo[2], hi[2]),
            )
            raw[window] += tangent[:, None, None, None] * prof

    cleaned = leray_project(Field.from_physical(grid, raw)).spectral
    cleaned[..., 0, 0, 0] = 0.0
    field = Field.from_spectral(grid, cleaned)
    projection_div_rel = relative_divergence(field)

    phys = field.physical  # fresh samples of the spectrum: ours to write
    outside = grid.radius_sq() > support_radius**2
    peak = float(np.abs(phys).max())
    leak = float(np.abs(phys[:, outside]).max()) if peak else 0.0
    phys[:, outside] = 0.0

    result = VorticityField(
        Field.from_physical(grid, phys),
        support_radius,
        div_tol=spec.div_tol,
        support_tol=spec.support_tol,
    )
    result.projection_div_rel = projection_div_rel
    result.truncation_leak_rel = leak / peak if peak else 0.0
    return result

