"""Velocity reconstruction from vorticity, periodic and whole-space.

Periodic route: on Q_alpha the div-free velocity with curl u = omega is
recovered spectrally,

    uhat_k = (i k x omegahat_k) / |k|^2,   uhat_0 = 0,

exact on the grid up to roundoff.  Whole-space route: direct quadrature of
the Biot-Savart integral

    u(x) = -(1/4 pi) sum_y (x - y)/|x - y|^3 x omega(y) h^3,

summed over the lattice points of the support, self-term omitted.  The
quadrature costs O(support size) per point and serves purely as an oracle
for validating the periodic inversion against its whole-space limit; it is
never used inside any solver loop.

For divergence-free u the gradient and the curl carry the same energy,
||grad u||_L2 = ||curl u||_L2 — spectrally this is the per-mode identity
|k|^2 |uhat|^2 = |k x uhat|^2 + |k . uhat|^2 with the last term zero.
The inversion study checks it on every box (``curl_identity_per_row``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainTooSmallError, SupportError, UsageError
from .norms import relative_divergence
from .spectral_core import BoxGrid, Field, _curl, _max_abs

# Largest accepted |mean of omega| / max |omega|.
_MEAN_RTOL = 1e-10


class VorticityField:
    """A vector field declared to be a vorticity: div-free, zero-mean, and
    supported in the ball B(0, support_radius), which must fit strictly
    inside the box.

    Construction first rejects a radius >= alpha (`DomainTooSmallError`),
    then measures and stores the actual residuals (`div_rel`, `mean_rel`,
    `support_leak_rel`) and rejects the field when they exceed `div_tol`,
    `_MEAN_RTOL` and `support_tol`.  `support_tol` may be loosened — even to
    inf — for analytically periodic test data that is not compactly
    supported; the radius is then declarative but must still fit the box.
    """

    def __init__(
        self,
        omega: Field,
        support_radius: float,
        *,
        div_tol: float = 1e-10,
        support_tol: float = 1e-6,
    ):
        if omega.rank != "vector":
            raise UsageError("vorticity must be a vector field")
        if not np.isfinite(support_radius) or support_radius <= 0:
            raise UsageError(
                f"support radius must be positive, got {support_radius!r}"
            )
        if support_radius >= omega.grid.alpha:
            raise DomainTooSmallError(
                f"support radius {support_radius} does not fit strictly inside "
                f"Q_{omega.grid.alpha}"
            )
        self.omega = omega
        self.support_radius = float(support_radius)

        # the scale and |omega| from one component's samples at a time, the
        # squares summed in `Field.magnitude`'s order; a spectrum's samples
        # are a fresh transform, squared in place, and are not kept
        fresh = omega._physical is None
        scale, magnitude = 0.0, None
        for i in range(3):
            p = omega.component(i).physical
            scale = float(np.maximum(scale, _max_abs(p)))  # NaN propagates
            sq = np.square(p, out=p) if fresh else p**2
            if magnitude is None:
                magnitude = sq
            else:
                magnitude += sq
            del p, sq
        np.sqrt(magnitude, out=magnitude)
        # the leak before the divergence check, so |omega| dies first
        outside = omega.grid.radius_sq() > self.support_radius**2
        leak = float(np.max(magnitude, where=outside, initial=0.0))
        del magnitude, outside
        if scale == 0.0:
            self.div_rel = self.mean_rel = self.support_leak_rel = 0.0
            return

        self.div_rel = relative_divergence(omega)
        if self.div_rel > div_tol:
            raise DataError(
                f"vorticity is not divergence-free: relative divergence "
                f"{self.div_rel:.3e} > {div_tol:.1e}"
            )
        self.mean_rel = float(np.abs(omega.mean_value()).max()) / scale
        if self.mean_rel > _MEAN_RTOL:
            raise DataError(
                f"vorticity carries a mean: relative mean {self.mean_rel:.3e}"
            )
        self.support_leak_rel = leak / scale
        if self.support_leak_rel > support_tol:
            raise SupportError(
                f"vorticity leaks outside B(0, {self.support_radius}): "
                f"relative magnitude {self.support_leak_rel:.3e}"
            )

    @property
    def grid(self) -> BoxGrid:
        return self.omega.grid


def curl_inv_periodic(w: VorticityField) -> Field:
    """Divergence-free, zero-mean u on Q_alpha with curl u = omega.

    A `VorticityField` fits strictly inside its box, so the periodic field
    can stand in for the whole-space one.

    Consumes w: u's spectrum is written over omega's, slab by slab, and w
    is left without its `omega`.  A caller that reads omega afterwards
    copies it first.
    """
    g = w.grid
    inv_ksq = g.inv_ksq  # first: its mask dies before the curl runs
    omega, w.omega = w.omega.spectral, None
    uhat = _curl(omega, g.k_axes(), out=omega)
    uhat *= inv_ksq
    return Field.from_spectral(g, uhat)


@dataclass(frozen=True)
class BiotSavartResult:
    """Velocities at the query points, with per-point resolution warnings."""

    velocities: np.ndarray  # (M, 3)
    under_resolved: np.ndarray  # (M,) bool: query within h/2 of a source point


def biot_savart_r3(w: VorticityField, query_points) -> BiotSavartResult:
    """Whole-space Biot-Savart quadrature over the support lattice points.

    The kernel sample at y = x is omitted (the integral is absolutely
    convergent; the omitted cell contributes O(h)).  Query points closer
    than h/2 to a source lattice point are answered but flagged
    under-resolved.
    """
    pts = np.asarray(query_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise UsageError("query points must have shape (M, 3)")
    g = w.grid
    x = g.x1d
    inside = g.radius_sq() <= w.support_radius**2
    xs, ys_, zs = np.meshgrid(x, x, x, indexing="ij")
    sources = np.stack([xs[inside], ys_[inside], zs[inside]], axis=1)  # (K, 3)
    weights = w.omega.physical[:, inside].T  # (K, 3)

    velocities = np.zeros_like(pts)
    under = np.zeros(len(pts), dtype=bool)
    if sources.size == 0:
        return BiotSavartResult(velocities, under)
    prefactor = g.h**3 / (4.0 * np.pi)
    for i, p in enumerate(pts):
        d = p[None, :] - sources  # (K, 3)
        dist = np.sqrt(np.sum(d * d, axis=1))
        keep = dist > 1e-12
        under[i] = bool(np.any(dist[keep] < 0.5 * g.h)) or not np.all(keep)
        dk = d[keep]
        inv3 = dist[keep] ** -3
        # u = (1/4pi) sum omega x (x - y) / |x - y|^3 * h^3
        velocities[i] = prefactor * np.sum(
            np.cross(weights[keep], dk) * inv3[:, None], axis=0
        )
    return BiotSavartResult(velocities, under)
